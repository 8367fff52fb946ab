"""The three benchmark workloads: inputs, run, output digest and claims.

Each workload runs on one instance seed (2005, or the held-out 2006; see
``perfbench/digests.json``), which sets both ``DatasetConfig.seed`` (or
the internetwork seed) and ``ExperimentConfig.seed``. ``setup`` builds the
inputs, ``run`` drives the public experiment entry point, ``canonical``
picks the part of the result that :func:`canonical_digest` hashes and
``claims`` returns the paper claims the result must satisfy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
from dataclasses import replace

import numpy as np

from repro.experiments.bandwidth import run_bandwidth_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import run_distance_experiment
from repro.experiments.internetwork import run_multi_isp
from repro.experiments.parallel import pairs_for
from repro.topology.internetwork import InternetworkConfig, build_internetwork

__all__ = ["WORKLOADS", "canonical_digest"]

#: Relative tolerance of the bandwidth "negotiated MEL <= default" claim.
MEL_RTOL = 1e-9


def _seeded(base: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(base, seed=seed, dataset=replace(base.dataset, seed=seed))


def _feed(h, value) -> None:
    """Hash ``value`` in a canonical, platform-stable form.

    Floats are rounded to 9 significant digits (arrays to float32) so a
    last-bit difference in a reduction order cannot flip the digest;
    integer and boolean arrays are hashed exactly.
    """
    if isinstance(value, float):
        h.update(format(value, ".9g").encode())
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(repr(value).encode())
    elif isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode())
        if value.dtype.kind == "f":
            h.update(np.ascontiguousarray(value, dtype=np.float32).tobytes())
        else:
            h.update(np.ascontiguousarray(value, dtype=np.int64).tobytes())
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")
    h.update(b";")


def canonical_digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


class DistanceBench:
    """Section 5.1 sweep: 65 ISPs, 60 pairs with >= 2 interconnections.

    Runs through ``SweepRunner`` with a fresh checkpoint directory, so it
    is the one workload that writes checkpoint shards. Its time goes to
    the Fig-5 flow baselines, read-only static-cost sessions and the
    (F, I) table build; it never solves an LP, sizes gravity traffic or
    tracks loads.
    """

    name = "distance-bench"

    def setup(self, seed: int, work_dir):
        config = _seeded(ExperimentConfig.bench(), seed)
        pairs_for(config, 2, config.max_pairs_distance)
        return {"config": config, "work_dir": work_dir}

    def run(self, inputs):
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-",
                                          dir=inputs["work_dir"])
        try:
            return run_distance_experiment(
                inputs["config"], checkpoint_dir=checkpoint_dir)
        finally:
            shutil.rmtree(checkpoint_dir)

    def canonical(self, result):
        return result.pairs

    def claims(self, result):
        return {"no ISP loses under negotiation":
                result.fraction_isps_losing("negotiated") == 0}


class BandwidthBench:
    """Section 5.2 sweep: 40 pairs x 2 failures, with the Fig-8 LP.

    Load-aware sessions reassign preferences every 5% of traffic beside
    load tracking; each case sizes gravity traffic, derives post-failure
    tables and solves two LPs (joint and unilateral). No flow baselines
    and no checkpoint shards.
    """

    name = "bandwidth-bench"

    def setup(self, seed: int, work_dir):
        config = _seeded(ExperimentConfig.bench(), seed)
        pairs_for(config, 3, config.max_pairs_bandwidth)
        return {"config": config}

    def run(self, inputs):
        return run_bandwidth_experiment(inputs["config"],
                                        include_unilateral=True)

    def canonical(self, result):
        return result.cases

    def claims(self, result):
        # Relative tolerance: where negotiation keeps a side's MEL, the two
        # loads are summed in different orders and can differ in the last
        # bit (8 such cases at instances 2005 and 2006).
        def above(negotiated, default):
            return negotiated > default * (1 + MEL_RTOL)

        worse = [
            c.pair_name for c in result.cases
            if above(c.mel_negotiated_a, c.mel_default_a)
            or above(c.mel_negotiated_b, c.mel_default_b)
        ]
        return {"no negotiated MEL above default on either side": not worse}


class MultiIspN40:
    """40-ISP random internetwork, coordinated to a fixed point.

    Driven through ``run_multi_isp`` (not the ``multi_isp`` sweep, whose
    trajectory memo would turn a repeat into a lookup) with transit on,
    serial colour classes and the damping ladder: ~750 small sessions
    instead of a few large ones.
    """

    name = "multi-isp-n40"
    n_isps = 40

    def setup(self, seed: int, work_dir):
        config = _seeded(ExperimentConfig.quick(), seed)
        net = build_internetwork(InternetworkConfig(
            n_isps=self.n_isps, shape="random", seed=config.dataset.seed,
            generator=config.dataset.generator,
        ))
        return {"config": config, "net": net}

    def run(self, inputs):
        return run_multi_isp(
            inputs["config"], internetwork=inputs["net"], max_rounds=30,
            damping="ladder", include_transit=True, coord_workers=None,
        )

    def canonical(self, result):
        return (result.choices, result.mel_trajectory(), result.stop_reason)

    def claims(self, result):
        return {"coordination converges": result.stop_reason == "converged"}


WORKLOADS = {w.name: w for w in (DistanceBench(), BandwidthBench(),
                                 MultiIspN40())}
