"""The multi-ISP convergence sweep (``multi_isp`` scenario).

Runs :class:`~repro.core.multi_session.MultiSessionCoordinator` over an
internetwork through the unified runner. The coordination is sequential
(round ``r`` depends on round ``r-1``), so the sweep has exactly one unit:
the whole coordination, run by :func:`run_multi_isp`. The reducer returns
that unit's :class:`~repro.core.multi_session.MultiNegotiationResult`
unchanged, so the direct call, the sweep and the CLI all report from one
result type. Checkpoint, resume and retries work at the one granularity
the computation has: a whole run. Parallelism lives inside the
coordination (``coord_workers`` runs a color class's sessions
concurrently), not across units.

The internetwork is built from the experiment config's generator/seed
(quick preset → small ISPs) with the shape/size taken from the sweep
params; ``uses_dataset=False`` because the two-ISP evaluation dataset is
never touched.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import _cache_put
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    register_scenario,
    retry_kwargs,
)
from repro.topology.internetwork import (
    Internetwork,
    InternetworkConfig,
    build_internetwork,
)
from repro.topology.serialization import stable_fingerprint

__all__ = [
    "run_multi_isp",
    "run_multi_isp_experiment",
    "MULTI_ISP_SCENARIO",
]

_MULTI_ISP_DEFAULTS: dict[str, Any] = {
    "n_isps": 4,
    "shape": "chain",
    "rounds": 4,
    "order": "round_robin",
    "min_interconnections": 2,
    "max_interconnections": 8,
    "pool_size": None,
    "peering_probability": 0.5,
    "include_transit": True,
    "transit_scale": 3.0,
    "coord_workers": None,
    # None = inherit config.damping / config.hysteresis_margin, so one
    # ExperimentConfig threads the damping ladder through whole sweeps.
    "damping": None,
    "hysteresis_margin": None,
}

#: Params that shape the internetwork itself (vs. the coordination).
_SHAPE_PARAM_KEYS = (
    "n_isps", "shape", "min_interconnections", "max_interconnections",
    "pool_size", "peering_probability",
)

#: Built internetworks, memoized per process for the robust_negotiation
#: units, which share one topology across (fault seed, mode) cells.
_INTERNETWORK_CACHE_SIZE = 2
_internetwork_cache: "OrderedDict[str, Internetwork]" = OrderedDict()


def _internetwork_config(
    config: ExperimentConfig, params: Mapping[str, Any]
) -> InternetworkConfig:
    return InternetworkConfig(
        n_isps=int(params["n_isps"]),
        shape=str(params["shape"]),
        seed=config.dataset.seed,
        pool_size=params["pool_size"],
        min_interconnections=int(params["min_interconnections"]),
        max_interconnections=params["max_interconnections"],
        peering_probability=float(params["peering_probability"]),
        generator=config.dataset.generator,
    )


def _internetwork_for(
    config: ExperimentConfig, params: Mapping[str, Any]
) -> Internetwork:
    net_config = _internetwork_config(config, params)
    key = stable_fingerprint(net_config)
    cached = _internetwork_cache.get(key)
    if cached is not None:
        _internetwork_cache.move_to_end(key)
        return cached
    net = build_internetwork(net_config)
    _cache_put(_internetwork_cache, key, net, _INTERNETWORK_CACHE_SIZE)
    return net


# ---------------------------------------------------------------------------
# Sweep scenario: "multi_isp" (one unit per coordination)
# ---------------------------------------------------------------------------


def _multi_isp_units(config, params):
    rounds = int(params["rounds"])
    if rounds < 1:
        # Zero rounds would run no coordination round and report the
        # untouched initial state instead of failing.
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    return ["coordination"]


def _multi_isp_unit(config, params, unit):
    kwargs = dict(params)
    return run_multi_isp(config, max_rounds=kwargs.pop("rounds"), **kwargs)


def _multi_isp_reduce(config, params, results):
    from repro.core.multi_session import MultiNegotiationResult

    (result,) = results
    if not isinstance(result, MultiNegotiationResult):
        # A shard from an older unit layout can survive the manifest
        # check when its unit count happens to match.
        raise ConfigurationError(
            "multi_isp checkpoint holds a "
            f"{type(result).__name__}, not a MultiNegotiationResult; "
            "rerun without --resume to recompute it"
        )
    return result


def _multi_isp_summary(result) -> list:
    return [
        ("ISPs / peering edges",
         f"{len(result.isp_names)} / {len(result.edge_names)}"),
        ("pairwise sessions run",
         str(sum(round_.n_sessions for round_ in result.rounds))),
        ("global MEL trajectory",
         " -> ".join(
             f"{mel:.3f}"
             for mel in [result.initial_mel, *result.mel_trajectory()]
         )),
        ("converged",
         f"after round {result.n_rounds() - 1}" if result.converged
         else f"no ({result.stop_reason})"),
    ]


MULTI_ISP_SCENARIO = register_scenario(ScenarioSpec(
    name="multi_isp",
    enumerate_units=_multi_isp_units,
    run_unit=_multi_isp_unit,
    reduce=_multi_isp_reduce,
    default_params=_MULTI_ISP_DEFAULTS,
    summarize=_multi_isp_summary,
    uses_dataset=False,
))


def run_multi_isp(
    config: ExperimentConfig | None = None,
    internetwork: Internetwork | None = None,
    **coordinator_kwargs,
):
    """Convenience: build an internetwork and run one coordination directly.

    Returns the raw :class:`~repro.core.multi_session.MultiNegotiationResult`
    (the coordination each ``multi_isp`` sweep unit runs; examples and
    benchmarks call it directly). Keyword arguments pass through to
    :class:`~repro.core.multi_session.MultiSessionCoordinator`; an explicit
    ``internetwork`` skips generation.
    """
    from repro.core.multi_session import MultiSessionCoordinator

    config = config or ExperimentConfig()
    params = dict(_MULTI_ISP_DEFAULTS)
    shape_kwargs = {}
    for key in _SHAPE_PARAM_KEYS:
        if key in coordinator_kwargs:
            shape_kwargs[key] = params[key] = coordinator_kwargs.pop(key)
    if internetwork is None:
        internetwork = build_internetwork(
            _internetwork_config(config, params)
        )
    elif shape_kwargs:
        raise ConfigurationError(
            "an explicit internetwork fixes the topology; drop "
            f"{sorted(shape_kwargs)} or drop internetwork="
        )
    # Backfill the scenario defaults so the direct path and the registered
    # multi_isp sweep run the identical scenario out of the box.
    coordinator_kwargs.setdefault("max_rounds", _MULTI_ISP_DEFAULTS["rounds"])
    for key in (
        "order", "include_transit", "transit_scale", "coord_workers",
        "damping", "hysteresis_margin",
    ):
        coordinator_kwargs.setdefault(key, _MULTI_ISP_DEFAULTS[key])
    return MultiSessionCoordinator(
        internetwork, config=config, **coordinator_kwargs
    ).run()


def run_multi_isp_experiment(
    config: ExperimentConfig | None = None,
    n_isps: int = 4,
    shape: str = "chain",
    rounds: int = 4,
    order: str = "round_robin",
    min_interconnections: int = 2,
    max_interconnections: int | None = 8,
    pool_size: int | None = None,
    peering_probability: float = 0.5,
    include_transit: bool = True,
    transit_scale: float = 3.0,
    coord_workers: int | None = None,
    damping: str | None = None,
    hysteresis_margin: float | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    max_retries: int | None = None,
    retry_backoff: float | None = None,
):
    """Run the multi-ISP coordination through the unified runner.

    Returns the :class:`~repro.core.multi_session.MultiNegotiationResult`
    of one :func:`run_multi_isp` call with these params (``rounds`` is its
    ``max_rounds``). ``checkpoint_dir`` / ``resume`` persist and reload
    that whole result as the sweep's single shard. ``coord_workers``
    parallelizes the color classes inside the coordination
    (bit-identical to serial). ``damping`` / ``hysteresis_margin`` select
    the oscillation response (see :mod:`repro.core.damping`); ``None``
    inherits the config's values.
    """
    params = dict(
        n_isps=n_isps,
        shape=shape,
        rounds=rounds,
        order=order,
        min_interconnections=min_interconnections,
        max_interconnections=max_interconnections,
        pool_size=pool_size,
        peering_probability=peering_probability,
        include_transit=include_transit,
        transit_scale=transit_scale,
        coord_workers=coord_workers,
        damping=damping,
        hysteresis_margin=hysteresis_margin,
    )
    return SweepRunner(
        checkpoint_dir=checkpoint_dir, resume=resume,
        **retry_kwargs(max_retries, retry_backoff),
    ).run(MULTI_ISP_SCENARIO, config, params)
