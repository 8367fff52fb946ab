"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

* every layer entry point is patched at every binding and restored;
* the speed sampler weights each workload segment by the probe speed
  measured right after it and leaves the probes' own time out;
* bypass test: on each workload, every layer the workload exercises is
  called and every layer predicted to be bypassed has no call, so
  the layer <-> workload map in ``run.py`` stays true as the code changes;
* digests and claims hold on the held-out instance 2006;
* a run prints a correct result with every declared metric, and the
  benchmark fails without a result when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
from layers import install_layers
from run import OUT_DIR, _repeat
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layer metrics (call counts, or a time where the layer has no count)
#: that must be positive on each workload.
EXERCISED = {
    "distance-bench": [
        "topology.build_s", "routing.paths.sssp_calls", "routing.costs.builds",
        "baselines.flow_strategies.calls", "core.session.calls",
        "experiments.runner.shards",
    ],
    "bandwidth-bench": [
        "topology.build_s", "routing.costs.builds", "routing.costs.derives",
        "traffic.gravity.calls", "core.session.calls",
        "core.evaluators.reassigns", "capacity.loads.calls",
        "optimal.lp_solves",
    ],
    "multi-isp-n40": [
        "topology.build_s", "traffic.gravity.calls", "core.session.calls",
        "core.evaluators.reassigns", "capacity.loads.calls",
        "core.multi_session.init_s", "core.multi_session.rounds",
        "core.multi_session.sessions_run", "core.multi_session.colors",
        "routing.interdomain.calls",
    ],
}

#: Layer call counts the workload must bypass entirely.
BYPASSED = {
    "distance-bench": [
        "traffic.gravity.calls", "core.evaluators.reassigns",
        "capacity.loads.calls", "optimal.lp_solves",
        "core.multi_session.sessions_run", "routing.interdomain.calls",
    ],
    "bandwidth-bench": [
        "baselines.flow_strategies.calls", "experiments.runner.shards",
        "core.multi_session.sessions_run", "routing.interdomain.calls",
    ],
    "multi-isp-n40": [
        "baselines.flow_strategies.calls", "optimal.lp_solves",
        "experiments.runner.shards",
    ],
}


def _worker(workload: str, instance_seed: int, trace: int) -> dict:
    return _repeat(workload, instance_seed, trace, time.monotonic() + 300)


def test_patches_every_binding_and_restores():
    import repro.core.multi_session as multi_session
    import repro.experiments.bandwidth as bandwidth
    import repro.experiments.distance as distance
    from repro.capacity import loads
    from repro.optimal import bandwidth_lp
    from repro.routing import costs

    bindings = [
        (distance, "build_pair_cost_table", costs.build_pair_cost_table),
        (bandwidth, "build_pair_cost_table", costs.build_pair_cost_table),
        (bandwidth, "solve_min_max_load_lp", bandwidth_lp.solve_min_max_load_lp),
        (bandwidth, "link_loads", loads.link_loads),
        (multi_session, "link_loads", loads.link_loads),
    ]
    session_run = multi_session.NegotiationSession.run
    tracer = Tracer("selftest")
    install_layers(tracer)
    try:
        for module, name, original in bindings:
            patched = getattr(module, name)
            assert patched is not original, f"{module.__name__}.{name}"
            assert patched.__wrapped__ is original
        assert multi_session.NegotiationSession.run is not session_run
    finally:
        tracer.uninstall()
    for module, name, original in bindings:
        assert getattr(module, name) is original
    assert multi_session.NegotiationSession.run is session_run


def test_self_time_excludes_children():
    tracer = Tracer("selftest")
    tracer.spans[:] = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 4.0, 0),
        ("outer", 5.0, 7.0, 0),
    ]
    times = tracer.layer_times()
    assert times["outer"] == {"calls": 1, "total": 10.0, "self": 5.0 + 2.0}
    assert times["inner"] == {"calls": 1, "total": 3.0, "self": 3.0}


def test_reference_time_weights_segments_by_probe_speed(monkeypatch):
    monkeypatch.setattr(speed, "SMOOTH", 1)
    sampler = speed.SpeedSampler()
    ref = speed.PROBE_REF_S
    # Probes at 1.0 (machine at reference speed) and 3.0 (half speed).
    sampler.starts = [1.0, 3.0]
    sampler.durations = [ref, 2 * ref]
    sampler.freeze()
    # [0.5, 1.0] at full speed, [1+ref, 3.0] and [3+2ref, 4.0] at half.
    expected = 0.5 + (2.0 - ref) / 2 + (1.0 - 2 * ref) / 2
    assert sampler.reference_s(0.5, 4.0) == pytest.approx(expected)
    # A window with no probe in it takes the speed of the next probe.
    assert sampler.reference_s(2.0, 2.5) == pytest.approx(0.25)
    # ... or of the last one, past the end.
    assert sampler.reference_s(5.0, 6.0) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_bypass(workload):
    spans = OUT_DIR / f"spans-{workload}-2005.jsonl"
    spans.unlink(missing_ok=True)
    report = _worker(workload, 2005, 1)
    assert report["ok"], report["claims"]
    layers = report["layers"]
    assert [m for m in EXERCISED[workload] if not layers[m] > 0] == []
    assert [m for m in BYPASSED[workload] if layers[m] != 0] == []
    first = json.loads(spans.read_text("utf-8").splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "run"}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_held_out_instance(workload):
    report = _worker(workload, 2006, 0)
    assert report["digest"] == report["recorded_digest"]
    assert all(report["claims"].values()), report["claims"]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_result(trace):
    proc = _run(["--workload", "distance-bench", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 60


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "distance-bench", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
