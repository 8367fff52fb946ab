"""End-to-end and per-layer benchmark of the Nexit reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload distance-bench --seed 1 --seconds 30 --trace 0

Runs one workload repeatedly for ``--seconds`` seconds, each repeat in a
fresh interpreter (``perfbench/worker.py``) so no repeat times a memo hit,
with a fixed ``PYTHONHASHSEED`` so every repeat iterates sets and dicts of
strings in the same order.
A repeat starts only if it should end in time, judged by the previous
one; a run makes at least two repeats, or one untraced and one traced
with ``--trace 1``. The repeats run serially, one process at a time. The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it stamps the machine (``nproc``,
Python/numpy/scipy versions), the unit count and the output digest.

Workloads (all closed-loop: one sweep at a time, nothing queued):

* ``distance-bench`` -- ``run_distance_experiment(ExperimentConfig.bench())``
  through ``SweepRunner`` with a fresh checkpoint directory: 65 ISPs, 60
  pairs with >= 2 interconnections. Fig-5 flow baselines, read-only
  static-cost sessions, the (F, I) table build, checkpoint shards.
* ``bandwidth-bench`` -- ``run_bandwidth_experiment(ExperimentConfig.bench(),
  include_unilateral=True)``: 40 pairs x 2 failures. Load-aware sessions
  that reassign preferences every 5% of traffic, load tracking, gravity
  sizing, two LPs per case, derived (structural) tables.
* ``multi-isp-n40`` -- ``run_multi_isp`` on a 40-ISP random internetwork
  (``ExperimentConfig.quick()`` generator, 126 edges, 14 colours at 2005)
  with transit on, serial colour classes, ``max_rounds=30`` and
  ``damping="ladder"``: ~750 small sessions, coordinator bookkeeping,
  transit index, colouring and damping.

Inputs: every workload runs on instance seed 2005, which sets
``DatasetConfig.seed`` (the internetwork seed) and ``ExperimentConfig.seed``;
the self-tests (``perfbench/selftest.py``) also check the held-out instance
2006. ``--seed`` does not change the instance: run time varies threefold across
dataset seeds (2.0-6.1 s for distance-bench over seeds 1-3 and 2005-2008),
which would hide any change a bound could resolve. The digest of each
instance is recorded in ``perfbench/digests.json``.

End-to-end metrics (``--trace 0``):

Metric names and units come from ``BENCHMARK.json``. Every time is wall
time in *reference-machine* seconds (``perfbench/speed.py``): the worker
probes the machine's speed every 20 ms while it runs and weights each
stretch of wall time by it, because the shared host's own speed swings by
tens of percent between runs. The raw wall ``run_s`` is in the stamp line
(``wall_run_s``).

* ``setup_s`` -- process start to inputs ready (interpreter, imports and
  dataset or internetwork generation); median of at least 5 set-ups.
* ``run_s`` -- time of the workload after set-up, tracing off; median
  over repeats.
* ``unit_p50_ms`` / ``unit_p75_ms`` -- time per sweep unit (a pair for
  distance and bandwidth, one edge session for multi-isp), taken as the
  unit's median time over the run's repeats, then the median and p75
  across units. p75 is the highest percentile with >= 10 samples beyond
  it on 40 units. When a sweep runs in parallel its slowest units set its
  length.
* ``peak_rss_mb`` -- peak resident memory of a repeat; median over repeats.

Failures are the top-level ``failed`` / ``attempted`` units (their ratio
is the per-layer ``error_rate``): a repeat whose digest differs from the
recorded one, or whose claims fail (no ISP loses under negotiation on
distance; no negotiated MEL above default on bandwidth; convergence on
multi-isp), fails all of its units. The traced and untraced digests must
agree.

Per-layer metrics (``--trace 1``; median over traced repeats; a layer is a
module). The traced run wraps each layer's entry points from outside the
program (``perfbench/layers.py``) at every binding, keeps the spans
(name, start, end, parent, run id) in memory and writes them to
``.perfbench_out/spans-*.jsonl`` at exit. A self time is the span time
minus the time of its direct child spans. The arrow names the end-to-end
metric each layer metric should move, and on which workload:

=====================================================  =====================================
layer metric                                           moves
=====================================================  =====================================
topology.build_s                                       setup_s, all workloads
routing.paths.sssp_s, .sssp_calls                      run_s, distance
routing.costs.build_s (self, excl. SSSP), .builds      run_s, distance
routing.costs.derive_s, .derives                       run_s, bandwidth
baselines.flow_strategies.s, .calls                    run_s + unit_p75_ms, distance; 0 elsewhere
traffic.gravity.s, .calls                              run_s, bandwidth and multi-isp
core.session.s (self), .calls, .protocol_rounds,       run_s, all three
  .rounds_per_s, .accept_ratio, .rolled_back
core.evaluators.reassign_s, .reassigns                 run_s, bandwidth and multi-isp; ~0 distance
capacity.loads.link_loads_s, .calls                    run_s, bandwidth and multi-isp
optimal.lp_s, .lp_solves, .solver_s, .lp_overhead_s    run_s, bandwidth; 0 elsewhere
core.multi_session.init_s, .coord_self_s, .rounds,     run_s, multi-isp
  .slots, .sessions_run, .skip_ratio, .adopt_ratio,
  .colors
routing.interdomain.transit_s, .calls                  run_s, multi-isp
core.damping.escalations                               run_s, multi-isp
experiments.runner.checkpoint_s, .shards, .overhead_s  run_s, distance; 0 shards on bandwidth
trace.overhead (traced run_s / untraced run_s)         -- (cost of the trace itself)
error_rate (failed / attempted units)                  -- (correctness)
=====================================================  =====================================

Session round counts are summed from each ``NegotiationOutcome``;
``accept_ratio`` is accepted / proposed rounds. ``coord_self_s`` is
``MultiSessionCoordinator.run`` minus its child session, load and transit
spans; ``skip_ratio`` is context-unchanged skips / slots and
``adopt_ratio`` adopted / sessions run. ``lp_overhead_s`` is LP entry
time minus time inside ``LpSolver.solve`` (assembly and unpacking);
``overhead_s`` is ``SweepRunner.run`` minus its unit work.

Exits non-zero without a result when the program (``src/repro``) is
missing or a repeat crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

INSTANCE_SEED = 2005
#: Untraced repeats a ``--trace 0`` run makes even past ``--seconds``, so
#: every median is over at least two tries.
MIN_REPEATS = 2
MIN_SETUP_SAMPLES = 5
#: A run (all its repeats) still going after this long is stopped: the
#: running repeat is killed and the run fails without a result.
RUN_TIMEOUT_S = 170

_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class RepeatFailed(RuntimeError):
    pass


def _repeat(workload: str, instance_seed: int, trace: int, deadline: float,
            setup_only: bool = False) -> dict:
    """Run one repeat in a fresh interpreter and return its report."""
    env = dict(os.environ)
    # A fixed string-hash seed: with a random one, set and dict orders
    # (and with them the work done) change from repeat to repeat.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--instance-seed", str(instance_seed),
        "--trace", str(trace), "--out-dir", str(OUT_DIR),
    ] + (["--setup-only"] if setup_only else [])
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RepeatFailed(f"{workload} run exceeded {RUN_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(f"{workload} repeat exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run repeats for ``seconds``; return (result line, stamp line).

    With ``trace`` the repeats alternate untraced and traced, so the
    trace overhead compares repeats that ran under the same conditions.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    last = 0.0
    while True:
        began = time.monotonic()
        enough = (traced and plain) if trace else len(plain) >= MIN_REPEATS
        if enough and began - start + last > seconds:
            break
        if trace and len(traced) < len(plain):
            traced.append(_repeat(workload, INSTANCE_SEED, 1, deadline))
        else:
            plain.append(_repeat(workload, INSTANCE_SEED, 0, deadline))
        last = time.monotonic() - began

    repeats = plain + traced
    attempted = sum(r["units"] for r in repeats)
    failed = sum(r["units"] for r in repeats if not r["ok"])
    digests = {r["digest"] for r in repeats}
    # Same digest, same units: a deterministic run repeats every unit.
    correct = (failed == 0 and len(digests) == 1
               and len({r["units"] for r in repeats}) == 1)

    if trace:
        values = {name: median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead"] = (median([r["run_ref_s"] for r in traced])
                                    / median([r["run_ref_s"] for r in plain]))
        values["error_rate"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        setups = [r["setup_ref_s"] for r in plain]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(
                _repeat(workload, INSTANCE_SEED, 0, deadline,
                        setup_only=True)["setup_ref_s"])
        # Each unit's time is its median over the run's repeats.
        unit_ms = [median(times)
                   for times in zip(*(r["unit_ref_ms"] for r in plain))]
        _, p50, p75 = statistics.quantiles(unit_ms, n=4)
        values = {
            "setup_s": median(setups),
            "run_s": median([r["run_ref_s"] for r in plain]),
            "unit_p50_ms": p50,
            "unit_p75_ms": p75,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    stamp = {
        "workload": workload,
        "instance_seed": INSTANCE_SEED,
        "machine": repeats[0]["machine"],
        "units": repeats[0]["units"],
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "wall_run_s": median([r["run_s"] for r in plain]),
        "probe_median_s": median([r["speed"]["probe_median_s"]
                                  for r in repeats]),
        "digest": sorted(digests),
        "recorded_digest": repeats[0]["recorded_digest"],
        "claims": repeats[0]["claims"],
    }
    raw = OUT_DIR / f"repeats-{workload}-{INSTANCE_SEED}-trace{trace}.json"
    raw.write_text(json.dumps({"untraced": plain, "traced": traced}))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        result, stamp = measure(args.workload, args.seconds, args.trace)
    except RepeatFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    stamp["seed"] = args.seed
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
