"""One benchmark repeat in a fresh interpreter.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/worker.py --workload distance-bench --instance-seed 2005 \
        --trace 0 --t0 <time.monotonic() when the parent spawned it> \
        --out-dir .perfbench_out [--setup-only]

Builds the workload's inputs, runs it once, checks the output digest and
the workload's claims, and prints one JSON object as its last stdout line.
A fresh interpreter per repeat means no repeat ever times a memo hit
(dataset, pair, distance-problem and internetwork caches all start empty).
``setup_s`` runs from ``--t0`` to inputs ready: interpreter start, imports
and dataset or internetwork generation. (``time.monotonic`` and
``time.perf_counter`` both read CLOCK_MONOTONIC, which is system-wide on
Linux, so the parent's spawn time is comparable.) Each time is reported
both as wall time (``setup_s``, ``run_s``, ``unit_ms``) and in
reference-machine seconds (``*_ref_*``, see ``perfbench/speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from layers import install_layers, install_unit_timer, layer_metrics
from speed import SpeedSampler
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text("utf-8"))
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--instance-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-{args.instance_seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    if args.trace:
        # Patch before importing the workloads, so set-up spans
        # (topology.build) land; import every experiment module first, so
        # each of its `from ... import` bindings gets patched too.
        import repro.experiments  # noqa: F401

        install_layers(tracer)
    try:
        from workloads import WORKLOADS, canonical_digest

        workload = WORKLOADS[args.workload]
        inputs = workload.setup(args.instance_seed, out_dir)
        setup_end = time.perf_counter()
        if not args.setup_only:
            if not args.trace:
                install_unit_timer(tracer)
            start = time.perf_counter()
            result = workload.run(inputs)
            end = time.perf_counter()
    finally:
        sampler.stop()
        tracer.uninstall()
    setup = {"setup_s": setup_end - args.t0,
             "setup_ref_s": sampler.reference_s(args.t0, setup_end)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy

    digest = canonical_digest(workload.canonical(result))
    recorded = _recorded_digest(args.workload, args.instance_seed)
    claims = workload.claims(result)
    units = [span for span in tracer.finished_spans() if span[0] == "unit"]
    report = {
        **setup,
        "run_s": end - start,
        "run_ref_s": sampler.reference_s(start, end),
        "unit_ms": [1e3 * (span[2] - span[1]) for span in units],
        "unit_ref_ms": [1e3 * sampler.reference_s(span[1], span[2])
                        for span in units],
        "speed": sampler.summary(),
        "units": len(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": digest,
        "recorded_digest": recorded,
        "claims": claims,
        "ok": digest == recorded and all(claims.values()),
        "machine": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        multi = result if args.workload == "multi-isp-n40" else None
        report["layers"] = layer_metrics(tracer, multi)
        tracer.write_jsonl(
            out_dir / f"spans-{args.workload}-{args.instance_seed}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
