"""Run one workload of the sketching-service benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 30 --trace 0

Steps, in order:

1. generate the workload's inputs from ``--seed`` in a child process;
2. time :data:`harness.SETUP_REPEATS` cold starts of the service, each
   in a fresh process (``setup_probe.py``);
3. set the service up in this process and run the measured phase for
   ``--seconds``, probing the host's speed between timed intervals
   (``harness.HostSpeed``); with ``--trace 1`` run it again with every
   layer wrapped in spans and the kernel seam metered;
4. check the outputs (outside every timed region);
5. print the host fingerprint, a summary line, and as the last line one
   JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
   (the end-to-end metrics, or with ``--trace 1`` the per-layer ones).

A failed check prints ``"correct": false`` and exits 1.  Inputs live in
``.perfbench/run-<pid>/`` and are removed at exit; results and spans
are kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import harness

HERE = Path(__file__).resolve().parent

#: End-to-end metric units.
UNITS = {
    "ingest_tuples_per_ref_s": "tuples/ref_s",
    "query_p50_ref_ms": "ref_ms",
    "ingest_tuples_per_s": "tuples/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_error_ratio": "ratio",
    "setup_s": "s",
    "setup_wall_s": "s",
    "mem_peak_mb": "MB",
}
#: Reported in the summary line and the results file but not in the
#: result object.  Throughput, latency and set-up in wall time follow
#: the shared host's speed, which drifted by up to half within minutes
#: (see ``harness.HostSpeed``); the result carries them in reference
#: time instead (``setup_s`` keeps its name).  A healthy run reads 0
#: errors, so the result carries them as ``failed``/``attempted``.  The
#: p99 moves with the hypervisor's steal on a shared 2-vCPU guest (10
#: runs of serve_live: IQR 0.08 of the median while steal stayed under
#: 1 %, 0.8 once a few runs saw 10-30 %), so no bound on it could hold.
SUMMARY_ONLY = ("ingest_tuples_per_s", "query_p50_ms", "setup_wall_s",
                "query_p99_ms", "query_error_ratio")


def _child(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return proc.stdout


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def run(args: argparse.Namespace, inputs: Path) -> int:
    workload, seed = args.workload, args.seed
    started, steal_before = time.monotonic(), harness.steal_seconds()
    # A traced run splits its time between an untraced and a traced
    # phase, so both kinds of run take about as long.
    seconds = args.seconds / 2 if args.trace else args.seconds
    _child("inputs.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(inputs))
    # Host-speed probes bracket each cold start, a few back to back so
    # the later ones run warm; setup_s is in reference seconds like the
    # rest.
    setup_speed = harness.HostSpeed()
    setups = []
    for _ in range(harness.SETUP_REPEATS):
        for _ in range(harness.SETUP_PROBES):
            setup_speed.probe()
        setups.append(json.loads(_child(
            "setup_probe.py", "--workload", workload, "--inputs", str(inputs),
            "--seed", str(seed)).splitlines()[-1]))
        for _ in range(harness.SETUP_PROBES):
            setup_speed.probe()

    import workloads

    measure = workloads.MEASURES[workload]
    # The host-speed probe's arrays belong to the benchmark, not the service.
    harness.HostSpeed().probe()
    baseline = harness.rss_bytes()
    service = workloads.start_service(workload, inputs, seed)
    try:
        phases = [measure(service, inputs, seed, seconds, "a")]
        if args.trace:
            import layers

            instrumentation = layers.Instrumentation()
            instrumentation.install()
            try:
                phases.append(measure(service, inputs, seed, seconds, "b"))
            finally:
                instrumentation.close()
        mem_peak_mb = (phases[0].peak_rss - baseline) / 2**20
        problems = workloads.check(service, inputs, phases)
    finally:
        service.close()

    plain = phases[0]
    latencies = workloads.latencies_ms(plain)
    p99_rank, p99, windows = harness.windowed_tail(latencies)
    records = plain.queries["records"]
    errors = sum(workloads.is_error(r) for r in records)
    requests = [r for phase in phases for r in phase.queries["records"]]
    end_to_end = {
        "ingest_tuples_per_ref_s": workloads.ingest_rate(workload, plain, reference=True),
        "query_p50_ref_ms": median(workloads.latencies_ms(plain, reference=True)),
        "ingest_tuples_per_s": workloads.ingest_rate(workload, plain),
        "query_p50_ms": median(latencies),
        "query_p99_ms": p99,
        "query_error_ratio": errors / len(records),
        "setup_s": median([s["setup_s"] for s in setups]) / setup_speed.median_slowdown(),
        "setup_wall_s": median([s["setup_s"] for s in setups]),
        "mem_peak_mb": mem_peak_mb,
    }
    results = harness.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{args.trace}"
    if args.trace:
        per_layer = layers.per_layer(workload, instrumentation, phases[1], plain)
        units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
        reported = _metrics(per_layer, units)
        # One span file per workload, overwritten by each traced run.
        instrumentation.tracer.dump(results / f"{workload}.spans.jsonl")
    else:
        reported = _metrics(
            {k: v for k, v in end_to_end.items() if k not in SUMMARY_ONLY}, UNITS
        )

    steal_share = (harness.steal_seconds() - steal_before) / (
        (time.monotonic() - started) * (os.cpu_count() or 1))
    fingerprint = harness.fingerprint(workload, seed, service.backend, steal_share)
    fingerprint["host_slowdown"] = plain.speed.median_slowdown()
    harness.emit({"fingerprint": fingerprint})
    print(
        f"{workload}: " + "  ".join(
            f"{name}={value:.6g} {UNITS[name]}" for name, value in end_to_end.items()
        ) + f"  (query_p99_ms: median over {windows} windows of p{p99_rank:.2f};"
        f" {len(latencies)} requests;"
        f" {len(plain.passes)} ingest passes)",
        flush=True,
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    outcome = {
        "correct": not problems,
        "attempted": len(requests) + sum(len(p.passes) for p in phases),
        "failed": sum(workloads.is_error(r) for r in requests),
        "metrics": reported,
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": fingerprint, "end_to_end": end_to_end,
                   "setups": setups, "problems": problems,
                   "pass_tuples_per_s": [p.tuples_per_s for p in plain.passes],
                   "slowdowns": [(at - started, value) for at, value in plain.speed.samples],
                   **outcome}, handle, indent=1)
    harness.emit(outcome)
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness.require_source()
    run_dir = harness.WORK / f"run-{os.getpid()}"
    inputs = run_dir / "inputs"
    scratch = run_dir / "tmp"
    inputs.mkdir(parents=True)
    scratch.mkdir()
    # Keep every temporary file (a native kernel build included) inside
    # the checkout, in this process and in its children.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    # numpy asks the kernel for transparent huge pages on large arrays;
    # whether it gets them depends on how fragmented the host's memory
    # is at that moment, which moved bulk_ingest by a quarter from run
    # to run.  Without the advice the run measures the same allocation
    # path every time.  Set before numpy is imported here or in a child.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        return run(args, inputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
