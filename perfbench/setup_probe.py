"""Time one cold start of the sketching service, in a fresh process.

Run as ``python setup_probe.py --workload W --inputs DIR --seed N``.  The
clock starts before the library is imported and stops once the query
server answers its health check, so the figure covers the import,
kernel-backend resolution (and any native build it triggers), registry
and stream registration, serve_live's load of stream R, and server
start.  Prints one JSON object: ``{"setup_s": ..., "backend": ...}``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    harness.require_source()
    import workloads

    service = workloads.start_service(args.workload, args.inputs, args.seed)
    elapsed = time.perf_counter() - started
    service.close()
    harness.emit({"setup_s": elapsed, "backend": service.backend})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
