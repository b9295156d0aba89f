"""Shared constants and helpers of the end-to-end benchmark.

Everything here is plain Python with no import of the library, so the
percentile rule and the host fingerprint can be tested, and the source
tree located, before ``repro`` is importable.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Sequence

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = Path(__file__).resolve().parent.parent
#: The library sources the benchmark builds on.
SRC = ROOT / "src"
#: Scratch space for generated inputs and trace output (git-ignored).
WORK = ROOT / ".perfbench"

WORKLOADS = ("bulk_ingest", "shed_microbatch", "serve_live")

# The reference sketch: F-AGMS with 5 rows x 1024 buckets over Zipf keys
# (skew 1.0, domain 10^6), as in the paper's synthetic experiments.
BUCKETS = 1024
ROWS = 5
DOMAIN = 1_000_000
SKEW = 1.0

#: Tuples in the stored relation one bulk_ingest pass scans.
BULK_TUPLES = 1 << 22
#: FileSource chunk of bulk_ingest: large enough to hit the kernel's
#: big-chunk throughput cliff.
BULK_CHUNK = 1 << 20
#: Tuples one shed_microbatch pass offers, in bursts of 1..MAX_BURST keys.
SHED_TUPLES = 1 << 22
MAX_BURST = 2000
SHED_BATCH = 4096
SHED_P = 0.25
#: serve_live: R is ingested during set-up, S streams during the run.
LIVE_R_TUPLES = 1 << 21
LIVE_S_TUPLES = 1 << 22
LIVE_CHUNK = 65_536

#: Open-loop query rate (requests per second) of every query phase.
QUERY_RATE = 300.0
#: Query mix: op -> share of requests.
QUERY_MIX = {"point": 0.70, "self_join": 0.15, "join": 0.10, "expression": 0.05}
#: Share of an ingest-only workload's run spent ingesting; the rest is a
#: query phase against the freshly loaded streams.
INGEST_SHARE = 0.6
#: Requests per window of the p99 figure (see :func:`windowed_tail`).
TAIL_WINDOW = 1000
#: Cold-start set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: A run whose load generator dispatched requests later than this (p99)
#: measured the generator, not the server, and is invalid.
LATE_P99_LIMIT_MS = 50.0
#: A request unanswered after this many seconds counts as an error.
REQUEST_TIMEOUT_S = 5.0

#: The host-speed probe's work (see :func:`probe_work`): rounds over
#: arrays of keys.
PROBE_ROUNDS = 25
PROBE_ARRAYS = 16
PROBE_KEYS = 1024
#: CPU seconds the probe takes on the reference host, a 2-vCPU x86-64
#: guest with CPython 3.11 and numpy 2 at its usual speed.
REFERENCE_PROBE_S = 0.0034
#: Probes taken within this many seconds of a timed interval set the
#: host's speed for it.
PROBE_WINDOW_S = 2.0
#: Least time between two probes of the in-process query caller.
PROBE_INTERVAL_S = 0.25
#: Probes taken back to back before and after each cold start.
SETUP_PROBES = 3


def shed_seed(seed: int) -> int:
    """Seed of the shedder's Bernoulli draws (distinct from the sketch's)."""
    return seed + 1


def require_source() -> None:
    """Put ``src`` on the import path, or exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def effective_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def query_connections() -> int:
    """Keep-alive connections of the load generator: at most 2, at most nproc."""
    return max(1, min(2, effective_cpus()))


def tail_percentile(
    samples: Sequence[float], target: float = 99.0, min_beyond: int = 10
) -> tuple[float, float]:
    """The highest percentile up to *target* with *min_beyond* samples above it.

    Nearest-rank on the sorted samples: percentile ``q`` is the value at
    rank ``ceil(q * n / 100)``.  The rank is lowered until at least
    *min_beyond* samples lie beyond it, so a short run reports a lower
    percentile rather than a tail resting on one or two samples.
    Returns ``(percentile, value)``.
    """
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(
            f"need more than {min_beyond} samples for a tail percentile, got {n}"
        )
    ordered = sorted(samples)
    rank = min(math.ceil(target * n / 100.0), n - min_beyond)
    rank = max(rank, 1)
    return 100.0 * rank / n, ordered[rank - 1]


def windowed_tail(
    samples: Sequence[float], window: int = TAIL_WINDOW, target: float = 99.0
) -> tuple[float, float, int]:
    """Median, over consecutive windows of *window* samples, of each tail.

    Each window's tail is :func:`tail_percentile` of *target*; a short
    last window joins the one before it.  One stall of the host then
    moves the figure of one window, not the whole run's tail.  Returns
    ``(lowest percentile used, median tail, windows)``.
    """
    blocks = [list(samples[i:i + window]) for i in range(0, len(samples), window)]
    if len(blocks) > 1 and len(blocks[-1]) < window:
        short = blocks.pop()
        blocks[-1] += short
    tails = [tail_percentile(block, target) for block in blocks]
    return min(p for p, _ in tails), median([v for _, v in tails]), len(tails)


def probe_inputs():
    """The probe's keys and counters: PROBE_ARRAYS arrays of PROBE_KEYS keys, 5 x 1024."""
    import numpy as np

    rng = np.random.default_rng(0)
    keys = [rng.integers(0, 1 << 30, PROBE_KEYS) for _ in range(PROBE_ARRAYS)]
    return keys, np.zeros((5, 1024))


def probe_work(keys, counters) -> None:
    """The fixed work the host-speed probe times.

    Many small numpy calls, the shape of a sketch's per-chunk work —
    hash a chunk of keys, scatter-add into a counter row, copy the
    counters — without calling the library.
    """
    import numpy as np

    row = counters[0]
    for _ in range(PROBE_ROUNDS):
        for chunk in keys:
            buckets = (chunk * 2654435761) % row.size
            np.add.at(row, buckets[:64], 1.0)
            counters.copy()


def thread_seconds(work: Callable[[], object]) -> float:
    """Thread CPU seconds *work* takes."""
    start = time.thread_time()
    work()
    return time.thread_time() - start


class HostSpeed:
    """How slow the host's CPUs run, sampled between timed intervals.

    On a shared host the same work takes more or less CPU time from
    minute to minute (sibling-thread, cache and memory contention from
    other guests) while steal stays near zero, and a change of ingest
    throughput by half between runs of the same code was common.  So
    every timed interval is also expressed in *reference seconds*: its
    wall time divided by the host's slowdown near it, the cost of
    :func:`probe_work` over :data:`REFERENCE_PROBE_S` (1.0 at reference
    speed).  The probe is made of small numpy calls because, of five
    candidates timed between alternating shed_microbatch and
    bulk_ingest passes for four minutes, it tracked both best: scaling
    by it cut the spread (IQR over median) of 15 s window medians from
    0.29 to 0.08 on shed_microbatch and from 0.21 to 0.07 on
    bulk_ingest, where a pure-Python loop gave 0.13 and 0.11, a
    large-array numpy loop 0.21 and 0.12.  It is timed in thread CPU
    time, so another thread holding the GIL does not make the host look
    slow.  Steal is not in it: stolen time hits a few requests hard and
    leaves the median alone, so no single factor corrects both; runs
    that saw it carry ``cpu_steal_share`` in their fingerprint.
    """

    def __init__(self, slowdown: Callable[[], float] | None = None) -> None:
        self.samples: list[tuple[float, float]] = []
        self._slowdown = slowdown or self._probe_slowdown
        self._inputs = None

    def _probe_slowdown(self) -> float:
        if self._inputs is None:
            self._inputs = probe_inputs()
        return thread_seconds(lambda: probe_work(*self._inputs)) / REFERENCE_PROBE_S

    def probe(self, at: float | None = None) -> None:
        """Run the probe once and record the slowdown at *at* (now)."""
        at = time.monotonic() if at is None else at
        self.samples.append((at, self._slowdown()))

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown probed within :data:`PROBE_WINDOW_S` of ``[start, end]``.

        Falls back to the probe nearest the interval when none lies
        within the window.
        """
        if not self.samples:
            raise ValueError("no host-speed probe was taken")
        near = [c for t, c in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            middle = (start + end) / 2.0
            near = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return median(near)

    def reference_seconds(self, seconds: float, start: float, end: float) -> float:
        """*seconds* of wall time measured over ``[start, end]``, in reference seconds."""
        return seconds / self.slowdown(start, end)

    def median_slowdown(self) -> float:
        """Median slowdown over the whole run, for the fingerprint."""
        return median(c for _, c in self.samples) if self.samples else 0.0


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process since it started."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def steal_seconds() -> float:
    """CPU time the hypervisor has taken from this host's CPUs, summed.

    A run during which it grows fast shared its CPUs with other guests,
    so its timings are noisier; 0 where the kernel does not report it.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def _first_line(command: Sequence[str]) -> str:
    try:
        proc = subprocess.run(
            list(command), capture_output=True, text=True, timeout=20, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    if proc.returncode != 0:
        return "unavailable"
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else "unavailable"


def fingerprint(workload: str, seed: int, backend: str, steal_share: float) -> dict:
    """Host, toolchain and commit facts recorded beside every result.

    *backend* is the kernel backend the default selection chose in the
    measured process; *steal_share* the share of the host's CPU time
    the hypervisor took during the run.  Asking whether the native
    backend can be built compiles it, so call this after the timed
    phases.
    """
    import numpy

    from repro.kernels import native_available, native_openmp, native_threads

    native = native_available()
    return {
        "workload": workload,
        "seed": seed,
        "effective_cpus": effective_cpus(),
        "cpu_steal_share": steal_share,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
        "kernel_backend": backend,
        "native_available": native,
        "native_openmp": native_openmp() if native else False,
        "native_threads": native_threads() if native else 0,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cc": _first_line([os.environ.get("CC", "cc"), "--version"]),
        "git_sha": _first_line(["git", "rev-parse", "HEAD"]),
    }


def emit(payload: dict) -> None:
    """Print one JSON object on its own stdout line."""
    print(json.dumps(payload, sort_keys=True), flush=True)
