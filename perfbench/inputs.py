"""Generate a workload's inputs from its seed, before anything is timed.

Run as ``python inputs.py --workload W --seed N --seconds S --out DIR``.
It runs in its own process so that generating the inputs never raises
the measured process's peak memory.  Writes into DIR:

* stream files (``repro.streams.io`` format) of Zipf keys — ``R.rprs``
  for bulk_ingest, ``shed.rprs`` plus ``bursts.npy`` (burst lengths)
  for shed_microbatch, ``R.rprs`` and ``S.rprs`` for serve_live;
* ``expected.npz`` — what every ingest pass must produce, computed
  here on the ``reference`` kernel backend: bulk_ingest's counters are
  one F-AGMS update with the whole relation; shed_microbatch's replay
  ``LoadShedder(p, seed).filter`` and ``FagmsSketch.update`` on the
  pipeline's 4096-key batches; plus the tuples offered and kept;
* ``queries.npz`` — the open-loop query schedule: Poisson due times at
  :data:`harness.QUERY_RATE` over the query phase, an op code per
  request (the :data:`harness.QUERY_MIX`), point keys drawn from the
  same Zipf distribution as the data (so hot keys repeat), and which of
  the two queried streams a point or self-join reads.

The same seed always gives the same files.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import harness


def query_phase_seconds(workload: str, seconds: float) -> float:
    """Length of the query phase within a measured run of *seconds*."""
    if workload == "serve_live":
        return float(seconds)
    return float(seconds) * (1.0 - harness.INGEST_SHARE)


def generate(workload: str, seed: int, seconds: float, out: Path) -> None:
    """Write every input file of *workload* into *out*."""
    import numpy as np

    from repro.core.load_shedding import LoadShedder
    from repro.kernels import use_backend
    from repro.sketches import FagmsSketch
    from repro.streams.io import write_stream
    from repro.streams.synthetic import ZipfDistribution

    data_seq, burst_seq, query_seq, permutation_seq = np.random.SeedSequence(
        [seed, harness.WORKLOADS.index(workload)]
    ).spawn(4)
    data_rng = np.random.default_rng(data_seq)
    zipf = ZipfDistribution(
        harness.DOMAIN, harness.SKEW, seed=np.random.default_rng(permutation_seq)
    )

    def stream_file(name: str, tuples: int) -> np.ndarray:
        keys = zipf.sample(tuples, data_rng)
        write_stream(out / name, [keys], harness.DOMAIN)
        return keys

    def save_expected(keys: np.ndarray, keep: float) -> None:
        with use_backend("reference"):
            sketch = FagmsSketch(harness.BUCKETS, harness.ROWS, seed=seed)
            if keep == 1.0:
                sketch.update(keys)
                kept = keys.size
            else:
                shedder = LoadShedder(keep, harness.shed_seed(seed))
                for start in range(0, keys.size, harness.SHED_BATCH):
                    survivors = shedder.filter(keys[start:start + harness.SHED_BATCH])
                    if survivors.size:
                        sketch.update(survivors)
                kept = shedder.kept
        np.savez(out / "expected.npz", counters=sketch.counters, scanned=kept,
                 offered=keys.size, keep=keep)

    if workload == "bulk_ingest":
        save_expected(stream_file("R.rprs", harness.BULK_TUPLES), 1.0)
    elif workload == "shed_microbatch":
        save_expected(stream_file("shed.rprs", harness.SHED_TUPLES), harness.SHED_P)
        lengths = np.random.default_rng(burst_seq).integers(
            1, harness.MAX_BURST + 1, size=harness.SHED_TUPLES
        )
        ends = np.cumsum(lengths)
        count = int(np.searchsorted(ends, harness.SHED_TUPLES))
        lengths = lengths[: count + 1]
        lengths[-1] = harness.SHED_TUPLES - int(ends[count - 1] if count else 0)
        np.save(out / "bursts.npy", lengths)
    elif workload == "serve_live":
        stream_file("R.rprs", harness.LIVE_R_TUPLES)
        stream_file("S.rprs", harness.LIVE_S_TUPLES)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    query_rng = np.random.default_rng(query_seq)
    span = query_phase_seconds(workload, seconds)
    gaps = query_rng.exponential(1.0 / harness.QUERY_RATE, size=int(
        span * harness.QUERY_RATE * 2 + 64))
    due = np.cumsum(gaps)
    due = due[due < span]
    shares = np.array(list(harness.QUERY_MIX.values()))
    ops = query_rng.choice(len(shares), size=due.size, p=shares / shares.sum())
    keys = zipf.sample(due.size, query_rng)
    picks = query_rng.integers(0, 2, size=due.size)
    np.savez(out / "queries.npz", due=due, op=ops, key=keys, pick=picks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    harness.require_source()
    generate(args.workload, args.seed, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
