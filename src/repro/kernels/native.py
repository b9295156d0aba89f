"""The native kernel backend: a small C library compiled on demand.

The numpy backend is bound by memory traffic — the lazily-reduced Horner
evaluation is ~8 full passes over the batch for the bucket hash and ~21
for the 4-wise sign hash, each reading and writing a ``(rows, n)``
uint64 matrix.  This backend fuses every one of those passes into a
single loop per primitive: hash, reduce, and emit in registers, touching
each key once.  On a single core that is worth another ~3× over the
vectorized numpy path for F-AGMS updates.

On top of the per-primitive kernels this backend implements the fused
multi-sketch entry point (:mod:`repro.kernels.fused`) entirely in C:
per sketch, one loop computes bucket index and ±1 sign for a key while
it sits in a register and scatters immediately — the ``(rows, n)``
index/sign matrices that the separate path materializes (and re-reads)
through numpy never exist.  The unweighted AGMS row sums reduce in
registers too, eliminating the numpy int8→float64 reduction that made
AGMS the per-sketch straggler.  Fused kernels also accept ``int32`` /
``uint32`` keys directly (widened block-wise in L1), halving key
traffic for narrow domains.

Threading: every row loop (hashing, scatter, fused) carries an OpenMP
``parallel for`` over rows.  Rows write disjoint output slices and each
row's accumulation stays in stream order, so results are **bit-identical
for any thread count** — threading is purely a throughput knob, default
1 (set via :func:`set_native_threads` or ``REPRO_NATIVE_THREADS``).
The build tries ``-fopenmp`` and falls back to a single-threaded compile
when the toolchain lacks it, mirroring the no-compiler fallback below:
:func:`native_openmp` reports what the loaded library supports.

The library is loaded lazily, at most once per process, from a per-user
build cache: ``repro-kernels-<uid>`` under :func:`tempfile.gettempdir`,
created with mode 0700 and trusted only while the caller owns it and
nobody else can write to it.  A cached object is keyed by the C source,
the compiler's resolved path and version, the flags, the machine and
the CPU flags (see :func:`_build`); on a miss the source embedded below
is compiled with the system C compiler (``$CC`` or ``cc``; ~0.5 s with
gcc 12 on a 2-vCPU x86 guest) and published atomically, so later
processes — pool workers included — only load it.  A fresh build that
will not load (a ``noexec`` temp dir, say) leaves a ``.failed`` marker
beside it, so later processes skip the compile; delete the marker to
retry.  No artifacts touch the working tree.  If no compiler is
available and nothing is cached the build fails softly: the backend
stays registered (so it is listed and produces a clear
:class:`~repro.errors.ConfigurationError` when activated),
:func:`native_available` reports ``False``, and the default selection
(:func:`repro.kernels.get_backend`) picks numpy.  The default picks this
backend only after :func:`native_self_test` has reproduced the reference
backend's counters bit for bit.

Bit-identity: the C code computes the *canonical* residue mod
``p = 2³¹ − 1`` with the same fold-and-subtract schedule the numpy path
uses, buckets with the same power-of-two mask (and Lemire's exact
mul-shift modulus otherwise), and accumulates scatter deltas element by
element in stream order — the same order as the reference backend's
``np.add.at`` — so counters match the other backends bit for bit, for
*any* weights, not just integer-valued ones.

Only the polynomial (fourwise/bucket) hashing primitives are compiled;
EH3 and tabulation sign families keep their vectorized numpy paths,
which this backend inherits from :class:`NumpyKernelBackend` (the fused
path falls back to the replayed primitives for such entries).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from ctypes import POINTER, c_double, c_int8, c_int64, c_uint64, c_void_p
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .backend import register_backend
from .fused import FusedEntry, FusedPlan, _prepare_keys
from .numpy_backend import NumpyKernelBackend

__all__ = [
    "NativeKernelBackend",
    "native_available",
    "native_build_error",
    "native_openmp",
    "native_self_test",
    "native_threads",
    "set_native_threads",
]

#: Worker threads for the native row loops (default 1; results are
#: bit-identical for any value — see :func:`set_native_threads`).
THREADS_ENV_VAR = "REPRO_NATIVE_THREADS"

#: The hash families' Mersenne prime modulus ``2³¹ − 1``.
_P31 = 2**31 - 1

_C_SOURCE = r"""
#include <stdint.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define P31 2147483647ULL /* the Mersenne prime 2^31 - 1 */

/* Worker-thread count for the row loops.  Rows write disjoint output
 * slices and each row's accumulation keeps stream order, so any value
 * here produces bit-identical results; 1 (the default) skips the
 * OpenMP runtime entirely via the if() clauses below. */
static int64_t repro_threads = 1;

void repro_set_threads(int64_t threads) {
    repro_threads = threads < 1 ? 1 : threads;
}

int64_t repro_get_threads(void) { return repro_threads; }

int64_t repro_openmp_compiled(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* One lazy fold: congruent mod P31 (2^31 = 1 mod P31), shrinks the value. */
static inline uint64_t fold31(uint64_t v) {
    return (v & P31) + (v >> 31);
}

/* Canonical residue from a lazily-folded value < 2^34. */
static inline uint64_t canon31(uint64_t v) {
    v = fold31(fold31(v));
    return v >= P31 ? v - P31 : v;
}

/* One Horner step with a single fold.  Entering with acc < 3 * 2^32 the
 * product acc * x + c stays below 2^64 (x < 2^31) and the fold returns
 * a value < 2^31 + acc/2 + 1 — so for polynomials up to degree 3
 * (k <= 4, all the sketch families) one fold per step suffices. */
static inline uint64_t step31(uint64_t acc, uint64_t x, uint64_t c) {
    return fold31(acc * x + c);
}

/* Fully-unrolled single-fold Horner for the small k the hash families
 * use (bucket hashes are k=2, fourwise signs k=4): straight-line code,
 * so the compiler can vectorize the key loop (8-wide vpmullq with
 * AVX-512DQ). */
static inline uint64_t horner31_k2(const uint64_t *c, uint64_t x) {
    return canon31(step31(c[0], x, c[1]));
}
static inline uint64_t horner31_k3(const uint64_t *c, uint64_t x) {
    return canon31(step31(step31(c[0], x, c[1]), x, c[2]));
}
static inline uint64_t horner31_k4(const uint64_t *c, uint64_t x) {
    return canon31(step31(step31(step31(c[0], x, c[1]), x, c[2]), x, c[3]));
}

/* Generic degree: two folds per step keep the accumulator bounded for
 * any k (invariant: acc <= 2^31 + 3 at the top of each iteration). */
static inline uint64_t horner31_gen(const uint64_t *c, int64_t k, uint64_t x) {
    uint64_t acc = c[0];
    int64_t j;
    for (j = 1; j < k; j++) {
        acc = fold31(fold31(acc * x + c[j]));
    }
    return canon31(acc);
}

/* One row's polynomial over a block of keys, dispatched once on k. */
static void poly_block(const uint64_t *c, int64_t k, const uint64_t *keys,
                       int64_t n, uint64_t *out) {
    int64_t i;
    switch (k) {
    case 1:
        for (i = 0; i < n; i++) out[i] = c[0];
        break;
    case 2:
        for (i = 0; i < n; i++) out[i] = horner31_k2(c, keys[i]);
        break;
    case 3:
        for (i = 0; i < n; i++) out[i] = horner31_k3(c, keys[i]);
        break;
    case 4:
        for (i = 0; i < n; i++) out[i] = horner31_k4(c, keys[i]);
        break;
    default:
        for (i = 0; i < n; i++) out[i] = horner31_gen(c, k, keys[i]);
    }
}

/* Hash values land in an L1-resident scratch block, the cheap post-op
 * (mask / modulus / parity) streams out of it. */
#define BLOCK 2048

/* Fused entry points take keys as 8-byte canonical uint64 or, on the
 * int32 fast path, 4-byte non-negative values widened block-wise here
 * (the block stays in L1, so the widening is free relative to DRAM). */
static inline const uint64_t *load_keys(const void *keys, int64_t kwidth,
                                        int64_t start, int64_t m,
                                        uint64_t *buf) {
    if (kwidth == 8) {
        return (const uint64_t *)keys + start;
    }
    {
        const uint32_t *narrow = (const uint32_t *)keys + start;
        int64_t i;
        for (i = 0; i < m; i++) buf[i] = (uint64_t)narrow[i];
    }
    return buf;
}

void repro_poly_mod_p(const uint64_t *coeffs, int64_t rows, int64_t k,
                      const uint64_t *keys, int64_t n, uint64_t *out) {
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        poly_block(coeffs + r * k, k, keys, n, out + r * n);
    }
}

void repro_bucket_indices(const uint64_t *coeffs, int64_t rows, int64_t k,
                          const uint64_t *keys, int64_t n, int64_t buckets,
                          int64_t *out) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    /* Lemire's exact mul-shift modulus: for 32-bit h and b,
     * h % b == (uint64)(((__uint128_t)(h * M) * b) >> 64)
     * with M = 2^64 / b rounded up.  Both operands are < 2^31. */
    uint64_t M = UINT64_MAX / b + 1;
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * k;
        int64_t *o = out + r * n;
        uint64_t buf[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            int64_t i;
            poly_block(c, k, keys + start, m, buf);
            if (pow2) {
                for (i = 0; i < m; i++) o[start + i] = (int64_t)(buf[i] & mask);
            } else {
                for (i = 0; i < m; i++) {
                    uint64_t low = buf[i] * M;
                    o[start + i] =
                        (int64_t)((uint64_t)(((__uint128_t)low * b) >> 64));
                }
            }
        }
    }
}

void repro_parity_signs(const uint64_t *coeffs, int64_t rows, int64_t k,
                        const uint64_t *keys, int64_t n, int8_t *out) {
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + r * k;
        int8_t *o = out + r * n;
        uint64_t buf[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            poly_block(c, k, keys + start, m, buf);
            for (int64_t i = 0; i < m; i++) {
                o[start + i] = (int8_t)(((buf[i] & 1) << 1) - 1);
            }
        }
    }
}

void repro_scatter(double *counters, int64_t rows, int64_t buckets,
                   const int64_t *indices, int64_t n, const double *weights) {
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        double *c = counters + r * buckets;
        const int64_t *idx = indices + r * n;
        int64_t i;
        if (weights) {
            for (i = 0; i < n; i++) c[idx[i]] += weights[i];
        } else {
            for (i = 0; i < n; i++) c[idx[i]] += 1.0;
        }
    }
}

void repro_signed_scatter(double *counters, int64_t rows, int64_t buckets,
                          const int64_t *indices, const int8_t *signs,
                          int64_t n, const double *weights) {
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        double *c = counters + r * buckets;
        const int64_t *idx = indices + r * n;
        const int8_t *s = signs + r * n;
        int64_t i;
        if (weights) {
            for (i = 0; i < n; i++) c[idx[i]] += (double)s[i] * weights[i];
        } else {
            for (i = 0; i < n; i++) c[idx[i]] += (double)s[i];
        }
    }
}

/* ------------------------------------------------------------------
 * Fused multi-sketch kernels: hash and accumulate per key while it is
 * in a register — no (rows, n) index/sign matrices are materialized.
 * Each matches the separate path bit for bit: same horner31_k2/_k4
 * residues, same pow2/Lemire bucket reduction, same per-row stream
 * order of the scatter accumulation.
 * ------------------------------------------------------------------ */

/* Unweighted AGMS: per row, sum(+/-1 signs) == 2 * #odd - n, counted in
 * registers.  The int64 count is exact, so adding it to the float64
 * counter matches the separate sign_sum path bit for bit. */
void repro_fused_agms(const uint64_t *coeffs, int64_t rows, const void *keys,
                      int64_t kwidth, int64_t n, int64_t *rowsums) {
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *c = coeffs + 4 * r;
        uint64_t kbuf[BLOCK];
        int64_t odd = 0;
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            for (int64_t i = 0; i < m; i++) {
                odd += (int64_t)(horner31_k4(c, kb[i]) & 1);
            }
        }
        rowsums[r] = 2 * odd - n;
    }
}

/* F-AGMS: bucket index (k=2) and sign (k=4) per key in one pass, then a
 * stream-order scatter over the L1-resident block. */
void repro_fused_signed(const uint64_t *bcoeffs, const uint64_t *scoeffs,
                        int64_t rows, const void *keys, int64_t kwidth,
                        int64_t n, int64_t buckets, double *counters,
                        const double *weights) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    uint64_t M = UINT64_MAX / b + 1;
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *bc = bcoeffs + 2 * r;
        const uint64_t *sc = scoeffs + 4 * r;
        double *c = counters + r * buckets;
        uint64_t kbuf[BLOCK];
        int64_t idx[BLOCK];
        int8_t sg[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            int64_t i;
            if (pow2) {
                for (i = 0; i < m; i++) {
                    uint64_t x = kb[i];
                    idx[i] = (int64_t)(horner31_k2(bc, x) & mask);
                    sg[i] = (int8_t)(((horner31_k4(sc, x) & 1) << 1) - 1);
                }
            } else {
                for (i = 0; i < m; i++) {
                    uint64_t x = kb[i];
                    uint64_t low = horner31_k2(bc, x) * M;
                    idx[i] = (int64_t)((uint64_t)(((__uint128_t)low * b) >> 64));
                    sg[i] = (int8_t)(((horner31_k4(sc, x) & 1) << 1) - 1);
                }
            }
            if (weights) {
                const double *w = weights + start;
                for (i = 0; i < m; i++) c[idx[i]] += (double)sg[i] * w[i];
            } else {
                for (i = 0; i < m; i++) c[idx[i]] += (double)sg[i];
            }
        }
    }
}

/* Count-Min: like the signed kernel without the sign hash. */
void repro_fused_unsigned(const uint64_t *bcoeffs, int64_t rows,
                          const void *keys, int64_t kwidth, int64_t n,
                          int64_t buckets, double *counters,
                          const double *weights) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    uint64_t M = UINT64_MAX / b + 1;
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *bc = bcoeffs + 2 * r;
        double *c = counters + r * buckets;
        uint64_t kbuf[BLOCK];
        int64_t idx[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            int64_t i;
            if (pow2) {
                for (i = 0; i < m; i++) {
                    idx[i] = (int64_t)(horner31_k2(bc, kb[i]) & mask);
                }
            } else {
                for (i = 0; i < m; i++) {
                    uint64_t low = horner31_k2(bc, kb[i]) * M;
                    idx[i] = (int64_t)((uint64_t)(((__uint128_t)low * b) >> 64));
                }
            }
            if (weights) {
                const double *w = weights + start;
                for (i = 0; i < m; i++) c[idx[i]] += w[i];
            } else {
                for (i = 0; i < m; i++) c[idx[i]] += 1.0;
            }
        }
    }
}

/* Point reads: per row, the counter the fused update would hit for each
 * key, times that key's sign when scoeffs is non-null (F-AGMS) and as is
 * when it is null (Count-Min).  Same residues and bucket reduction as
 * the kernels above; counters are only read, so a frozen snapshot's
 * matrix is fine.  out is (rows, n). */
void repro_fused_read(const uint64_t *bcoeffs, const uint64_t *scoeffs,
                      int64_t rows, const void *keys, int64_t kwidth,
                      int64_t n, int64_t buckets, const double *counters,
                      double *out) {
    uint64_t b = (uint64_t)buckets;
    int pow2 = (b & (b - 1)) == 0;
    uint64_t mask = b - 1;
    uint64_t M = UINT64_MAX / b + 1;
#pragma omp parallel for schedule(static) num_threads((int)repro_threads) \
    if (repro_threads > 1)
    for (int64_t r = 0; r < rows; r++) {
        const uint64_t *bc = bcoeffs + 2 * r;
        const uint64_t *sc = scoeffs ? scoeffs + 4 * r : 0;
        const double *c = counters + r * buckets;
        double *o = out + r * n;
        uint64_t kbuf[BLOCK];
        for (int64_t start = 0; start < n; start += BLOCK) {
            int64_t m = n - start < BLOCK ? n - start : BLOCK;
            const uint64_t *kb = load_keys(keys, kwidth, start, m, kbuf);
            for (int64_t i = 0; i < m; i++) {
                uint64_t x = kb[i];
                uint64_t h = horner31_k2(bc, x);
                int64_t idx = pow2
                    ? (int64_t)(h & mask)
                    : (int64_t)((uint64_t)(((__uint128_t)(h * M) * b) >> 64));
                double v = c[idx];
                if (sc) {
                    v *= (double)(int8_t)(((horner31_k4(sc, x) & 1) << 1) - 1);
                }
                o[start + i] = v;
            }
        }
    }
}
"""

_U64P = POINTER(c_uint64)
_I64P = POINTER(c_int64)
_I8P = POINTER(c_int8)
_F64P = POINTER(c_double)

_lib: Optional[ctypes.CDLL] = None
_build_error: Optional[str] = None


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes so ctypes checks the call signatures."""
    lib.repro_poly_mod_p.argtypes = [_U64P, c_int64, c_int64, _U64P, c_int64, _U64P]
    lib.repro_poly_mod_p.restype = None
    lib.repro_bucket_indices.argtypes = [
        _U64P, c_int64, c_int64, _U64P, c_int64, c_int64, _I64P,
    ]
    lib.repro_bucket_indices.restype = None
    lib.repro_parity_signs.argtypes = [_U64P, c_int64, c_int64, _U64P, c_int64, _I8P]
    lib.repro_parity_signs.restype = None
    lib.repro_scatter.argtypes = [_F64P, c_int64, c_int64, _I64P, c_int64, _F64P]
    lib.repro_scatter.restype = None
    lib.repro_signed_scatter.argtypes = [
        _F64P, c_int64, c_int64, _I64P, _I8P, c_int64, _F64P,
    ]
    lib.repro_signed_scatter.restype = None
    # The fused kernels take raw addresses: they run once per chunk and
    # per entry, where building typed pointers would cost more than a
    # small chunk's C pass.
    lib.repro_fused_agms.argtypes = [
        c_void_p, c_int64, c_void_p, c_int64, c_int64, c_void_p,
    ]
    lib.repro_fused_agms.restype = None
    lib.repro_fused_signed.argtypes = [
        c_void_p, c_void_p, c_int64, c_void_p, c_int64, c_int64, c_int64,
        c_void_p, c_void_p,
    ]
    lib.repro_fused_signed.restype = None
    lib.repro_fused_unsigned.argtypes = [
        c_void_p, c_int64, c_void_p, c_int64, c_int64, c_int64, c_void_p,
        c_void_p,
    ]
    lib.repro_fused_unsigned.restype = None
    lib.repro_fused_read.argtypes = [
        c_void_p, c_void_p, c_int64, c_void_p, c_int64, c_int64, c_int64,
        c_void_p, c_void_p,
    ]
    lib.repro_fused_read.restype = None
    lib.repro_set_threads.argtypes = [c_int64]
    lib.repro_set_threads.restype = None
    lib.repro_get_threads.argtypes = []
    lib.repro_get_threads.restype = c_int64
    lib.repro_openmp_compiled.argtypes = []
    lib.repro_openmp_compiled.restype = c_int64


#: Compiler flags, tried in order until the toolchain accepts a set.
#: ``-march=native`` lets the compiler vectorize the straight-line Horner
#: loops (8-wide 64-bit multiplies with AVX-512DQ); ``-fopenmp`` enables
#: the threaded row loops.  The single-threaded portable compile is the
#: floor.
_FLAG_LADDER = (
    ("-march=native", "-fopenmp"),
    ("-march=native",),
    ("-fopenmp",),
    (),
)


def _compiler_identity(compiler: str) -> Optional[str]:
    """Resolved path and ``--version`` banner of *compiler*, if it runs."""
    path = shutil.which(compiler)
    if path is None:
        return None
    try:
        proc = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return f"{os.path.realpath(path)}\n{proc.stdout}"


def _cpu_flags() -> str:
    """The CPU feature flags a ``-march=native`` build may depend on."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
            for line in info:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor()


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _cache_dir() -> Optional[Path]:
    """The per-user build cache under the temp dir, or ``None`` if untrusted.

    The directory is created with mode 0700.  One that already exists is
    used only when it is a real directory owned by the caller and
    writable by nobody else — anyone who can write there could plant a
    library this process would load.
    """
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return None
    uid = getuid()
    path = Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    try:
        path.mkdir(mode=0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != uid
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return path


def _compile(compiler: str, build_dir: Path) -> Path:
    """Compile the embedded C source inside *build_dir*; return the object."""
    source = build_dir / "repro_kernels.c"
    source.write_text(_C_SOURCE)
    shared = build_dir / "repro_kernels.so"
    base = [compiler, "-O3", "-fPIC", "-shared", "-o", str(shared), str(source)]
    proc = None
    for extra in _FLAG_LADDER:
        proc = subprocess.run(
            base[:1] + list(extra) + base[1:], capture_output=True, text=True
        )
        if proc.returncode == 0:
            return shared
    detail = proc.stderr.strip() or proc.stdout.strip() or "no diagnostics"
    raise OSError(f"{' '.join(base)} failed: {detail}")


def _requested_threads() -> int:
    """The thread count ``REPRO_NATIVE_THREADS`` asks for (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise OSError(f"{THREADS_ENV_VAR}={raw!r} is not an integer") from None


def _load(shared: Path) -> ctypes.CDLL:
    """Load a compiled object and declare its entry points."""
    lib = ctypes.CDLL(str(shared))
    try:
        _declare(lib)
    except AttributeError as exc:
        raise OSError(f"{shared} is not a repro kernel library: {exc}") from None
    return lib


def _build() -> ctypes.CDLL:
    """Load the library from the per-user cache, building it on a miss.

    The cached object's name is ``<host>-<build>.so``: *host* digests
    the C source, the flag ladder, ``platform.machine()`` and the CPU
    flags; *build* digests *host* plus the compiler's resolved path and
    ``--version`` banner.  A new compiler therefore rebuilds, and a
    ``-march=native`` object never loads on another CPU.  When ``$CC``
    does not run at all, any build cached for this host still loads.
    A miss compiles into a staging directory inside the cache and is
    published with :func:`os.replace`, so concurrent builders never see
    a partial file.  An untrusted cache directory, or a cached object
    that will not load, falls back to a private per-process build.  A
    fresh build that will not load writes ``<host>-<build>.failed``
    instead: a private build in the same temp dir would fail alike, so
    this and every later process raise at once rather than recompile.
    """
    compiler = os.environ.get("CC", "cc")
    identity = _compiler_identity(compiler)
    cache = _cache_dir()
    host = _digest(
        _C_SOURCE, repr(_FLAG_LADDER), platform.machine(), _cpu_flags()
    )[:16]
    if identity is None:
        candidates = [] if cache is None else sorted(
            cache.glob(f"{host}-*.so"),
            key=lambda path: path.stat().st_mtime,
            reverse=True,
        )
        for cached in candidates:
            try:
                return _load(cached)
            except OSError:
                continue
        raise OSError(
            f"C compiler {compiler!r} does not run and no build is cached "
            "for this host"
        )
    if cache is not None:
        target = cache / f"{host}-{_digest(host, identity)}.so"
        failed = target.with_suffix(".failed")
        if failed.exists():
            raise OSError(
                f"a fresh build in {cache} would not load; "
                f"delete {failed.name} there to retry"
            )
        fresh = not target.exists()
        if fresh:
            staging = Path(tempfile.mkdtemp(prefix="build-", dir=cache))
            try:
                os.replace(_compile(compiler, staging), target)
            finally:
                shutil.rmtree(staging, ignore_errors=True)
        try:
            return _load(target)
        except OSError as exc:
            # Drop the object so the next process rebuilds the cache.
            target.unlink(missing_ok=True)
            if fresh:
                failed.write_text(f"{exc}\n")
                raise
            # A stale or damaged object: build privately now.
    private = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
    try:
        return _load(_compile(compiler, private))
    except OSError:
        shutil.rmtree(private, ignore_errors=True)
        raise


def _library() -> ctypes.CDLL:
    """The compiled library, loaded or built on first use (once per process)."""
    global _lib, _build_error
    if _lib is None and _build_error is None:
        try:
            threads = _requested_threads()
            _lib = _build()
            _lib.repro_set_threads(threads)
        except OSError as exc:
            _build_error = str(exc)
    if _lib is None:
        raise ConfigurationError(
            f"native kernel backend unavailable: {_build_error}"
        )
    return _lib


def native_available() -> bool:
    """Whether the compiled backend can be built and loaded on this machine."""
    try:
        _library()
    except ConfigurationError:
        return False
    return True


def native_build_error() -> Optional[str]:
    """The build failure message, or ``None`` if the library loaded."""
    try:
        _library()
    except ConfigurationError:
        return _build_error
    return None


def native_openmp() -> bool:
    """Whether the loaded library was compiled with OpenMP support."""
    return bool(_library().repro_openmp_compiled())


def set_native_threads(threads: int) -> int:
    """Set the worker-thread count for the native row loops.

    Returns the *effective* count: libraries compiled without OpenMP
    (toolchain lacks ``-fopenmp``) always run single-threaded, so the
    call is accepted but reports 1.  Any value is bit-identity-safe —
    rows write disjoint slices in stream order — so this is purely a
    throughput knob.  The default is 1; ``REPRO_NATIVE_THREADS`` seeds
    it at first library load.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    lib = _library()
    lib.repro_set_threads(threads)
    return native_threads()


def native_threads() -> int:
    """The effective native thread count (1 without OpenMP support)."""
    lib = _library()
    if not lib.repro_openmp_compiled():
        return 1
    return int(lib.repro_get_threads())


def _u64(array: np.ndarray):
    return array.ctypes.data_as(_U64P)


def _readable_address(counters: np.ndarray) -> int:
    """Address of the counter matrix for kernels that only read it."""
    if not counters.flags.c_contiguous:
        raise ConfigurationError(
            "native backend needs C-contiguous counters; got a strided view"
        )
    return counters.ctypes.data


def _counter_address(counters: np.ndarray) -> int:
    """Address of the counter matrix, which the C side mutates in place."""
    if not counters.flags.writeable:
        # The C code would write straight through a frozen snapshot.
        raise ConfigurationError(
            "native backend cannot update read-only counters"
        )
    return _readable_address(counters)


def _counter_pointer(counters: np.ndarray):
    """Typed pointer to the counter matrix (see :func:`_counter_address`)."""
    return ctypes.cast(_counter_address(counters), _F64P)


class NativeKernelBackend(NumpyKernelBackend):
    """Compiled single-pass hashing, scatter, and fused-update primitives.

    Inherits the numpy implementations for everything it does not
    accelerate (gather, AGMS sign reductions, EH3/tabulation families).
    The default backend whenever the library loads and passes
    :func:`native_self_test`; ``set_backend("native")`` or
    ``REPRO_KERNEL_BACKEND=native`` activate it explicitly, which raises
    :class:`~repro.errors.ConfigurationError` when neither a C compiler
    nor a cached build is available (see :func:`native_available`).
    """

    name = "native"

    def check_available(self) -> None:
        """Raise unless the library loads (built or cached)."""
        _library()

    #: Fused kernels widen int32/uint32 keys block-wise in C (see
    #: :func:`repro.kernels.fused.fused_update`).
    fused_accepts_int32 = True

    # REP002 note: the uint64/int8 buffers below are hash values and ±1
    # signs, never accumulators — counters stay float64 throughout.

    def polynomial_mod_p(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Fused Horner over all rows in one C pass."""
        rows, k = coefficients.shape
        out = np.empty((rows, keys.size), dtype=np.uint64)
        if keys.size:
            _library().repro_poly_mod_p(
                _u64(np.ascontiguousarray(coefficients)),
                rows,
                k,
                _u64(np.ascontiguousarray(keys)),
                keys.size,
                _u64(out),
            )
        return out

    def bucket_indices(
        self, coefficients: np.ndarray, keys: np.ndarray, buckets: int
    ) -> np.ndarray:
        """Fused Horner + ``mod buckets`` in one C pass."""
        rows, k = coefficients.shape
        out = np.empty((rows, keys.size), dtype=np.int64)
        if keys.size:
            _library().repro_bucket_indices(
                _u64(np.ascontiguousarray(coefficients)),
                rows,
                k,
                _u64(np.ascontiguousarray(keys)),
                keys.size,
                buckets,
                out.ctypes.data_as(_I64P),
            )
        return out

    def parity_signs(
        self, coefficients: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Fused Horner + parity map in one C pass."""
        rows, k = coefficients.shape
        out = np.empty((rows, keys.size), dtype=np.int8)
        if keys.size:
            _library().repro_parity_signs(
                _u64(np.ascontiguousarray(coefficients)),
                rows,
                k,
                _u64(np.ascontiguousarray(keys)),
                keys.size,
                out.ctypes.data_as(_I8P),
            )
        return out

    def scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Element-wise accumulation in stream order (same as ``np.add.at``)."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        _library().repro_scatter(
            _counter_pointer(counters),
            rows,
            buckets,
            np.ascontiguousarray(indices).ctypes.data_as(_I64P),
            n,
            None
            if weights is None
            else np.ascontiguousarray(weights).ctypes.data_as(_F64P),
        )

    def signed_scatter_add(
        self,
        counters: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Element-wise signed accumulation in stream order."""
        rows, buckets = counters.shape
        n = indices.shape[1]
        if n == 0:
            return
        _library().repro_signed_scatter(
            _counter_pointer(counters),
            rows,
            buckets,
            np.ascontiguousarray(indices).ctypes.data_as(_I64P),
            np.ascontiguousarray(signs).ctypes.data_as(_I8P),
            n,
            None
            if weights is None
            else np.ascontiguousarray(weights).ctypes.data_as(_F64P),
        )

    def fused_update(self, plan, keys: np.ndarray, weights=None) -> None:
        """Per-sketch single-pass C kernels over one prepared key batch.

        Polynomial-family entries run fully in C (no intermediate
        index/sign matrices); EH3-signed entries and the weighted AGMS
        reduction fall back to the replayed primitives (C hashing + the
        numpy sign reductions), keeping every entry bit-identical to the
        reference backend.  Each entry's kernel and fixed arguments are
        resolved once per plan (:func:`_plan_kernels`), so a small chunk
        pays one C call per entry and little else.
        """
        kernels = getattr(plan, "_native_kernels", None)
        if kernels is None:
            kernels = plan._native_kernels = _plan_kernels(_library(), plan)
        n = keys.size
        kwidth = keys.dtype.itemsize
        if kwidth not in (4, 8):
            keys = keys.astype(np.uint64)
            kwidth = 8
        key_address = keys.ctypes.data
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        weight_address = None if weights is None else weights.ctypes.data
        wide = None
        for entry, kernel in zip(plan.entries, kernels):
            if kernel is not None and entry.kind != "agms":
                function, head, tail = kernel
                function(*head, key_address, kwidth, n, *tail, weight_address)
            elif kernel is not None and weights is None:
                function, head, _ = kernel
                rowsums = np.empty(entry.rows, dtype=np.int64)
                function(*head, key_address, kwidth, n, rowsums.ctypes.data)
                entry.counters += rowsums.astype(np.float64)
            else:
                if wide is None:
                    # Canonical uint64 keys for the numpy-path fallbacks
                    # (lazy import: hashing imports this package).
                    from ..hashing.families import _as_uint64

                    wide = _as_uint64(keys)
                entry.replay(self, wide, weights)

    def fused_estimate(self, plan, keys: np.ndarray) -> np.ndarray:
        """Per-row point reads of every plan entry, one C call per entry.

        fagms (fourwise signs) and countmin entries hash, sign and read
        each key in C (:func:`_plan_readers`, resolved once per plan);
        EH3-signed entries replay through the primitives.  Counters are
        never written, so read-only (snapshot) counters are accepted.
        """
        resolved = getattr(plan, "_native_readers", None)
        if resolved is None:
            resolved = plan._native_readers = _plan_readers(_library(), plan)
        read, total_rows, readers = resolved
        keys = np.ascontiguousarray(keys)
        n = keys.size
        kwidth = keys.dtype.itemsize
        if kwidth not in (4, 8):
            keys = keys.astype(np.uint64)
            kwidth = 8
        out = np.empty((total_rows, n), dtype=np.float64)
        if n == 0:
            return out
        key_address = keys.ctypes.data
        out_address = out.ctypes.data
        for entry, (first, args) in zip(plan.entries, readers):
            if args is not None:
                head, tail = args
                read(*head, key_address, kwidth, n, *tail, out_address + 8 * first * n)
            else:
                from ..hashing.families import _as_uint64

                out[first:first + entry.rows] = entry.read(self, _as_uint64(keys))
        return out


def _coefficient_address(coefficients: np.ndarray) -> int:
    if coefficients.dtype != np.uint64 or not coefficients.flags.c_contiguous:
        raise ConfigurationError(
            "native backend needs C-contiguous uint64 hash coefficients"
        )
    return coefficients.ctypes.data


def _poly_signs(entry) -> bool:
    """Whether *entry*'s signs are the fourwise polynomial the C code hashes."""
    return (
        entry.sign_kind == "poly"
        and entry.sign_coefficients is not None
        and entry.sign_coefficients.shape[1] == 4
    )


def _plan_kernels(lib: ctypes.CDLL, plan) -> tuple:
    """Per entry ``(kernel, leading args, trailing args)``, or ``None``.

    ``None`` marks an entry that replays through the primitives (EH3
    signs).  A plan references its coefficient and counter arrays for
    life and numpy never moves an array's data, so their addresses are
    resolved once here rather than per chunk.
    """
    kernels = []
    for entry in plan.entries:
        poly_signs = _poly_signs(entry)
        if entry.kind == "countmin":
            kernels.append((
                lib.repro_fused_unsigned,
                (_coefficient_address(entry.bucket_coefficients), entry.rows),
                (entry.buckets, _counter_address(entry.counters)),
            ))
        elif not poly_signs:
            kernels.append(None)
        elif entry.kind == "fagms":
            kernels.append((
                lib.repro_fused_signed,
                (
                    _coefficient_address(entry.bucket_coefficients),
                    _coefficient_address(entry.sign_coefficients),
                    entry.rows,
                ),
                (entry.buckets, _counter_address(entry.counters)),
            ))
        else:
            kernels.append((
                lib.repro_fused_agms,
                (_coefficient_address(entry.sign_coefficients), entry.rows),
                (),
            ))
    return tuple(kernels)


def _plan_readers(lib: ctypes.CDLL, plan) -> tuple:
    """The read kernel, the plan's total rows, and per entry ``(first
    output row, read args)``, where args ``None`` means a replay.

    The read twin of :func:`_plan_kernels`: fagms entries with fourwise
    signs and countmin entries read in C; EH3-signed (and agms) entries
    replay through :meth:`~repro.kernels.fused.FusedEntry.read`.  The
    counter address skips the writeable check, so a frozen snapshot's
    counters stay readable.
    """
    readers = []
    first = 0
    for entry in plan.entries:
        args = None
        if entry.kind == "countmin" or (
            entry.kind == "fagms" and _poly_signs(entry)
        ):
            args = (
                _coefficient_address(entry.bucket_coefficients),
                None
                if entry.kind == "countmin"
                else _coefficient_address(entry.sign_coefficients),
                entry.rows,
            ), (entry.buckets, _readable_address(entry.counters))
        readers.append((first, args))
        first += entry.rows
    return lib.repro_fused_read, first, tuple(readers)


#: The self-test batch: both ends of the hash domain plus 509 keys spread
#: across it (every value fits int32 and int64), and integer weights in
#: [-3, 3] for the weighted pass.  Built with Python integers so the
#: check touches no numpy code the update path itself does not.
_SELF_TEST_KEYS = [0, _P31 - 2] + [i * 4219957 % (_P31 - 1) for i in range(509)]
_SELF_TEST_WEIGHTS = [i % 7 - 3 for i in range(len(_SELF_TEST_KEYS))]

#: sha256 of the self-test plan's counters after the ``reference``
#: backend applied the batch, unweighted (``False``) and weighted
#: (``True``).  ``tests/test_kernels.py`` re-derives both from the
#: reference backend, so these are its output, recorded: the self-test
#: then costs one native pass per case instead of a reference replay,
#: whose first run pages in ~0.5 MB of numpy and BLAS code a process
#: would otherwise never touch.
#: ``"read"`` digests the reference backend's ``fused_estimate`` of the
#: batch over fixed counters (:func:`_self_test_read_digest`).
_SELF_TEST_DIGESTS = {
    False: "ed0d01fb8ebc75eb64cc6bbcc0920a5f5577c91f0b886fe64755c2aa0948629b",
    True: "e9591178e83debaa64b8428b2169a321e81eaa6be8a0272837138f8c8dc3685d",
    "read": "f0941113dd2394ec06fdbe9b29fa02ddc5849a0e40cd93360444d497b7a0505e",
}


def _self_test_plan(weighted: bool) -> FusedPlan:
    """Fresh zeroed fagms (power-of-two and Lemire buckets) and countmin
    entries over fixed canonical coefficients, plus an agms entry when
    unweighted: a weighted agms update runs the inherited numpy
    ``sign_dot``, not C, and its matmul would page BLAS code into every
    process that runs the self-test."""
    coefficients = np.array(
        [i * 2654435761 % _P31 for i in range(1, 35)], dtype=np.uint64
    )
    bucket = coefficients[:6].reshape(3, 2)
    sign = coefficients[6:18].reshape(3, 4)
    entries = [
        FusedEntry("fagms", np.zeros((3, 64)), 3, 64, bucket, "poly", sign),
        FusedEntry("fagms", np.zeros((3, 37)), 3, 37, bucket, "poly", sign),
        FusedEntry("countmin", np.zeros((3, 37)), 3, 37, bucket),
    ]
    if not weighted:
        entries.append(
            FusedEntry(
                "agms",
                np.zeros(4),
                4,
                sign_kind="poly",
                sign_coefficients=coefficients[18:34].reshape(4, 4),
                scratch=np.empty(4),
            )
        )
    return FusedPlan(entries=tuple(entries))


def _self_test_digest(backend, key_dtype, weighted: bool) -> str:
    """sha256 of the self-test plan's counters after *backend* applies the
    batch with *key_dtype* keys through its ``fused_update`` seam method."""
    plan = _self_test_plan(weighted)
    keys = np.array(_SELF_TEST_KEYS, dtype=key_dtype)
    weights = np.array(_SELF_TEST_WEIGHTS, dtype=np.float64) if weighted else None
    backend.fused_update(
        plan, _prepare_keys(keys, plan.key_bound, backend), weights
    )
    counters = b"".join(
        entry.counters.astype("<f8").tobytes() for entry in plan.entries
    )
    return hashlib.sha256(counters).hexdigest()


def _self_test_read_digest(backend, key_dtype) -> str:
    """sha256 of *backend*'s ``fused_estimate`` of the batch (*key_dtype*
    keys) over the fagms and countmin entries, whose counters hold a
    fixed pattern of small integers with zeros among them (so the signed
    reads include ``-0.0``)."""
    plan = _self_test_plan(weighted=True)
    for number, entry in enumerate(plan.entries):
        size = entry.counters.size
        pattern = np.arange(size, dtype=np.float64) * (number + 3) % 11 - 5
        entry.counters[...] = pattern.reshape(entry.counters.shape)
    keys = np.array(_SELF_TEST_KEYS, dtype=key_dtype)
    reads = backend.fused_estimate(
        plan, _prepare_keys(keys, plan.key_bound, backend)
    )
    return hashlib.sha256(reads.astype("<f8").tobytes()).hexdigest()


def native_self_test() -> bool:
    """Whether the native library loads and matches ``reference`` bit for bit.

    Runs one small fixed batch through the native backend's
    ``fused_update`` (the seam every sketch update crosses) for every
    combination of int32/int64 keys and unweighted/integer-weighted
    updates, over fagms (power-of-two and non-power-of-two buckets),
    countmin and (unweighted) agms entries, and compares the counters with the
    reference backend's for the same batch (:data:`_SELF_TEST_DIGESTS`).
    It then reads the batch back through ``fused_estimate`` (the seam
    every point query crosses) over the fagms and countmin entries, for
    int32 and int64 keys, against the reference backend's reads.
    The default backend selection activates native only when this
    returns ``True``.
    """
    try:
        _library()
    except ConfigurationError:
        return False
    native = NativeKernelBackend()
    return all(
        _self_test_digest(native, key_dtype, weighted)
        == _SELF_TEST_DIGESTS[weighted]
        for key_dtype in (np.int32, np.int64)
        for weighted in (False, True)
    ) and all(
        _self_test_read_digest(native, key_dtype) == _SELF_TEST_DIGESTS["read"]
        for key_dtype in (np.int32, np.int64)
    )


register_backend(NativeKernelBackend())
