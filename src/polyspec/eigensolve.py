"""Spectra of finite Dirichlet Hamiltonians via Sturm-sequence bisection.

The operator acts as (H psi)(n) = -t(n+1) psi(n+1) - t(n) psi(n-1) + v(n) psi(n)
restricted to {0, ..., L-1} with Dirichlet conditions, so the matrix is real
symmetric tridiagonal with diagonal v and off-diagonal entries -t(n).

Eigenvalue extraction is windowed by design: the statistics experiments need
only a handful of eigenvalues near a reference energy out of boxes with 1e4+
sites, so bisection on the Sturm count is the workhorse.  It bisects only
the (operator, eigenvalue index) pairs inside the window, and splits the
operators over the CPUs of the process's affinity set (`_in_row_ranges`);
the eigenvalues do not depend on the split.  A LAPACK-backed dense
decomposition serves as the independent oracle for small instances.  The C
source of the Sturm sweep also holds the package's other compiled loops: the
Philox4x64-10 disorder stream and box layout that `model` calls, and the
Lyapunov product that `transfer` calls, so one build and one cached library
serve them all.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import LatticeSequences

__all__ = [
    "TridiagonalOperator",
    "Spectrum",
    "build_hamiltonian",
    "gershgorin_interval",
    "sturm_count",
    "eigenvalues_in_window",
    "dense_oracle",
]

DENSE_ORACLE_CAP = 4096


def _freeze(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal operator with strictly negative couplings."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray  # hopping t(n) coupling sites n-1 and n, n = 1..L-1
    num_sites: int

    def __post_init__(self):
        object.__setattr__(self, "diagonal", _freeze(np.asarray(self.diagonal, float)))
        object.__setattr__(self, "offdiagonal", _freeze(np.asarray(self.offdiagonal, float)))
        if self.diagonal.shape != (self.num_sites,):
            raise ValueError("diagonal must have num_sites entries")
        if self.offdiagonal.shape != (max(self.num_sites - 1, 0),):
            raise ValueError("offdiagonal must have num_sites - 1 entries")
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.offdiagonal.size and not np.all(self.offdiagonal > 0):
            raise ValueError("all hoppings must be strictly positive")

    def to_dense(self) -> np.ndarray:
        H = np.diag(self.diagonal)
        idx = np.arange(self.num_sites - 1)
        H[idx, idx + 1] = -self.offdiagonal
        H[idx + 1, idx] = -self.offdiagonal
        return H


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing eigenvalues; ones closer than the bisection tol come out
    equal, listed once per multiplicity."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, float)))
        if self.eigenvalues.size > 1 and not np.all(np.diff(self.eigenvalues) >= 0):
            raise ValueError("eigenvalues must be nondecreasing")

    def __len__(self):
        return self.eigenvalues.size


def build_hamiltonian(seq: LatticeSequences) -> TridiagonalOperator:
    """Dirichlet restriction: boundary hoppings t(0) and t(L) are dropped."""
    return TridiagonalOperator(diagonal=seq.potentials,
                               offdiagonal=seq.hoppings[1:],
                               num_sites=seq.num_sites)


def gershgorin_interval(H: TridiagonalOperator) -> tuple[float, float]:
    tmax = float(H.offdiagonal.max()) if H.offdiagonal.size else 0.0
    return (float(H.diagonal.min()) - 2 * tmax, float(H.diagonal.max()) + 2 * tmax)


def _pivmin(v: np.ndarray, tsq: np.ndarray) -> float:
    scale = max(float(v.max(initial=1.0)), -float(v.min(initial=-1.0)))  # no |v| copy
    if tsq.size:
        scale = max(scale, float(tsq.max()))
    return np.finfo(float).eps * scale


# below this much work (site updates per bisection sweep, or matrix products)
# a call runs serially: starting a thread and interleaving the threads'
# numpy steps cost more than a second CPU saves
_SPLIT_FLOOR = 200_000


def _cpus() -> int:
    """CPUs this process may run on (its affinity set, so `taskset` limits it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_row_ranges(run, weights, work_per_weight: float) -> None:
    """Call run(r0, r1) on contiguous row ranges that together cover every
    row of positive weight, one range of near-equal total weight per CPU.

    The calling thread runs the first range and a per-call executor the
    others, so no thread outlives the call.  With one CPU, or when the
    total weight times work_per_weight is below _SPLIT_FLOOR, this is the
    single range of all rows.  `run` must touch only its own rows and call
    nothing of the package but the compiled kernels, so that every package
    function stays on the calling thread.
    """
    cum = np.concatenate([[0], np.cumsum(weights)])  # weight of the rows before each
    parts = _cpus() if cum[-1] * work_per_weight >= _SPLIT_FLOOR else 1
    # range j ends at the first row boundary with j/parts of the total weight before it
    bounds = np.unique(np.r_[0, np.searchsorted(cum, cum[-1] * np.arange(1, parts) / parts),
                             cum.size - 1]).tolist()
    ranges = [(r0, r1) for r0, r1 in zip(bounds[:-1], bounds[1:]) if cum[r1] > cum[r0]]
    if len(ranges) <= 1:
        for rows in ranges:
            run(*rows)
        return
    with ThreadPoolExecutor(len(ranges) - 1) as executor:
        futures = [executor.submit(run, *rows) for rows in ranges[1:]]
        run(*ranges[0])
        for f in futures:
            f.result()


_KERNELS_C = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* v (L, R) and tsq (L-1, R) hold one operator per column; realization r
   owns the flat columns off[r] .. off[r+1] - 1 of s, counts and d.  One call
   sweeps realizations r0 .. r1 - 1 and touches only their columns, so calls
   on disjoint realization ranges may run at once. */
void sturm_counts(int64_t L, int64_t R, int64_t r0, int64_t r1,
                  const int64_t *restrict off, const double *restrict v,
                  const double *restrict tsq, const double *restrict s, double pivmin,
                  int64_t *restrict counts, double *restrict d)
{
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t i1 = off[r + 1];
        for (int64_t i = off[r]; i < i1; ++i) {
            double x = v[r] - s[i];
            x = fabs(x) < pivmin ? -pivmin : x;
            d[i] = x;
            counts[i] = x < 0;
        }
    }
    /* sites outermost: each site's row of v and tsq is read once per sweep */
    for (int64_t n = 1; n < L; ++n) {
        const double *vn = v + n * R, *tn = tsq + (n - 1) * R;
        for (int64_t r = r0; r < r1; ++r) {
            const double vr = vn[r], tr = tn[r], *sr = s + off[r];
            double *dr = d + off[r];
            int64_t *cr = counts + off[r];
            const int64_t K = off[r + 1] - off[r];
            for (int64_t k = 0; k < K; ++k) {
                double x = (vr - sr[k]) - tr / dr[k];
                x = fabs(x) < pivmin ? -pivmin : x;
                dr[k] = x;
                cr[k] += x < 0;
            }
        }
    }
}

/* Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: x gets
   the block with counter (c, 0, 0, 0) under key k. */
static void philox_block(uint64_t c, const uint64_t *k, uint64_t *x)
{
    uint64_t c0 = c, c1 = 0, c2 = 0, c3 = 0, k0 = k[0], k1 = k[1];
    for (int i = 0; i < 10; ++i) {
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93u * c0;
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c1 = (uint64_t)p1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    x[0] = c0; x[1] = c1; x[2] = c2; x[3] = c3;
}

static uint32_t hashmix(uint32_t x, uint32_t *h)
{
    x ^= *h;
    *h *= 0x931e8875u;
    x *= *h;
    return x ^ (x >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t m = 0xca01f9ddu * x - 0x4973f715u * y;
    return m ^ (m >> 16);
}

/* keys (R, 2): the Philox key of numpy's SeedSequence(entropy=seed,
   spawn_key=(idx[r],)).generate_state(2, np.uint64).  The entropy words are
   the seed's two 32-bit halves padded to the pool size 4, then the spawn
   index's one word, or two from 2^32 on. */
void stream_keys(int64_t R, uint64_t seed, const uint64_t *idx, uint64_t *keys)
{
    for (int64_t r = 0; r < R; ++r) {
        const uint32_t words[6] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0,
                                   (uint32_t)idx[r], (uint32_t)(idx[r] >> 32)};
        const int n = idx[r] >> 32 ? 6 : 5;
        uint32_t pool[4], h = 0x43b0d7e5u, g = 0x8b51f9ddu, out[4];
        for (int i = 0; i < 4; ++i)
            pool[i] = hashmix(words[i], &h);
        for (int i = 0; i < 4; ++i)
            for (int m = 0; m < 4; ++m)
                if (m != i)
                    pool[m] = mix(pool[m], hashmix(pool[i], &h));
        for (int i = 4; i < n; ++i)
            for (int m = 0; m < 4; ++m)
                pool[m] = mix(pool[m], hashmix(words[i], &h));
        for (int i = 0; i < 4; ++i) {
            uint32_t x = pool[i] ^ g;
            g *= 0x58f38dedu;
            x *= g;
            out[i] = x ^ (x >> 16);
        }
        keys[2 * r] = out[0] | (uint64_t)out[1] << 32;
        keys[2 * r + 1] = out[2] | (uint64_t)out[3] << 32;
    }
}

/* GROUP streams, or GROUP products, advance in lockstep, so that their
   independent Philox rounds and matrix products overlap in the CPU */
enum { GROUP = 8, CHUNK = 256 };

/* below (R, n): whether draws j0 .. j0 + n - 1 of each stream (keys (R, 2))
   are below p, as numpy's Generator(Philox(key=k)).random(j0 + n)[j0:] < p:
   draw j is lane j % 4 of the block with counter j / 4 + 1, and its uniform
   is (x >> 11) 2^-53. */
void stream_below(int64_t R, const uint64_t *keys, uint64_t j0, uint64_t n, double p,
                  uint8_t *below)
{
    for (int64_t r0 = 0; r0 < R; r0 += GROUP) {
        /* a short last group repeats its last stream and stores only its own */
        const int64_t m = R - r0 < GROUP ? R - r0 : GROUP;
        uint64_t key[GROUP][2];
        for (int g = 0; g < GROUP; ++g) {
            const int64_t r = g < m ? r0 + g : R - 1;
            key[g][0] = keys[2 * r];
            key[g][1] = keys[2 * r + 1];
        }
        for (uint64_t c = j0 / 4; 4 * c < j0 + n; ++c) {
            const uint64_t lo = 4 * c < j0 ? j0 : 4 * c;
            const uint64_t hi = 4 * c + 4 < j0 + n ? 4 * c + 4 : j0 + n;
            uint64_t x[GROUP][4];
            for (int g = 0; g < GROUP; ++g)
                philox_block(c + 1, key[g], x[g]);
            for (int64_t g = 0; g < m; ++g) {
                uint8_t *out = below + (r0 + g) * n + (lo - j0);
                if (hi - lo == 4)  /* a whole block: a fixed trip count */
                    for (int q = 0; q < 4; ++q)
                        out[q] = (double)(x[g][q] >> 11) * 0x1p-53 < p;
                else
                    for (uint64_t j = lo; j < hi; ++j)
                        out[j - lo] = (double)(x[g][j % 4] >> 11) * 0x1p-53 < p;
            }
        }
    }
}

/* R boxes of L sites, one per stream: v (L, R) and tsq (L-1, R) get the
   potentials and squared hoppings of sites 0 .. L-1 and 1 .. L-1.  Each box
   lays polymer blocks from site 0, block b the plus polymer where draw b of
   its stream is below p; the last block is cut at site L-1.  pv and ptsq
   hold the plus polymer's lp sites, then the minus polymer's lm.  Returns -1
   if the scratch cannot be allocated, else 0. */
int fill_boxes(int64_t L, int64_t R, const uint64_t *keys, double p, int64_t lp,
               int64_t lm, const double *pv, const double *ptsq, double *v, double *tsq)
{
    const int64_t nb = (L - 1) / (lp < lm ? lp : lm) + 1;  /* blocks a box can need */
    /* one spare entry each: a zero-size request may return NULL */
    struct box { int64_t at, end, block; } *boxes = calloc(R + 1, sizeof *boxes);
    uint8_t *plus = malloc(R * nb + 1);
    if (boxes == NULL || plus == NULL) {
        free(boxes);
        free(plus);
        return -1;
    }
    stream_below(R, keys, 0, nb, p, plus);
    /* sites outermost: each site's row of v and tsq is written once, in order */
    for (int64_t n = 0; n < L; ++n) {
        for (int64_t r = 0; r < R; ++r) {
            struct box *b = boxes + r;
            if (b->at == b->end) {
                /* arithmetic, not a branch: the signs are coin flips */
                const int64_t minus = !plus[r * nb + b->block++];
                b->at = minus * lp;
                b->end = lp + minus * lm;
            }
            v[n * R + r] = pv[b->at];
            if (n > 0)
                tsq[(n - 1) * R + r] = ptsq[b->at];
            ++b->at;
        }
    }
    free(boxes);
    free(plus);
    return 0;
}

/* Advance R running 2x2 products P <- T P by steps j0 .. j0 + k - 1, step j
   taking T = tp where draw j of the realization's stream (keys (R, 2)) is
   below p and tm elsewhere.  P (R, 2, 2) and expo (R) are C-contiguous; tp
   and tm are row-major 2x2.  The true product is 2^expo P: when an entry of
   P exceeds 2^256, P is scaled by exactly 2^-256, so the only rounding is in
   the products.  A short last group repeats its last realization and stores
   only its own. */
void lyapunov_steps(int64_t R, const uint64_t *keys, uint64_t j0, uint64_t k, double p,
                    const double *tp, const double *tm, double *P, int64_t *expo)
{
    for (int64_t r0 = 0; r0 < R; r0 += GROUP) {
        uint64_t key[2 * GROUP];
        double a[GROUP], b[GROUP], c[GROUP], d[GROUP];
        int64_t e[GROUP];
        for (int g = 0; g < GROUP; ++g) {
            const int64_t r = r0 + g < R ? r0 + g : R - 1;
            key[2 * g] = keys[2 * r];
            key[2 * g + 1] = keys[2 * r + 1];
            a[g] = P[4 * r]; b[g] = P[4 * r + 1]; c[g] = P[4 * r + 2]; d[g] = P[4 * r + 3];
            e[g] = expo[r];
        }
        for (uint64_t j = j0; j < j0 + k; j += CHUNK) {
            const uint64_t n = j0 + k - j < CHUNK ? j0 + k - j : CHUNK;
            uint8_t plus[GROUP * CHUNK];
            stream_below(GROUP, key, j, n, p, plus);
            for (uint64_t i = 0; i < n; ++i)
                for (int g = 0; g < GROUP; ++g) {
                    const double *t = plus[g * n + i] ? tp : tm;
                    const double na = t[0] * a[g] + t[1] * c[g], nb = t[0] * b[g] + t[1] * d[g];
                    const double nc = t[2] * a[g] + t[3] * c[g], nd = t[2] * b[g] + t[3] * d[g];
                    a[g] = na; b[g] = nb; c[g] = nc; d[g] = nd;
                    if (fabs(na) > 0x1p256 || fabs(nb) > 0x1p256 || fabs(nc) > 0x1p256
                        || fabs(nd) > 0x1p256) {
                        a[g] *= 0x1p-256; b[g] *= 0x1p-256; c[g] *= 0x1p-256; d[g] *= 0x1p-256;
                        e[g] += 256;
                    }
                }
        }
        for (int g = 0; g < GROUP && r0 + g < R; ++g) {
            const int64_t r = r0 + g;
            P[4 * r] = a[g]; P[4 * r + 1] = b[g]; P[4 * r + 2] = c[g]; P[4 * r + 3] = d[g];
            expo[r] = e[g];
        }
    }
}
"""
# No -ffast-math and no FMA contraction: every pivot and product entry is
# rounded exactly as the expression reads, so no result depends on the build.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_DIR = Path(__file__).resolve().parent / "_kernel_cache"


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((ln.strip() for ln in f if ln.startswith("flags")), "")
    except OSError:
        return ""


def _build_kernel(cache_dir: Path, compiler: str = "cc") -> Path:
    """Path of the compiled kernels in cache_dir, built on a cache miss.

    The cache key covers the C source, the flags and the host CPU's feature
    flags (`-march=native`).  The library is written under a temporary name
    and renamed into place, so a failed or concurrent build leaves no partial
    file under the final name.
    """
    key = hashlib.sha256("\0".join((_KERNELS_C, *_CFLAGS, _cpu_flags())).encode())
    lib = cache_dir / f"kernels_{key.hexdigest()[:16]}.so"
    if lib.is_file():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    cmd = [compiler, *_CFLAGS, "-x", "c", "-", "-o", tmp]
    try:
        try:
            subprocess.run(cmd, input=_KERNELS_C, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise RuntimeError(
                f"building the compiled kernels failed: `{' '.join(cmd)}`: {detail}\n"
                "polyspec requires a C compiler: install one as `cc` on the PATH") from exc
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_kernel(lib: Path) -> ctypes.CDLL:
    """The library with typed entry points: the Sturm sweep, the Philox stream
    (`stream_keys`, `stream_below`), the box fill and the Lyapunov product."""
    dll = ctypes.CDLL(str(lib))
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
    n, j = ctypes.c_int64, ctypes.c_uint64
    dll.sturm_counts.argtypes = [n] * 4 + [i64, f64, f64, f64, ctypes.c_double, i64, f64]
    dll.stream_keys.argtypes = [n, j, u64, u64]
    dll.stream_below.argtypes = [n, u64, j, j, ctypes.c_double, u8]
    dll.fill_boxes.argtypes = [n, n, u64, ctypes.c_double, n, n, f64, f64, f64, f64]
    dll.lyapunov_steps.argtypes = [n, u64, j, j, ctypes.c_double, f64, f64, f64, i64]
    for f in (dll.sturm_counts, dll.stream_keys, dll.stream_below, dll.lyapunov_steps):
        f.restype = None
    dll.fill_boxes.restype = ctypes.c_int
    return dll


@functools.cache
def _kernel():
    return _load_kernel(_build_kernel(_CACHE_DIR))


def sturm_counts_batch(v: np.ndarray, tsq: np.ndarray,
                       shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue counts below each shift for a batch of operators.

    Parameters
    ----------
    v : (L, R) diagonals, one operator per column, L >= 1.
    tsq : (L-1, R) squared off-diagonal hoppings.
    shifts : (R, K) evaluation energies.

    Returns
    -------
    (counts, last_pivots), both (R, K).  `counts` are the negative-pivot
    counts of the LDL^T recursion d_n = (v_n - E) - t_n^2 / d_{n-1} of
    H - E; `last_pivots` are the final pivots d_{L-1}.  Pivots smaller in
    magnitude than pivmin are replaced by -pivmin, so an eigenvalue exactly
    at a shift counts as below it and no returned pivot is zero.  The
    recursion runs as one compiled loop, built on the first call.
    """
    v = np.ascontiguousarray(v, float)
    tsq = np.ascontiguousarray(tsq, float)
    shifts = np.ascontiguousarray(shifts, float)
    (L, R), (_, K) = v.shape, shifts.shape
    if L < 1 or tsq.shape != (L - 1, R) or shifts.shape[0] != R:
        raise ValueError(f"need v (L, R), tsq (L-1, R), shifts (R, K) with L >= 1; "
                         f"got {v.shape}, {tsq.shape}, {shifts.shape}")
    counts = np.empty((R, K), dtype=np.int64)
    d = np.empty((R, K))
    _kernel().sturm_counts(L, R, 0, R, np.arange(R + 1, dtype=np.int64) * K, v, tsq,
                           shifts, _pivmin(v, tsq), counts, d)
    return counts, d


def sturm_count(H: TridiagonalOperator, E) -> int | np.ndarray:
    """Number of eigenvalues below E (scalar or array of energies)."""
    shifts = np.atleast_1d(np.asarray(E, float))[None, :]
    counts, _ = sturm_counts_batch(H.diagonal[:, None], (H.offdiagonal ** 2)[:, None], shifts)
    return int(counts[0, 0]) if np.isscalar(E) or np.ndim(E) == 0 else counts[0]


def eigenvalues_in_window_batch(v: np.ndarray, tsq: np.ndarray, a: float, b: float,
                                tol: float = 1e-11) -> list[np.ndarray]:
    """All eigenvalues in [a, b) for a batch of same-size operators.

    Sturm counts at a and b give each operator's eigenvalue indices in the
    window; only those (operator, index) pairs are bisected, each to a
    bracket of width <= tol, with every pair halving its bracket once per
    sweep.  The operators are split into contiguous ranges of near-equal
    pair count that run on one thread each (see _in_row_ranges); every pair
    bisects on its own bracket, so the result is the same for any split.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not b > a:
        raise ValueError("window must be nonempty")
    v = np.ascontiguousarray(v, float)
    tsq = np.ascontiguousarray(tsq, float)
    L, R = v.shape
    ends, _ = sturm_counts_batch(v, tsq, np.tile([[a, b]], (R, 1)))
    na, nb = ends[:, 0], ends[:, 1]
    # operator r owns the packed columns off[r] .. off[r+1] - 1, one per
    # 0-based eigenvalue index in the window
    off = np.concatenate([[0], np.cumsum(nb - na)])
    C = int(off[-1])
    target = np.arange(C) + np.repeat(na - off[:-1], nb - na)
    lo, hi, mid, d = np.full(C, a), np.full(C, b), np.empty(C), np.empty(C)
    counts = np.empty(C, dtype=np.int64)
    sweeps = max(int(np.ceil(np.log2((b - a) / tol))), 1)
    sweep, pivmin = _kernel().sturm_counts, _pivmin(v, tsq)

    def bisect(r0: int, r1: int) -> None:
        cols = slice(off[r0], off[r1])
        lo_r, hi_r, mid_r = lo[cols], hi[cols], mid[cols]
        counts_r, target_r = counts[cols], target[cols]
        for _ in range(sweeps):
            np.multiply(0.5, lo_r + hi_r, out=mid_r)
            sweep(L, R, r0, r1, off, v, tsq, mid, pivmin, counts, d)
            above = counts_r <= target_r
            np.copyto(lo_r, mid_r, where=above)
            np.copyto(hi_r, mid_r, where=~above)

    _in_row_ranges(bisect, nb - na, L)
    return [np.sort(x) for x in np.split(0.5 * (lo + hi), off[1:-1])]


def eigenvalues_in_window(H: TridiagonalOperator, window, tol: float = 1e-11) -> Spectrum:
    """Eigenvalues of H inside `window`, each bracketed to width <= tol."""
    a, b = float(window[0]), float(window[1])
    evs = eigenvalues_in_window_batch(H.diagonal[:, None], (H.offdiagonal ** 2)[:, None],
                                      a, b, tol)[0]
    return Spectrum(eigenvalues=evs)


def dense_oracle(H: TridiagonalOperator, cap: int = DENSE_ORACLE_CAP):
    """Full eigendecomposition via LAPACK, for cross-checking small instances.

    Returns (Spectrum, eigenvector matrix) with orthonormal columns; in each
    column the largest-magnitude entry is positive.
    """
    if H.num_sites > cap:
        raise ValueError(f"dense oracle capped at {cap} sites, got {H.num_sites}")
    if H.num_sites == 1:
        return Spectrum(eigenvalues=H.diagonal.copy()), np.ones((1, 1))
    w, Phi = eigh_tridiagonal(H.diagonal, -H.offdiagonal)
    flip = Phi[np.argmax(np.abs(Phi), axis=0), np.arange(H.num_sites)] < 0
    Phi[:, flip] = -Phi[:, flip]
    return Spectrum(eigenvalues=w), Phi
