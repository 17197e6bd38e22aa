"""Spectra of finite Dirichlet Hamiltonians via Sturm-sequence bisection.

The operator acts as (H psi)(n) = -t(n+1) psi(n+1) - t(n) psi(n-1) + v(n) psi(n)
restricted to {0, ..., L-1} with Dirichlet conditions, so the matrix is real
symmetric tridiagonal with diagonal v and off-diagonal entries -t(n).

Eigenvalue extraction is windowed by design: the statistics experiments need
only a handful of eigenvalues near a reference energy out of boxes with 1e4+
sites, so bisection on the Sturm count is the workhorse.  A LAPACK-backed
dense decomposition serves as the independent oracle for small instances.
The C source of the Sturm sweep also holds the Lyapunov product loop that
`transfer` calls, so one build and one cached library serve both.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
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


_KERNELS_C = r"""
#include <math.h>
#include <stdint.h>

/* v (L, R), tsq (L-1, R), s, counts and d (R, K), all C-contiguous. */
void sturm_counts(int64_t L, int64_t R, int64_t K, const double *v,
                  const double *tsq, const double *s, double pivmin,
                  int64_t *counts, double *d)
{
    for (int64_t i = 0; i < R * K; ++i) {
        double x = v[i / K] - s[i];
        x = fabs(x) < pivmin ? -pivmin : x;
        d[i] = x;
        counts[i] = x < 0;
    }
    /* sites outermost: each site's row of v and tsq is read once per sweep */
    for (int64_t n = 1; n < L; ++n) {
        const double *vn = v + n * R, *tn = tsq + (n - 1) * R;
        for (int64_t r = 0; r < R; ++r) {
            const double vr = vn[r], tr = tn[r], *sr = s + r * K;
            double *dr = d + r * K;
            int64_t *cr = counts + r * K;
            for (int64_t k = 0; k < K; ++k) {
                double x = (vr - sr[k]) - tr / dr[k];
                x = fabs(x) < pivmin ? -pivmin : x;
                dr[k] = x;
                cr[k] += x < 0;
            }
        }
    }
}

/* Advance R running 2x2 products P <- T P by k steps, T = tp where the
   step's sign is set and tm elsewhere.  signs (R, k), P (R, 2, 2), expo (R),
   all C-contiguous; tp and tm are row-major 2x2.  The true product is
   2^expo P: when an entry of P exceeds 2^256, P is scaled by exactly 2^-256,
   so the only rounding is in the products. */
void lyapunov_steps(int64_t R, int64_t k, const uint8_t *signs,
                    const double *tp, const double *tm, double *P, int64_t *expo)
{
    for (int64_t r = 0; r < R; ++r) {
        const uint8_t *sr = signs + r * k;
        double *pr = P + 4 * r;
        double a = pr[0], b = pr[1], c = pr[2], d = pr[3];
        int64_t e = expo[r];
        for (int64_t j = 0; j < k; ++j) {
            const double *t = sr[j] ? tp : tm;
            const double na = t[0] * a + t[1] * c, nb = t[0] * b + t[1] * d;
            const double nc = t[2] * a + t[3] * c, nd = t[2] * b + t[3] * d;
            a = na; b = nb; c = nc; d = nd;
            if (fabs(a) > 0x1p256 || fabs(b) > 0x1p256 || fabs(c) > 0x1p256
                || fabs(d) > 0x1p256) {
                a *= 0x1p-256; b *= 0x1p-256; c *= 0x1p-256; d *= 0x1p-256;
                e += 256;
            }
        }
        pr[0] = a; pr[1] = b; pr[2] = c; pr[3] = d;
        expo[r] = e;
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
    """Path of the compiled kernels (Sturm sweep and Lyapunov product) in
    cache_dir, built on a cache miss.

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
    """The library with typed `sturm_counts` and `lyapunov_steps` entry points."""
    dll = ctypes.CDLL(str(lib))
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
    dll.sturm_counts.argtypes = [ctypes.c_int64] * 3 + [f64, f64, f64, ctypes.c_double,
                                                        i64, f64]
    dll.lyapunov_steps.argtypes = [ctypes.c_int64] * 2 + [u8, f64, f64, f64, i64]
    dll.sturm_counts.restype = dll.lyapunov_steps.restype = None
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
    _kernel().sturm_counts(L, R, K, v, tsq, shifts, _pivmin(v, tsq), counts, d)
    return counts, d


def sturm_count(H: TridiagonalOperator, E) -> int | np.ndarray:
    """Number of eigenvalues below E (scalar or array of energies)."""
    shifts = np.atleast_1d(np.asarray(E, float))[None, :]
    counts, _ = sturm_counts_batch(H.diagonal[:, None], (H.offdiagonal ** 2)[:, None], shifts)
    return int(counts[0, 0]) if np.isscalar(E) or np.ndim(E) == 0 else counts[0]


def eigenvalues_in_window_batch(v: np.ndarray, tsq: np.ndarray, a: float, b: float,
                                tol: float = 1e-11) -> list[np.ndarray]:
    """All eigenvalues in [a, b) for a batch of same-size operators.

    Bisection runs in lockstep over all operators and all target indices;
    each eigenvalue is bracketed to width <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not b > a:
        raise ValueError("window must be nonempty")
    R = v.shape[1]
    ends, _ = sturm_counts_batch(v, tsq, np.tile([[a, b]], (R, 1)))
    na, nb = ends[:, 0], ends[:, 1]
    K = int((nb - na).max(initial=0))
    if K == 0:
        return [np.empty(0) for _ in range(R)]
    lo = np.full((R, K), a)
    hi = np.full((R, K), b)
    target = na[:, None] + np.arange(K)[None, :]  # 0-based eigenvalue index
    active = target < nb[:, None]
    for _ in range(max(int(np.ceil(np.log2((b - a) / tol))), 1)):
        mid = 0.5 * (lo + hi)
        above = sturm_counts_batch(v, tsq, mid)[0] <= target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    mid = 0.5 * (lo + hi)
    return [np.sort(mid[r][active[r]]) for r in range(R)]


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
