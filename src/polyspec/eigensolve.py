"""Spectra of finite Dirichlet Hamiltonians via Sturm counts and twisted
factorizations.

The operator acts as (H psi)(n) = -t(n+1) psi(n+1) - t(n) psi(n-1) + v(n) psi(n)
restricted to {0, ..., L-1} with Dirichlet conditions, so the matrix is real
symmetric tridiagonal with diagonal v and off-diagonal entries -t(n).

Eigenvalue extraction is windowed by design: the statistics experiments need
only a handful of eigenvalues near a reference energy out of boxes with 1e4+
sites.  The Sturm count of the LDL^T recursion places them: it gives each
operator's eigenvalue indices in the window and brackets every (operator,
index) pair until the bracket holds that eigenvalue alone.  Newton steps on
the twist pivot gamma_r of a twisted factorization (Parlett and Dhillon,
MRRR; LAPACK dlar1v) then converge to it in a few sweeps, each of which also
counts, so the bracket holds throughout; clusters closer than the tolerance
are bisected.  The pairs run in lockstep in one compiled loop, and the
operators are split over the CPUs of the process's affinity set
(`_in_row_ranges`); the eigenvalues do not depend on the split.  The same
twisted factorizations, at the eigenvalues found, give the eigenvectors
(`twisted_eigenvectors`): a forward and a backward sweep and a product of
pivot ratios per vector, repeated once at its Rayleigh quotient, O(L) work
each instead of the O(L^2) of a whole-box decomposition, with the columns
split over the CPUs likewise.  A LAPACK-backed dense decomposition serves
as the independent oracle for small instances, and as transport's
fallback.  The C source of these loops, `kernels.c` beside this module,
also holds the package's other compiled loops: the Philox4x64-10 disorder
stream and box layout that `model` calls, and the Lyapunov product that
`transfer` calls, so one build and one cached library serve them all.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer  # at import, not in the first kernel call

from .model import LatticeSequences, _freeze

__all__ = [
    "TridiagonalOperator",
    "build_hamiltonian",
    "sturm_counts_batch",
    "eigenvalues_in_window_batch",
    "eigenvalues_by_index_batch",
    "twisted_eigenvectors",
    "dense_oracle",
]

DENSE_ORACLE_CAP = 4096


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


def build_hamiltonian(seq: LatticeSequences) -> TridiagonalOperator:
    """Dirichlet restriction: boundary hoppings t(0) and t(L) are dropped."""
    return TridiagonalOperator(diagonal=seq.potentials,
                               offdiagonal=seq.hoppings[1:],
                               num_sites=seq.num_sites)


def _pivmin(v: np.ndarray, tsq: np.ndarray) -> float:
    scale = max(float(v.max(initial=1.0)), -float(v.min(initial=-1.0)))  # no |v| copy
    if tsq.size:
        scale = max(scale, float(tsq.max()))
    return np.finfo(float).eps * scale


# below this much work (site updates per bisection sweep, or matrix products)
# a call runs serially: starting a thread and interleaving the threads'
# numpy steps cost more than a second CPU saves
_SPLIT_FLOOR = 200_000
# the same for one Sturm sweep (site updates): below 1e7 (about 8 ms on one
# CPU) a second thread measured no faster, and up to 2 ms slower where it
# started late
_COUNT_SPLIT_FLOOR = 10_000_000


def _cpus() -> int:
    """CPUs this process may run on (its affinity set, so `taskset` limits it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_row_ranges(run, weights, work_per_weight: float, floor: int | None = None) -> None:
    """Call run(r0, r1) on contiguous row ranges that together cover every
    row of positive weight, one range of near-equal total weight per CPU.

    The calling thread runs the first range and a per-call executor the
    others, so no thread outlives the call.  With one CPU, or when the
    total weight times work_per_weight is below `floor` (default
    _SPLIT_FLOOR), this is the single range of all rows.  `run` must touch
    only its own rows and call nothing of the package but the compiled
    kernels, so that every package function stays on the calling thread.
    """
    cum = np.concatenate([[0], np.cumsum(weights)])  # weight of the rows before each
    floor = _SPLIT_FLOOR if floor is None else floor
    parts = _cpus() if cum[-1] * work_per_weight >= floor else 1
    # range j ends at the first row boundary with j/parts of the total weight before it
    bounds = sorted({0, *np.searchsorted(cum, cum[-1] * np.arange(1, parts) / parts).tolist(),
                     cum.size - 1})
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


_KERNELS_C = Path(__file__).resolve().with_name("kernels.c")
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

    The cache key covers the bytes of kernels.c, the flags and the host
    CPU's feature flags (`-march=native`).  The library is written under a
    temporary name and renamed into place, so a failed or concurrent build
    leaves no partial file under the final name.  A build then removes every
    other `kernels_*.so` of cache_dir (builds of older sources), so the
    cache holds one library; a cache hit removes nothing.
    """
    key = hashlib.sha256(_KERNELS_C.read_bytes())
    for part in (*_CFLAGS, _cpu_flags()):
        key.update(b"\0" + part.encode())
    lib = cache_dir / f"kernels_{key.hexdigest()[:16]}.so"
    if lib.is_file():
        return lib
    import subprocess  # a cache hit, every run but the first, needs none

    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    cmd = [compiler, *_CFLAGS, str(_KERNELS_C), "-o", tmp]
    try:
        try:
            subprocess.run(cmd, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise RuntimeError(
                f"building the compiled kernels failed: `{' '.join(cmd)}`: {detail}\n"
                "polyspec requires a C compiler: install one as `cc` on the PATH") from exc
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in cache_dir.glob("kernels_*.so"):
        if stale != lib:
            stale.unlink(missing_ok=True)  # a concurrent build may prune it first
    return lib


def _load_kernel(lib: Path) -> ctypes.CDLL:
    """The library with typed entry points: the Sturm sweep, windowed
    eigenvalues, twisted-factorization eigenvectors (`twisted_vectors`), the
    Philox stream (`stream_keys`, `stream_below`), the box fill and the
    Lyapunov product."""
    dll = ctypes.CDLL(str(lib))
    f64 = ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = ndpointer(np.int64, flags="C_CONTIGUOUS")
    u64 = ndpointer(np.uint64, flags="C_CONTIGUOUS")
    u8 = ndpointer(np.bool_, flags="C_CONTIGUOUS")
    n, j = ctypes.c_int64, ctypes.c_uint64
    dll.sturm_counts.argtypes = [n] * 5 + [f64, f64, f64, ctypes.c_double, i64, f64]
    dll.stream_keys.argtypes = [n, j, u64, u64]
    dll.stream_below.argtypes = [n, u64, j, j, ctypes.c_double, u8]
    dll.fill_boxes.argtypes = [n, n, u64, ctypes.c_double, n, n, f64, f64, f64, f64]
    dll.lyapunov_steps.argtypes = [n, u64, j, j, ctypes.c_double, f64, f64, f64, i64]
    dll.window_eigenvalues.argtypes = [n] * 4 + [i64, f64, f64] + [ctypes.c_double] * 2 + [
        i64, f64, f64, i64, i64, f64, i64]
    dll.twisted_vectors.argtypes = [n] * 4 + [f64, f64, ctypes.c_double, f64, f64, f64]
    for f in (dll.sturm_counts, dll.stream_keys, dll.stream_below, dll.lyapunov_steps):
        f.restype = None
    for f in (dll.fill_boxes, dll.window_eigenvalues, dll.twisted_vectors):
        f.restype = ctypes.c_int
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
    recursion runs as one compiled loop, built on the first call; the
    operators are split into contiguous ranges that run on one thread each
    (see _in_row_ranges), and every count is the same for any split.
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
    sweep, pivmin = _kernel().sturm_counts, _pivmin(v, tsq)
    _in_row_ranges(lambda r0, r1: sweep(L, R, K, r0, r1, v, tsq, shifts, pivmin, counts, d),
                   np.full(R, K), L, _COUNT_SPLIT_FLOOR)
    return counts, d


def _finite(**values) -> None:
    for name, x in values.items():
        bad = np.asarray(x)[~np.isfinite(x)]
        if bad.size:
            raise ValueError(f"{name.replace('_', ' ')} must be finite, got {bad[0]}")


def _solve_columns(v, tsq, off, j, lo, hi, clo, chi, tol: float) -> np.ndarray:
    """The compiled `window_eigenvalues` on packed columns: operator r owns
    columns off[r] .. off[r+1] - 1, and column i finds eigenvalue j[i] from
    the bracket [lo[i], hi[i]] whose counts are clo[i] <= j[i] < chi[i].
    Contiguous ranges of operators of near-equal column count run on one
    thread each (see _in_row_ranges); every column refines on its own, so
    the result is the same for any split."""
    L, R = v.shape
    eig, sweeps = np.empty(int(off[-1])), np.empty(int(off[-1]), dtype=np.int64)
    solve, pivmin = _kernel().window_eigenvalues, _pivmin(v, tsq)

    def refine(r0: int, r1: int) -> None:
        if solve(L, R, r0, r1, off, v, tsq, pivmin, tol, j, lo, hi, clo, chi, eig, sweeps):
            raise MemoryError("window_eigenvalues could not allocate its scratch")

    _in_row_ranges(refine, np.diff(off), L)
    return eig


def eigenvalues_in_window_batch(v: np.ndarray, tsq: np.ndarray, a: float, b: float,
                                tol: float = 1e-11) -> list[np.ndarray]:
    """All eigenvalues in [a, b) for a batch of same-size operators.

    Sturm counts at a and b give each operator's eigenvalue indices in the
    window, one packed column per (operator, index) pair, all starting from
    [a, b].  The compiled `window_eigenvalues` narrows each column's Sturm
    bracket until it holds that eigenvalue alone, then refines it by Newton
    steps on the twist pivot of a twisted factorization and confirms it by
    counts; every eigenvalue is the midpoint of a bracket of width <= tol,
    and clusters closer than tol are bisected to it.  The operators are
    split into contiguous ranges of near-equal pair count that run on one
    thread each (see _in_row_ranges); every pair refines on its own, so the
    result is the same for any split.
    """
    a, b, tol = float(a), float(b), float(tol)
    _finite(window_start_a=a, window_end_b=b, tol=tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not b > a:
        raise ValueError("window must be nonempty")
    v = np.ascontiguousarray(v, float)
    tsq = np.ascontiguousarray(tsq, float)
    R = v.shape[1]
    ends, _ = sturm_counts_batch(v, tsq, np.tile([[a, b]], (R, 1)))
    na, nb = ends.T
    off = np.concatenate([[0], np.cumsum(nb - na)])
    box = np.repeat(np.arange(R), nb - na)
    clo, chi = na[box], nb[box]
    j = clo + (np.arange(off[-1]) - off[box])
    eig = _solve_columns(v, tsq, off, j, np.full(j.size, a), np.full(j.size, b), clo, chi, tol)
    return [np.sort(x) for x in np.split(eig, off[1:-1])]


def eigenvalues_by_index_batch(v: np.ndarray, tsq: np.ndarray, box, index, lo, hi,
                               below_lo, below_hi, tol: float = 1e-11) -> np.ndarray:
    """Eigenvalue index[i] (0-based, ascending) of operator box[i], for each i.

    The caller brackets each one: below_lo[i] <= index[i] < below_hi[i] are
    the Sturm counts of operator box[i] at lo[i] < hi[i] (sturm_counts_batch),
    so the eigenvalue lies in [lo[i], hi[i]).  `box` is nondecreasing, and
    the entries of one operator that share a bracket are adjacent in
    ascending index.  Each is found as in eigenvalues_in_window_batch, to the
    midpoint of a bracket of width <= tol inside [lo[i], hi[i]]; the entries
    of one operator share that operator's lockstep lanes whatever their
    brackets, so one call serves many scattered indices.
    """
    v = np.ascontiguousarray(v, float)
    tsq = np.ascontiguousarray(tsq, float)
    box, index, below_lo, below_hi = (np.ascontiguousarray(x, np.int64)
                                      for x in (box, index, below_lo, below_hi))
    lo, hi = np.ascontiguousarray(lo, float), np.ascontiguousarray(hi, float)
    tol = float(tol)
    _finite(bracket=np.concatenate([lo, hi]), tol=tol)
    R = v.shape[1]
    if len({x.shape for x in (box, index, lo, hi, below_lo, below_hi)}) != 1 or box.ndim != 1:
        raise ValueError("box, index, lo, hi, below_lo and below_hi must be 1-d and equal in size")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if (np.any(np.diff(box) < 0) or np.any(box < 0) or np.any(box >= R)
            or not np.all((below_lo <= index) & (index < below_hi) & (lo < hi))):
        raise ValueError("need 0 <= box < R nondecreasing, below_lo <= index < below_hi "
                         "and lo < hi")
    off = np.searchsorted(box, np.arange(R + 1))
    return _solve_columns(v, tsq, off, index, lo, hi, below_lo, below_hi, tol)


def twisted_eigenvectors(H: TridiagonalOperator,
                         eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of H at the given eigenvalues, by twisted factorization.

    Returns (Z, rayleigh): Z is (L, K) with the vector of eigenvalues[k] in
    column k, and rayleigh[k] that vector's Rayleigh quotient.  Each column
    takes one forward and one backward LDL^T sweep of H - x, picks the
    twist index r where the twist pivot gamma_r is smallest and solves the
    twisted factorization with z_r = 1, so its entry at r is positive
    (Fernando 1997; Dhillon and Parlett 2004, the MRRR vector of LAPACK
    dlar1v).  It does so at x = eigenvalues[k], then once more at that
    vector's Rayleigh quotient x + gamma_r / |z|^2, since z's error is the
    error of x over the gap.  Column k then deviates from the true
    eigenvector by about eps |H| / gap_k; nothing here reorthogonalizes, so
    a caller with close eigenvalues must check Z^T Z itself.  The columns
    are split over the CPUs in contiguous ranges (`_in_row_ranges`); every
    column is computed on its own, so the result is the same for any split.
    """
    lam = np.ascontiguousarray(eigenvalues, float)
    L, K = H.num_sites, lam.size
    Z, rayleigh = np.empty((L, K)), np.empty(K)
    v, t = H.diagonal, H.offdiagonal
    solve, pivmin = _kernel().twisted_vectors, _pivmin(v, t ** 2)

    def vectors(c0: int, c1: int) -> None:
        if solve(L, K, c0, c1, v, t, pivmin, lam, Z, rayleigh):
            raise MemoryError("twisted_vectors could not allocate its scratch")

    _in_row_ranges(vectors, np.ones(K), L)
    return Z, rayleigh


def dense_oracle(H: TridiagonalOperator, cap: int = DENSE_ORACLE_CAP):
    """Full eigendecomposition via LAPACK, for cross-checking small instances.

    Returns (eigenvalues, eigenvector matrix): the eigenvalues nondecreasing,
    the columns orthonormal, and in each column the largest-magnitude entry
    positive.  scipy.linalg loads on the first call, so importing the
    package, and every run that takes no dense fallback, loads no scipy.
    """
    if H.num_sites > cap:
        raise ValueError(f"dense oracle capped at {cap} sites, got {H.num_sites}")
    if H.num_sites == 1:
        return H.diagonal.copy(), np.ones((1, 1))
    from scipy.linalg import eigh_tridiagonal
    w, Phi = eigh_tridiagonal(H.diagonal, -H.offdiagonal)
    flip = Phi[np.argmax(np.abs(Phi), axis=0), np.arange(H.num_sites)] < 0
    Phi *= np.where(flip, -1.0, 1.0)  # in place: an exact sign flip, no column copies
    return w, Phi
