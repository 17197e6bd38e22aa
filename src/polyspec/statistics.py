"""Density of states, unfolding, and local eigenvalue statistics.

The dichotomy under test: rescaled eigenvalues near a critical energy form a
uniform clock process (gaps concentrate at 1), while unfolded eigenvalues
centered anywhere else in the spectrum form a Poisson process (Exp(1) gaps,
Poissonian counts).  Everything here is ensemble-driven with deterministic
per-realization substreams.

The empirical IDS N(E) interpolates the pooled eigenvalues of iid boxes at
their plotting positions.  It is stored three ways, each holding what its
readers use: the full pool (empirical_ids: holder_probe, the tests' oracle),
a window of consecutive ranks around N(E0) (windowed_ids: unfolding), and
the pool's two ends with the interpolation neighbours of given energies
(pointwise_ids: the `ids` kind).  Sturm counts give the global ranks, and
the compiled window kernel finds only the stored eigenvalues.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import PolymerModel, potentials_for_sites_batch
from .eigensolve import (eigenvalues_by_index_batch, eigenvalues_in_window_batch,
                         sturm_counts_batch)
from .transfer import CriticalEnergyReport, ExpansionCoeffs, expansion_coeffs
from .prufer import free_phase_batch, angle_map_m, relative_prufer_batch

__all__ = [
    "InsufficientDataError",
    "EmpiricalIDS",
    "PointProcessSample",
    "ClockSpacingSample",
    "GapStatistics",
    "CountingStatistics",
    "HolderReport",
    "pool_spectra",
    "empirical_ids",
    "windowed_ids",
    "pointwise_ids",
    "ids_at_critical",
    "dos_at_critical",
    "les_ensemble",
    "gap_statistics",
    "counting_statistics",
    "clock_spacing_statistic",
    "uniformity_test",
    "psi_errors",
    "holder_probe",
    "minami_probe",
]

# fixed realization batch sizes; the Sturm pivot floor is taken per batch
_BATCH = 256
_PSI_BATCH = 16
# full-spectrum pool: a block solves L packed columns per box, and smaller
# blocks run faster (32 boxes of 2000 sites: 3.1 us per eigenvalue on 2
# CPUs, against 4.0 at 256)
_POOL_BATCH = 32
# windowed IDS: bisection tol of the stored eigenvalues (they stay within
# 1e-12 of LAPACK's), ranks stored beyond the unfolding window on each side,
# and trial energies per bracket and Sturm sweep
_IDS_TOL = 1e-13
_RANK_PAD = 2
_BRACKET_POINTS = 7
# pointwise IDS: pool eigenvalues a pruning window holds at the local density
_SIDE_EIGS = 1.0
# counting_statistics needs this many samples for its chi-square bins
COUNTING_MIN_SAMPLES = 500


class InsufficientDataError(ValueError):
    """A statistical routine was handed fewer samples than it needs."""


@dataclass(frozen=True)
class EmpiricalIDS:
    """Integrated density of states from pooled order statistics.

    `pooled` holds sorted eigenvalues out of a pool of total_count = n, and
    `ranks` their global ranks in the pool (1-based, increasing); by default
    the ranks are 1 .. pooled.size, the full pool.  evaluate() interpolates
    linearly between stored neighbours at the plotting positions rank/(n+1),
    exactly as np.interp over the whole pool does, and invert() the other way
    round; on a stretch of consecutive ranks (windowed_ids) N is strictly
    increasing and exactly invertible.  Beyond an end of the whole pool
    evaluate() clamps to 0 or 1 and invert() to the extreme eigenvalue.  Where
    the interpolation needs a rank that is not stored (beyond a stored
    stretch that is not an end of the pool, or across a gap in the ranks),
    both raise ValueError instead of interpolating across the gap.
    """

    pooled: np.ndarray
    ranks: np.ndarray | None = None
    total_count: int | None = None

    def __post_init__(self):
        pooled = np.asarray(self.pooled, float)
        pooled.flags.writeable = False
        object.__setattr__(self, "pooled", pooled)
        ranks = np.arange(1, pooled.size + 1) if self.ranks is None else np.asarray(self.ranks)
        ranks.flags.writeable = False
        object.__setattr__(self, "ranks", ranks)
        if self.total_count is None:
            object.__setattr__(self, "total_count", pooled.size)
        if (pooled.size == 0 or ranks.shape != pooled.shape or ranks.dtype.kind not in "iu"
                or ranks[0] < 1 or ranks[-1] > self.total_count or np.any(np.diff(ranks) <= 0)):
            raise ValueError("need pooled nonempty with one increasing rank in "
                             "1 .. total_count per eigenvalue")

    @functools.cached_property
    def _quantiles(self) -> np.ndarray:
        return self.ranks / (self.total_count + 1.0)

    @functools.cached_property
    def _gap_after(self) -> np.ndarray:
        """[i + 1]: whether the rank after stored node i is not stored, for
        i = -1 (rank 0, below the pool) .. pooled.size - 1; past rank n
        there is nothing to store."""
        edges = np.concatenate([[0], self.ranks, [self.total_count + 1]])
        return np.diff(edges) != 1

    def _read(self, x, xp, fp, what: str, **ends):
        """np.interp(x, xp, fp, **ends), raising where np.interp would read a
        neighbour that is not stored: it starts from the last node at or
        below x and reads the next one unless x is on that node."""
        j = np.searchsorted(xp, x, side="right") - 1
        bad = ((j < 0) | (x > xp[np.maximum(j, 0)])) & self._gap_after[j + 1]
        if np.any(bad):
            first = float(np.asarray(x)[bad].flat[0] if np.ndim(x) else x)
            raise ValueError(f"{what} {first!r} reads an interpolation neighbour outside "
                             f"the stored IDS window [{xp[0]!r}, {xp[-1]!r}]")
        return np.interp(x, xp, fp, **ends)

    def evaluate(self, E):
        return self._read(E, self.pooled, self._quantiles, "energy", left=0.0, right=1.0)

    def invert(self, u):
        return self._read(u, self._quantiles, self.pooled, "IDS level")


def _ids_eigenvalues(v: np.ndarray, tsq: np.ndarray, a: float, b: float) -> np.ndarray:
    """All eigenvalues in [a, b) of one (v, tsq) box batch at _IDS_TOL,
    each box's ascending, box after box."""
    return np.concatenate(eigenvalues_in_window_batch(v, tsq, a, b, tol=_IDS_TOL))


def pool_spectra(model: PolymerModel, L_ids: int, seed: int,
                 realization_indices) -> np.ndarray:
    """Concatenated full spectra of iid boxes, one per realization index.

    Each box's spectrum is every eigenvalue in the model's spectrum_bracket,
    found by the compiled window kernel at _IDS_TOL on every CPU; the boxes
    are drawn in _POOL_BATCH blocks and each block is solved before the next
    is drawn.  Raises RuntimeError rather than return fewer than L_ids
    eigenvalues per box.
    """
    idx = list(realization_indices)
    a, b = model.spectrum_bracket
    pool = np.concatenate(_batched(lambda _, v, tsq: _ids_eigenvalues(v, tsq, a, b),
                                   model, L_ids, seed, idx, _POOL_BATCH))
    if pool.size != L_ids * len(idx):
        raise RuntimeError(f"pool_spectra found {pool.size} eigenvalues in [{a!r}, {b!r}) "
                           f"for {len(idx)} boxes of {L_ids} sites")
    return pool


def empirical_ids(model: PolymerModel, L_ids: int, seed: int,
                  realization_indices) -> EmpiricalIDS:
    """Pool the full spectra of iid boxes of L_ids sites, one per index."""
    pooled = np.sort(pool_spectra(model, L_ids, seed, realization_indices))
    return EmpiricalIDS(pooled=pooled)


def _unfolding_window_error(E0, n: int) -> ValueError:
    return ValueError(f"unfolding window at E0={E0} leaves the pooled IDS: N(E0) "
                      f"+- window_atoms/L must lie in [1/(n+1), n/(n+1)], n={n}")


def windowed_ids(model: PolymerModel, L_ids: int, seed: int, realization_indices,
                 E0: float, half_width: float) -> EmpiricalIDS:
    """The IDS of empirical_ids on the same boxes, stored only where
    evaluate/invert are read within +-half_width of N(E0).

    Summed Sturm counts just below and above E0 place N(E0) between the
    plotting positions of the eigenvalues near E0; n = L_ids R.  Summed counts
    at _BRACKET_POINTS trial energies per bracket and sweep then bracket the
    ranks n(N(E0) +- half_width), padded by _RANK_PAD ranks so that every
    interpolation neighbour is stored.  Bisection extracts the eigenvalues
    between the brackets, and the count below the lower one is their global
    rank offset.  A window outside [1/(n+1), n/(n+1)] for every N(E0) the
    counts allow raises les_ensemble's ValueError, naming E0; les_ensemble
    decides the rest exactly.
    """
    idx = list(realization_indices)
    boxes = _boxes(model, L_ids, seed, idx)
    n = L_ids * len(idx)

    def count(energies) -> np.ndarray:
        return _box_counts(boxes, energies).sum(axis=0)

    bottom, top = model.gershgorin_bound
    near = 1e-9 * (top - bottom)
    i_lo, i_hi = (int(c) for c in count([E0 - near, E0 + near]))
    k = (n + 1) * half_width  # (n+1) N(E0) lies in [i_lo, i_hi + 1]
    if i_hi < k or i_lo + k > n:
        raise _unfolding_window_error(E0, n)
    lo_rank = max(math.floor(i_lo - k) - _RANK_PAD, 0)
    hi_rank = min(math.ceil(i_hi + 1 + k) + _RANK_PAD, n)
    # [x0, count(x0), x1, count(x1)] around lo_rank and hi_rank; a bracket
    # is done once its outer count is within `slack` ranks of its target
    a, b = model.spectrum_bracket
    lower, upper = [a, 0, E0 - near, i_lo], [E0 + near, i_hi, b, n]
    slack = max(_RANK_PAD, (hi_rank - lo_rank) // 64)
    while todo := [(br, target) for br, target, off in
                   ((lower, lo_rank, lo_rank - lower[1]), (upper, hi_rank, upper[3] - hi_rank))
                   if off > slack and br[2] - br[0] > _IDS_TOL]:
        trial = [np.linspace(br[0], br[2], _BRACKET_POINTS + 2)[1:-1] for br, _ in todo]
        counts = count(np.concatenate(trial)).reshape(len(todo), _BRACKET_POINTS)
        for (br, target), xs, cs in zip(todo, trial, counts):
            # counts rise with energy: keep the tightest energies on each side
            j = np.searchsorted(cs, target, side="right")
            if j > 0:
                br[:2] = xs[j - 1], int(cs[j - 1])
            j = np.searchsorted(cs, target, side="left")
            if j < _BRACKET_POINTS:
                br[2:] = xs[j], int(cs[j])
    pooled = np.sort(np.concatenate([_ids_eigenvalues(v, tsq, float(lower[0]), float(upper[2]))
                                     for v, tsq in boxes]))
    return EmpiricalIDS(pooled=pooled, ranks=np.arange(int(lower[1]) + 1,
                                                      int(lower[1]) + pooled.size + 1),
                        total_count=n)


def _box_counts(boxes, energies) -> np.ndarray:
    """Sturm counts (R, K) of every box below each energy, one sweep per batch."""
    shifts = np.asarray(energies, float)[None, :]
    return np.concatenate([sturm_counts_batch(v, tsq, np.repeat(shifts, v.shape[1], 0))[0]
                           for v, tsq in boxes])


def pointwise_ids(model: PolymerModel, L_ids: int, seed: int, realization_indices,
                  energies) -> EmpiricalIDS:
    """The IDS of empirical_ids on the same boxes, stored only where it is read.

    energies(bottom, top) gives the energies evaluate() will be called at,
    from the pool's smallest and largest eigenvalue.  The IDS stores ranks 1
    and n = L_ids R and, for each such E, the two pool eigenvalues
    lambda_c <= E < lambda_{c+1} that np.interp over the full pool reads, so
    evaluate() reads at E what empirical_ids reads there, up to the
    bisection tol of the stored eigenvalues; elsewhere it may raise.

    - Ranks: one Sturm sweep at the energies gives every box's count c_r(E),
      and c = sum_r c_r.
    - Pruning: summed counts at E -+ h leave only the boxes that hold an
      eigenvalue within h of E.  h holds _SIDE_EIGS pool eigenvalues at the
      density of the counts around E, and doubles where a side holds none.
      lambda_c is the largest of those boxes' eigenvalues of index
      c_r(E) - 1, and lambda_{c+1} the smallest of index c_r(E).
    - Extraction: eigenvalues_by_index_batch finds each (box, index) once,
      from the tightest bracket that the counts of its box give, and each
      box's found eigenvalues are kept ascending in index and inside the
      pool's ends.  A found eigenvalue on the wrong side of E (E within tol
      of it) moves its box one rank towards that side, until every found
      eigenvalue is on its side.
    """
    idx = list(realization_indices)
    boxes = _boxes(model, L_ids, seed, idx)
    R, L = len(idx), L_ids
    n = L * R
    a, b = model.spectrum_bracket
    # the count table: energies X ascending and each box's counts below them,
    # C (R, M); a and b bracket every box's spectrum
    X, C = np.array([a, b]), np.tile(np.array([0, L]), (R, 1))
    keys, vals = np.empty(0, np.int64), np.empty(0)  # found eigenvalues by box * L + index
    # the pool's extremes once found: a value found later, out of index order
    # with them inside a cluster closer than tol, is clipped to them, so the
    # ends handed to energies() stay the store's
    ends = [-np.inf, np.inf]

    def learn(energies) -> None:
        nonlocal X, C
        new = np.setdiff1d(energies, X)
        if new.size:
            order = np.argsort(np.concatenate([X, new]), kind="stable")
            X = np.concatenate([X, new])[order]
            C = np.concatenate([C, _box_counts(boxes, new)], axis=1)[:, order]

    def find(want) -> None:
        nonlocal keys, vals
        new = np.setdiff1d(want, keys)
        if not new.size:
            return
        r, j = np.divmod(new, L)
        at = np.searchsorted(r, np.arange(R + 1))
        # each bracket: the last table energy with count <= j, the first above
        hi = np.concatenate([np.searchsorted(C[box], j[s0:s1], side="right")
                             for box, (s0, s1) in enumerate(zip(at[:-1], at[1:]))])
        lo = hi - 1
        at = at[np.r_[0:R:_BATCH, R]]  # the columns of each batch of boxes
        got = [eigenvalues_by_index_batch(v, tsq, r[s0:s1] - k * _BATCH, j[s0:s1], X[lo[s0:s1]],
                                          X[hi[s0:s1]], C[r[s0:s1], lo[s0:s1]],
                                          C[r[s0:s1], hi[s0:s1]], tol=_IDS_TOL)
               for k, ((v, tsq), s0, s1) in enumerate(zip(boxes, at[:-1], at[1:]))]
        keys, vals = np.concatenate([keys, new]), np.clip(np.concatenate([vals, *got]), *ends)
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        vals = vals[np.lexsort((vals, keys // L))]  # ascending in index within a box

    every = np.arange(R)
    find(np.concatenate([every * L, every * L + L - 1]))
    ends[:] = bottom, top = float(vals.min()), float(vals.max())
    E = np.asarray(energies(bottom, top), float).ravel()
    if not np.all(np.isfinite(E)):
        raise ValueError("IDS energies must be finite")
    E = np.unique(E)
    learn(E)
    pos = np.searchsorted(X, E)
    cs, first = np.unique(C[:, pos].sum(axis=0), return_index=True)  # summed counts at E
    # h from the summed counts two table energies either side of each count's first E
    p0, p1 = np.maximum(pos[first] - 2, 0), np.minimum(pos[first] + 2, X.size - 1)
    rise = C[:, p1].sum(axis=0) - C[:, p0].sum(axis=0)
    h = (X[p1] - X[p0]) * np.where(rise > 0, _SIDE_EIGS / np.maximum(rise, 1), 1.0)
    h_lo, h_hi = np.maximum(h, _IDS_TOL), np.maximum(h, _IDS_TOL)
    while True:
        # below count c the same-count stretch starts at X[lo + 1], and X[lo]
        # is the tightest energy with fewer; above, X[hi - 1] and X[hi]
        S = C.sum(axis=0)
        lo = np.searchsorted(S, cs, side="left") - 1
        hi = np.searchsorted(S, cs, side="right")
        open_lo = (cs >= 1) & (X[lo + 1] - X[lo.clip(min=0)] > h_lo)
        open_hi = (cs < n) & (X[hi.clip(max=X.size - 1)] - X[hi - 1] > h_hi)
        if not (open_lo.any() or open_hi.any()):
            break
        learn(np.concatenate([X[lo + 1][open_lo] - h_lo[open_lo],
                              X[hi - 1][open_hi] + h_hi[open_hi]]))
        h_lo[open_lo] *= 2
        h_hi[open_hi] *= 2
    # per energy: every box's count and the pruning energies of their sum
    k = C[:, np.searchsorted(X, E)]
    group = np.searchsorted(cs, k.sum(axis=0))
    x_lo, x_hi = lo.clip(min=0)[group], hi.clip(max=X.size - 1)[group]
    base = every[:, None] * L  # each box's first key
    while True:
        low, up = C[:, x_lo] < k, C[:, x_hi] > k
        # a side whose boxes all moved out of the pruned range takes every box
        low |= ~low.any(axis=0) & (k > 0)
        up |= ~up.any(axis=0) & (k < L)
        (r_lo, q_lo), (r_up, q_up) = np.nonzero(low), np.nonzero(up)
        find(np.concatenate([r_lo * L + k[r_lo, q_lo] - 1, r_up * L + k[r_up, q_up]]))
        # each box's largest found value below index k and smallest from k
        # on: the pruned boxes' neighbours, and any other value found for the
        # box (its ends, other energies' neighbours) on the wrong side of E
        # within tol
        at = np.searchsorted(keys, base + k)
        nxt = np.minimum(at, keys.size - 1)
        below = np.where((at > 0) & (keys[at - 1] >= base), vals[at - 1], -np.inf)
        above = np.where((at < keys.size) & (keys[nxt] < base + L), vals[nxt], np.inf)
        fewer, more = below > E, above <= E
        if not (fewer.any() or more.any()):
            break
        k = k - fewer + more
    total = k.sum(axis=0)
    lam_lo, lam_hi = below.max(axis=0), above.min(axis=0)
    ranks = np.concatenate([[1, n], total[total >= 1], total[total < n] + 1])
    values = np.concatenate([[bottom, top], lam_lo[total >= 1], lam_hi[total < n]])
    order = np.lexsort((values, ranks))
    ranks, values = ranks[order], values[order]
    same = np.diff(ranks) == 0
    if np.any(np.diff(values) < 0) or np.any(np.diff(values)[same] != 0):
        raise RuntimeError("pointwise_ids found pool eigenvalues out of rank order")
    return EmpiricalIDS(pooled=values[np.r_[True, ~same]], ranks=ranks[np.r_[True, ~same]],
                        total_count=n)


def ids_at_critical(report: CriticalEnergyReport, model: PolymerModel) -> float:
    """N(E_c) = <eta/pi> / <L> from the canonical-branch rotation angles."""
    return model.mean(report.eta_plus, report.eta_minus) / np.pi / model.mean_length


def dos_at_critical(coeffs: ExpansionCoeffs, model: PolymerModel) -> float:
    """n(E_c) = (1/pi) <d> / <L>, the DOS value the clock rescaling uses."""
    return model.mean(coeffs.d_plus, coeffs.d_minus) / np.pi / model.mean_length


@dataclass(frozen=True)
class PointProcessSample:
    """Sorted atoms of one rescaled local eigenvalue process."""

    atoms: np.ndarray
    center_energy: float
    box_sites: int
    kind: str  # "unfolded" or "dos_rescaled"
    realization_index: int = 0

    def __post_init__(self):
        atoms = np.asarray(self.atoms, float)
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class ClockSpacingSample:
    """Rescaled nearest-neighbor spacings n(E_c) L (E'_{j+1} - E'_j) near E_c;
    a gap is zero where two eigenvalues coincide within the bisection tol."""

    rescaled_gaps: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.rescaled_gaps, float)
        g.flags.writeable = False
        object.__setattr__(self, "rescaled_gaps", g)
        if g.size and not np.all(g >= 0):
            raise ValueError("rescaled gaps must be nonnegative")


def _blocks(realization_indices, size: int) -> list:
    idx = list(realization_indices)
    if not idx:
        raise ValueError("realizations must be >= 1")
    return [idx[s:s + size] for s in range(0, len(idx), size)]


def _boxes(model: PolymerModel, L_sites: int, seed: int, realization_indices) -> list:
    """[(v, tsq)] of consecutive blocks of _BATCH realization indices, each
    block in arrays of its own: for the IDS readers, which keep every box."""
    return [potentials_for_sites_batch(model, L_sites, seed, block)
            for block in _blocks(realization_indices, _BATCH)]


def _batched(fn, model: PolymerModel, L_sites: int, seed: int, realization_indices,
             size: int = _BATCH) -> list:
    """[fn(indices, v, tsq)] over consecutive blocks of `size` realization
    indices, the last block shorter.

    Every batch's disorder (v, tsq) is laid into one pair of buffers (the
    last, shorter batch into a contiguous view of them), so one batch is in
    memory and its pages are mapped once per call: fn must keep nothing of
    v or tsq.
    """
    blocks = _blocks(realization_indices, size)
    rows = max(L_sites, 0), max(L_sites - 1, 0)  # the sampler names a bad size
    flat = [np.empty(k * len(blocks[0])) for k in rows]

    def lay(block):
        out = tuple(f[:k * len(block)].reshape(k, len(block)) for f, k in zip(flat, rows))
        return potentials_for_sites_batch(model, L_sites, seed, block, out=out)

    return [fn(block, *lay(block)) for block in blocks]


def _critical_density(model: PolymerModel, report: CriticalEnergyReport) -> float:
    return dos_at_critical(expansion_coeffs(model, report), model)


def les_ensemble(model: PolymerModel, E0: float, L_sites: int, realizations: int,
                 seed: int, window_atoms: int = 20, ids: EmpiricalIDS | None = None,
                 dos_value: float | None = None) -> list[PointProcessSample]:
    """Local eigenvalue samples for many realizations at once.

    Exactly one of `ids` (unfolded rescaling) or `dos_value` (a density n,
    rescaling E to n L (E - E0); at a critical energy, n(E_c) of
    dos_at_critical) must be given.  Only the energy window mapping to
    atoms within +-window_atoms is extracted, via windowed Sturm bisection,
    never the full spectrum.  An unfolding window that leaves the pooled
    IDS's plotting positions raises ValueError.
    """
    if (ids is None) == (dos_value is None):
        raise ValueError("pass exactly one of ids= or dos_value=")
    if window_atoms < 1:
        raise ValueError("window_atoms must be >= 1")
    if ids is not None:
        N0 = float(ids.evaluate(E0))
        du, n = window_atoms / L_sites, ids.total_count
        if N0 - du < 1 / (n + 1) or N0 + du > n / (n + 1):
            raise _unfolding_window_error(E0, n)
        a, b = float(ids.invert(N0 - du)), float(ids.invert(N0 + du))
    else:
        n_Ec = float(dos_value)
        half = window_atoms / (n_Ec * L_sites)
        a, b = E0 - half, E0 + half
    if not b > a:
        raise ValueError("empty energy window (window_atoms too small for the IDS resolution)")
    parts = _batched(lambda idx, v, tsq: eigenvalues_in_window_batch(v, tsq, a, b),
                     model, L_sites, seed, range(realizations))
    samples = []
    for r, e in enumerate(e for part in parts for e in part):
        if ids is not None:
            atoms = L_sites * (ids.evaluate(e) - N0)
            kind = "unfolded"
        else:
            atoms = n_Ec * L_sites * (e - E0)
            kind = "dos_rescaled"
        samples.append(PointProcessSample(atoms=np.sort(atoms),
                                          center_energy=float(E0),
                                          box_sites=int(L_sites), kind=kind,
                                          realization_index=int(r)))
    return samples


def _exp1_cdf(x):
    """Cdf of Exp(1), 1 - e^{-x}, without cancellation near 0."""
    return -np.expm1(-x)


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-square survival function P(chi2_dof > x) for an integer dof >= 1.

    This is Q(dof/2, x/2) in closed form.  With y = x/2 it is the sum of
    e^{-y} y^j / Gamma(j + 1) over j = 0, 1, ..., dof/2 - 1 for even dof,
    and erfc(sqrt(y)) plus that sum over j = 1/2, 3/2, ..., dof/2 - 1 for
    odd dof.  Each positive term is the previous one times y / j, so a term's
    error grows by about an ulp per step and no sum cancels.  The terms share
    the factor e^{-y}, which underflows from y = 708: beyond x = 1416 the
    value reads 0 or a subnormal where the true tail is below 1e-270 (dof <= 40).
    """
    y = 0.5 * float(x)
    if dof % 2:
        j, term = 0.5, 2.0 * math.exp(-y) * math.sqrt(y / math.pi)
        total = math.erfc(math.sqrt(y))
    else:
        j, term, total = 0.0, math.exp(-y), 0.0
    for _ in range(dof // 2):
        total += term
        j += 1.0
        term *= y / j
    return total


def _ks_distance(x, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_n - F| of x to cdf."""
    F = cdf(np.sort(x))
    n = F.size
    return float(max((np.arange(1.0, n + 1) / n - F).max(),
                     (F - np.arange(0.0, n) / n).max()))


@dataclass(frozen=True)
class GapStatistics:
    """Nearest-neighbor gap summary pooled across samples."""

    gaps: np.ndarray
    mean: float
    ks_vs_exp1: float
    ks_vs_degenerate1: float
    frac_near_one: float


def gap_statistics(samples, band: float = 0.1) -> GapStatistics:
    """Pool within-sample nearest-neighbor gaps and test the two limit laws.

    ks_vs_exp1 is the one-sample KS distance to Exp(1); concentration near
    the clock value is reported as the fraction of gaps in [1-band, 1+band]
    (and a literal KS distance to the point mass at 1, for completeness).
    """
    gaps = [np.diff(s.atoms) for s in samples if s.atoms.size >= 2]
    gaps = np.concatenate(gaps) if gaps else np.empty(0)
    if gaps.size < 100:
        raise InsufficientDataError(f"need >= 100 pooled gaps, got {gaps.size}")
    ks_exp = _ks_distance(gaps, _exp1_cdf)
    frac_below = float(np.mean(gaps < 1.0))
    frac_le = float(np.mean(gaps <= 1.0))
    ks_deg = max(frac_below, 1.0 - frac_le)
    frac = float(np.mean(np.abs(gaps - 1.0) <= band))
    return GapStatistics(gaps=gaps, mean=float(gaps.mean()), ks_vs_exp1=ks_exp,
                         ks_vs_degenerate1=ks_deg, frac_near_one=frac)


@dataclass(frozen=True)
class CountingStatistics:
    """Counts of atoms in disjoint intervals against the Poisson prediction."""

    intervals: list
    counts: np.ndarray             # (samples, intervals)
    chi2_pvalues: np.ndarray
    count_covariance: np.ndarray   # (intervals, intervals), off-diagonals ~ 0 for Poisson


def counting_statistics(samples, intervals) -> CountingStatistics:
    """Per-interval count histograms with chi-square against Poisson(|I|)."""
    if len(samples) < COUNTING_MIN_SAMPLES:
        raise InsufficientDataError(f"need >= {COUNTING_MIN_SAMPLES} samples, "
                                    f"got {len(samples)}")
    intervals = [(float(a), float(b)) for a, b in intervals]
    for i, (a, b) in enumerate(intervals):
        if b <= a:
            raise ValueError("intervals must be nondegenerate")
        for a2, b2 in intervals[i + 1:]:
            if max(a, a2) < min(b, b2):
                raise ValueError("intervals must be disjoint")
    counts = np.empty((len(samples), len(intervals)), dtype=np.int64)
    for j, (a, b) in enumerate(intervals):
        for i, s in enumerate(samples):
            counts[i, j] = np.searchsorted(s.atoms, b) - np.searchsorted(s.atoms, a)
    pvals = []
    n = len(samples)
    for j, (a, b) in enumerate(intervals):
        lam = b - a
        kmax = int(counts[:, j].max())
        ks = np.arange(kmax + 1)
        pk = np.exp(-lam) * lam ** ks / np.array([math.factorial(k) for k in ks])
        observed = np.bincount(counts[:, j], minlength=kmax + 1).astype(float)
        expected = n * np.append(pk[:-1], max(1.0 - pk[:-1].sum(), 0.0))
        # lump the tail until every bin expects at least 5 samples
        while expected.size > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        stat = float(((observed - expected) ** 2 / expected).sum())
        dof = max(expected.size - 1, 1)
        pvals.append(_chi2_sf(dof, stat))
    cov = np.cov(counts.T) if len(intervals) > 1 else np.atleast_2d(np.var(counts[:, 0]))
    return CountingStatistics(intervals=intervals, counts=counts,
                              chi2_pvalues=np.array(pvals),
                              count_covariance=np.atleast_2d(cov))


def clock_spacing_statistic(model: PolymerModel, report: CriticalEnergyReport,
                            L_sites: int, realizations: int, j_max: int,
                            seed: int):
    """Rescaled spacings around E_c, re-indexed so E'_{-1} < E_c <= E'_0.

    Returns (ClockSpacingSample, summary dict).  Gaps j in [-j_max, j_max)
    are kept per realization, including the straddling one, and pooled;
    the summary carries the realization index of every pooled gap.  `mean`
    and `frac_in_band` are None without gaps, `variance` with fewer than two.
    """
    if report.irrationality_violations:
        warnings.warn("irrationality condition fails for this report "
                      f"(first violation k={report.irrationality_violations[0][0]}); "
                      "clock statistics may not converge")
    Ec = report.energy
    samples = les_ensemble(model, Ec, L_sites, realizations, seed, window_atoms=j_max + 4,
                           dos_value=_critical_density(model, report))
    gaps, gap_reals = [], []
    for s in samples:
        atoms = s.atoms
        i0 = int(np.searchsorted(atoms, 0.0))  # index of E'_0
        lo = max(i0 - j_max, 0)
        hi = min(i0 + j_max, atoms.size - 1)
        if hi > lo:
            g = np.diff(atoms[lo:hi + 1])
            gaps.append(g)
            gap_reals.append(np.full(g.size, s.realization_index, dtype=np.int64))
    gaps = np.concatenate(gaps) if gaps else np.empty(0)
    gap_reals = np.concatenate(gap_reals) if gap_reals else np.empty(0, np.int64)
    sample = ClockSpacingSample(rescaled_gaps=gaps)
    summary = {
        "num_gaps": int(gaps.size),
        "mean": float(gaps.mean()) if gaps.size else None,
        "variance": float(gaps.var(ddof=1)) if gaps.size > 1 else None,
        "frac_in_band": float(np.mean(np.abs(gaps - 1.0) <= 0.1)) if gaps.size else None,
        "realization_ids": gap_reals,
    }
    return sample, summary


def uniformity_test(model: PolymerModel, report: CriticalEnergyReport,
                    L_sites: int, realizations: int, seed: int) -> dict:
    """KS distance of the fractional Prufer phase phi(E_c, L)/pi to U[0,1)."""
    def batch(idx, v, tsq):
        free = free_phase_batch(v, tsq, np.full((len(idx), 1), report.energy))[:, 0]
        return angle_map_m(report.diagonalizer, free) % np.pi

    phis = np.concatenate(_batched(batch, model, L_sites, seed, range(realizations)))
    ks = _ks_distance(phis / np.pi, lambda x: np.clip(x, 0.0, 1.0))
    return {"ks_statistic": ks, "phis": phis, "num_realizations": realizations}


def psi_errors(model: PolymerModel, report: CriticalEnergyReport, L_sites: int,
               xs, realizations: int, seed: int) -> np.ndarray:
    """Per-realization sup_x |Psi_L(x) - x| over the points xs."""
    n_Ec = _critical_density(model, report)
    xs = np.asarray(xs, float)
    def batch(idx, v, tsq):
        psi = relative_prufer_batch(v, tsq, report.diagonalizer, report.energy, n_Ec, xs)
        return np.abs(psi - xs[None, :]).max(axis=1)

    return np.concatenate(_batched(batch, model, L_sites, seed, range(realizations),
                                   size=_PSI_BATCH))


@dataclass(frozen=True)
class HolderReport:
    """Local regularity probe of the IDS and its inverse."""

    rho1: float
    rho2: float
    product: float
    satisfies_condition: bool  # rho1 * rho2 > 2/3
    scales: np.ndarray
    dN: np.ndarray          # IDS increment at each scale
    dE_inverse: np.ndarray  # inverse-IDS increment at each scale


def holder_probe(ids: EmpiricalIDS, E0: float, scales) -> HolderReport:
    """Log-log regression slopes of IDS increments and inverse increments.

    rho1 regresses log |N(E0 +- h) - N(E0)| on log h over the given widths;
    rho2 does the same for the inverse function at u0 = N(E0).  Degenerate
    (zero) increments are skipped.  Slopes are reported raw, without capping
    at 1.
    """
    scales = np.asarray(sorted(scales), float)
    if np.any(scales <= 0):
        raise ValueError("scales must be positive")
    u0 = float(ids.evaluate(E0))
    dN, dE, ks = [], [], []
    for h in scales:
        dN.append(0.5 * (abs(float(ids.evaluate(E0 + h)) - u0)
                         + abs(u0 - float(ids.evaluate(E0 - h)))))
        kup, kdn = min(u0 + h, 1.0), max(u0 - h, 0.0)
        dE.append(0.5 * (abs(float(ids.invert(kup)) - float(ids.invert(u0)))
                         + abs(float(ids.invert(u0)) - float(ids.invert(kdn)))))
        ks.append(0.5 * ((kup - u0) + (u0 - kdn)))
    dN, dE, ks = np.array(dN), np.array(dE), np.array(ks)
    okN, okE = dN > 0, (dE > 0) & (ks > 0)
    if okN.sum() < 2 or okE.sum() < 2:
        raise InsufficientDataError("not enough nondegenerate scales for regression")
    rho1 = float(np.polyfit(np.log(scales[okN]), np.log(dN[okN]), 1)[0])
    rho2 = float(np.polyfit(np.log(ks[okE]), np.log(dE[okE]), 1)[0])
    return HolderReport(rho1=rho1, rho2=rho2, product=rho1 * rho2,
                        satisfies_condition=rho1 * rho2 > 2.0 / 3.0, scales=scales,
                        dN=dN, dE_inverse=dE)


def minami_probe(model: PolymerModel, L_sites: int, beta: float, gamma: float,
                 c2: float, realizations: int, E0: float, seed: int) -> dict:
    """Frequencies of >=1 and >=2 eigenvalues of a size-L^beta box in a
    width c2/L^gamma interval centered at E0."""
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    ell1 = max(int(round(L_sites ** beta)), 2)
    width = c2 / L_sites ** gamma
    a, b = E0 - width / 2.0, E0 + width / 2.0
    def batch(idx, v, tsq):
        ends, _ = sturm_counts_batch(v, tsq, np.tile([[a, b]], (len(idx), 1)))
        return ends[:, 1] - ends[:, 0]

    counts = np.concatenate(_batched(batch, model, ell1, seed, range(realizations)))
    return {
        "box_sites": ell1,
        "interval": (a, b),
        "p_ge1": float(np.mean(counts >= 1)),
        "p_ge2": float(np.mean(counts >= 2)),
        "counts": counts,
    }
