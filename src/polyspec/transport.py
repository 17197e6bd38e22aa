"""Unitary evolution on finite boxes and time-averaged position moments.

Evolution is spectral, psi_t = sum_k e^{-i E_k t} phi_k w_k, so arbitrarily
long times carry no time-stepping error.  A spectral projection restricts
the initial state delta_j to an energy window, and then only the window's
eigenpairs enter: the window kernel places its eigenvalues
(`eigenvalues_in_window_batch`) and twisted factorizations give their
vectors (`twisted_eigenvectors`), O(L) work per eigenpair instead of the
O(L^2) of the whole box.  The unprojected delta_j takes the same path on
the window (-inf, inf), whose ends clip to a bound on |H|.  A window whose
eigenvalues come closer than _GAP_FLOOR (relative to that bound) or whose
adjacent vectors overlap by more than _OVERLAP_MAX takes its modes from the
dense LAPACK decomposition instead.  Either way a setup keeps only the
modes whose weight |phi_k(j)| exceeds _WEIGHT_FLOOR times the largest, the
ones the moments read.  Moments are
M_q(T) time-averages of sum_x |x - center|^q |psi_t(x)|^2 in either the
Cesaro form (1/T) int_0^T or the Abel form (1/T) int_0^inf e^{-t/T}
(truncated at 10T).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolymerModel, lattice_for_sites
from .eigensolve import (TridiagonalOperator, build_hamiltonian, dense_oracle,
                         eigenvalues_in_window_batch, twisted_eigenvectors)

__all__ = [
    "BoundaryContaminationError",
    "EvolutionSetup",
    "MomentCurve",
    "evolution_setup",
    "moment_curve",
    "transport_exponent",
]

ABEL_TRUNCATION = 10.0       # Abel integral truncated at this multiple of T
DEFAULT_QUAD_POINTS = 2000
_GUARD_FRACTION = 0.9
_GUARD_MASS = 1e-6
_WINDOW_TOL = 1e-13          # bracket width of the window's eigenvalues
# a window falls back to the dense decomposition when two adjacent
# eigenvalues lie closer than _GAP_FLOOR times a bound on |H|, or two
# adjacent vectors overlap by more than _OVERLAP_MAX: a vector's error is
# about eps |H| / gap.  The checks take in the nearest eigenpair outside each
# end within _MARGIN times the bound; one farther off costs a vector at most
# eps / _MARGIN
_GAP_FLOOR = 1e-9
_OVERLAP_MAX = 1e-10
_MARGIN = 1e-4
# a setup drops the modes whose weight |phi_k(j)| is at most _WEIGHT_FLOOR
# times the largest: each carries at most 1e-24 of the largest mode's share
# of |P(I) delta_j|^2
_WEIGHT_FLOOR = 1e-12
# the moment integrand's time chunks hold at most this many entries (16 MB)
# per (sites x times) array; 8 MB chunks took 20% longer on 4001 sites
_CHUNK_ENTRIES = 1 << 21


class BoundaryContaminationError(RuntimeError):
    """The wavefront reached the guard zone near the box boundary."""


@dataclass(frozen=True)
class EvolutionSetup:
    """The eigenpairs that carry a (possibly projected) point initial state."""

    hamiltonian: TridiagonalOperator
    energies: np.ndarray         # the kept modes' eigenvalues, nondecreasing
    modes: np.ndarray            # orthonormal eigenvector columns, one per energy
    initial_site: int
    projection_window: tuple[float, float] | None
    weights: np.ndarray          # mode amplitudes of P(I) delta_j, each above the floor
    fallback: bool = False       # the modes came from the dense decomposition

    @property
    def num_sites(self) -> int:
        return self.hamiltonian.num_sites

    @property
    def radius(self) -> int:
        return min(self.initial_site, self.num_sites - 1 - self.initial_site)


def evolution_setup(H: TridiagonalOperator, initial_site: int | None = None,
                    projection_window=None) -> EvolutionSetup:
    """Eigenpairs of the box that carry delta_j projected onto the energy window.

    The initial state is P(I) delta_j, unnormalized, with I the closed
    window [lo, hi]; with no window it is delta_j itself, I the whole line.
    `modes` and `energies` hold the eigenpairs in I whose weight
    |phi_k(j)| exceeds _WEIGHT_FLOOR times the largest.  Defaults to the
    box center.
    """
    if initial_site is None:
        initial_site = H.num_sites // 2
    if not 0 <= initial_site < H.num_sites:
        raise ValueError("initial_site outside the box")
    window = (None if projection_window is None
              else (float(projection_window[0]), float(projection_window[1])))
    energies, modes, fallback = _window_modes(H, *(window or (-np.inf, np.inf)))
    weights = modes[initial_site, :]
    keep = np.abs(weights) > _WEIGHT_FLOOR * np.abs(weights).max(initial=0.0)
    if not keep.all():
        energies, modes = energies[keep], modes[:, keep]
    return EvolutionSetup(hamiltonian=H, energies=energies, modes=modes,
                          initial_site=int(initial_site), projection_window=window,
                          weights=weights[keep], fallback=fallback)


def _window_modes(H: TridiagonalOperator, lo: float, hi: float):
    """(energies, modes, fallback): the eigenpairs of H in [lo, hi], none
    if hi < lo; infinite ends clip to a bound on |H|.

    The eigenvalues come from the window kernel at tol _WINDOW_TOL on
    [lo, nextafter(hi, +inf)), widened by _MARGIN times the bound
    norm >= |H| on each side; the vectors and Rayleigh-corrected energies
    of the window's eigenvalues and of the nearest one outside each end
    come from twisted factorizations.  If two adjacent energies among them
    are closer than _GAP_FLOOR * norm, or two adjacent vectors overlap by
    more than _OVERLAP_MAX, the window takes the dense decomposition's
    eigenpairs in [lo, hi] instead (fallback True).
    """
    # |H| <= norm bounds every eigenvalue, so infinite window ends clip to it
    norm = float(np.abs(H.diagonal).max()) + 2.0 * float(H.offdiagonal.max(initial=0.0))
    a, b = max(lo, -norm - 1.0), min(np.nextafter(hi, np.inf), norm + 1.0)
    margin = _MARGIN * norm
    lam = (eigenvalues_in_window_batch(H.diagonal[:, None], (H.offdiagonal ** 2)[:, None],
                                       a - margin, b + margin, _WINDOW_TOL)[0]
           if b > a else np.empty(0))
    i0, i1 = np.searchsorted(lam, [a, b])
    if i1 == i0:
        return np.empty(0), np.empty((H.num_sites, 0)), False
    c0, c1 = max(i0 - 1, 0), min(i1 + 1, lam.size)  # and the nearest neighbors
    modes, energies = twisted_eigenvectors(H, lam[c0:c1])
    overlaps = np.einsum("ij,ij->j", modes[:, 1:], modes[:, :-1])
    if (np.all(np.diff(energies) >= _GAP_FLOOR * norm)
            and np.all(np.abs(overlaps) <= _OVERLAP_MAX)):
        return energies[i0 - c0:i1 - c0], modes[:, i0 - c0:i1 - c0], False
    w, Phi = dense_oracle(H, cap=H.num_sites)
    inside = (w >= lo) & (w <= hi)
    return w[inside], Phi[:, inside], True


def _moment_integrand(setup: EvolutionSetup, q: float, times: np.ndarray,
                      check_guard: bool = True) -> np.ndarray:
    """sum_x |x - center|^q |psi_t(x)|^2 on a time grid, batched over times.

    psi_t is formed as two real products, Re = modes @ (cos(E t) w) and
    -Im = modes @ (sin(E t) w), over equal chunks of times that keep each
    (sites x times) array within _CHUNK_ENTRIES entries; |psi_t|^2 is
    formed in place.  The guard triggers on the boundary mass in excess of
    its t = 0 value: a sharp spectral projection already carries an
    O(1/radius) static tail, so only transported mass counts as
    contamination.
    """
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site).astype(float)
    wq = xs ** q
    guard = xs > _GUARD_FRACTION * setup.radius
    modes, energies, w = setup.modes, setup.energies, setup.weights[:, None]
    psi0 = modes @ setup.weights
    baseline = float((psi0 ** 2)[guard].sum())
    threshold = max(_GUARD_MASS, baseline)  # trip when the static tail doubles
    out = np.empty(times.size)
    chunks = -(-times.size * setup.num_sites // _CHUNK_ENTRIES)
    chunk = max(1, -(-times.size // max(chunks, 1)))
    for i0 in range(0, times.size, chunk):
        ts = times[i0:i0 + chunk]
        phase = np.outer(energies, ts)
        cos = np.cos(phase)
        cos *= w
        sin = np.sin(phase, out=phase)
        sin *= w
        prob, im = modes @ cos, modes @ sin
        np.square(prob, out=prob)
        np.square(im, out=im)
        prob += im
        if check_guard:
            leaked = prob[guard, :].sum(axis=0) - baseline
            if np.any(leaked > threshold):
                t_bad = ts[int(np.argmax(leaked > threshold))]
                raise BoundaryContaminationError(
                    f"wavefront mass {leaked.max():.2e} beyond "
                    f"{_GUARD_FRACTION:.0%} of the box radius at t={t_bad:g}")
        out[i0:i0 + chunk] = wq @ prob
    return out


@dataclass(frozen=True)
class MomentCurve:
    """M_q(T) on a grid of averaging times."""

    times: np.ndarray
    values: np.ndarray
    q: float


def moment_curve(setup: EvolutionSetup, q: float, Ts, averaging: str = "cesaro",
                 quadrature_points: int = DEFAULT_QUAD_POINTS) -> MomentCurve:
    """Moment curve over a grid of averaging times, each by the trapezoid rule.

    Cesaro values share one integrand evaluation on [0, max(T)]; each Abel
    value integrates on its own truncated horizon [0, 10T], which costs one
    evaluation per grid point.
    """
    Ts = np.sort(np.asarray(Ts, float))
    if q <= 0:
        raise ValueError("q must be positive")
    if np.any(Ts <= 0):
        raise ValueError("averaging times must be positive")
    if averaging == "cesaro":
        times = np.linspace(0.0, Ts[-1], quadrature_points)
        m = _moment_integrand(setup, q, times)
        values = [np.trapezoid(m[times <= T], times[times <= T]) / T for T in Ts]
    elif averaging == "abel":
        values = []
        for T in Ts:
            times = np.linspace(0.0, ABEL_TRUNCATION * T, quadrature_points)
            m = _moment_integrand(setup, q, times)
            values.append(np.trapezoid(m * np.exp(-times / T), times) / T)
    else:
        raise ValueError("averaging must be 'cesaro' or 'abel'")
    return MomentCurve(times=Ts, values=np.array(values), q=q)


def transport_exponent(model: PolymerModel, q: float, T_grid, box_radius: int,
                       windows=(None,), realizations: int = 1, seed: int = 0,
                       averaging: str = "cesaro",
                       quadrature_points: int = DEFAULT_QUAD_POINTS) -> list[dict]:
    """Least-squares slope of log M_q vs log T, averaged over realizations,
    for each projection window (None: no projection).

    Boxes have 2*box_radius + 1 sites with the initial site at the center.
    Each window of a realization takes its own eigenpairs (evolution_setup);
    "fallbacks" counts the realizations whose window took the dense
    decomposition after failing the gap or overlap check.  Returns one
    result dict per window, in the order of `windows`.  Raises ValueError
    if a window keeps no mode in some realization, and
    BoundaryContaminationError if any realization's wavefront reaches the
    guard zone.
    """
    Ts = np.sort(np.asarray(T_grid, float))
    num_sites = 2 * int(box_radius) + 1
    curves = [[] for _ in windows]
    fallbacks = [0] * len(windows)
    for r in range(realizations):
        H = build_hamiltonian(lattice_for_sites(model, num_sites, seed, r))
        for i, window in enumerate(windows):
            setup = evolution_setup(H, projection_window=window)
            if not setup.energies.size:
                raise ValueError(f"window {setup.projection_window} holds no eigenvalue "
                                 f"of realization {r} ({num_sites} sites)")
            fallbacks[i] += setup.fallback
            curves[i].append(moment_curve(setup, q, Ts, averaging, quadrature_points))
    results = []
    for window, wcurves, nfall in zip(windows, curves, fallbacks):
        slopes = np.array([np.polyfit(np.log(Ts), np.log(c.values), 1)[0]
                           for c in wcurves])
        stderr = float(slopes.std(ddof=1) / np.sqrt(len(slopes))) if len(slopes) > 1 else 0.0
        results.append({
            "slope": float(slopes.mean()),
            "stderr": stderr,
            "per_realization": slopes,
            "curves": wcurves,
            "times": Ts,
            "averaging": averaging,
            "window": None if window is None else (float(window[0]), float(window[1])),
            "fallbacks": nfall,
        })
    return results
