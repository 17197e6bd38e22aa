"""Unitary evolution on finite boxes and time-averaged position moments.

Evolution uses the full eigendecomposition of the box Hamiltonian, so
arbitrarily long times carry no time-stepping error; spectral projections
restrict the initial state delta_j to an energy window.  The evolved state
is formed from the modes that carry weight only (the window's modes), in
real arithmetic, and every window of a realization projects from one
decomposition of its box.  Moments are M_q(T) time-averages of
sum_x |x - center|^q |psi_t(x)|^2 in either the Cesaro form
(1/T) int_0^T or the Abel form (1/T) int_0^inf e^{-t/T} (truncated at 10T).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import PolymerModel, lattice_for_sites
from .eigensolve import TridiagonalOperator, build_hamiltonian, dense_oracle

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


class BoundaryContaminationError(RuntimeError):
    """The wavefront reached the guard zone near the box boundary."""


@dataclass(frozen=True)
class EvolutionSetup:
    """Diagonalized box with a (possibly projected) point initial state."""

    hamiltonian: TridiagonalOperator
    energies: np.ndarray
    modes: np.ndarray            # orthonormal eigenvector columns
    initial_site: int
    projection_window: tuple[float, float] | None
    weights: np.ndarray          # mode amplitudes of P(I) delta_j

    @property
    def num_sites(self) -> int:
        return self.hamiltonian.num_sites

    @property
    def radius(self) -> int:
        return min(self.initial_site, self.num_sites - 1 - self.initial_site)


def evolution_setup(H: TridiagonalOperator, initial_site: int | None = None,
                    projection_window=None) -> EvolutionSetup:
    """Diagonalize the box and project delta_j onto the energy window.

    The initial state is P(I) delta_j, unnormalized; with no window it is
    delta_j itself.  Defaults to the box center.
    """
    if initial_site is None:
        initial_site = H.num_sites // 2
    if not 0 <= initial_site < H.num_sites:
        raise ValueError("initial_site outside the box")
    energies, modes = dense_oracle(H, cap=H.num_sites)
    setup = EvolutionSetup(hamiltonian=H, energies=energies, modes=modes,
                           initial_site=int(initial_site), projection_window=None,
                           weights=modes[initial_site, :].copy())
    return setup if projection_window is None else _project(setup, projection_window)


def _project(setup: EvolutionSetup, window) -> EvolutionSetup:
    """The same decomposition with delta_j projected onto the energy window."""
    lo, hi = float(window[0]), float(window[1])
    inside = (setup.energies >= lo) & (setup.energies <= hi)
    weights = np.where(inside, setup.modes[setup.initial_site, :], 0.0)
    return replace(setup, projection_window=(lo, hi), weights=weights)


def _weighted_modes(setup: EvolutionSetup):
    """Modes, energies and weights of the modes with nonzero weight: the
    projection window, less localized modes whose entry at the initial site
    underflows to 0."""
    keep = setup.weights != 0
    return setup.modes[:, keep], setup.energies[keep], setup.weights[keep]


def _moment_integrand(setup: EvolutionSetup, q: float, times: np.ndarray,
                      check_guard: bool = True) -> np.ndarray:
    """sum_x |x - center|^q |psi_t(x)|^2 on a time grid, batched over times.

    psi_t is formed from the modes with nonzero weight only, as two real
    products, Re = modes @ (cos(E t) w) and -Im = modes @ (sin(E t) w).
    The guard triggers on the boundary mass in excess of its t = 0 value:
    a sharp spectral projection already carries an O(1/radius) static tail,
    so only transported mass counts as contamination.
    """
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site).astype(float)
    wq = xs ** q
    guard = xs > _GUARD_FRACTION * setup.radius
    modes, energies, w = _weighted_modes(setup)
    psi0 = modes @ w
    baseline = float((psi0 ** 2)[guard].sum())
    threshold = max(_GUARD_MASS, baseline)  # trip when the static tail doubles
    out = np.empty(times.size)
    chunk = max(1, int(2e7 // max(setup.num_sites, 1)))
    for i0 in range(0, times.size, chunk):
        ts = times[i0:i0 + chunk]
        phase = np.outer(energies, ts)
        re = modes @ (np.cos(phase) * w[:, None])
        im = modes @ (np.sin(phase) * w[:, None])
        prob = re ** 2 + im ** 2
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
    Each realization's box is diagonalized once, and every window projects
    from that decomposition.  Returns one result dict per window, in the
    order of `windows`.  Raises BoundaryContaminationError if any
    realization's wavefront reaches the guard zone.
    """
    Ts = np.sort(np.asarray(T_grid, float))
    num_sites = 2 * int(box_radius) + 1
    curves = [[] for _ in windows]
    for r in range(realizations):
        seq = lattice_for_sites(model, num_sites, seed, r)
        full = evolution_setup(build_hamiltonian(seq))
        for window, out in zip(windows, curves):
            setup = full if window is None else _project(full, window)
            out.append(moment_curve(setup, q, Ts, averaging, quadrature_points))
    results = []
    for window, wcurves in zip(windows, curves):
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
        })
    return results
