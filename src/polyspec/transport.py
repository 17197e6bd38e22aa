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
(truncated at 10T), each by the trapezoid rule on grid points t_i = i delta.

The trapezoid sums are summed in closed form over the kept modes, with
psi_t never formed on the whole box.  With B = modes |x - center|^{q/2},
A = B^T B (one symmetric product, m^2 L work for m modes on L sites) and
theta = delta (E_k - E_l), every value is

    M_q(T) = (delta / T) sum_kl w_k w_l A_kl K(theta_kl),

    Cesaro:  K = sum_{i=0..n}' cos(i theta) = sin(n theta) cot(theta/2) / 2,
             n at theta = 0, with t_n the last grid point <= T;
    Abel:    K = Re sum_{i=0..N}' r^i,  r = e^{-a + i theta},  a = delta / T,
             = [(1 - rho cos N theta) sinh a + rho sin N theta sin theta]
               / [4 (sinh^2(a/2) + sin^2(theta/2))],  rho = e^{-N a},

where ' halves the end terms and N + 1 is the number of points of T's own
grid on [0, 10T].  Each T costs one pass over the m(m - 1)/2 pairs.

Conditioning: (delta / T) |K| is at most 1 (Cesaro) or about
peak = (a/2) coth(a/2) (Abel: 1 unless the grid is coarser than T), and
a phase rounded by eps |theta| moves it by eps |omega| t_n, so each term
G_kl (delta / T) K, G_kl = w_k w_l A_kl, carries a rounding error of about
eps |G_kl| peak (1 + |omega| t), t up to the largest grid time.  Such
errors add like a random walk, and the Frobenius norm of the positive
semidefinite G is at most its trace, so every value's absolute error is
about

    MomentCurve.rounding = eps trace(G) peak (1 + width horizon),

with width = max E - min E over the kept modes and horizon the largest grid
time, max(T) or 10 max(T).  Added coherently the same errors reach at
most about eps m max|x - center|^q sum w^2 times those factors.  On free
chains of 1001 sites (q = 2 to 10) and a dimer window of 2001 sites the
estimate exceeded the measured error 90 to 400 times.  The terms have
both signs, so relative to the moment the error grows where the moment is
much smaller than trace(G), the limit of M_q at long times: large q on a
box much wider than the wavefront.  transport_exponent raises where a
moment is below 1 / _ROUNDING_SHARE times the estimate.  The sums are
exact to rounding while delta times the width stays below pi.  Beyond it
a Cesaro pair can alias, theta near a nonzero multiple of 2 pi, where the
phases are first reduced to [-pi, pi]; the Abel kernel has no such pole.

The guard reads psi_t at every grid time on the guard rows only,
|x - center| > _GUARD_FRACTION * radius, and raises
BoundaryContaminationError before any moment is formed.
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
# the guard's time chunks hold at most this many entries (16 MB) per array,
# (guard rows x times) products and (modes x times) phases
_CHUNK_ENTRIES = 1 << 21
# transport_exponent needs every moment above 1 / _ROUNDING_SHARE times its
# rounding estimate (module docstring).  The 1001-site free chain's T = 10
# Cesaro moment is 1.8e10 times it at q = 2 and 2.1e7 times at q = 4, but
# only 2.8e4 times at q = 6, which is refused (its moments are right to
# 1.3e-7, and at q = 8 to 1.3e-4)
_ROUNDING_SHARE = 1e-6


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


def _check_guard(setup: EvolutionSetup, grids) -> None:
    """Raise BoundaryContaminationError at the first time, grid by grid, at
    which the guard zone's mass exceeds its t = 0 value by more than
    max(_GUARD_MASS, that value).

    The guard zone is the rows |x - center| > _GUARD_FRACTION * radius; psi_t
    is formed on those rows only, as two real products Re = rows @ (cos(E t)
    w) and -Im = rows @ (sin(E t) w), over equal chunks of times that keep
    each array within _CHUNK_ENTRIES entries.  A sharp spectral projection
    already carries an O(1/radius) static tail, so only transported mass
    counts as contamination.
    """
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site)
    rows = setup.modes[xs > _GUARD_FRACTION * setup.radius]
    energies, w = setup.energies, setup.weights[:, None]
    baseline = float(np.square(rows @ setup.weights).sum())
    threshold = max(_GUARD_MASS, baseline)  # trip when the static tail doubles
    for times in grids:
        leaked = np.empty(times.size)
        chunks = -(-times.size * max(rows.shape[0], energies.size, 1) // _CHUNK_ENTRIES)
        chunk = max(1, -(-times.size // max(chunks, 1)))
        for i0 in range(0, times.size, chunk):
            phase = np.outer(energies, times[i0:i0 + chunk])
            cos = np.cos(phase)
            cos *= w
            sin = np.sin(phase, out=phase)
            sin *= w
            re, im = rows @ cos, rows @ sin
            leaked[i0:i0 + chunk] = (np.einsum("ij,ij->j", re, re)
                                     + np.einsum("ij,ij->j", im, im) - baseline)
        tripped = leaked > threshold
        if tripped.any():
            raise BoundaryContaminationError(
                f"wavefront mass {leaked.max():.2e} beyond {_GUARD_FRACTION:.0%} of "
                f"the box radius at t={times[int(np.argmax(tripped))]:g}")


def _gram_pairs(setup: EvolutionSetup, q: float):
    """(omega, G, trace): E_k - E_l and G_kl = w_k w_l A_kl over the kept
    modes' pairs k < l, and the trace of G, for the Gram matrix A = B^T B of
    B = modes |x - center|^{q/2} (one symmetric product)."""
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site).astype(float)
    B = setup.modes * np.sqrt(xs ** q)[:, None]  # 0 at the center for any q > 0
    B *= setup.weights
    G = B.T @ B
    k, l = np.triu_indices(G.shape[0], 1)
    return setup.energies[k] - setup.energies[l], G[k, l], float(np.trace(G))


def _cesaro(omega, G, trace, times, Ts) -> np.ndarray:
    """Cesaro values on the shared grid `times`: the module docstring's
    closed form, with t_n the last grid point <= T."""
    delta = times[1] if times.size > 1 else 0.0
    steps = np.searchsorted(times, Ts, side="right") - 1
    theta = omega * delta
    # K_n has period 2 pi; reduced phases keep sin(n theta) accurate where a
    # pair aliases, theta near a nonzero multiple of 2 pi
    theta -= 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    Q = np.divide(0.5, np.tan(0.5 * theta), out=np.zeros_like(theta), where=theta != 0)
    Q *= G
    level = trace + 2.0 * float(G[theta == 0].sum())  # the pairs with K_n = n
    values, buf = np.empty(Ts.size), np.empty_like(theta)
    for i, (n, T) in enumerate(zip(steps, Ts)):
        np.multiply(theta, n, out=buf)
        np.sin(buf, out=buf)
        buf *= Q
        values[i] = delta * (2.0 * float(buf.sum()) + n * level) / T
    return values


def _abel(omega, G, trace, Ts, quadrature_points: int) -> np.ndarray:
    """Abel values, each on its own grid of quadrature_points on [0, 10T]:
    the module docstring's closed form."""
    values = np.zeros(Ts.size)
    N = quadrature_points - 1
    if N < 1:
        return values
    for i, T in enumerate(Ts):
        delta = ABEL_TRUNCATION * T / N  # np.linspace's step
        a = delta / T
        rho, sinh_a, floor = np.exp(-N * a), np.sinh(a), np.sinh(0.5 * a) ** 2
        theta = omega * delta
        phase = N * theta
        kernel = ((1.0 - rho * np.cos(phase)) * sinh_a + rho * np.sin(phase) * np.sin(theta)) \
            / (4.0 * (floor + np.sin(0.5 * theta) ** 2))
        kernel *= G
        values[i] = delta * (2.0 * float(kernel.sum())
                             + trace * (1.0 - rho) * sinh_a / (4.0 * floor)) / T
    return values


@dataclass(frozen=True)
class MomentCurve:
    """M_q(T) on a grid of averaging times."""

    times: np.ndarray
    values: np.ndarray
    q: float
    rounding: float              # about the absolute rounding error of every value


def moment_curve(setup: EvolutionSetup, q: float, Ts, averaging: str = "cesaro",
                 quadrature_points: int = DEFAULT_QUAD_POINTS) -> MomentCurve:
    """Moment curve over a grid of averaging times, each the trapezoid rule
    summed in closed form over the kept modes' pairs (module docstring).

    Cesaro values share the grid of quadrature_points times on [0, max(T)];
    each Abel value has its own grid on the truncated horizon [0, 10T].  The
    guard reads psi_t at every grid time before any moment is formed.
    """
    Ts = np.sort(np.asarray(Ts, float))
    if q <= 0:
        raise ValueError("q must be positive")
    if np.any(Ts <= 0):
        raise ValueError("averaging times must be positive")
    if averaging == "cesaro":
        times = np.linspace(0.0, Ts[-1], quadrature_points)
        grids = [times]
    elif averaging == "abel":
        grids = (np.linspace(0.0, ABEL_TRUNCATION * T, quadrature_points) for T in Ts)
    else:
        raise ValueError("averaging must be 'cesaro' or 'abel'")
    _check_guard(setup, grids)
    omega, G, trace = _gram_pairs(setup, q)
    if averaging == "cesaro":
        values, horizon, peak = _cesaro(omega, G, trace, times, Ts), Ts[-1], 1.0
    else:
        values, horizon = _abel(omega, G, trace, Ts, quadrature_points), ABEL_TRUNCATION * Ts[-1]
        a = ABEL_TRUNCATION / max(quadrature_points - 1, 1)
        peak = 0.5 * a / np.tanh(0.5 * a)
    width = setup.energies[-1] - setup.energies[0] if setup.energies.size else 0.0
    rounding = float(np.finfo(float).eps * trace * peak * (1.0 + width * horizon))
    return MomentCurve(times=Ts, values=values, q=q, rounding=rounding)


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
    if a window keeps no mode in some realization or has a moment below
    1 / _ROUNDING_SHARE times its rounding estimate (a time below the
    grid's second point, where the moment is 0, or large q on a wide box,
    see the module docstring), and
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
            curve = moment_curve(setup, q, Ts, averaging, quadrature_points)
            if not np.all(curve.values * _ROUNDING_SHARE > curve.rounding):
                raise ValueError(f"window {setup.projection_window} of realization {r} has "
                                 f"a moment {curve.values.min():.3g} below "
                                 f"{1 / _ROUNDING_SHARE:g} times its rounding error, about "
                                 f"{curve.rounding:.3g}: an averaging time below the grid's "
                                 f"second point, or q = {q:g} too large for {num_sites} sites")
            curves[i].append(curve)
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
