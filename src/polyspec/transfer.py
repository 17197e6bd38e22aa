"""Transfer-matrix calculus for random polymer models.

Single-site matrices T_{v,t} = (1/t) [[v - E, -t^2], [1, 0]] propagate the
solution data (t(n) u(n), u(n-1)).  A critical energy is one where both
single-polymer matrices are elliptic (or +-identity) and commute; there the
pair is simultaneously conjugate to rotations R(eta_+), R(eta_-) by a real
matrix M with det M > 0, and the Lyapunov exponent vanishes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import _in_row_ranges, _kernel
from .model import PolymerModel, PolymerSpec, _stream_keys

__all__ = [
    "rotation",
    "site_matrix",
    "polymer_matrix",
    "CriticalEnergyReport",
    "ExpansionCoeffs",
    "find_critical_energies",
    "critical_tol_floor",
    "diagonalizer",
    "irrationality_check",
    "expansion_coeffs",
    "lyapunov",
]

TWO_PI = 2.0 * np.pi

# complex basis vector used for the transmission/reflection coefficients
_V_BASIS = np.array([1.0, -1.0j]) / np.sqrt(2.0)


def rotation(eta: float) -> np.ndarray:
    c, s = np.cos(eta), np.sin(eta)
    return np.array([[c, -s], [s, c]])


def site_matrix(v: float, t: float, E: float) -> np.ndarray:
    """One-site transfer matrix; unimodular for any t > 0."""
    if t <= 0:
        raise ValueError("hopping t must be strictly positive")
    return np.array([[(v - E) / t, -t], [1.0 / t, 0.0]])


def polymer_matrix(spec: PolymerSpec, E) -> np.ndarray:
    """Product of site matrices over one polymer, site 0 applied first.

    E is a scalar, giving a (2, 2) matrix, or an array of energies, giving
    one matrix per energy, shape E.shape + (2, 2).
    """
    E = np.asarray(E, float)
    T = np.broadcast_to(np.eye(2), E.shape + (2, 2)).copy()
    for v, t in zip(spec.potentials, spec.hoppings):
        S = np.empty(E.shape + (2, 2))
        S[..., 0, 0] = (v - E) / t
        S[..., 0, 1] = -t
        S[..., 1, 0] = 1.0 / t
        S[..., 1, 1] = 0.0
        T = S @ T
    return T


def _conjugated_polymer(spec: PolymerSpec, M: np.ndarray, E) -> np.ndarray:
    """M T(E) M^{-1}, the polymer matrix in the frame of the diagonalizer M,
    for a scalar E or for each energy of an array."""
    return M @ polymer_matrix(spec, E) @ np.linalg.inv(M)


@dataclass(frozen=True)
class CriticalEnergyReport:
    """Certificate for one critical energy."""

    energy: float
    kind_plus: str
    kind_minus: str
    eta_plus: float
    eta_minus: float
    diagonalizer: np.ndarray
    commutator_norm: float
    residual: float
    irrationality_violations: list = field(default_factory=list)


@dataclass(frozen=True)
class ExpansionCoeffs:
    """First-order energy expansion data of the conjugated polymer matrices."""

    d_plus: float
    d_minus: float
    c_plus: complex
    c_minus: complex
    a_eps_plus: complex
    a_eps_minus: complex
    b_eps_plus: complex
    b_eps_minus: complex
    eps_probe: float


def _classify(T: np.ndarray, tol: float) -> str | None:
    """'plus_identity', 'minus_identity', 'elliptic', or None if neither."""
    if np.abs(T - np.eye(2)).max() <= tol:
        return "plus_identity"
    if np.abs(T + np.eye(2)).max() <= tol:
        return "minus_identity"
    if abs(np.trace(T)) < 2.0 - 1e-9:
        return "elliptic"
    return None


def _eta_of(B: np.ndarray) -> float:
    """Rotation angle of a (numerically) rotation matrix, in [0, 2pi)."""
    return float(np.arctan2(B[1, 0], B[0, 0]) % TWO_PI)


def _certificate(T_plus: np.ndarray, T_minus: np.ndarray, tol: float):
    """(kind_plus, kind_minus, M, eta_plus, eta_minus, residual) of a commuting
    elliptic pair; see `diagonalizer`, which returns the middle three."""
    ident_tol = 1e-6
    kinds = [_classify(T_plus, ident_tol), _classify(T_minus, ident_tol)]
    if kinds[0] is None or kinds[1] is None:
        raise ValueError("inputs are not simultaneously elliptic or +-identity")
    base = None
    best = 2.0
    for T, kind in zip((T_plus, T_minus), kinds):
        if kind == "elliptic" and abs(np.trace(T)) / 2.0 < best:
            base = T
            best = abs(np.trace(T)) / 2.0
    if base is None:
        M = np.eye(2)
    else:
        w, vecs = np.linalg.eig(base)
        vec = vecs[:, int(np.argmax(w.imag))]
        P = np.column_stack([vec.real, vec.imag])
        if np.linalg.det(P) > 0:   # det M = -1/det P must be positive
            P = np.column_stack([vec.real, -vec.imag])
        M = np.diag([1.0, -1.0]) @ np.linalg.inv(P)
        M = M / np.sqrt(np.linalg.det(M))
    Minv = np.linalg.inv(M)
    Bp = M @ T_plus @ Minv
    Bm = M @ T_minus @ Minv
    eta_p, eta_m = _eta_of(Bp), _eta_of(Bm)
    resid = max(np.linalg.norm(Bp - rotation(eta_p)),
                np.linalg.norm(Bm - rotation(eta_m)))
    if resid > tol:
        raise ValueError(f"diagonalizer residual {resid:.2e} exceeds tol {tol:.2e}")
    return *kinds, M, eta_p, eta_m, float(resid)


def diagonalizer(T_plus: np.ndarray, T_minus: np.ndarray, tol: float = 1e-8):
    """Simultaneous rotation frame for a commuting elliptic pair.

    Returns (M, eta_plus, eta_minus) with det M = 1 and
    M T_pm M^{-1} = R(eta_pm) within `tol` (Frobenius).  M is built from a
    complex eigenvector of whichever input is not +-identity, with the
    orientation fixed so det M > 0; that normalization makes the angle map
    theta -> arg(M e_theta) strictly increasing, which pins the eta branch.
    """
    return _certificate(T_plus, T_minus, tol)[2:5]


def irrationality_check(eta_plus: float, eta_minus: float, p: float,
                        k_max: int, tol: float = 1e-9) -> list[tuple[int, float]]:
    """Harmonics k in 1..k_max where |<e^{ik eta}>| >= 1 - tol.

    Uses the closed form |<e^{ik eta}>|^2 = 1 + 2p(1-p)(cos(k d_eta) - 1)
    with d_eta = eta_plus - eta_minus; an empty list means the uniform-clock
    condition holds up to k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k = np.arange(1, k_max + 1)
    mod2 = 1.0 + 2.0 * p * (1.0 - p) * (np.cos(k * (eta_plus - eta_minus)) - 1.0)
    mod = np.sqrt(np.clip(mod2, 0.0, None))
    bad = mod >= 1.0 - tol
    return [(int(kk), float(m)) for kk, m in zip(k[bad], mod[bad])]


def _ab_coeffs(B: np.ndarray) -> tuple[complex, complex]:
    """Transmission/reflection coefficients of a real 2x2 matrix in the
    basis {v, conj(v)}, v = (1, -i)/sqrt(2): B v = a v + b conj(v)."""
    a = _V_BASIS.conj() @ (B @ _V_BASIS)
    b = _V_BASIS @ (B @ _V_BASIS)
    return complex(a), complex(b)


def _lift_near(angle: float, near: float) -> float:
    return near + float(np.angle(np.exp(1j * (angle - near))))


def expansion_coeffs(model: PolymerModel, report: CriticalEnergyReport,
                     eps_probe: float = 1e-5) -> ExpansionCoeffs:
    """Phase derivatives d_pm and reflection derivatives c_pm at E_c.

    d_pm is the energy derivative of the phase of the transmission
    coefficient a^eps in the diagonalizer frame; c_pm is the derivative of
    the reflection coefficient b^eps times e^{i eta_pm}.  Both come from
    central differences at +-eps_probe with one Richardson step, so
    arbitrary polymer specs are supported.
    """
    if eps_probe <= 0:
        raise ValueError("eps_probe must be positive")
    M, Ec, h = report.diagonalizer, report.energy, eps_probe
    out = {}
    for name, spec, eta in (("plus", model.plus, report.eta_plus),
                            ("minus", model.minus, report.eta_minus)):
        # (a, b) of the conjugated polymer at E_c + h, E_c - h, E_c + h/2, E_c - h/2
        ab = [_ab_coeffs(B) for B in
              _conjugated_polymer(spec, M, Ec + np.array([h, -h, h / 2, -h / 2]))]
        arg = [_lift_near(np.angle(a), eta) for a, _ in ab]
        d1 = (arg[0] - arg[1]) / (2 * h)
        d2 = (arg[2] - arg[3]) / h
        c1 = (ab[0][1] - ab[1][1]) / (2 * h)
        c2 = (ab[2][1] - ab[3][1]) / h
        out[name] = ((4 * d2 - d1) / 3.0, ((4 * c2 - c1) / 3.0) * np.exp(1j * eta), *ab[0])
    dp, cp, ap, bp = out["plus"]
    dm, cm, am, bm = out["minus"]
    return ExpansionCoeffs(d_plus=dp, d_minus=dm, c_plus=cp, c_minus=cm,
                           a_eps_plus=ap, a_eps_minus=am,
                           b_eps_plus=bp, b_eps_minus=bm, eps_probe=eps_probe)


def _commutator_norms(model: PolymerModel, energies: np.ndarray) -> np.ndarray:
    Tp = polymer_matrix(model.plus, energies)
    Tm = polymer_matrix(model.minus, energies)
    C = Tp @ Tm - Tm @ Tp
    return np.sqrt((C ** 2).sum(axis=(-2, -1)))


# points per round, narrowing per round and relative stopping half-width of
# the refinement in find_critical_energies
_ZOOM_POINTS, _ZOOM_FACTOR, _ZOOM_STOP = 65, 32.0, 1e-14

# the refined commutator norm at a critical energy is roundoff: up to 75 eps
# times max(|v|, t, 1) on the dimers V = 0.05..1 scaled by s = 1..1e5
_TOL_FLOOR_EPS = 256


def critical_tol_floor(model: PolymerModel) -> float:
    """The least tol at which find_critical_energies can keep a critical
    energy: 256 eps times the model's scale max(|v|, t, 1).  Below it the
    roundoff of the refined commutator norm exceeds tol, and every critical
    energy would be dropped."""
    v = np.concatenate([model.plus.potentials, model.minus.potentials])
    t = max(model.plus.hoppings.max(), model.minus.hoppings.max())
    scale = max(float(np.abs(v).max()), float(t), 1.0)
    return _TOL_FLOOR_EPS * float(np.finfo(float).eps) * scale


def find_critical_energies(model: PolymerModel, search=None,
                           grid: int = 20001, tol: float = 1e-9,
                           irr_k_max: int = 64) -> list[CriticalEnergyReport]:
    """Scan for critical energies on `search` and certify each candidate.

    The default search is the model's spectrum_bracket, which holds the
    spectrum of every configuration and so every critical energy.
    Local minima of the commutator Frobenius norm on the grid are refined
    together, in one norm evaluation per round: each round lays 65 points
    across every candidate's interval, first [E_{i-1}, E_{i+1}] around grid
    point i, and keeps the smallest norm with an interval 32 times narrower,
    until the half-width is below 1e-14 max(|lo|, |hi|, 1).  A refined
    energy is kept only if the last round's norm is <= tol and both polymer
    matrices are elliptic or +-identity.
    An empty list is a valid result (e.g. the single-site Bernoulli model).
    Polymers whose commutator norm is <= tol at every grid energy commute
    at every energy, and raise ValueError, as does a tol below
    critical_tol_floor(model).
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    floor = critical_tol_floor(model)
    if not tol >= floor:
        raise ValueError(f"tol={tol!r} is below {floor:.3g}, the roundoff of the commutator "
                         "norm at a critical energy of this model (256 eps max(|v|, t, 1)), "
                         "so no critical energy would be kept")
    lo, hi = (float(x) for x in (model.spectrum_bracket if search is None else search))
    Es = np.linspace(lo, hi, grid)
    h = (hi - lo) / (grid - 1)
    norms = _commutator_norms(model, Es)
    if np.all(norms <= tol):
        raise ValueError(f"the polymers commute at every energy: the commutator norm is "
                         f"<= tol={tol} at all {grid} grid energies in [{lo}, {hi}], so "
                         "critical energies are not isolated")
    interior = (norms[1:-1] <= norms[:-2]) & (norms[1:-1] <= norms[2:])
    candidates = np.nonzero(interior)[0] + 1
    # refine only minima shaped like a zero at grid resolution: the norm
    # vanishes linearly at a critical energy, so its grid minimum is below
    # the local slope times the spacing; smooth nonzero minima are skipped
    slopes = np.maximum(np.abs(norms[candidates + 1] - norms[candidates]),
                        np.abs(norms[candidates] - norms[candidates - 1])) / h
    candidates = candidates[norms[candidates] <= np.maximum(2 * h * slopes, 1e-6)]

    E_stars, best, half = Es[candidates], norms[candidates], h
    rows, offsets = np.arange(candidates.size), np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    while half > _ZOOM_STOP * max(abs(lo), abs(hi), 1.0):
        points = E_stars[:, None] + half * offsets
        zoom = _commutator_norms(model, points)
        at = zoom.argmin(axis=1)
        E_stars, best = points[rows, at], zoom[rows, at]
        half /= _ZOOM_FACTOR

    reports = []
    for E_star, norm in zip(E_stars, best):
        if norm > tol or any(abs(E_star - r.energy) < 1e-8 for r in reports):
            continue
        Tp = polymer_matrix(model.plus, E_star)
        Tm = polymer_matrix(model.minus, E_star)
        try:
            kp, km, M, eta_p, eta_m, resid = _certificate(Tp, Tm, max(tol, 1e-8))
        except ValueError:
            continue
        viol = irrationality_check(eta_p, eta_m, model.p_plus, irr_k_max)
        rep = CriticalEnergyReport(
            energy=float(E_star), kind_plus=kp, kind_minus=km,
            eta_plus=eta_p, eta_minus=eta_m, diagonalizer=M,
            commutator_norm=float(norm), residual=resid, irrationality_violations=viol)
        # det M > 0 makes the eta branch increase with energy; probe defensively
        coeffs = expansion_coeffs(model, rep)
        if coeffs.d_plus < -1e-6 or coeffs.d_minus < -1e-6:
            warnings.warn(f"eta branch at E_c={rep.energy:.6f} has negative "
                          f"energy derivative (d+={coeffs.d_plus:.3g}, "
                          f"d-={coeffs.d_minus:.3g})")
        reports.append(rep)
    reports.sort(key=lambda r: r.energy)
    return reports


def _lyapunov_log_norms(model: PolymerModel, E, steps: int, realization_indices, seed: int):
    """(half_at, log-norms at half_at, log-norms at steps) of each realization's
    product of `steps` polymer matrices, the signs drawn from its substream.

    E is a scalar, giving log-norms of shape (R,), or a 1-d array of K
    energies, giving (R, K): every energy's product runs on the same signs.
    half_at is the first multiple of 1024 at or above steps // 2, or steps // 2
    itself when that multiple would reach steps.  The products run in the
    compiled kernel, which draws each chunk of a realization's signs from its
    Philox stream once for all K energies, with eight realizations as the
    lanes of a vector, and keeps each product as 2^e P with exact
    power-of-two rescaling, so each energy's log-norms are bit for bit those
    of a call with that energy alone.  The realizations are split into
    ranges, one per CPU (`_in_row_ranges`, a realization weighing steps
    times K products); each range's thread advances its products over
    [0, half_at) and then [half_at, steps), so the result does not depend on
    the split.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    E = np.asarray(E, float)
    if E.ndim > 1:
        raise ValueError(f"E must be a scalar or a 1-d array of energies, got shape {E.shape}")
    half_at = -(-(steps // 2) // 1024) * 1024
    if half_at >= steps:
        half_at = steps // 2
    Es = E.reshape(-1)
    Tp = polymer_matrix(model.plus, Es)
    Tm = polymer_matrix(model.minus, Es)
    keys = _stream_keys(seed, realization_indices)
    R, K = len(keys), Es.size
    prod = np.broadcast_to(np.eye(2), (R, K, 2, 2)).copy()
    expo = np.zeros((R, K), dtype=np.int64)
    half_prod, half_expo = np.empty_like(prod), np.empty_like(expo)
    steps_kernel, p = _kernel().lyapunov_steps, model.p_plus

    def advance(r0: int, r1: int) -> None:
        rows = slice(r0, r1)
        steps_kernel(r1 - r0, K, keys[rows], 0, half_at, p, Tp, Tm, prod[rows], expo[rows])
        half_prod[rows], half_expo[rows] = prod[rows], expo[rows]
        steps_kernel(r1 - r0, K, keys[rows], half_at, steps - half_at, p, Tp, Tm,
                     prod[rows], expo[rows])

    _in_row_ranges(advance, np.full(R, steps * K), 1)
    log_norms = [(e * np.log(2.0) + np.log(np.linalg.norm(P, ord=2, axis=(-2, -1))))
                 .reshape((R,) + E.shape) for P, e in ((half_prod, half_expo), (prod, expo))]
    return half_at, log_norms[0], log_norms[1]


def _lyapunov_gammas(model: PolymerModel, E, steps: int,
                     realization_indices, seed: int) -> np.ndarray:
    """Per-realization Lyapunov estimates (per site) over the given substreams,
    shape (R,) for a scalar E and (R, K) for K energies."""
    half_at, half, total = _lyapunov_log_norms(model, E, steps, realization_indices, seed)
    return (total - half) / ((steps - half_at) * model.mean_length)


def lyapunov(model: PolymerModel, E, steps: int, realizations: int, seed: int):
    """Lyapunov exponent estimate (per site) with its standard error.

    E is a scalar, giving two floats, or a 1-d array of energies, giving two
    arrays of its length; every energy is estimated from the same
    realizations, each energy's pair bit for bit that of a call with that
    energy alone.  Each realization multiplies `steps` polymer matrices,
    signs drawn from its own substream inside one compiled loop that draws
    each sign once for all energies and keeps every running product as 2^e P,
    rescaled by exact powers of two; the realizations run on every CPU of the
    affinity set, with the same result for any CPU count.  The estimate is
    the log-norm increment from half_at to steps per site, where half_at is
    the first multiple of 1024 at or above steps // 2 (steps // 2 itself for
    steps <= 1024); dropping the first half cancels the bounded conjugation
    offset at critical energies.  The per-realization estimates are averaged
    and stderr is their spread over sqrt(R).
    """
    if realizations < 2:
        raise ValueError("realizations must be >= 2 for a standard error")
    gammas = _lyapunov_gammas(model, E, steps, range(realizations), seed)
    # one contiguous row per energy: its sums run as in a 1-d array
    g = np.ascontiguousarray(np.moveaxis(gammas, 0, -1))
    mean, se = g.mean(axis=-1), g.std(ddof=1, axis=-1) / np.sqrt(realizations)
    if g.ndim == 1:
        return float(mean), float(se)
    return mean, se
