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
from .model import PolymerModel, PolymerSpec, Configuration, _stream_keys

__all__ = [
    "rotation",
    "site_matrix",
    "polymer_matrix",
    "block_product",
    "CriticalEnergyReport",
    "ExpansionCoeffs",
    "find_critical_energies",
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


def block_product(model: PolymerModel, config: Configuration, E: float,
                  from_block: int = 0, to_block: int | None = None):
    """Renormalized product of polymer matrices over blocks [from, to).

    Returns (matrix, log_scale): the true product equals exp(log_scale)
    times the returned matrix, which is rescaled to unit max-norm after
    every block so products over 1e6 blocks never overflow.
    """
    if to_block is None:
        to_block = config.num_blocks
    if to_block < from_block:
        raise ValueError("to_block must be >= from_block")
    Tp = polymer_matrix(model.plus, E)
    Tm = polymer_matrix(model.minus, E)
    prod = np.eye(2)
    log_scale = 0.0
    for s in config.signs[from_block:to_block]:
        prod = (Tp if s else Tm) @ prod
        scale = np.abs(prod).max()
        log_scale += np.log(scale)
        prod = prod / scale
    return prod, log_scale


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


def diagonalizer(T_plus: np.ndarray, T_minus: np.ndarray, tol: float = 1e-8):
    """Simultaneous rotation frame for a commuting elliptic pair.

    Returns (M, eta_plus, eta_minus) with det M = 1 and
    M T_pm M^{-1} = R(eta_pm) within `tol` (Frobenius).  M is built from a
    complex eigenvector of whichever input is not +-identity, with the
    orientation fixed so det M > 0; that normalization makes the angle map
    theta -> arg(M e_theta) strictly increasing, which pins the eta branch.
    """
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
    return M, eta_p, eta_m


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


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, width: float) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def find_critical_energies(model: PolymerModel, search=None,
                           grid: int = 20001, tol: float = 1e-9,
                           irr_k_max: int = 64) -> list[CriticalEnergyReport]:
    """Scan for critical energies on `search` and certify each candidate.

    The default search is the model's spectrum_bracket, which holds the
    spectrum of every configuration and so every critical energy.
    Local minima of the commutator Frobenius norm on the grid are refined
    by golden-section; a refined energy is kept only if the commutator norm
    is <= tol there and both polymer matrices are elliptic or +-identity.
    An empty list is a valid result (e.g. the single-site Bernoulli model).
    Polymers whose commutator norm is <= tol at every grid energy commute
    at every energy, and raise ValueError.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
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

    def f(E):
        return _commutator_norms(model, np.array([E]))[0]

    reports = []
    seen = []
    for i in candidates:
        E_star = _golden_min(f, Es[i - 1], Es[i + 1], 1e-13)
        if f(E_star) > tol:
            continue
        if any(abs(E_star - e) < 1e-8 for e in seen):
            continue
        Tp = polymer_matrix(model.plus, E_star)
        Tm = polymer_matrix(model.minus, E_star)
        kp, km = _classify(Tp, 1e-6), _classify(Tm, 1e-6)
        if kp is None or km is None:
            continue
        try:
            M, eta_p, eta_m = diagonalizer(Tp, Tm, tol=max(tol, 1e-8))
        except ValueError:
            continue
        resid = max(np.linalg.norm(M @ Tp @ np.linalg.inv(M) - rotation(eta_p)),
                    np.linalg.norm(M @ Tm @ np.linalg.inv(M) - rotation(eta_m)))
        viol = irrationality_check(eta_p, eta_m, model.p_plus, irr_k_max)
        reports.append(CriticalEnergyReport(
            energy=float(E_star), kind_plus=kp, kind_minus=km,
            eta_plus=eta_p, eta_minus=eta_m, diagonalizer=M,
            commutator_norm=float(f(E_star)), residual=float(resid),
            irrationality_violations=viol))
        seen.append(E_star)
    reports.sort(key=lambda r: r.energy)
    _validate_branch(model, reports)
    return reports


def _validate_branch(model: PolymerModel, reports) -> None:
    # det M > 0 makes the eta branch increase with energy; probe defensively
    for rep in reports:
        coeffs = expansion_coeffs(model, rep)
        if coeffs.d_plus < -1e-6 or coeffs.d_minus < -1e-6:
            warnings.warn(f"eta branch at E_c={rep.energy:.6f} has negative "
                          f"energy derivative (d+={coeffs.d_plus:.3g}, "
                          f"d-={coeffs.d_minus:.3g})")


def _lyapunov_log_norms(model: PolymerModel, E: float, steps: int,
                        realization_indices, seed: int):
    """(half_at, log-norms at half_at, log-norms at steps) of each realization's
    product of `steps` polymer matrices, the signs drawn from its substream.

    half_at is the first multiple of 1024 at or above steps // 2, or steps // 2
    itself when that multiple would reach steps.  The products run in the
    compiled kernel, which draws each step's sign from the realization's
    Philox stream and keeps the product as 2^e P with exact power-of-two
    rescaling.  The realizations are split into ranges, one per CPU
    (`_in_row_ranges`); each range's thread advances its products over
    [0, half_at) and then [half_at, steps), so the result does not depend on
    the split.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    half_at = -(-(steps // 2) // 1024) * 1024
    if half_at >= steps:
        half_at = steps // 2
    Tp = polymer_matrix(model.plus, E)
    Tm = polymer_matrix(model.minus, E)
    keys = _stream_keys(seed, realization_indices)
    R = len(keys)
    prod = np.broadcast_to(np.eye(2), (R, 2, 2)).copy()
    expo = np.zeros(R, dtype=np.int64)
    half_prod, half_expo = np.empty_like(prod), np.empty_like(expo)
    steps_kernel, p = _kernel().lyapunov_steps, model.p_plus

    def advance(r0: int, r1: int) -> None:
        rows = slice(r0, r1)
        steps_kernel(r1 - r0, keys[rows], 0, half_at, p, Tp, Tm, prod[rows], expo[rows])
        half_prod[rows], half_expo[rows] = prod[rows], expo[rows]
        steps_kernel(r1 - r0, keys[rows], half_at, steps - half_at, p, Tp, Tm,
                     prod[rows], expo[rows])

    _in_row_ranges(advance, np.full(R, steps), 1)
    log_norms = [e * np.log(2.0) + np.log(np.linalg.norm(P, ord=2, axis=(1, 2)))
                 for P, e in ((half_prod, half_expo), (prod, expo))]
    return half_at, log_norms[0], log_norms[1]


def _lyapunov_gammas(model: PolymerModel, E: float, steps: int,
                     realization_indices, seed: int) -> np.ndarray:
    """Per-realization Lyapunov estimates (per site) over the given substreams."""
    half_at, half, total = _lyapunov_log_norms(model, E, steps, realization_indices, seed)
    return (total - half) / ((steps - half_at) * model.mean_length)


def lyapunov(model: PolymerModel, E: float, steps: int, realizations: int,
             seed: int) -> tuple[float, float]:
    """Lyapunov exponent estimate (per site) with its standard error.

    Each realization multiplies `steps` polymer matrices, signs drawn from its
    own substream inside one compiled loop that keeps the running product as
    2^e P and rescales it by exact powers of two; the realizations run on
    every CPU of the affinity set, with the same result for any CPU count.
    The estimate is the log-norm increment from half_at to steps per site,
    where half_at is the first multiple of 1024 at or above steps // 2
    (steps // 2 itself for steps <= 1024); dropping the first half cancels
    the bounded conjugation offset at critical energies.  The per-realization
    estimates are averaged and stderr is their spread over sqrt(R).
    """
    if realizations < 2:
        raise ValueError("realizations must be >= 2 for a standard error")
    gammas = _lyapunov_gammas(model, E, steps, range(realizations), seed)
    return float(gammas.mean()), float(gammas.std(ddof=1) / np.sqrt(realizations))
