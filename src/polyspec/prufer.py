"""Free and modified Prufer phase evolution.

The free phase tracks the polar angle of the solution vector
(x_n, y_n) = (t(n) u(n), u(n-1)) from theta_0 = 0, with the branch rule that
successive increments lie in (-pi/2, 3pi/2).  Its cotangent x_n / y_n is the
LDL^T pivot d_{n-1} of H - E, and

    theta_L(E) = pi * #{n : d_n < 0} + arctan(1 / d_{L-1})

exactly (the oscillation theorem): as y_{n+1} = x_n / t(n), each step takes
theta from (c pi - pi/2, c pi + pi/2) into (c pi, (c + 1) pi), and d_n < 0
puts it past c pi + pi/2, adding one to c.  Where d_{L-1} crosses 0 (at an
eigenvalue) the count gains one as arctan(1/d) drops by pi, so theta_L is
continuous in E.  `prufer_trace` keeps the arctan2 evolution as reference.

The modified phase is the continuous image of the free phase under the
angle map theta -> arg(M e_theta) induced by the diagonalizer M; at a
critical energy each polymer block advances it by exactly eta_pm modulo 2pi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import sturm_counts_batch
from .model import LatticeSequences, PolymerModel
from .transfer import TWO_PI, CriticalEnergyReport, _conjugated_polymer

__all__ = [
    "PruferTrace",
    "angle_map_m",
    "prufer_trace",
    "free_phase_batch",
    "relative_prufer",
    "relative_prufer_batch",
    "phase_shift",
]

def angle_map_m(M: np.ndarray, theta):
    """Continuous lift of theta -> arg(M e_theta), with m(theta + pi) = m(theta) + pi.

    Requires det M > 0 (the map is strictly increasing exactly then).  Works
    on scalars or arrays.  The lift is exact: the winding is pi * floor(theta/pi)
    plus the in-band image of the fractional part.
    """
    if np.linalg.det(M) <= 0:
        raise ValueError("angle map requires det M > 0")
    theta = np.asarray(theta, float)
    k = np.floor(theta / np.pi)
    f = theta - k * np.pi
    x, y = np.cos(f), np.sin(f)
    m0 = np.arctan2(M[1, 0], M[0, 0])
    raw = np.arctan2(M[1, 0] * x + M[1, 1] * y, M[0, 0] * x + M[0, 1] * y)
    out = k * np.pi + m0 + (raw - m0) % TWO_PI
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PruferTrace:
    """Site-by-site phase evolution at one energy.

    Amplitudes are stored in log scale; `amplitudes` exponentiates and may
    overflow to inf for long boxes away from critical energies.
    """

    free_angles: np.ndarray
    modified_angles: np.ndarray
    log_amplitudes: np.ndarray
    energy: float

    @property
    def amplitudes(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_amplitudes)


def prufer_trace(seq: LatticeSequences, M: np.ndarray, E: float,
                 theta0: float = 0.0) -> PruferTrace:
    """Evolve the solution vector through the box, recording both phases.

    The vector is renormalized each step so amplitudes never overflow; the
    free angle uses the (-pi/2, 3pi/2) increment rule and the modified angle
    is the continuous angle-map image.
    """
    if np.linalg.det(M) <= 0:
        raise ValueError("modified Prufer variables require det M > 0")
    L = seq.num_sites
    v, t = seq.potentials, seq.hoppings
    free = np.empty(L + 1)
    logamp = np.empty(L + 1)
    free[0] = theta0
    x, y = np.cos(theta0), np.sin(theta0)
    la = 0.0
    # log of ||M (cos, sin)|| for the modified amplitude
    def log_r(xx, yy):
        return 0.5 * np.log((M[0, 0] * xx + M[0, 1] * yy) ** 2
                            + (M[1, 0] * xx + M[1, 1] * yy) ** 2)
    logamp[0] = log_r(x, y)
    th = theta0
    for n in range(L):
        xn = ((v[n] - E) * x - t[n] ** 2 * y) / t[n]
        yn = x / t[n]
        r = np.hypot(xn, yn)
        la += np.log(r)
        x, y = xn / r, yn / r
        raw = np.arctan2(y, x)
        th += (raw - th + np.pi / 2) % TWO_PI - np.pi / 2
        free[n + 1] = th
        logamp[n + 1] = la + log_r(x, y)
    return PruferTrace(free_angles=free, modified_angles=angle_map_m(M, free),
                       log_amplitudes=logamp, energy=float(E))


def free_phase_batch(v: np.ndarray, tsq: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Final lifted free phase for many disorder columns and energies at once.

    One Sturm sweep gives theta_L by the pivot formula of the module
    docstring.

    Parameters
    ----------
    v : (L, R) per-site potentials, one realization per column.
    tsq : (L-1, R) squared hoppings t(1)^2 .. t(L-1)^2.
    energies : (R, K) energies; column broadcasting pairs realization r with
        its K probe energies.

    Returns
    -------
    (R, K) array of theta^0_L continuous lifts.
    """
    counts, d = sturm_counts_batch(v, tsq, np.asarray(energies, float))
    return np.pi * counts + np.arctan(1.0 / d)


def relative_prufer_batch(v: np.ndarray, tsq: np.ndarray, M: np.ndarray, E_c: float,
                          n_Ec: float, xs) -> np.ndarray:
    """Relative Prufer angle Psi_L(x) = (theta_L(E_c + x/(n L)) - theta_L(E_c)) / pi.

    v (L, R) and tsq (L-1, R) are per-site potentials and squared hoppings,
    one realization per column, as free_phase_batch takes them; returns
    (R, len(xs)).
    """
    if n_Ec <= 0:
        raise ValueError("n_Ec must be positive")
    xs = np.asarray(xs, float)
    L, R = v.shape
    energies = E_c + np.concatenate([[0.0], xs]) / (n_Ec * L)
    thm = angle_map_m(M, free_phase_batch(v, tsq, np.tile(energies, (R, 1))))
    return (thm[:, 1:] - thm[:, [0]]) / np.pi


def relative_prufer(seq: LatticeSequences, M: np.ndarray, E_c: float,
                    n_Ec: float, xs) -> np.ndarray:
    """Psi_L(x) of one box; see relative_prufer_batch."""
    return relative_prufer_batch(seq.potentials[:, None], (seq.hoppings[1:] ** 2)[:, None],
                                 M, E_c, n_Ec, xs)[0]


def phase_shift(model: PolymerModel, report: CriticalEnergyReport, sign: str,
                eps: float, theta):
    """One-polymer phase shift: rho e_S = M T^{E_c + eps} M^{-1} e_theta.

    `sign` selects the polymer ('plus' or 'minus').  S is lifted so that at
    eps = 0 it equals theta + eta exactly; works on scalar or array theta.
    Returns (S, rho).
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    spec, eta = ((model.plus, report.eta_plus) if sign == "plus"
                 else (model.minus, report.eta_minus))
    B = _conjugated_polymer(spec, report.diagonalizer, report.energy + eps)
    theta = np.asarray(theta, float)
    ux = B[0, 0] * np.cos(theta) + B[0, 1] * np.sin(theta)
    uy = B[1, 0] * np.cos(theta) + B[1, 1] * np.sin(theta)
    rho = np.hypot(ux, uy)
    raw = np.arctan2(uy, ux)
    S = theta + eta + np.angle(np.exp(1j * (raw - theta - eta)))
    if S.ndim == 0:
        return float(S), float(rho)
    return S, rho
