from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyspec.model import (PolymerSpec, PolymerModel, LatticeSequences, dimer_preset,
                            lattice_for_sites, potentials_for_sites_batch, substream)
from polyspec.transfer import TWO_PI, find_critical_energies, expansion_coeffs
from polyspec.eigensolve import build_hamiltonian, dense_oracle
from polyspec.statistics import psi_errors
from polyspec.prufer import (angle_map_m, relative_prufer_batch, phase_shift,
                             free_phase_batch)

from conftest import explicit_models, gershgorin_interval, sturm_count


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

    The reference for the pivot formula of free_phase_batch.  The vector is
    renormalized each step so amplitudes never overflow; the free angle uses
    the (-pi/2, 3pi/2) increment rule and the modified angle is the
    continuous angle-map image.
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


def free_model():
    spec = PolymerSpec(1, [0.0], [1.0])
    return PolymerModel(plus=spec, minus=spec, p_plus=0.5)


@st.composite
def boxes_and_energies(draw):
    """A box of at most 60 sites and 6 uniform energies around its spectrum."""
    seq = lattice_for_sites(draw(explicit_models()), draw(st.integers(1, 60)),
                            seed=draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = gershgorin_interval(build_hamiltonian(seq))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return seq, rng.uniform(lo - 1.0, hi + 1.0, size=6)


def test_angle_map_identity():
    th = np.linspace(-7, 7, 101)
    assert np.allclose(angle_map_m(np.eye(2), th), th)


def test_angle_map_diag_value():
    # M = diag(2, 1) at theta = pi/4: angle of (2 cos, sin)(pi/4) = arctan(1/2)
    val = angle_map_m(np.diag([2.0, 1.0]), np.pi / 4)
    assert abs(val - np.arctan(0.5)) < 1e-12


def test_angle_map_pi_shift_and_monotone():
    rng = np.random.default_rng(8)
    for _ in range(100):
        M = rng.normal(size=(2, 2))
        if np.linalg.det(M) <= 0:
            M[0] = -M[0]
        th = rng.uniform(-10, 10, size=10)
        assert np.allclose(angle_map_m(M, th + np.pi) - angle_map_m(M, th), np.pi,
                           atol=1e-9)
    M = rng.normal(size=(2, 2))
    if np.linalg.det(M) <= 0:
        M[0] = -M[0]
    grid = np.linspace(0, 2 * np.pi, 10000)
    vals = angle_map_m(M, grid)
    assert np.all(np.diff(vals) > 0)


def test_angle_map_requires_positive_det():
    with pytest.raises(ValueError):
        angle_map_m(np.diag([1.0, -1.0]), 0.3)


def test_free_chain_trace_quarter_turns():
    seq = lattice_for_sites(free_model(), 12, seed=0)
    tr = prufer_trace(seq, np.eye(2), 0.0, theta0=0.0)
    assert np.allclose(tr.free_angles, np.arange(13) * np.pi / 2, atol=1e-12)
    assert np.allclose(tr.modified_angles, tr.free_angles)
    # increment branch rule
    inc = np.diff(tr.free_angles)
    assert np.all(inc > -np.pi / 2) and np.all(inc < 3 * np.pi / 2)


def test_trace_reconstructs_vector():
    # compare against a direct unnormalized solution recursion
    m = dimer_preset(0.7, 0.5)
    seq = lattice_for_sites(m, 25, seed=2)
    rep = find_critical_energies(m)[-1]
    M = rep.diagonalizer
    E = 0.31
    tr = prufer_trace(seq, M, E, theta0=0.0)
    x, y = 1.0, 0.0  # (t(0) u(0), u(-1))
    vecs = [(x, y)]
    for n in range(seq.num_sites):
        v, t = seq.potentials[n], seq.hoppings[n]
        x, y = ((v - E) * x - t * t * y) / t, x / t
        vecs.append((x, y))
    for n, (x, y) in enumerate(vecs):
        w = M @ np.array([x, y])
        R = np.hypot(*w)
        assert abs(tr.amplitudes[n] - R) <= 1e-8 * max(R, 1e-300)
        target = np.array([np.cos(tr.modified_angles[n]), np.sin(tr.modified_angles[n])])
        assert np.allclose(w / R, target, atol=1e-8)


def test_block_increment_is_eta_mod_2pi():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    seq = lattice_for_sites(m, 60, seed=9)  # 30 dimer blocks
    signs = substream(9, 0).random(30) < m.p_plus
    tr = prufer_trace(seq, rep.diagonalizer, rep.energy, theta0=0.2)
    for n in range(30):
        inc = tr.modified_angles[2 * n + 2] - tr.modified_angles[2 * n]
        eta = rep.eta_plus if signs[n] else rep.eta_minus
        delta = (inc - eta) % (2 * np.pi)
        assert min(delta, 2 * np.pi - delta) < 1e-9


def _dimer_winding_examples(test):
    """The 40 random dimer boxes, with 4 energies each, of the original loop test."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        L = int(rng.integers(2, 61))
        V = float(rng.uniform(0.1, 0.95))
        seq = lattice_for_sites(dimer_preset(V, 0.5), L, seed=int(rng.integers(1 << 30)))
        test = example(case=(seq, rng.uniform(-3, 3, size=4)))(test)
    return test


@settings(max_examples=80)
@_dimer_winding_examples
@given(case=boxes_and_energies())
def test_winding_count_matches_oracle(case):
    seq, Es = case
    Es = np.sort(Es)
    ref = dense_oracle(build_hamiltonian(seq))[0]
    theta = free_phase_batch(seq.potentials[:, None], (seq.hoppings[1:] ** 2)[:, None],
                             Es[None, :])[0]
    winding = np.floor(theta / np.pi + 0.5).astype(int)
    assert np.array_equal(winding, np.searchsorted(ref, Es))
    assert np.array_equal(sturm_count(build_hamiltonian(seq), Es), winding)
    assert np.all(np.diff(winding) >= 0) and np.all(np.diff(theta) >= 0)


def test_relative_prufer_basics():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    coeffs = expansion_coeffs(m, rep)
    n_Ec = m.mean(coeffs.d_plus, coeffs.d_minus) / np.pi / m.mean_length
    v, tsq = potentials_for_sites_batch(m, 10000, 4, [0])
    xs = np.linspace(-5, 5, 21)
    psi = relative_prufer_batch(v, tsq, rep.diagonalizer, rep.energy, n_Ec, xs)[0]
    assert abs(relative_prufer_batch(v, tsq, rep.diagonalizer, rep.energy, n_Ec,
                                     [0.0])[0, 0]) < 1e-12
    assert np.all(np.diff(psi) > 0)  # monotone in x
    assert np.abs(psi - xs).max() < 0.2
    with pytest.raises(ValueError):
        relative_prufer_batch(v, tsq, rep.diagonalizer, rep.energy, 0.0, xs)


def test_relative_prufer_error_shrinks_with_L():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    xs = np.linspace(-4, 4, 9)
    errs = [np.median(psi_errors(m, rep, L, xs, 4, seed=100)) for L in (1000, 10000)]
    assert errs[1] < errs[0]


def test_phase_shift_at_zero_eps():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    for sign, eta in (("plus", rep.eta_plus), ("minus", rep.eta_minus)):
        for th in (0.0, 0.7, 2.9):
            S, rho = phase_shift(m, rep, sign, 0.0, th)
            assert abs(S - th - eta) < 1e-10
            assert abs(rho - 1.0) < 1e-10
    with pytest.raises(ValueError):
        phase_shift(m, rep, "up", 0.0, 0.0)


def test_phase_shift_first_order():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    coeffs = expansion_coeffs(m, rep)
    thetas = np.linspace(0, np.pi, 8, endpoint=False)
    for sign, eta, d, c in (("plus", rep.eta_plus, coeffs.d_plus, coeffs.c_plus),
                            ("minus", rep.eta_minus, coeffs.d_minus, coeffs.c_minus)):
        resid = []
        for eps in (1e-2, 1e-3):
            S, _ = phase_shift(m, rep, sign, eps, thetas)
            pred = thetas + eta + eps * d - eps * np.imag(c * np.exp(2j * thetas))
            resid.append(np.abs(S - pred).max())
        slope = np.log(resid[0] / resid[1]) / np.log(10.0)
        assert abs(slope - 2.0) < 0.2


def test_phase_shift_amplitude_second_order_in_mean():
    # pointwise rho - 1 = O(eps); the theta-average of log rho is O(eps^2)
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    thetas = np.linspace(0, np.pi, 4096, endpoint=False)
    _, rho = phase_shift(m, rep, "minus", 0.01, thetas)
    assert np.abs(rho - 1.0).max() < 0.02
    assert abs(np.log(rho).mean()) < 1e-4


@settings(max_examples=60)
@example(case=(lattice_for_sites(dimer_preset(0.55, 0.5), 200, seed=13),
               np.array([-0.4, 0.2, 1.3])))
@given(case=boxes_and_energies())
def test_free_phase_batch_matches_trace(case):
    """The pivot phase equals the arctan2 phase to 1e-9 at random energies.

    At the eigenvalues and at E = v(0), where pivots vanish and the pivmin
    floor acts, theta_L can move by O(1) within rounding of E when the state
    is localized far from site L.  There both kernels are exact only for some
    energy within delta = 64 eps ||H||, so, theta_L increasing in E, the pivot
    phase must lie between the trace phases at E - delta and E + delta.
    """
    seq, Es = case
    H = build_hamiltonian(seq)
    probes = np.concatenate([dense_oracle(H)[0][::-(-seq.num_sites // 5)],
                             seq.potentials[:1]])
    out = free_phase_batch(seq.potentials[:, None], (seq.hoppings[1:] ** 2)[:, None],
                           np.concatenate([Es, probes])[None, :])[0]
    for E, theta in zip(Es, out):
        assert abs(theta - prufer_trace(seq, np.eye(2), float(E)).free_angles[-1]) < 1e-9
    delta = 64 * np.finfo(float).eps * max(np.abs(gershgorin_interval(H)).max(), 1.0)
    for E, theta in zip(probes, out[Es.size:]):
        below, above = (prufer_trace(seq, np.eye(2), float(E) + s).free_angles[-1]
                        for s in (-delta, delta))
        assert below - 1e-9 <= theta <= above + 1e-9


@settings(max_examples=40)
@given(model=explicit_models(), L=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_free_phase_batch_columns_match_single(model, L, seed):
    v, tsq = potentials_for_sites_batch(model, L, seed, range(3))
    t_max = np.sqrt(tsq.max(initial=0.0))
    Es = np.random.default_rng(seed).uniform(v.min() - 2 * t_max, v.max() + 2 * t_max,
                                             size=(3, 4))
    batch = free_phase_batch(v, tsq, Es)
    for r in range(3):
        assert np.array_equal(batch[r], free_phase_batch(v[:, [r]], tsq[:, [r]], Es[[r]])[0])
