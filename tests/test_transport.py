import numpy as np
import pytest
from scipy.special import jv

from polyspec.model import dimer_preset, anderson_preset, lattice_for_sites
from polyspec import transport
from polyspec.eigensolve import build_hamiltonian, dense_oracle, gershgorin_interval
from polyspec.transport import (evolution_setup, moment_curve, transport_exponent,
                                BoundaryContaminationError, _moment_integrand,
                                _weighted_modes)


def evolve_amplitudes(setup, t):
    """psi_t = sum_j e^{-i E_j t} phi_j(x) w_j over the modes with nonzero weight."""
    modes, energies, w = _weighted_modes(setup)
    return modes @ (np.cos(energies * t) * w) - 1j * (modes @ (np.sin(energies * t) * w))


def moment(setup, q, T, averaging="cesaro", quadrature_points=256):
    """M_q(T) at one averaging time."""
    return moment_curve(setup, q, [T], averaging, quadrature_points).values[0]


def free_setup(L, window=None):
    seq = lattice_for_sites(anderson_preset(0.0, 0.5), L, seed=0)
    return evolution_setup(build_hamiltonian(seq), projection_window=window)


def test_initial_state_is_delta():
    setup = free_setup(101)
    psi0 = evolve_amplitudes(setup, 0.0)
    expected = np.zeros(101)
    expected[50] = 1.0
    assert np.allclose(psi0, expected, atol=1e-10)


def test_norm_conservation():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 201, seed=2)
    setup = evolution_setup(build_hamiltonian(seq))
    n0 = np.linalg.norm(evolve_amplitudes(setup, 0.0))
    for t in (1.0, 7.5, 33.0):
        assert abs(np.linalg.norm(evolve_amplitudes(setup, t)) - n0) < 1e-8


def test_free_chain_bessel_law():
    setup = free_setup(501)
    t = 5.0
    psi = evolve_amplitudes(setup, t)
    xs = np.arange(501) - 250
    assert np.abs(np.abs(psi) ** 2 - jv(np.abs(xs), 2 * t) ** 2).max() < 1e-6


def test_moment_small_T_and_validation():
    setup = free_setup(201)
    assert moment(setup, 2.0, 1e-6, "cesaro", quadrature_points=64) < 1e-9
    with pytest.raises(ValueError, match="q must be positive"):
        moment(setup, 0.0, 1.0)
    with pytest.raises(ValueError, match="q must be positive"):
        moment(setup, -1.0, 1.0, averaging="abel")
    with pytest.raises(ValueError, match="times must be positive"):
        moment(setup, 2.0, -1.0)
    with pytest.raises(ValueError, match="times must be positive"):
        moment(setup, 2.0, 0.0, averaging="abel")
    with pytest.raises(ValueError, match="averaging must be"):
        moment(setup, 2.0, 1.0, averaging="laplace")


def test_projection_full_range_equals_none():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 201, seed=3)
    H = build_hamiltonian(seq)
    lo, hi = gershgorin_interval(H)
    full = evolution_setup(H, projection_window=(lo - 0.1, hi + 0.1))
    none = evolution_setup(H)
    m1 = moment(full, 2.0, 10.0)
    m2 = moment(none, 2.0, 10.0)
    assert abs(m1 - m2) <= 1e-8 * max(m2, 1.0)


def test_projection_triangle_bound():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 301, seed=4)
    H = build_hamiltonian(seq)
    window = (-0.6, 0.6)
    lo, hi = gershgorin_interval(H)
    inner = evolution_setup(H, projection_window=window)
    full = evolution_setup(H)
    # complement: union of the two outer windows, realized by weight subtraction
    comp = evolution_setup(H, projection_window=(lo - 0.1, hi + 0.1))
    comp = type(comp)(hamiltonian=comp.hamiltonian, energies=comp.energies,
                      modes=comp.modes, initial_site=comp.initial_site,
                      projection_window=None,
                      weights=full.weights - inner.weights)
    for T in (5.0, 20.0):
        mf = moment(full, 2.0, T)
        mi = moment(inner, 2.0, T)
        mc = moment(comp, 2.0, T)
        assert mf <= 3.0 * (mi + mc) + 1e-9


def test_localized_window_bounded():
    # window deep in the localized regime: the ensemble-mean Cesaro moment
    # stays bounded (max/min ratio <= 2 over the decade of T)
    acc = np.zeros(4)
    for seed in range(4):
        seq = lattice_for_sites(dimer_preset(0.5, 0.5), 1501, seed=seed)
        setup = evolution_setup(build_hamiltonian(seq), projection_window=(1.4, 2.0))
        curve = moment_curve(setup, 2.0, [50.0, 100.0, 200.0, 400.0],
                             quadrature_points=400)
        acc += curve.values
    assert acc.max() / acc.min() <= 2.0


def test_free_chain_ballistic_slope():
    setup = free_setup(1001)
    curve = moment_curve(setup, 2.0, [20.0, 40.0, 60.0, 80.0, 100.0],
                         quadrature_points=400)
    slope = np.polyfit(np.log(curve.times), np.log(curve.values), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_abel_and_cesaro_agree_for_power_law():
    # free chain is exactly ballistic, m(t) = 2 t^2:
    # Abel gives (1/T)int e^{-t/T} m = 4T^2, Cesaro gives (2/3) T^2, ratio 6
    setup = free_setup(2001)
    abel, cesaro = (moment_curve(setup, 2.0, [20.0, 40.0], averaging=averaging,
                                 quadrature_points=500).values
                    for averaging in ("abel", "cesaro"))
    assert np.allclose(abel / cesaro, 6.0, rtol=0.05)


def test_moment_curve_mode_validation():
    setup = free_setup(201)
    for averaging in ("trapezoid", "both"):
        with pytest.raises(ValueError, match="averaging must be"):
            moment_curve(setup, 2.0, [10.0], averaging=averaging)
    c = moment_curve(setup, 2.0, [2.0, 1.0], averaging="abel", quadrature_points=64)
    assert c.times.tolist() == [1.0, 2.0] and c.values.shape == (2,) and c.q == 2.0


def test_boundary_guard_trips():
    setup = free_setup(101)
    with pytest.raises(BoundaryContaminationError):
        moment(setup, 2.0, 200.0, quadrature_points=128)


def test_transport_exponent_free():
    res, = transport_exponent(anderson_preset(0.0, 0.5), 2.0,
                             [20.0, 40.0, 60.0, 80.0, 100.0], box_radius=500,
                             realizations=1, seed=0, quadrature_points=400)
    assert abs(res["slope"] - 2.0) <= 0.1
    assert res["window"] is None


def dimer_setup(window=None):
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 201, seed=1)
    return evolution_setup(build_hamiltonian(seq), projection_window=window)


@pytest.mark.parametrize("make", [lambda: dimer_setup((-0.6, 0.6)), lambda: dimer_setup(),
                                  lambda: free_setup(201)],
                         ids=["dimer-window", "dimer", "free"])
def test_integrand_matches_complex_all_mode_formula(make):
    # the reference multiplies every mode, in complex arithmetic
    setup = make()
    times = np.linspace(0.0, 30.0, 64)
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site).astype(float)
    psi = setup.modes @ (np.exp(-1j * np.outer(setup.energies, times))
                         * setup.weights[:, None])
    ref = xs ** 2 @ (psi.real ** 2 + psi.imag ** 2)
    m = _moment_integrand(setup, 2.0, times, check_guard=False)
    # atol: at t = 0 an unprojected delta_j has a moment of pure roundoff (~1e-27)
    assert np.allclose(m, ref, rtol=1e-12, atol=1e-12 * ref.max())
    assert np.allclose(evolve_amplitudes(setup, times[-1]), psi[:, -1], rtol=0, atol=1e-12)


def test_projected_window_trips_guard():
    setup = dimer_setup((-0.6, 0.6))
    with pytest.raises(BoundaryContaminationError, match=r"at t=31\.3725$"):
        moment(setup, 2.0, 400.0)


def test_windows_share_one_diagonalization(monkeypatch):
    calls = []

    def counting_oracle(H, cap):
        calls.append(H.num_sites)
        return dense_oracle(H, cap=cap)

    monkeypatch.setattr(transport, "dense_oracle", counting_oracle)
    args = (dimer_preset(0.5, 0.5), 2.0, [5.0, 10.0, 20.0], 100)
    kwargs = {"realizations": 3, "seed": 7, "quadrature_points": 128}
    windows = [(-0.6, 0.6), (1.0, 1.6)]
    both = transport_exponent(*args, windows=windows, **kwargs)
    assert calls == [201] * 3
    for window, res in zip(windows, both):
        single, = transport_exponent(*args, windows=[window], **kwargs)
        assert res["window"] == single["window"] == window
        assert np.array_equal(res["per_realization"], single["per_realization"])
