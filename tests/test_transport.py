import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import jv

from polyspec.model import dimer_preset, anderson_preset, lattice_for_sites
from polyspec import eigensolve, transport
from polyspec.eigensolve import TridiagonalOperator, build_hamiltonian, dense_oracle
from polyspec.transport import (EvolutionSetup, evolution_setup, moment_curve,
                                transport_exponent, BoundaryContaminationError)

from conftest import explicit_models, gershgorin_interval


def _moment_integrand(setup: EvolutionSetup, q: float, times: np.ndarray,
                      check_guard: bool = True) -> np.ndarray:
    """sum_x |x - center|^q |psi_t(x)|^2 on a time grid, psi_t formed on every
    site at every time: the per-time oracle of the closed-form moments.

    The guard trips at the first time whose guard-zone mass exceeds its
    t = 0 value by more than max(_GUARD_MASS, that value).
    """
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site).astype(float)
    guard = xs > transport._GUARD_FRACTION * setup.radius
    phase = np.outer(setup.energies, times)
    w = setup.weights[:, None]
    prob = (setup.modes @ (np.cos(phase) * w)) ** 2 + (setup.modes @ (np.sin(phase) * w)) ** 2
    if check_guard:
        baseline = float(((setup.modes @ setup.weights) ** 2)[guard].sum())
        leaked = prob[guard].sum(axis=0) - baseline
        tripped = leaked > max(transport._GUARD_MASS, baseline)
        if tripped.any():
            raise BoundaryContaminationError(
                f"wavefront mass {leaked.max():.2e} beyond "
                f"{transport._GUARD_FRACTION:.0%} of the box radius "
                f"at t={times[int(np.argmax(tripped))]:g}")
    return xs ** q @ prob


def oracle_curve(setup, q, Ts, quadrature_points):
    """moment_curve's values by the trapezoid rule on the oracle's integrand."""
    Ts = np.sort(np.asarray(Ts, float))
    times = np.linspace(0.0, Ts[-1], quadrature_points)
    m = _moment_integrand(setup, q, times)
    return np.array([np.trapezoid(m[times <= T], times[times <= T]) / T for T in Ts])


def evolve_amplitudes(setup, t):
    """psi_t = sum_j e^{-i E_j t} phi_j(x) w_j over the setup's modes."""
    modes, energies, w = setup.modes, setup.energies, setup.weights
    return modes @ (np.cos(energies * t) * w) - 1j * (modes @ (np.sin(energies * t) * w))


def dense_window_setup(H, window):
    """The projected setup on the dense decomposition's eigenpairs in the
    closed window: the oracle of the twisted-vector setups, and what a
    window that falls back takes."""
    j = H.num_sites // 2
    w, Phi = dense_oracle(H, cap=H.num_sites)
    inside = (w >= window[0]) & (w <= window[1])
    return EvolutionSetup(hamiltonian=H, energies=w[inside], modes=Phi[:, inside],
                          initial_site=j, projection_window=tuple(window),
                          weights=Phi[j, inside].copy())


def moment(setup, q, T, quadrature_points=256):
    """M_q(T) at one averaging time."""
    return moment_curve(setup, q, [T], quadrature_points).values[0]


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
    assert moment(setup, 2.0, 1e-6, quadrature_points=64) < 1e-9
    with pytest.raises(ValueError, match="q must be positive"):
        moment(setup, 0.0, 1.0)
    with pytest.raises(ValueError, match="q must be positive"):
        moment(setup, -1.0, 1.0)
    with pytest.raises(ValueError, match="times must be positive"):
        moment(setup, 2.0, -1.0)
    with pytest.raises(ValueError, match="times must be positive"):
        moment(setup, 2.0, 0.0)


def test_projection_full_range_equals_none():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 201, seed=3)
    H = build_hamiltonian(seq)
    lo, hi = gershgorin_interval(H)
    full = evolution_setup(H, projection_window=(lo - 0.1, hi + 0.1))
    none = evolution_setup(H)
    assert not full.fallback and not none.fallback
    # no window is the window (-inf, inf), whose infinite ends clip to the
    # spectrum's bound: the same eigenpairs, from brackets with other ends
    unbounded = evolution_setup(H, projection_window=(-np.inf, np.inf))
    assert np.array_equal(none.energies, unbounded.energies)
    assert np.array_equal(none.modes, unbounded.modes)
    assert np.allclose(none.energies, full.energies, rtol=0, atol=1e-12)
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
    # complement: union of the two outer windows, realized by zeroing the
    # inner window's weights on the full-range window's twisted vectors, so
    # that the three setups stand on three different sets of columns
    comp = evolution_setup(H, projection_window=(lo - 0.1, hi + 0.1))
    inside = (comp.energies >= window[0]) & (comp.energies <= window[1])
    assert inside.sum() == inner.energies.size
    comp = replace(comp, projection_window=None, weights=np.where(inside, 0.0, comp.weights))
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


def test_moment_curve_mode_validation():
    setup = free_setup(201)
    c = moment_curve(setup, 2.0, [2.0, 1.0], quadrature_points=64)
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


@pytest.mark.parametrize("n", [2, 3, 7, 800, 801])
def test_guard_blocks_match_direct_phases(n):
    # the guard scans the grid in blocks of ceil(sqrt(n)) times, with phases
    # by angle addition; 2, 3, 7 and 801 leave a short last block
    setup = dimer_setup((-0.6, 0.6))
    xs = np.abs(np.arange(setup.num_sites) - setup.initial_site)
    guard = xs > transport._GUARD_FRACTION * setup.radius
    times = np.linspace(0.0, 20.0, n)
    prob = np.abs(np.stack([evolve_amplitudes(setup, t) for t in times], axis=1)) ** 2
    mass = prob[guard].sum(axis=0)
    want = mass - mass[0]
    got = transport._check_guard(setup, times)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(mass, transport._GUARD_MASS))
    # past the trip time both name the same grid time
    times = np.linspace(0.0, 400.0, n)
    with pytest.raises(BoundaryContaminationError) as direct:
        _moment_integrand(setup, 2.0, times)
    at = re.escape(str(direct.value).rsplit(" ", 1)[1])
    with pytest.raises(BoundaryContaminationError, match=f" {at}$"):
        transport._check_guard(setup, times)


def test_dense_oracle_only_for_fallbacks(monkeypatch):
    calls = []

    def counting_oracle(H, cap):
        calls.append(H.num_sites)
        return dense_oracle(H, cap=cap)

    monkeypatch.setattr(transport, "dense_oracle", counting_oracle)
    args = (dimer_preset(0.5, 0.5), 2.0, [5.0, 10.0, 20.0], 100)
    kwargs = {"realizations": 3, "seed": 7, "quadrature_points": 128}
    windows = [(-0.6, 0.6), (1.0, 1.6)]
    both = transport_exponent(*args, windows=windows, **kwargs)
    assert calls == [] and [res["fallbacks"] for res in both] == [0, 0]
    for window, res in zip(windows, both):
        single, = transport_exponent(*args, windows=[window], **kwargs)
        assert res["window"] == single["window"] == window
        assert np.array_equal(res["per_realization"], single["per_realization"])
        for c, c1 in zip(res["curves"], single["curves"]):
            assert np.array_equal(c.values, c1.values)
    # the unprojected state takes the window path too
    free, = transport_exponent(*args, **kwargs)
    assert calls == [] and free["fallbacks"] == 0


def mirror_box(m=30, central_hopping=1e-12):
    """2m sites, mirror-symmetric about the central bond, whose hopping is
    tiny: every eigenvalue comes in a pair split by about that hopping."""
    rng = np.random.default_rng(11)
    v, t = rng.uniform(-1.0, 1.0, m), rng.uniform(0.5, 1.5, m - 1)
    return TridiagonalOperator(diagonal=np.r_[v, v[::-1]],
                               offdiagonal=np.r_[t, central_hopping, t[::-1]],
                               num_sites=2 * m)


def test_close_pair_falls_back_to_dense(monkeypatch):
    H = mirror_box()
    window = (-1.0, 1.0)
    gaps = np.diff(dense_window_setup(H, window).energies)
    assert gaps.min() < transport._GAP_FLOOR  # a pair closer than the gap floor
    setup = evolution_setup(H, projection_window=window)
    assert setup.fallback
    ref = dense_window_setup(H, window)
    assert np.array_equal(setup.energies, ref.energies)
    assert np.array_equal(setup.modes, ref.modes)
    # transport_exponent counts the fallback, and its moments are the eigh path's
    monkeypatch.setattr(transport, "build_hamiltonian", lambda seq: H)
    Ts = [1.0, 2.0, 3.0]
    res, = transport_exponent(dimer_preset(0.5, 0.5), 2.0, Ts, box_radius=10,
                              windows=[window], realizations=1, quadrature_points=64)
    assert res["fallbacks"] == 1
    want = moment_curve(ref, 2.0, Ts, quadrature_points=64).values
    assert np.array_equal(res["curves"][0].values, want)


def test_pair_split_by_window_end_falls_back():
    # a window end between the two members of a close pair: the vector inside
    # errs by about eps |H| / gap although the window holds no close pair
    H = mirror_box(central_hopping=1e-6)
    w, _ = dense_oracle(H)
    k = int(np.argmin(np.abs(w)))
    k -= int(w[k + 1] - w[k] > w[k] - w[k - 1])  # the pair is (w[k], w[k + 1])
    assert w[k + 1] - w[k] < 1e-8 < w[k] - w[k - 1]
    window = (0.5 * (w[k - 1] + w[k]), 0.5 * (w[k] + w[k + 1]))
    setup = evolution_setup(H, projection_window=window)
    ref = dense_window_setup(H, window)
    assert setup.fallback and setup.energies.size == 1
    assert np.array_equal(setup.modes, ref.modes)


@given(explicit_models(), st.integers(8, 60), st.integers(0, 2**16),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_window_integrand_matches_dense_oracle(model, L, seed, f0, f1):
    # the twisted-vector setup against the dense decomposition's on random
    # boxes and windows whose ends sit halfway between eigenvalues
    H = build_hamiltonian(lattice_for_sites(model, L, seed))
    w, _ = dense_oracle(H)
    i0, i1 = sorted((int(f0 * L), int(f1 * L)))
    ends = np.r_[w[0] - 1.0, 0.5 * (w[1:] + w[:-1]), w[-1] + 1.0]
    window = (float(ends[i0]), float(ends[i1 + 1 if i1 < L else L]))
    setup = evolution_setup(H, projection_window=window)
    ref = dense_window_setup(H, window)
    # before the weight floor the window holds the oracle's eigenpairs; the
    # floor drops only modes of weight at most _WEIGHT_FLOOR times the largest
    energies, modes, _ = transport._window_modes(H, *window)
    assert energies.size == ref.energies.size
    weights = np.abs(modes[setup.initial_site])
    kept = weights > transport._WEIGHT_FLOOR * weights.max(initial=0.0)
    assert np.array_equal(setup.energies, energies[kept])
    assert np.array_equal(setup.modes, modes[:, kept])
    times = np.linspace(0.0, 20.0, 41)
    m = _moment_integrand(setup, 2.0, times, check_guard=False)
    m_ref = _moment_integrand(ref, 2.0, times, check_guard=False)
    # the twisted vectors deviate by ~eps |H| / gap; below the gap floor the
    # window falls back and takes the oracle's own columns
    assert np.abs(m - m_ref).max() <= 1e-8 * max(m_ref.max(), 1.0)


@pytest.mark.parametrize("window", [(-0.6, 0.6), (1.0, 1.6)], ids=["critical", "localized"])
def test_weight_floor_keeps_the_integrand(window):
    # the benchmark's transport box: dimer V = 0.5 on 2001 sites
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.5, 0.5), 2001, seed=3))
    setup = evolution_setup(H, projection_window=window)
    energies, modes, fallback = transport._window_modes(H, *window)
    assert not setup.fallback and not fallback
    unfloored = replace(setup, energies=energies, modes=modes,
                        weights=modes[setup.initial_site].copy())
    if window == (1.0, 1.6):  # modes localized far from the center drop
        assert setup.energies.size < energies.size
    times = np.linspace(0.0, 160.0, 200)
    m = _moment_integrand(setup, 2.0, times, check_guard=False)
    m_ref = _moment_integrand(unfloored, 2.0, times, check_guard=False)
    assert np.allclose(m, m_ref, rtol=1e-12, atol=0)


def test_free_chain_keeps_every_weighted_mode():
    # free chain on 1001 sites: E_k = -2 cos(pi k / 1002), and at the center
    # (site 501 counted from 1) the weight sqrt(2/1002) |sin(pi k 501 / 1002)|
    # vanishes for every even k
    setup = free_setup(1001)
    k = np.arange(1, 1002)
    analytic = np.sqrt(2 / 1002) * np.abs(np.sin(np.pi * k * 501 / 1002))
    weighted = analytic > 1e-6
    assert weighted.sum() == 501 and not setup.fallback
    # the even modes drop, up to a few near the band edges, whose tiny gaps
    # leave their computed weights above the floor
    assert 501 <= setup.energies.size <= 520
    E = -2 * np.cos(np.pi * k[weighted] / 1002)
    nearest = np.abs(setup.energies[:, None] - E[None, :]).argmin(axis=0)
    assert np.abs(setup.energies[nearest] - E).max() <= 1e-12
    assert np.abs(np.abs(setup.weights[nearest]) - analytic[weighted]).max() <= 1e-12


def test_transport_exponent_independent_of_cpus():
    # the twisted vectors split their columns over the CPUs; any split gives
    # the same bytes, on both windows and on the free chain
    runs = []
    for cpus in (1, 3):
        with mock.patch.object(eigensolve, "_cpus", return_value=cpus), \
                mock.patch.object(eigensolve, "_SPLIT_FLOOR", 0):
            runs.append(transport_exponent(dimer_preset(0.5, 0.5), 2.0, [5.0, 8.0, 12.0],
                                           box_radius=150, windows=[(-0.6, 0.6), (1.0, 1.6)],
                                           realizations=2, seed=5, quadrature_points=128)
                        + transport_exponent(anderson_preset(0.0, 0.5), 2.0, [4.0, 8.0],
                                             box_radius=100, quadrature_points=128))
    for one, three in zip(*runs):
        assert one["per_realization"].tobytes() == three["per_realization"].tobytes()
        for c1, c3 in zip(one["curves"], three["curves"]):
            assert c1.values.tobytes() == c3.values.tobytes()


def test_window_without_modes_raises():
    with pytest.raises(ValueError, match=r"window \(5\.0, 6\.0\) holds no eigenvalue "
                                         r"of realization 0 \(101 sites\)"):
        transport_exponent(dimer_preset(0.5, 0.5), 2.0, [2.0, 4.0], box_radius=50,
                           windows=[(-0.6, 0.6), (5.0, 6.0)], quadrature_points=32)


def test_moments_that_rounding_swamps_raise():
    # on the 1001-site free chain the T = 10 moment is 2e7 times its rounding
    # estimate at q = 4, and right to 3e-11; at q = 8 only 40 times, and
    # about 1e-4 off, so the run names the moment instead of giving a slope
    Ts = [10.0, 20.0, 30.0, 40.0, 50.0]
    kwargs = dict(box_radius=500, quadrature_points=400)
    res, = transport_exponent(anderson_preset(0.0, 0.5), 4.0, Ts, **kwargs)
    want = oracle_curve(free_setup(1001), 4.0, Ts, 400)
    assert np.allclose(res["curves"][0].values, want, rtol=1e-9, atol=0)
    with pytest.raises(ValueError, match=r"^window None of realization 0 has a moment "
                                         r"\S+ below 1e\+06 times its rounding error"):
        transport_exponent(anderson_preset(0.0, 0.5), 8.0, Ts, **kwargs)


def test_free_chain_moments_follow_the_exact_ballistic_law():
    # unit hopping: sum_x x^2 J_x(2t)^2 = 2 t^2 until the front (2 sites per
    # unit time) nears the guard zone at 900 sites; every value is the
    # trapezoid rule of 2 t^2 on the same grid, in closed form
    setup = free_setup(2001)
    Ts = np.array([20.0, 40.0, 60.0, 80.0, 100.0])
    times = np.linspace(0.0, Ts[-1], 500)
    want = [np.trapezoid(2 * times[times <= T] ** 2, times[times <= T]) / T for T in Ts]
    got = moment_curve(setup, 2.0, Ts, quadrature_points=500).values
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def lone_bond(L=41):
    """Sites L // 2 - 1 and L // 2 joined by a unit hopping, every other bond
    1e-20 and every other site at its own potential: delta_{L // 2} stays on
    the bond, with the two energies -1 and 1, far from the guard zone."""
    v = 3.0 + np.arange(L) / L
    v[L // 2 - 1:L // 2 + 1] = 0.0
    t = np.full(L - 1, 1e-20)
    t[L // 2 - 1] = 1.0
    return TridiagonalOperator(diagonal=v, offdiagonal=t, num_sites=L)


@st.composite
def boxes(draw):
    """A random explicit-model box of 8-60 sites, or a mirror_box, whose
    pairs closer than the gap floor take the dense fallback (its pairs'
    energy differences come down to 1e-16, or to 0 in rounding)."""
    if draw(st.booleans()):
        return mirror_box(draw(st.integers(4, 30)), 10.0 ** draw(st.floats(-16.0, -8.0)))
    H = lattice_for_sites(draw(explicit_models()), draw(st.integers(8, 60)),
                          draw(st.integers(0, 2**16)))
    return build_hamiltonian(H)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200)
@example(mirror_box(), None, 0.5, 2.0, 2, [3.0])
# a step of pi aliases the bond's beat 2: the trapezoid sums 40 cosines of 1
@example(lone_bond(), None, 0.5, 2.0, 41, [40 * np.pi])
@example(lone_bond(), None, 0.5, 2.0, 41, [40 * np.pi * (1 + 1e-12), 7.0])
# a step of 1000 pi + 0.15 rounds the beat's phase by 1e-12: the rounding
# estimate must grow with the phase
@example(lone_bond(), None, 0.5, 2.0, 41, [40 * (1000 * np.pi + 0.15)])
# the least positive q still weighs the initial site by 0
@example(lone_bond(), None, 0.5, 5e-324, 41, [0.7])
@example(mirror_box(), (0.0, 1.0), 0.3, 4.0, 3, [0.5, 2.0])
@given(boxes(), st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       st.floats(0.3, 0.7), st.floats(0.5, 4.0), st.integers(2, 40),
       st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4))
def test_moment_curve_matches_oracle(H, fractions, site, q, points, Ts):
    # the closed-form sums against the trapezoid rule of the per-time
    # oracle, on random boxes, windows, initial sites and grids; a guard
    # that trips for one trips for the other, at the same time
    L = H.num_sites
    w, _ = dense_oracle(H)
    window = None
    if fractions is not None:
        i0, i1 = sorted(int(f * L) for f in fractions)
        ends = np.r_[w[0] - 1.0, 0.5 * (w[1:] + w[:-1]), w[-1] + 1.0]
        window = (float(ends[i0]), float(ends[min(i1 + 1, L)]))
    setup = evolution_setup(H, initial_site=int(site * L), projection_window=window)
    try:
        want = oracle_curve(setup, q, Ts, points)
    except BoundaryContaminationError as e:
        at = re.escape(str(e).rsplit(" ", 1)[1])
        with pytest.raises(BoundaryContaminationError, match=f" {at}$"):
            moment_curve(setup, q, Ts, points)
        return
    curve = moment_curve(setup, q, Ts, points)
    # the closed form errs by about its rounding estimate (at most 2.6 times
    # it over 10,000 random examples), the oracle by a relative eps |E| t
    assert np.all(np.abs(curve.values - want) <= 4 * curve.rounding + 1e-12 * np.abs(want))
