import inspect
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyspec import eigensolve, transfer
from polyspec.model import (PolymerSpec, PolymerModel, dimer_preset, anderson_preset,
                            substream, _stream_keys)
from polyspec.transfer import (site_matrix, polymer_matrix, find_critical_energies, diagonalizer,
                               irrationality_check, expansion_coeffs, lyapunov,
                               rotation, critical_tol_floor, _lyapunov_log_norms)

from conftest import explicit_models

SQ2 = 1.0 / np.sqrt(2.0)


def block_signs(model, num_blocks, seed, realization_index=0):
    """The realization's block signs, True for a plus block, drawn in numpy."""
    return substream(seed, realization_index).random(num_blocks) < model.p_plus


def block_product(model: PolymerModel, signs: np.ndarray, E: float,
                  from_block: int = 0, to_block: int | None = None):
    """Renormalized product of polymer matrices over blocks [from, to).

    The reference for the compiled Lyapunov product.  Returns (matrix,
    log_scale): the true product equals exp(log_scale) times the returned
    matrix, which is rescaled to unit max-norm after every block so products
    over 1e6 blocks never overflow.
    """
    if to_block is None:
        to_block = len(signs)
    if to_block < from_block:
        raise ValueError("to_block must be >= from_block")
    Tp = polymer_matrix(model.plus, E)
    Tm = polymer_matrix(model.minus, E)
    prod = np.eye(2)
    log_scale = 0.0
    for s in signs[from_block:to_block]:
        prod = (Tp if s else Tm) @ prod
        scale = np.abs(prod).max()
        log_scale += np.log(scale)
        prod = prod / scale
    return prod, log_scale


def test_site_matrix_values():
    assert np.allclose(site_matrix(0.0, 1.0, 0.0), [[0, -1], [1, 0]])
    assert np.allclose(site_matrix(1.0, 1.0, 0.0), [[1, -1], [1, 0]])
    T = site_matrix(0.0, 2.0, 0.0)
    assert np.allclose(T, [[0, -2], [0.5, 0]])
    assert abs(np.linalg.det(T) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        site_matrix(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        site_matrix(0.0, -1.0, 1.0)


def test_determinant_one_many_draws():
    rng = np.random.default_rng(0)
    v = rng.normal(size=10000)
    t = rng.uniform(0.2, 3.0, size=10000)
    E = rng.normal(size=10000)
    S = np.empty((10000, 2, 2))
    S[:, 0, 0] = (v - E) / t
    S[:, 0, 1] = -t
    S[:, 1, 0] = 1.0 / t
    S[:, 1, 1] = 0.0
    assert np.abs(np.linalg.det(S) - 1.0).max() < 1e-9
    for i in range(0, 10000, 1000):
        assert np.allclose(site_matrix(v[i], t[i], E[i]), S[i])


def test_polymer_matrix_dimer_identities():
    V = 0.6
    m = dimer_preset(V, 0.5)
    Tp = polymer_matrix(m.plus, V)          # at E = +V
    assert np.allclose(Tp, -np.eye(2), atol=1e-14)
    Tm = polymer_matrix(m.minus, V)
    assert abs(np.trace(Tm) - (4 * V * V - 2)) < 1e-12
    single = PolymerSpec(1, [0.3], [1.2])
    assert np.allclose(polymer_matrix(single, 0.7), site_matrix(0.3, 1.2, 0.7))


def test_polymer_matrix_grid_consistent():
    m = dimer_preset(0.45, 0.5)
    Es = np.linspace(-2, 2, 11)
    G = polymer_matrix(m.plus, Es)
    assert G.shape == (11, 2, 2)
    for i, E in enumerate(Es):
        assert np.allclose(G[i], site_matrix(0.45, 1.0, E) @ site_matrix(0.45, 1.0, E))


@settings(max_examples=60)
@given(model=explicit_models(),
       Es=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))
def test_polymer_matrix_array_equals_scalar_calls(model, Es):
    # one energy array gives, bit for bit, the stack of the scalar products,
    # and so does the conjugated polymer that expansion_coeffs batches
    M = np.array([[2.0, 0.3], [-0.7, 1.1]])
    for spec in (model.plus, model.minus):
        stacked = np.array([polymer_matrix(spec, E) for E in Es])
        assert np.array_equal(polymer_matrix(spec, np.array(Es)), stacked)
        assert np.array_equal(polymer_matrix(spec, np.array(Es).reshape(-1, 1))[:, 0], stacked)
        assert np.array_equal(transfer._conjugated_polymer(spec, M, np.array(Es)),
                              [transfer._conjugated_polymer(spec, M, E) for E in Es])


def test_block_product_identity_and_single():
    m = dimer_preset(0.5, 0.5)
    signs = block_signs(m, 10, seed=3)
    P, logs = block_product(m, signs, 0.9, 4, 4)
    assert np.allclose(P, np.eye(2)) and logs == 0.0
    P1, logs1 = block_product(m, signs, 0.9, 2, 3)
    expected = polymer_matrix(m.plus if signs[2] else m.minus, 0.9)
    assert np.allclose(P1 * np.exp(logs1), expected, atol=1e-12)


def test_block_product_det_and_critical_boundedness():
    m = dimer_preset(0.5, 0.5)
    P, logs = block_product(m, block_signs(m, 2000, seed=5), 0.5)   # at the critical energy
    # det of the true product is 1: 2*log(scale) + log(det(P)) = 0
    assert abs(2 * logs + np.log(abs(np.linalg.det(P)))) < 1e-7
    # product of conjugated rotations stays bounded: log-scale per block -> 0
    norm_total = logs + np.log(np.linalg.norm(P, 2))
    assert abs(norm_total) / 2000 < 1e-3
    rep = find_critical_energies(m)[-1]
    M = rep.diagonalizer
    cond = np.linalg.cond(M)
    assert np.exp(norm_total) <= cond ** 2 + 1e-6


def test_block_product_det_many_draws():
    # det is preserved after un-scaling; product length kept short enough
    # that the normalized matrix's determinant is still resolvable in float
    rng = np.random.default_rng(6)
    tested = 0
    for _ in range(400):
        V = float(rng.uniform(0.1, 0.95))
        m = dimer_preset(V, float(rng.uniform(0.2, 0.8)))
        signs = block_signs(m, int(rng.integers(1, 40)), seed=int(rng.integers(1 << 30)))
        E = float(rng.uniform(-2.2, 2.2))
        P, logs = block_product(m, signs, E)
        if logs > 7.0:  # det error scales as e^{2 logs} * eps, unresolvable past this
            continue
        assert abs(2 * logs + np.log(abs(np.linalg.det(P)))) < 1e-9
        tested += 1
    assert tested >= 200


def test_find_critical_dimer_pair():
    for V in (0.3, 0.5, 0.8):
        reps = find_critical_energies(dimer_preset(V, 0.5))
        energies = [r.energy for r in reps]
        assert len(energies) == 2
        assert abs(energies[0] + V) < 1e-8 and abs(energies[1] - V) < 1e-8
        for r in reps:
            assert r.residual <= 1e-8
            assert r.commutator_norm <= 1e-9


def test_find_critical_random_V_sweep():
    rng = np.random.default_rng(12)
    for V in rng.uniform(0.1, 0.99, size=20):
        reps = find_critical_energies(dimer_preset(float(V), 0.5))
        assert len(reps) == 2
        assert abs(reps[0].energy + V) < 1e-8
        assert abs(reps[1].energy - V) < 1e-8


def test_find_critical_kinds_and_etas():
    reps = find_critical_energies(dimer_preset(SQ2, 0.5))
    plusV = reps[-1]
    assert plusV.kind_plus == "minus_identity"
    assert plusV.kind_minus == "elliptic"
    assert abs(plusV.eta_plus - np.pi) < 1e-9
    assert abs(plusV.eta_minus - 3 * np.pi / 2) < 1e-9
    minusV = reps[0]
    assert minusV.kind_minus == "minus_identity"
    assert abs(minusV.eta_minus - np.pi) < 1e-9
    assert abs(minusV.eta_plus - np.pi / 2) < 1e-9


def test_anderson_has_no_critical_energies():
    for V in (0.4, 0.7, 1.0):
        assert find_critical_energies(anderson_preset(V, 0.5)) == []


def test_commuting_polymers_raise():
    # the free chain cut into blocks of one and two sites: T- = T+^2, so the
    # polymers commute at every energy and no energy is critical
    model = PolymerModel(PolymerSpec(1, [0.0], [1.0]),
                         PolymerSpec(2, [0.0, 0.0], [1.0, 1.0]), 0.5)
    t0 = time.perf_counter()
    for grid in (2001, 20001):
        with pytest.raises(ValueError, match="commute at every energy"):
            find_critical_energies(model, grid=grid)
    assert time.perf_counter() - t0 < 1.0


def test_diagonalizer_identity_cases():
    # T+ = -I alone: eta_+ = pi regardless of M
    m = dimer_preset(0.6, 0.5)
    Tp = polymer_matrix(m.plus, 0.6)
    Tm = polymer_matrix(m.minus, 0.6)
    M, ep, em = diagonalizer(Tp, Tm)
    assert abs(ep - np.pi) < 1e-10
    assert np.linalg.det(M) > 0
    assert abs(np.linalg.det(M) - 1.0) < 1e-10
    Minv = np.linalg.inv(M)
    assert np.linalg.norm(M @ Tp @ Minv - rotation(ep)) < 1e-8
    assert np.linalg.norm(M @ Tm @ Minv - rotation(em)) < 1e-8


def test_diagonalizer_rejects_noncommuting():
    m = anderson_preset(0.7, 0.5)
    Tp = polymer_matrix(m.plus, 0.2)
    Tm = polymer_matrix(m.minus, 0.2)
    with pytest.raises(ValueError):
        diagonalizer(Tp, Tm)


def test_irrationality_closed_form_vs_bruteforce():
    ep, em, p = np.pi, 3 * np.pi / 2, 0.5
    viol = irrationality_check(ep, em, p, 8)
    assert [k for k, _ in viol] == [4, 8]
    assert all(abs(v - 1.0) < 1e-12 for _, v in viol)
    # brute force |p e^{ik ep} + (1-p) e^{ik em}| for k <= 100
    ep2, em2 = np.pi, 4.428594871176362  # dimer V = 0.6 at E_c = +V
    for k in range(1, 101):
        brute = abs(p * np.exp(1j * k * ep2) + (1 - p) * np.exp(1j * k * em2))
        closed = np.sqrt(max(1 + 2 * p * (1 - p) * (np.cos(k * (ep2 - em2)) - 1), 0))
        assert abs(brute - closed) < 1e-12
    assert irrationality_check(ep2, em2, p, 10000) == []


def test_expansion_coeffs_dimer():
    V = 0.6
    m = dimer_preset(V, 0.5)
    rep = find_critical_energies(m)[-1]
    c = expansion_coeffs(m, rep)
    # d_- from the band dispersion: 1/sqrt(1 - V^2)
    assert abs(c.d_minus - 1.0 / np.sqrt(1 - V * V)) < 1e-7
    # d_+ for the -identity polymer equals tr(M M^T) / (2 det M)
    M = rep.diagonalizer
    d_plus_analytic = np.trace(M @ M.T) / (2 * np.linalg.det(M))
    assert abs(c.d_plus - d_plus_analytic) < 1e-7
    # monotonicity bound d >= sqrt(1 + |c|^2)
    assert c.d_plus >= np.sqrt(1 + abs(c.c_plus) ** 2) - 1e-7
    assert c.d_minus >= np.sqrt(1 + abs(c.c_minus) ** 2) - 1e-7
    # det preservation at the probe
    for a, b in ((c.a_eps_plus, c.b_eps_plus), (c.a_eps_minus, c.b_eps_minus)):
        assert abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) < 1e-10
    with pytest.raises(ValueError):
        expansion_coeffs(m, rep, eps_probe=0.0)


def test_expansion_coeffs_sqrt2():
    m = dimer_preset(SQ2, 0.5)
    rep = find_critical_energies(m)[-1]
    c = expansion_coeffs(m, rep)
    assert abs(c.d_minus - np.sqrt(2)) < 1e-6


def test_rotation_case_pure():
    # at eps = 0 the conjugated matrix is a rotation: |a| = 1, b = 0
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    c = expansion_coeffs(m, rep, eps_probe=1e-9)
    assert abs(abs(c.a_eps_minus) - 1.0) < 1e-7
    assert abs(c.b_eps_minus) < 1e-7


def test_lyapunov_shrinks_with_steps_at_critical():
    # V = 0.6 has irrational eta gap, so the critical log-norm offsets take
    # continuum values and the 1/steps trend is strict
    m = dimer_preset(0.6, 0.5)
    vals = [abs(lyapunov(m, 0.6, steps=s, realizations=12, seed=11)[0])
            for s in (10 ** 4, 10 ** 5, 10 ** 6)]
    assert vals[0] > vals[1] > vals[2]


def test_lyapunov_free_chain_and_dichotomy():
    free = anderson_preset(0.0, 0.5)
    g, se = lyapunov(free, 0.7, steps=20000, realizations=4, seed=1)
    assert abs(g) < 1e-3
    m = dimer_preset(0.5, 0.5)
    g0, se0 = lyapunov(m, 0.5, steps=100000, realizations=16, seed=2)
    assert abs(g0) < 3 * se0
    g8, se8 = lyapunov(m, 0.8, steps=100000, realizations=16, seed=3)
    assert g8 > 5 * se8 and g8 > 0
    with pytest.raises(ValueError):
        lyapunov(m, 0.5, steps=1, realizations=4, seed=1)


# explicit_models draws hoppings down to 1e-3, whose polymer matrices are
# strongly hyperbolic: such products pass 2^256 within a few blocks, so the
# kernel's rescaling branch runs
HYPERBOLIC = PolymerModel(PolymerSpec(2, [0.5, -1.0], [1e-3, 2.0]),
                          PolymerSpec(1, [2.0], [0.05]), 0.4)


@settings(max_examples=60)
@given(model=explicit_models(), Es=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       steps=st.integers(2, 2000), R=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(model=HYPERBOLIC, Es=[0.3], steps=1500, R=2, seed=7)
@example(model=HYPERBOLIC, Es=[0.3, -1.1, 2.5], steps=1500, R=3, seed=7)
def test_lyapunov_log_norms_match_block_product(model, Es, steps, R, seed):
    # the kernel's own sign draws must equal numpy's draws from the same
    # substream, and its products at each of the K energies block_product's
    # up to rounding
    half_at, half, total = _lyapunov_log_norms(model, np.array(Es), steps, range(R), seed)
    assert 1 <= half_at < steps and half.shape == total.shape == (R, len(Es))
    for r in range(R):
        signs = block_signs(model, steps, seed, r)
        for i, E in enumerate(Es):
            for stop, got in ((half_at, half[r, i]), (steps, total[r, i])):
                P, log_scale = block_product(model, signs, E, 0, stop)
                want = log_scale + np.log(np.linalg.norm(P, 2))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@settings(max_examples=60)
@given(model=explicit_models(), Es=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
       steps=st.integers(2, 3000), R=st.integers(1, 30).filter(lambda r: r % 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(model=HYPERBOLIC, Es=[0.3, 0.3, -2.0, 1.7, 4.0], steps=1500, R=5, seed=7)
@example(model=dimer_preset(0.5, 0.5), Es=[0.5, 0.8], steps=5000, R=17, seed=3)
def test_lyapunov_energies_equal_single_energy_calls(model, Es, steps, R, seed):
    # one call at K energies draws each sign once for all of them: every
    # energy's log-norms are bit for bit those of its own call, for R not a
    # multiple of the eight vector lanes and K odd or even
    half_at, half, total = _lyapunov_log_norms(model, np.array(Es), steps, range(R), seed)
    for i, E in enumerate(Es):
        one_at, one_half, one_total = _lyapunov_log_norms(model, E, steps, range(R), seed)
        assert one_at == half_at and one_half.shape == one_total.shape == (R,)
        assert one_half.tobytes() == half[:, i].tobytes()
        assert one_total.tobytes() == total[:, i].tobytes()


@settings(max_examples=30)
@given(model=explicit_models(), Es=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
       steps=st.integers(2, 3000), R=st.integers(2, 11), seed=st.integers(0, 2 ** 32 - 1))
@example(model=dimer_preset(0.5, 0.5), Es=[0.5, 0.8], steps=4096, R=16, seed=3)
def test_lyapunov_energy_array_equals_scalar_calls(model, Es, steps, R, seed):
    # the estimate and its stderr at each energy of an array are bit for bit
    # those of a scalar call
    g, se = lyapunov(model, np.array(Es), steps, R, seed)
    assert g.shape == se.shape == (len(Es),)
    for i, E in enumerate(Es):
        assert np.array(lyapunov(model, E, steps, R, seed)).tobytes() == \
            np.array([g[i], se[i]]).tobytes()


def test_lyapunov_rejects_energy_grids():
    with pytest.raises(ValueError, match="1-d array"):
        lyapunov(dimer_preset(0.5, 0.5), np.zeros((2, 2)), 100, 2, 1)


@settings(max_examples=60)
@given(model=explicit_models(), Es=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       b=st.integers(0, 2000), cut=st.floats(0.0, 1.0), R=st.integers(1, 10),
       seed=st.integers(-2 ** 40, 2 ** 64 - 1),
       first=st.sampled_from([0, 10 ** 6 + 3, 2 ** 32 + 5]))
@example(model=dimer_preset(0.5, 0.5), Es=[0.8], b=9, cut=0.4, R=2, seed=3, first=0)
def test_lyapunov_kernel_resumes_at_any_step(model, Es, b, cut, R, seed, first):
    # steps [0, a) then [a, b) equal one call over [0, b) bit for bit, for
    # any a: the kernel draws sign j from the stream's position j alone
    a = int(cut * b)
    keys = _stream_keys(seed, range(first, first + R))
    Tp, Tm = polymer_matrix(model.plus, np.array(Es)), polymer_matrix(model.minus, np.array(Es))
    kernel, K = eigensolve._kernel(), len(Es)

    def run(*spans):
        prod = np.broadcast_to(np.eye(2), (R, K, 2, 2)).copy()
        expo = np.zeros((R, K), dtype=np.int64)
        for j0, k in spans:
            kernel.lyapunov_steps(R, K, keys, j0, k, model.p_plus, Tp, Tm, prod, expo)
        return prod.tobytes() + expo.tobytes()

    assert run((0, a), (a, b - a)) == run((0, b))


@settings(max_examples=40)
@given(model=explicit_models(), E=st.floats(-4.0, 4.0), steps=st.integers(2, 3000),
       R=st.integers(2, 7), seed=st.integers(0, 2 ** 32 - 1),
       cpus=st.sampled_from([2, 3, 5]))
@example(model=dimer_preset(0.5, 0.5), E=0.5, steps=2, R=2, seed=1, cpus=5)
@example(model=dimer_preset(0.5, 0.5), E=0.5, steps=1003, R=3, seed=1, cpus=2)
def test_lyapunov_split_equals_serial(model, E, steps, R, seed, cpus):
    # bit for bit against one serial range, for more workers than realizations
    # too, with half_at odd or not a multiple of 4
    def run(c):
        with mock.patch.object(eigensolve, "_cpus", return_value=c), \
                mock.patch.object(eigensolve, "_SPLIT_FLOOR", 0):
            return lyapunov(model, E, steps, R, seed)
    assert np.array(run(cpus)).tobytes() == np.array(run(1)).tobytes()


def test_lyapunov_split_keeps_package_functions_on_calling_thread(monkeypatch):
    # worker threads only run the kernel, which draws the signs; the stream
    # keys are derived and every package function runs on the calling thread
    calls = []
    for mod in (transfer, eigensolve):
        for name, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__.startswith("polyspec"):
                def recorded(*args, _fn=fn, **kwargs):
                    calls.append(threading.get_ident())
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, recorded)
    kernel, kernel_threads = eigensolve._kernel(), []

    class Recording:
        def lyapunov_steps(self, *args):
            kernel_threads.append(threading.get_ident())
            return kernel.lyapunov_steps(*args)

    monkeypatch.setattr(transfer, "_kernel", lambda: Recording())
    monkeypatch.setattr(eigensolve, "_cpus", lambda: 2)
    before = threading.active_count()
    g, se = transfer.lyapunov(dimer_preset(0.5, 0.5), 0.8, 100000, 16, 3)
    assert threading.active_count() == before
    assert 100000 * 16 >= eigensolve._SPLIT_FLOOR and g > 0
    assert calls and set(calls) == {threading.get_ident()}
    assert len(set(kernel_threads)) == 2  # the calling thread and one worker


def test_lyapunov_rescaling_runs_on_hyperbolic_products():
    _, half, total = _lyapunov_log_norms(HYPERBOLIC, 0.3, 1500, range(2), 7)
    assert np.all(half > 4 * 256 * np.log(2.0))   # rescaled at least four times
    assert np.all(total > half)


# the first multiple of 1024 at or above steps // 2, unless that reaches steps
@pytest.mark.parametrize("steps, expected", [(2, 1), (3, 1), (1000, 500), (1024, 512),
                                             (1025, 1024), (2048, 1024), (5000, 3072)])
def test_lyapunov_half_point(steps, expected):
    half_at, half, total = _lyapunov_log_norms(dimer_preset(0.5, 0.5), 0.8, steps,
                                               range(2), 1)
    assert half_at == expected
    assert np.all(np.isfinite(half)) and np.all(np.isfinite(total))


@st.composite
def critical_models(draw):
    """(model, v): a dimer polymer (v, v) with equal hoppings, whose matrix is
    -1 at E = v, and a random other polymer of 1-4 sites that is elliptic
    there, so that E = v is a critical energy."""
    v, log_t = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))
    n = draw(st.integers(1, 4))
    sites = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
                          min_size=n, max_size=n))
    # a polymer of dimer sites commutes with the dimer at every energy
    assume(any(abs(s[0] - v) + abs(s[1] - log_t) > 1e-3 for s in sites))
    dimer = PolymerSpec(2, [v, v], 10.0 ** np.array([log_t, log_t]))
    other = PolymerSpec(n, [s[0] for s in sites], 10.0 ** np.array([s[1] for s in sites]))
    assume(abs(np.trace(polymer_matrix(other, v))) < 1.99)
    p = draw(st.floats(0.02, 0.98))
    model = PolymerModel(dimer, other, p) if draw(st.booleans()) else PolymerModel(other, dimer, p)
    return model, v


@settings(max_examples=40)
@given(case=critical_models())
def test_critical_reports_certify(case):
    model, v = case
    reports = find_critical_energies(model)  # tol 1e-9
    assert any(abs(r.energy - v) < 1e-8 for r in reports)
    for rep in reports:
        Tp, Tm = polymer_matrix(model.plus, rep.energy), polymer_matrix(model.minus, rep.energy)
        assert rep.commutator_norm <= 1e-9
        assert np.linalg.norm(Tp @ Tm - Tm @ Tp) <= 1e-9
        M = rep.diagonalizer
        assert np.linalg.det(M) > 0
        assert rep.residual <= 1e-8
        for T, kind, eta in ((Tp, rep.kind_plus, rep.eta_plus),
                             (Tm, rep.kind_minus, rep.eta_minus)):
            if kind == "elliptic":
                assert abs(np.trace(T)) < 2.0
            else:
                sign = {"plus_identity": 1.0, "minus_identity": -1.0}[kind]
                assert np.abs(T - sign * np.eye(2)).max() <= 1e-6
            assert np.linalg.norm(M @ T @ np.linalg.inv(M) - rotation(eta)) <= 1e-8


@settings(max_examples=25)
@given(case=critical_models(), c=st.floats(0.1, 10.0))
def test_critical_energies_scale_with_H(case, c):
    # c H conjugates every site matrix at c E by diag(sqrt c, 1/sqrt c)
    model, _ = case
    scaled = PolymerModel(*(PolymerSpec(s.length, c * s.potentials, c * s.hoppings)
                            for s in (model.plus, model.minus)), model.p_plus)
    energies = np.array([r.energy for r in find_critical_energies(model)])
    scaled_energies = np.array([r.energy for r in find_critical_energies(scaled)])
    assert scaled_energies.shape == energies.shape
    assert np.abs(scaled_energies - c * energies).max() <= 1e-8 * max(1.0, c)


def test_critical_search_dimer_calls_and_accuracy():
    # the refinement evaluates every candidate in one norm call per round, and
    # its last round resolves the dimer's critical energies +-V to the last bits
    calls, norms = [], transfer._commutator_norms

    def counted(model, energies):
        calls.append(np.shape(energies))
        return norms(model, energies)

    with mock.patch.object(transfer, "_commutator_norms", counted):
        for V in np.linspace(0.05, 0.99, 48):
            calls.clear()
            reports = find_critical_energies(dimer_preset(float(V), 0.5))
            assert len(calls) <= 10
            assert [r.energy for r in reports] == pytest.approx([-V, V], rel=0, abs=1e-14)
            assert max(r.commutator_norm for r in reports) <= 1e-13


def test_tol_below_the_roundoff_floor_raises():
    # the refined norm at E_c = +-0.875 s is 1.0-1.6e-14 s on the V = 0.875
    # dimer scaled by s; a tol below it used to drop both energies silently
    for s, tol in ((1.0, 1e-14), (1e5, 1e-9)):
        dimer = dimer_preset(0.875, 0.5)
        model = PolymerModel(*(PolymerSpec(2, s * p.potentials, s * p.hoppings)
                               for p in (dimer.plus, dimer.minus)), 0.5)
        floor = critical_tol_floor(model)
        assert tol < floor < 1e-13 * s
        with pytest.raises(ValueError, match=f"tol={tol!r} is below {floor:.3g}"):
            find_critical_energies(model, tol=tol)
        reports = find_critical_energies(model, tol=floor)
        assert [r.energy for r in reports] == pytest.approx([-0.875 * s, 0.875 * s],
                                                            rel=1e-13)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a, b, width):
    """Golden-section minimum of f on [a, b], to a bracket of `width`."""
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


def golden_critical_energies(model, grid=20001, tol=1e-9):
    """[(energy, kind_plus, kind_minus)] of each grid minimum refined one at a
    time by golden-section search: the reference for the vectorized zoom."""
    lo, hi = model.spectrum_bracket
    Es = np.linspace(lo, hi, grid)
    h = (hi - lo) / (grid - 1)
    norms = transfer._commutator_norms(model, Es)
    interior = (norms[1:-1] <= norms[:-2]) & (norms[1:-1] <= norms[2:])
    candidates = np.nonzero(interior)[0] + 1
    slopes = np.maximum(np.abs(norms[candidates + 1] - norms[candidates]),
                        np.abs(norms[candidates] - norms[candidates - 1])) / h
    candidates = candidates[norms[candidates] <= np.maximum(2 * h * slopes, 1e-6)]

    def f(E):
        return transfer._commutator_norms(model, np.array([E]))[0]

    found = []
    for i in candidates:
        E = golden_min(f, Es[i - 1], Es[i + 1], 1e-13)
        if f(E) > tol or any(abs(E - e) < 1e-8 for e, _, _ in found):
            continue
        Tp, Tm = polymer_matrix(model.plus, E), polymer_matrix(model.minus, E)
        try:
            diagonalizer(Tp, Tm, tol=max(tol, 1e-8))
        except ValueError:
            continue
        found.append((E, transfer._classify(Tp, 1e-6), transfer._classify(Tm, 1e-6)))
    return sorted(found)


@settings(max_examples=40)
@given(model=st.one_of(explicit_models(), critical_models().map(lambda case: case[0])))
def test_critical_search_matches_golden_section(model):
    try:
        reports = find_critical_energies(model)
    except ValueError as e:  # polymers that commute at every energy
        assert "commute at every energy" in str(e)
        return
    want = golden_critical_energies(model)
    assert [(r.kind_plus, r.kind_minus) for r in reports] == [(kp, km) for _, kp, km in want]
    for rep, (E, _, _) in zip(reports, want):
        assert abs(rep.energy - E) <= 1e-12
