import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import eigvalsh_tridiagonal

from polyspec import eigensolve

from polyspec.model import (LatticeSequences, PolymerModel, PolymerSpec, dimer_preset,
                            lattice_for_sites, potentials_for_sites_batch, substream)
from polyspec.eigensolve import (TridiagonalOperator, build_hamiltonian, sturm_counts_batch,
                                 eigenvalues_in_window_batch, dense_oracle,
                                 twisted_eigenvectors, _pivmin, _build_kernel, _load_kernel,
                                 _CFLAGS, _KERNELS_C)

from conftest import explicit_models, eigenvalues_in_window, gershgorin_interval, sturm_count


def free_chain(L):
    return TridiagonalOperator(diagonal=np.zeros(L), offdiagonal=np.ones(L - 1),
                               num_sites=L)


def free_chain_eigenvalues(L):
    # Dirichlet free chain closed form
    return -2.0 * np.cos(np.arange(1, L + 1) * np.pi / (L + 1))


def all_eigenvalues(H, tol=1e-11):
    """The whole spectrum, as the window over the padded Gershgorin enclosure."""
    lo, hi = gershgorin_interval(H)
    evs = eigenvalues_in_window(H, (lo - 1e-6, hi + 1e-6), tol)
    assert evs.size == H.num_sites
    return evs


def dense(H):
    """H as a dense matrix: diagonal v, off-diagonals -t."""
    return np.diag(H.diagonal) - np.diag(H.offdiagonal, 1) - np.diag(H.offdiagonal, -1)


def test_build_hamiltonian_dense():
    seq = LatticeSequences(potentials=np.zeros(2), hoppings=np.ones(2), num_sites=2)
    H = build_hamiltonian(seq)
    assert np.allclose(dense(H), [[0, -1], [-1, 0]])


def test_single_site():
    H = TridiagonalOperator(diagonal=np.array([3.0]), offdiagonal=np.empty(0),
                            num_sites=1)
    assert np.allclose(all_eigenvalues(H), [3.0])
    H5 = TridiagonalOperator(diagonal=np.array([5.0]), offdiagonal=np.empty(0),
                             num_sites=1)
    assert np.allclose(all_eigenvalues(H5), [5.0])


def test_free_chain_l3():
    assert np.allclose(all_eigenvalues(free_chain(3), tol=1e-12),
                       [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-11)


def test_positive_hopping_required():
    with pytest.raises(ValueError):
        TridiagonalOperator(diagonal=np.zeros(2), offdiagonal=np.array([0.0]),
                            num_sites=2)
    with pytest.raises(ValueError):
        LatticeSequences(potentials=np.zeros(2), hoppings=np.array([1.0, -1.0]),
                         num_sites=2)


def test_sturm_count_2x2():
    H = free_chain(2)  # eigenvalues -1, 1
    assert sturm_count(H, 0.0) == 1
    assert sturm_count(H, -2.0) == 0
    assert sturm_count(H, 2.0) == 2


def test_sturm_count_free_l3():
    assert sturm_count(free_chain(3), 0.1) == 2


def test_sturm_count_monotone_and_limits():
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.6, 0.5), 50, seed=4))
    Es = np.linspace(-4, 4, 201)
    counts = sturm_count(H, Es)
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0 and counts[-1] == 50


def test_sturm_count_at_exact_eigenvalue():
    # zero-pivot path: E = 0 is an eigenvalue of the odd free chain
    c = sturm_count(free_chain(3), 0.0)
    assert c in (1, 2)


def test_window_extraction():
    evs = eigenvalues_in_window(free_chain(3), (-0.5, 0.5), tol=1e-12)
    assert np.allclose(evs, [0.0], atol=1e-11)
    empty = eigenvalues_in_window(free_chain(3), (-9.0, -5.0))
    assert empty.size == 0
    with pytest.raises(ValueError):
        eigenvalues_in_window(free_chain(3), (-1.0, 1.0), tol=0.0)


def test_window_vs_oracle_dimer_l40():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 40, seed=11)
    H = build_hamiltonian(seq)
    lo, hi = gershgorin_interval(H)
    mine = eigenvalues_in_window(H, (lo - 1e-6, hi + 1e-6), tol=1e-12)
    ref, _ = dense_oracle(H)
    assert mine.size == 40
    assert np.abs(mine - ref).max() < 1e-9


def test_full_spectrum_free_l50():
    evs = all_eigenvalues(free_chain(50), tol=1e-12)
    assert np.abs(evs - free_chain_eigenvalues(50)).max() < 1e-11


def test_dense_oracle_properties():
    seq = lattice_for_sites(dimer_preset(0.6, 0.5), 60, seed=9)
    H = build_hamiltonian(seq)
    w, Phi = dense_oracle(H)
    assert np.abs(dense(H) @ Phi - Phi * w).max() <= 1e-9
    assert np.abs(Phi.T @ Phi - np.eye(60)).max() <= 1e-10
    assert np.all(Phi[np.abs(Phi).argmax(axis=0), np.arange(60)] > 0)  # sign convention
    assert abs(w.sum() - H.diagonal.sum()) <= 1e-9
    with pytest.raises(ValueError):
        dense_oracle(H, cap=10)


def test_oracle_equivalence_and_simplicity_sample():
    # fast version of the full 500-instance acceptance sweep
    rng = np.random.default_rng(21)
    for _ in range(60):
        L = int(rng.integers(2, 61))
        V = float(rng.uniform(0.1, 0.99))
        seq = lattice_for_sites(dimer_preset(V, 0.5), L, seed=int(rng.integers(1 << 30)))
        H = build_hamiltonian(seq)
        lo, hi = gershgorin_interval(H)
        mine = eigenvalues_in_window(H, (lo - 1e-9, hi + 1e-9), tol=1e-12)
        ref = dense_oracle(H)[0]
        assert mine.size == L
        assert np.abs(mine - ref).max() < 1e-9
        assert np.all(np.diff(ref) > 0)  # simple spectrum


def test_cauchy_interlacing():
    seq = lattice_for_sites(dimer_preset(0.8, 0.5), 30, seed=17)
    H = build_hamiltonian(seq)
    full = dense_oracle(H)[0]
    Hm = TridiagonalOperator(diagonal=H.diagonal[:-1], offdiagonal=H.offdiagonal[:-1],
                             num_sites=29)
    sub = dense_oracle(Hm)[0]
    assert np.all(full[:-1] <= sub + 1e-12) and np.all(sub <= full[1:] + 1e-12)


def test_random_hoppings_against_oracle():
    rng = np.random.default_rng(5)
    v = rng.normal(size=25)
    t = rng.uniform(0.5, 2.0, size=24)
    # the second box has a 1e-13 middle link, so its eigenvalues come in pairs
    # closer than the bisection tolerance and are reported once per multiplicity
    for H in (TridiagonalOperator(diagonal=v, offdiagonal=t, num_sites=25),
              TridiagonalOperator(diagonal=np.tile([0.3, -0.2, 0.5], 2),
                                  offdiagonal=np.array([1.0, 0.7, 1e-13, 1.0, 0.7]),
                                  num_sites=6)):
        lo, hi = gershgorin_interval(H)
        mine = eigenvalues_in_window(H, (lo - 1e-9, hi + 1e-9), tol=1e-12)
        ref = dense_oracle(H)[0]
        assert mine.size == H.num_sites
        assert np.abs(mine - ref).max() < 1e-9


@st.composite
def windowed_models(draw):
    """A random explicit model, a box size of at most 60 sites, a seed, and a
    window drawn as two fractions of the padded Gershgorin interval."""
    model = draw(explicit_models())
    L = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    u = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    return model, L, seed, u


def _window(H, u):
    lo, hi = gershgorin_interval(H)
    lo, hi = lo - 1.0, hi + 1.0
    a, b = lo + u[0] * (hi - lo), lo + u[1] * (hi - lo)
    assume(b > a)
    return a, b


@settings(max_examples=60)
@given(case=windowed_models())
def test_window_eigenvalues_match_oracle(case):
    model, L, seed, u = case
    H = build_hamiltonian(lattice_for_sites(model, L, seed))
    a, b = _window(H, u)
    ref = dense_oracle(H)[0]
    # an eigenvalue on a window edge is inside or outside by rounding alone
    assume(np.abs(ref[:, None] - np.array([a, b])).min() > 1e-9)
    mine = eigenvalues_in_window(H, (a, b), tol=1e-12)
    inside = ref[(ref >= a) & (ref < b)]
    assert mine.size == inside.size
    assert mine.size == 0 or np.abs(mine - inside).max() < 1e-9


@settings(max_examples=40)
@given(case=windowed_models())
def test_window_batch_columns_match_single(case):
    model, L, seed, u = case
    v, tsq = potentials_for_sites_batch(model, L, seed, [0, 1, 2])
    a, b = _window(build_hamiltonian(lattice_for_sites(model, L, seed, 1)), u)
    batch = eigenvalues_in_window_batch(v, tsq, a, b)
    single = eigenvalues_in_window_batch(v[:, [1]], tsq[:, [1]], a, b)[0]
    assert np.array_equal(batch[1], single)


def _rectangle_bisection(v, tsq, a, b, tol=1e-11):
    """Windowed bisection as one serial lockstep over an (R, K) rectangle of
    targets, K the largest window count, padding columns included: every
    target halves its bracket for ceil(log2((b - a) / tol)) sweeps."""
    R = v.shape[1]
    ends, _ = sturm_counts_batch(v, tsq, np.tile([[a, b]], (R, 1)))
    na, nb = ends[:, 0], ends[:, 1]
    K = int((nb - na).max(initial=0))
    lo, hi = np.full((R, K), a), np.full((R, K), b)
    target = na[:, None] + np.arange(K)[None, :]
    for _ in range(max(int(np.ceil(np.log2((b - a) / tol))), 1)):
        mid = 0.5 * (lo + hi)
        above = sturm_counts_batch(v, tsq, mid)[0] <= target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    mid = 0.5 * (lo + hi)
    return [np.sort(mid[r][target[r] < nb[r]]) for r in range(R)]


def _rounding(v, tsq):
    """Eigenvalue error that rounding alone allows: a few ulps of the norm,
    for LAPACK's answer and the Sturm count's alike, plus twice pivmin, the
    most a pivot clamped to -pivmin moves the count's eigenvalue."""
    norm = np.abs(v).max() + 2 * np.sqrt(tsq.max(initial=0.0))
    return 16 * np.finfo(float).eps * norm + 2 * _pivmin(v, tsq)


@settings(max_examples=60)
@given(case=windowed_models(), R=st.integers(1, 7))
@example(case=(dimer_preset(0.6, 0.5), 1, 4, [0.2, 0.7]), R=4)
@example(case=(dimer_preset(0.6, 0.5), 40, 9, [0.5, 0.52]), R=2)
@example(case=(PolymerModel(PolymerSpec(1, [0.4], [1.0]),
                            PolymerSpec(3, [-0.2, 0.9, 0.1], [0.5, 2.0, 1.0]), 0.3),
               60, 2, [0.48, 0.5]), R=7)
def test_window_batch_split_bit_identical_near_rectangle(case, R):
    # bit for bit for any number of row ranges (R below the worker count,
    # one-site boxes, windows empty for some or all realizations), and
    # within tol of plain bisection
    model, L, seed, u = case
    v, tsq = potentials_for_sites_batch(model, L, seed, range(R))
    a, b = _window(build_hamiltonian(lattice_for_sites(model, L, seed)), u)
    runs = []
    for cpus in (1, 2, 3, 5):
        with mock.patch.object(eigensolve, "_cpus", return_value=cpus), \
                mock.patch.object(eigensolve, "_SPLIT_FLOOR", 0):
            runs.append([e.tobytes() for e in eigenvalues_in_window_batch(v, tsq, a, b)])
    assert runs[1:] == runs[:1] * 3
    got, want = eigenvalues_in_window_batch(v, tsq, a, b), _rectangle_bisection(v, tsq, a, b)
    assert [g.size for g in got] == [w.size for w in want]
    assert all(np.all(np.abs(g - w) <= 1e-11 + _rounding(v, tsq)) for g, w in zip(got, want))


def _record_kernel_threads(monkeypatch) -> list:
    """Thread idents of every Sturm or window kernel call made from here on."""
    kernel, idents = eigensolve._kernel(), []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def sturm_counts(self, *args):
            idents.append(threading.get_ident())
            return kernel.sturm_counts(*args)

        def window_eigenvalues(self, *args):
            idents.append(threading.get_ident())
            return kernel.window_eigenvalues(*args)

    monkeypatch.setattr(eigensolve, "_kernel", lambda: Recording())
    return idents


def test_window_split_keeps_package_functions_on_calling_thread(monkeypatch):
    # worker threads run only the kernel and numpy; every function of the
    # package runs on the calling thread, and no thread outlives the call
    v, tsq = potentials_for_sites_batch(dimer_preset(0.6, 0.5), 2000, 5, range(64))
    with mock.patch.object(eigensolve, "_cpus", return_value=1):
        want = eigensolve.eigenvalues_in_window_batch(v, tsq, 1.15, 1.25)
    calls = []
    for name, fn in list(vars(eigensolve).items()):
        if inspect.isfunction(fn) and fn.__module__ == eigensolve.__name__:
            def recorded(*args, _fn=fn, **kwargs):
                calls.append(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(eigensolve, name, recorded)
    kernel_threads = _record_kernel_threads(monkeypatch)
    monkeypatch.setattr(eigensolve, "_cpus", lambda: 3)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        evs = eigensolve.eigenvalues_in_window_batch(v, tsq, 1.15, 1.25)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert [e.tobytes() for e in evs] == [w.tobytes() for w in want]
    assert 2000 * sum(e.size for e in evs) >= eigensolve._SPLIT_FLOOR
    assert calls and set(calls) == {threading.get_ident()}
    assert len(set(kernel_threads)) == 3  # the calling thread and two workers


def test_window_below_floor_starts_no_thread(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("a call below the floor started a thread")

    monkeypatch.setattr(eigensolve, "ThreadPoolExecutor", no_executor)
    monkeypatch.setattr(eigensolve, "_cpus", lambda: 4)
    kernel_threads = _record_kernel_threads(monkeypatch)
    v, tsq = potentials_for_sites_batch(dimer_preset(0.6, 0.5), 200, 5, range(16))
    evs = eigenvalues_in_window_batch(v, tsq, 1.15, 1.25)
    assert 0 < 200 * sum(e.size for e in evs) < eigensolve._SPLIT_FLOOR
    assert set(kernel_threads) == {threading.get_ident()}


@pytest.mark.parametrize("window, tol, name", [((-np.inf, 0.0), 1e-11, "window start"),
                                               ((0.0, np.nan), 1e-11, "window end"),
                                               ((-1.0, 1.0), np.nan, "tol")],
                         ids=["infinite-start", "nan-end", "nan-tol"])
def test_window_rejects_non_finite_input(window, tol, name):
    # named before any sweep, not an OverflowError from a sweep count
    with pytest.raises(ValueError, match=f"{name} .*must be finite"):
        eigenvalues_in_window(free_chain(3), window, tol)


# binary Anderson model at strong disorder: sites of the same potential far
# apart give eigenvalues closer than any tol, which only bisection can part
ANDERSON = PolymerModel(PolymerSpec(1, [3.0], [1e-3]), PolymerSpec(1, [-3.0], [1e-3]), 0.5)
FLAT = PolymerModel(PolymerSpec(1, [0.4], [1.0]), PolymerSpec(1, [0.4], [1.0]), 0.5)
FREE = PolymerModel(PolymerSpec(1, [0.0], [1.0]), PolymerSpec(1, [0.0], [1.0]), 0.5)


@st.composite
def oracle_cases(draw):
    """(model, L, seed, window, tol): a windowed_models case with its window
    in absolute energies, and a tol down to 1e-13."""
    model, L, seed, u = draw(windowed_models())
    H = build_hamiltonian(lattice_for_sites(model, L, seed))
    return model, L, seed, _window(H, u), draw(st.sampled_from([1e-11, 1e-12, 1e-13]))


@settings(max_examples=80)
@given(case=oracle_cases())
@example(case=(ANDERSON, 60, 3, (2.9, 3.1), 1e-11))  # clusters below tol
@example(case=(FLAT, 1, 0, (0.4, 1.0), 1e-11))  # the eigenvalue on the window start
@example(case=(FLAT, 1, 0, (-1.0, 0.4), 1e-11))  # ... on the window end
@example(case=(FREE, 3, 0, (0.0, 2.0), 1e-12))  # 0 is an eigenvalue of 3 free sites
@example(case=(dimer_preset(0.6, 0.5), 2, 7, (-3.0, 3.0), 1e-11))
@example(case=(dimer_preset(0.6, 0.5), 40, 9, (5.0, 6.0), 1e-11))  # empty window
@example(case=(dimer_preset(0.6, 0.5), 60, 9, (-1.0, 1.5), 1e-13))
def test_window_eigenvalues_within_tol_of_lapack(case):
    # every eigenvalue the Sturm counts at the window ends place inside it
    model, L, seed, (a, b), tol = case
    H = build_hamiltonian(lattice_for_sites(model, L, seed))
    mine = eigenvalues_in_window(H, (a, b), tol)
    ref = eigvalsh_tridiagonal(H.diagonal, -H.offdiagonal)
    k0, k1 = sturm_count(H, a), sturm_count(H, b)
    assert mine.size == k1 - k0
    assert np.all(np.abs(mine - ref[k0:k1]) <= tol + _rounding(H.diagonal, H.offdiagonal ** 2))


@st.composite
def indexed_columns(draw):
    """R <= 4 boxes of one random explicit model and up to 12 columns
    (box, index) with Sturm brackets: each index lies between the counts of
    its box at two energies of the padded Gershgorin interval; columns come
    by box, those of a box that share a bracket ascending in index."""
    model = draw(explicit_models())
    L = draw(st.integers(1, 50))
    R = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    v, tsq = potentials_for_sites_batch(model, L, seed, range(R))
    spread = 2 * np.sqrt(tsq.max(initial=0.0)) + 1.0
    lo, hi = v.min() - spread, v.max() + spread
    picks = draw(st.lists(st.tuples(st.integers(0, R - 1), st.floats(0, 1), st.floats(0, 1),
                                    st.floats(0, 1)), min_size=1, max_size=12))
    cols = set()
    for r, u1, u2, w in picks:
        e = np.sort([lo + u1 * (hi - lo), lo + u2 * (hi - lo)])
        e = e if e[0] < e[1] else np.array([lo, hi])
        counts = sturm_counts_batch(v[:, [r]], tsq[:, [r]], e[None, :])[0][0]
        if counts[1] > counts[0]:
            j = int(counts[0] + min(int(w * (counts[1] - counts[0])), counts[1] - counts[0] - 1))
            cols.add((r, float(e[0]), float(e[1]), j, int(counts[0]), int(counts[1])))
    assume(cols)
    return v, tsq, sorted(cols)


@settings(max_examples=60)
@given(case=indexed_columns(), tol=st.sampled_from([1e-11, 1e-13]))
@example(case=(np.array([[np.finfo(float).tiny], [0.0], [0.0]]), np.ones((2, 1)),
               [(0, -3.0, 3.0, 1, 0, 3)]), tol=1e-11)
def test_eigenvalues_by_index_match_lapack(case, tol):
    # each column's eigenvalue, from its own bracket, within tol of LAPACK's
    # eigenvalue of that index (select="i") plus what rounding allows (the
    # pivot floor is the batch's)
    v, tsq, cols = case
    box, lo, hi, j, clo, chi = (np.array(c) for c in zip(*cols))
    got = eigensolve.eigenvalues_by_index_batch(v, tsq, box, j, lo, hi, clo, chi, tol)
    for r, k, x in zip(box, j, got):
        t = -np.sqrt(tsq[:, r])
        try:
            want = eigvalsh_tridiagonal(v[:, r], t, select="i", select_range=(k, k))[0]
        except LinAlgError:  # stebz gives up on a potential of 2.2e-308 (the smallest normal)
            want = eigvalsh_tridiagonal(v[:, r], t, lapack_driver="sterf")[k]
        assert abs(x - want) <= tol + _rounding(v, tsq)
    assert np.all((lo <= got) & (got <= hi))


def test_eigenvalues_by_index_rejects_bad_columns():
    v, tsq = potentials_for_sites_batch(dimer_preset(0.6, 0.5), 20, 1, range(2))
    good = dict(box=[0, 1], index=[3, 3], lo=[-3.0, -3.0], hi=[3.0, 3.0], below_lo=[0, 0],
                below_hi=[20, 20])
    assert eigensolve.eigenvalues_by_index_batch(v, tsq, **good).shape == (2,)
    for key, bad in (("box", [1, 0]), ("box", [0, 2]), ("index", [20, 3]),
                     ("below_lo", [4, 0]), ("hi", [-3.0, 3.0]), ("lo", [np.nan, -3.0])):
        with pytest.raises(ValueError):
            eigensolve.eigenvalues_by_index_batch(v, tsq, **dict(good, **{key: bad}))


def test_anderson_example_has_clusters_below_tol():
    H = build_hamiltonian(lattice_for_sites(ANDERSON, 60, 3))
    ref = eigvalsh_tridiagonal(H.diagonal, -H.offdiagonal)
    assert np.diff(ref[(ref > 2.9) & (ref < 3.1)]).min() < 1e-11


@given(explicit_models(), st.integers(1, 60), st.integers(0, 2**16))
def test_twisted_eigenvectors_match_dense_oracle(model, L, seed):
    # At the oracle's eigenvalues, with s the spectral radius bound and g_k
    # column k's gap to its nearest neighbour over s: |H z_k - rq_k z_k| <=
    # 1e3 eps s for every column, 1 - |<z_k, phi_k>| <= 1e2 eps +
    # (1e3 eps / g_k)^2 and |z_k^T z_l - delta_kl| <= 1e3 eps (1/g_k + 1/g_l).
    # (Measured on such models: at most 62 eps s, 0.1 and 147 times the bounds'
    # eps terms.)  Degenerate clusters (g_k = 0) are bound by the residual only.
    H = build_hamiltonian(lattice_for_sites(model, L, seed))
    w, Phi = dense_oracle(H)
    Z, rq = twisted_eigenvectors(H, w)
    eps = np.finfo(float).eps
    s = max(float(np.abs(H.diagonal).max() + 2 * H.offdiagonal.max(initial=0.0)), 1e-300)
    HZ = H.diagonal[:, None] * Z
    HZ[:-1] -= H.offdiagonal[:, None] * Z[1:]
    HZ[1:] -= H.offdiagonal[:, None] * Z[:-1]
    assert np.linalg.norm(HZ - rq * Z, axis=0).max() <= 1e3 * eps * s
    assert np.allclose(np.linalg.norm(Z, axis=0), 1.0, rtol=0, atol=1e2 * eps)
    with np.errstate(divide="ignore"):
        inv_gap = s / np.minimum(np.r_[np.inf, np.diff(w)], np.r_[np.diff(w), np.inf])
    align = 1.0 - np.abs(np.einsum("ij,ij->j", Z, Phi))
    assert np.all(align <= 1e2 * eps + (1e3 * eps * inv_gap) ** 2)
    ortho = np.abs(Z.T @ Z - np.eye(L))
    assert np.all(ortho <= 1e3 * eps * (inv_gap[:, None] + inv_gap[None, :]))


def test_twisted_eigenvectors_refine_inexact_eigenvalues():
    # eigenvalues 1e-12 off, as a window bracket's midpoint may be: the
    # second pass at the first vector's Rayleigh quotient keeps the vectors
    # orthonormal to 1e-11 (one pass alone measured 1.1e-9 here)
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.5, 0.5), 801, seed=4))
    w, _ = dense_oracle(H)
    w = w[(w >= -0.6) & (w <= 0.6)]
    Z, rq = twisted_eigenvectors(H, w + 1e-12 * (-1.0) ** np.arange(w.size))
    assert np.abs(Z.T @ Z - np.eye(w.size)).max() <= 1e-11
    assert np.abs(rq - w).max() <= 1e-14


def test_twisted_eigenvectors_split_bit_identical(monkeypatch):
    # every column is computed on its own: the vectors of a call split over
    # four column ranges equal those of one unsplit call, bit for bit
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.5, 0.5), 801, seed=4))
    lam = eigenvalues_in_window(H, (-0.6, 0.6), 1e-13)
    Z1, rq1 = twisted_eigenvectors(H, lam)
    monkeypatch.setattr(eigensolve, "_cpus", lambda: 4)
    monkeypatch.setattr(eigensolve, "_SPLIT_FLOOR", 0)
    Z4, rq4 = twisted_eigenvectors(H, lam)
    assert np.array_equal(Z1, Z4) and np.array_equal(rq1, rq4)


def _window_sweeps(monkeypatch) -> list:
    """The sweep-count output of every window kernel call made from here on."""
    kernel, outputs = eigensolve._kernel(), []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def window_eigenvalues(self, *args):
            outputs.append(args[-1])
            return kernel.window_eigenvalues(*args)

    monkeypatch.setattr(eigensolve, "_kernel", lambda: Recording())
    return outputs


@pytest.mark.parametrize("L, E0, half", [(2000, 0.6, 0.06), (600, 1.2, 0.0875)],
                         ids=["clock", "poisson"])
def test_window_sweeps_per_eigenvalue(monkeypatch, L, E0, half):
    # dimer V = 0.6: evenly spaced levels at E_c = 0.6, clustered ones at
    # 1.2; plain bisection to tol 1e-11 takes 34-35 sweeps per eigenvalue
    outputs = _window_sweeps(monkeypatch)
    v, tsq = potentials_for_sites_batch(dimer_preset(0.6, 0.5), L, 3, range(16))
    evs = eigenvalues_in_window_batch(v, tsq, E0 - half, E0 + half)
    sweeps = outputs[0]
    assert sweeps.size == sum(e.size for e in evs) > 300
    assert all(out is sweeps for out in outputs)
    assert np.median(sweeps) <= 18


def _sturm_oracle(v, tsq, shifts):
    """The LDL^T recursion as a numpy loop over sites, one call per site."""
    pivmin = _pivmin(v, tsq)
    counts = np.zeros(shifts.shape, dtype=np.int64)
    d = v[0][:, None] - shifts
    np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
    counts += d < 0
    for n in range(1, v.shape[0]):
        d = (v[n][:, None] - shifts) - tsq[n - 1][:, None] / d
        np.copyto(d, -pivmin, where=np.abs(d) < pivmin)
        counts += d < 0
    return counts, d


@st.composite
def sturm_batches(draw):
    """R <= 3 boxes of one random explicit model and K <= 5 shifts per box,
    each at an eigenvalue of its box (dense oracle), at v(0), where the first
    pivot is clamped to -pivmin, or at a point of the padded Gershgorin
    interval."""
    model = draw(explicit_models())
    L = draw(st.integers(1, 40))
    R = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    v, tsq = potentials_for_sites_batch(model, L, seed, range(R))
    K = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["eig", "v0", "interval"]), min_size=K, max_size=K))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    shifts = np.empty((R, K))
    for r in range(R):
        H = build_hamiltonian(lattice_for_sites(model, L, seed, r))
        ev = dense_oracle(H)[0]
        lo, hi = gershgorin_interval(H)
        for k in range(K):
            shifts[r, k] = {"eig": ev[int(u[k] * (L - 1))], "v0": v[0, r],
                            "interval": lo - 1.0 + u[k] * (hi - lo + 2.0)}[kinds[k]]
    return v, tsq, shifts


@settings(max_examples=100)
@given(case=sturm_batches())
def test_sturm_kernel_matches_numpy_loop(case):
    v, tsq, shifts = case
    # a strided v (one operator) and a Fortran-ordered one go through the same
    # path, and so do one row range and a range per box on three threads
    for vv in (v, np.asfortranarray(v), v[:, 0][:, None]):
        R = vv.shape[1]
        ref_counts, ref_d = _sturm_oracle(vv, tsq[:, :R], shifts[:R])
        for cpus, floor in ((1, eigensolve._COUNT_SPLIT_FLOOR), (3, 0)):
            with mock.patch.object(eigensolve, "_cpus", return_value=cpus), \
                    mock.patch.object(eigensolve, "_COUNT_SPLIT_FLOOR", floor):
                counts, d = sturm_counts_batch(vv, tsq[:, :R], shifts[:R])
            assert np.array_equal(counts, ref_counts)
            assert np.array_equal(d.view(np.int64), ref_d.view(np.int64))


def test_sturm_batch_rejects_mismatched_shapes():
    v, tsq = np.zeros((4, 2)), np.ones((3, 2))
    with pytest.raises(ValueError):
        sturm_counts_batch(v, tsq[:, :1], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        sturm_counts_batch(v, tsq, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        sturm_counts_batch(np.zeros((0, 2)), np.ones((0, 2)), np.zeros((2, 1)))


def test_kernel_source_compiles_without_warnings():
    cmd = ["cc", *_CFLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(_KERNELS_C)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_kernel_build_without_compiler_raises(tmp_path):
    with pytest.raises(RuntimeError, match="requires a C compiler"):
        _build_kernel(tmp_path, compiler=str(tmp_path / "no-such-cc"))
    assert list(tmp_path.iterdir()) == []


def test_kernel_build_prunes_stale_builds(tmp_path):
    # a build removes the libraries of other sources; a cache hit removes nothing
    stale, other = tmp_path / "kernels_0123456789abcdef.so", tmp_path / "notes.txt"
    stale.write_bytes(b"")
    other.write_text("kept")
    lib = _build_kernel(tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted([lib, other])
    stale.write_bytes(b"")
    assert _build_kernel(tmp_path) == lib
    assert stale.is_file()


def test_kernel_build_tolerates_concurrent_prune(tmp_path, monkeypatch):
    # a stale library another process removed first is skipped
    gone = tmp_path / "kernels_fedcba9876543210.so"
    real_glob = Path.glob
    monkeypatch.setattr(Path, "glob", lambda self, pattern: [*real_glob(self, pattern), gone])
    lib = _build_kernel(tmp_path)
    assert list(tmp_path.iterdir()) == [lib]


_ASAN_CALLS = r"""
import sys
from pathlib import Path

import numpy as np

from polyspec.eigensolve import _load_kernel, _pivmin

k = _load_kernel(Path(sys.argv[1]))
rng = np.random.default_rng(0)
R = 5
shift = np.array([0.0, 10.0, 0.0, 10.0, 0.0])  # realizations 1 and 3: no eigenvalue near 0
for L in (1, 2, 9):
    v = rng.uniform(-1.0, 1.0, (L, R)) + shift
    tsq = rng.uniform(0.25, 2.0, (L - 1, R))
    pivmin = _pivmin(v, tsq)
    ends, d = np.empty(2 * R, dtype=np.int64), np.empty(2 * R)
    for r0, r1 in ((0, R), (1, 3), (4, 5)):
        k.sturm_counts(L, R, 2, r0, r1, v, tsq, np.tile([-3.0, 3.0], R), pivmin, ends, d)
    na, nb = ends[0::2], ends[1::2]
    off = np.concatenate([[0], np.cumsum(nb - na)]).astype(np.int64)
    assert off[-1] > 0 and (np.diff(off) == 0).any()
    box = np.repeat(np.arange(R), nb - na)
    j = na[box] + np.arange(off[-1]) - off[box]
    eig, sweeps = np.empty(off[-1]), np.empty(off[-1], dtype=np.int64)
    # one bracket per realization, then each column's own bracket [-3, x_j]
    # or [x_j, 3] about its eigenvalue's Sturm count at 0
    na0 = np.empty(R, dtype=np.int64)
    k.sturm_counts(L, R, 1, 0, R, v, tsq, np.zeros(R), pivmin, na0, d[:R])
    below = j < na0[box]
    brackets = ((np.full(j.size, -3.0), np.full(j.size, 3.0), na[box], nb[box]),
                (np.where(below, -3.0, 0.0), np.where(below, 0.0, 3.0),
                 np.where(below, na[box], na0[box]), np.where(below, na0[box], nb[box])))
    for lo, hi, clo, chi in brackets:
        for r0, r1 in ((0, R), (2, 4), (1, 2), (3, 5), (4, 5)):
            assert k.window_eigenvalues(L, R, r0, r1, off, v, tsq, pivmin, 1e-11, j, lo, hi,
                                        np.ascontiguousarray(clo), np.ascontiguousarray(chi),
                                        eig, sweeps) == 0
    # the vectors of realization 0's window: all columns, a range from mid-batch, none
    v0, t0, lam = v[:, 0].copy(), np.sqrt(tsq[:, 0]), eig[off[0]:off[1]].copy()
    K = lam.size
    Z, rq = np.empty((L, K)), np.empty(K)
    for c0, c1 in ((0, K), (K // 2, K), (K, K)):
        assert k.twisted_vectors(L, K, c0, c1, v0, t0, pivmin, lam, Z, rq) == 0
    assert k.twisted_vectors(L, 0, 0, 0, v0, t0, pivmin, np.empty(0), np.empty((L, 0)),
                             np.empty(0)) == 0
    counts, piv = np.empty((R, 3), dtype=np.int64), np.empty((R, 3))
    k.sturm_counts(L, R, 3, 0, R, v, tsq, np.tile([-1.0, 0.0, 11.0], (R, 1)), pivmin, counts,
                   piv)
    keys = np.empty((R, 2), dtype=np.uint64)
    k.stream_keys(R, 7, np.arange(R, dtype=np.uint64), keys)
    below = np.empty((R, 13), dtype=np.bool_)
    k.stream_below(R, keys, 3, 13, 0.5, below)
    bv, bt = np.empty((L, R)), np.empty((L - 1, R))
    assert k.fill_boxes(L, R, keys, 0.5, 1, 2, np.array([0.1, 0.2, 0.3]),
                        np.array([1.0, 1.5, 2.0]), bv, bt) == 0
    prod, expo = np.tile(np.eye(2), (R, 1, 1)), np.zeros(R, dtype=np.int64)
    k.lyapunov_steps(R, keys, 1, 300, 0.5, np.array([[2.0, -1.0], [1.0, 0.0]]),
                     np.array([[0.5, -1.0], [1.0, 0.0]]), prod, expo)
print("ok")
"""


def test_kernels_clean_under_address_sanitizer(tmp_path):
    # every entry point on ragged offsets with empty realizations, one-site
    # boxes and row ranges that start mid-batch, under AddressSanitizer
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no AddressSanitizer runtime for cc")
    lib = tmp_path / "kernels_asan.so"
    subprocess.run(["cc", *_CFLAGS, "-fsanitize=address", "-fno-omit-frame-pointer",
                    str(_KERNELS_C), "-o", str(lib)], check=True)
    src = Path(eigensolve.__file__).resolve().parents[1]
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _ASAN_CALLS, str(lib)], env=env,
                         capture_output=True, text=True)
    assert "AddressSanitizer" not in out.stderr, out.stderr
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


def test_kernel_builds_into_fresh_cache(tmp_path, monkeypatch):
    lib = _build_kernel(tmp_path)
    assert list(tmp_path.iterdir()) == [lib]
    no_cc = str(tmp_path / "no-such-cc")
    assert _build_kernel(tmp_path, compiler=no_cc) == lib  # cache hit
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.6, 0.5), 300, seed=2))
    v, tsq = H.diagonal[:, None], (H.offdiagonal ** 2)[:, None]
    shifts = np.linspace(-2.5, 2.5, 7)[None, :]
    counts, d = np.empty((1, 7), dtype=np.int64), np.empty((1, 7))
    kernels = _load_kernel(lib)
    kernels.sturm_counts(300, 1, 7, 0, 1, v, tsq, shifts, _pivmin(v, tsq), counts, d)
    ref_counts, ref_d = sturm_counts_batch(v, tsq, shifts)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(d.view(np.int64), ref_d.view(np.int64))
    # the same library holds the Philox stream and the Lyapunov product:
    # draws 1, 2, 3 of substream(0, 2) are below 1/2, above, below, so the
    # three steps are T+, T-, T+
    keys = np.empty((1, 2), dtype=np.uint64)
    kernels.stream_keys(1, 0, np.array([2], dtype=np.uint64), keys)
    assert np.array_equal(keys[0], np.random.SeedSequence(0, spawn_key=(2,))
                          .generate_state(2, np.uint64))
    assert np.array_equal(substream(0, 2).random(4)[1:] < 0.5, [True, False, True])
    tp, tm = np.array([[2.0, -1.0], [1.0, 0.5]]), np.array([[0.5, -1.0], [1.5, 0.25]])
    prod, expo = np.eye(2)[None].copy(), np.zeros(1, dtype=np.int64)
    kernels.lyapunov_steps(1, keys, 1, 3, 0.5, tp, tm, prod, expo)
    assert np.array_equal(prod[0], tp @ tm @ tp) and expo[0] == 0
    # the key is the source's bytes: a copy elsewhere hits, an edited copy misses
    copy = tmp_path / "copy" / "kernels.c"
    copy.parent.mkdir()
    copy.write_bytes(_KERNELS_C.read_bytes())
    monkeypatch.setattr(eigensolve, "_KERNELS_C", copy)
    assert _build_kernel(tmp_path, compiler=no_cc) == lib
    copy.write_bytes(copy.read_bytes() + b"\n")
    with pytest.raises(RuntimeError, match="requires a C compiler"):
        _build_kernel(tmp_path, compiler=no_cc)
