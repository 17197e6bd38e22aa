import inspect
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyspec import eigensolve

from polyspec.model import (LatticeSequences, PolymerModel, PolymerSpec, dimer_preset,
                            lattice_for_sites, potentials_for_sites_batch, substream)
from polyspec.eigensolve import (TridiagonalOperator, build_hamiltonian,
                                 gershgorin_interval, sturm_count, sturm_counts_batch,
                                 eigenvalues_in_window, eigenvalues_in_window_batch,
                                 dense_oracle, _pivmin,
                                 _build_kernel, _load_kernel, _CFLAGS, _KERNELS_C)

from conftest import explicit_models


def free_chain(L):
    return TridiagonalOperator(diagonal=np.zeros(L), offdiagonal=np.ones(L - 1),
                               num_sites=L)


def free_chain_eigenvalues(L):
    # Dirichlet free chain closed form
    return -2.0 * np.cos(np.arange(1, L + 1) * np.pi / (L + 1))


def all_eigenvalues(H, tol=1e-11):
    """The whole spectrum, as the window over the padded Gershgorin enclosure."""
    lo, hi = gershgorin_interval(H)
    spec = eigenvalues_in_window(H, (lo - 1e-6, hi + 1e-6), tol)
    assert len(spec) == H.num_sites
    return spec.eigenvalues


def test_build_hamiltonian_dense():
    seq = LatticeSequences(potentials=np.zeros(2), hoppings=np.ones(2), num_sites=2)
    H = build_hamiltonian(seq)
    assert np.allclose(H.to_dense(), [[0, -1], [-1, 0]])


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
    spec = eigenvalues_in_window(free_chain(3), (-0.5, 0.5), tol=1e-12)
    assert np.allclose(spec.eigenvalues, [0.0], atol=1e-11)
    empty = eigenvalues_in_window(free_chain(3), (-9.0, -5.0))
    assert len(empty) == 0
    with pytest.raises(ValueError):
        eigenvalues_in_window(free_chain(3), (-1.0, 1.0), tol=0.0)


def test_window_vs_oracle_dimer_l40():
    seq = lattice_for_sites(dimer_preset(0.5, 0.5), 40, seed=11)
    H = build_hamiltonian(seq)
    lo, hi = gershgorin_interval(H)
    mine = eigenvalues_in_window(H, (lo - 1e-6, hi + 1e-6), tol=1e-12)
    ref, _ = dense_oracle(H)
    assert mine.eigenvalues.size == 40
    assert np.abs(mine.eigenvalues - ref.eigenvalues).max() < 1e-9


def test_full_spectrum_free_l50():
    evs = all_eigenvalues(free_chain(50), tol=1e-12)
    assert np.abs(evs - free_chain_eigenvalues(50)).max() < 1e-11


def test_dense_oracle_properties():
    seq = lattice_for_sites(dimer_preset(0.6, 0.5), 60, seed=9)
    H = build_hamiltonian(seq)
    spec, Phi = dense_oracle(H)
    Hd = H.to_dense()
    assert np.abs(Hd @ Phi - Phi * spec.eigenvalues).max() <= 1e-9
    assert np.abs(Phi.T @ Phi - np.eye(60)).max() <= 1e-10
    assert np.all(Phi[np.abs(Phi).argmax(axis=0), np.arange(60)] > 0)  # sign convention
    assert abs(spec.eigenvalues.sum() - H.diagonal.sum()) <= 1e-9
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
        mine = eigenvalues_in_window(H, (lo - 1e-9, hi + 1e-9), tol=1e-12).eigenvalues
        ref = dense_oracle(H)[0].eigenvalues
        assert mine.size == L
        assert np.abs(mine - ref).max() < 1e-9
        assert np.all(np.diff(ref) > 0)  # simple spectrum


def test_cauchy_interlacing():
    seq = lattice_for_sites(dimer_preset(0.8, 0.5), 30, seed=17)
    H = build_hamiltonian(seq)
    full = dense_oracle(H)[0].eigenvalues
    Hm = TridiagonalOperator(diagonal=H.diagonal[:-1], offdiagonal=H.offdiagonal[:-1],
                             num_sites=29)
    sub = dense_oracle(Hm)[0].eigenvalues
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
        mine = eigenvalues_in_window(H, (lo - 1e-9, hi + 1e-9), tol=1e-12).eigenvalues
        ref = dense_oracle(H)[0].eigenvalues
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
    ref = dense_oracle(H)[0].eigenvalues
    # an eigenvalue on a window edge is inside or outside by rounding alone
    assume(np.abs(ref[:, None] - np.array([a, b])).min() > 1e-9)
    mine = eigenvalues_in_window(H, (a, b), tol=1e-12).eigenvalues
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
    targets, K the largest window count, padding columns included."""
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


@settings(max_examples=60)
@given(case=windowed_models(), R=st.integers(1, 7), cpus=st.sampled_from([1, 2, 3, 5]))
@example(case=(dimer_preset(0.6, 0.5), 1, 4, [0.2, 0.7]), R=4, cpus=5)
@example(case=(dimer_preset(0.6, 0.5), 40, 9, [0.5, 0.52]), R=2, cpus=5)
@example(case=(PolymerModel(PolymerSpec(1, [0.4], [1.0]),
                            PolymerSpec(3, [-0.2, 0.9, 0.1], [0.5, 2.0, 1.0]), 0.3),
               60, 2, [0.48, 0.5]), R=7, cpus=3)
def test_window_batch_split_equals_serial_rectangle(case, R, cpus):
    # bit for bit, for any number of row ranges: R below the worker count,
    # one-site boxes, and windows empty for some or all realizations
    model, L, seed, u = case
    v, tsq = potentials_for_sites_batch(model, L, seed, range(R))
    a, b = _window(build_hamiltonian(lattice_for_sites(model, L, seed)), u)
    want = _rectangle_bisection(v, tsq, a, b)
    with mock.patch.object(eigensolve, "_cpus", return_value=cpus), \
            mock.patch.object(eigensolve, "_SPLIT_FLOOR", 0):
        got = eigenvalues_in_window_batch(v, tsq, a, b)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _record_kernel_threads(monkeypatch) -> list:
    """Thread idents of every Sturm kernel call made from here on."""
    kernel, idents = eigensolve._kernel(), []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel, name)

        def sturm_counts(self, *args):
            idents.append(threading.get_ident())
            return kernel.sturm_counts(*args)

    monkeypatch.setattr(eigensolve, "_kernel", lambda: Recording())
    return idents


def test_window_split_keeps_package_functions_on_calling_thread(monkeypatch):
    # worker threads run only the kernel and numpy; every function of the
    # package runs on the calling thread, and no thread outlives the call
    calls = []
    for name, fn in list(vars(eigensolve).items()):
        if inspect.isfunction(fn) and fn.__module__ == eigensolve.__name__:
            def recorded(*args, _fn=fn, **kwargs):
                calls.append(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(eigensolve, name, recorded)
    kernel_threads = _record_kernel_threads(monkeypatch)
    v, tsq = potentials_for_sites_batch(dimer_preset(0.6, 0.5), 2000, 5, range(64))
    want = _rectangle_bisection(v, tsq, 1.15, 1.25)
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
        ev = dense_oracle(H)[0].eigenvalues
        lo, hi = gershgorin_interval(H)
        for k in range(K):
            shifts[r, k] = {"eig": ev[int(u[k] * (L - 1))], "v0": v[0, r],
                            "interval": lo - 1.0 + u[k] * (hi - lo + 2.0)}[kinds[k]]
    return v, tsq, shifts


@settings(max_examples=100)
@given(case=sturm_batches())
def test_sturm_kernel_matches_numpy_loop(case):
    v, tsq, shifts = case
    # a strided v (one operator) and a Fortran-ordered one go through the same path
    for vv in (v, np.asfortranarray(v), v[:, 0][:, None]):
        R = vv.shape[1]
        counts, d = sturm_counts_batch(vv, tsq[:, :R], shifts[:R])
        ref_counts, ref_d = _sturm_oracle(vv, tsq[:, :R], shifts[:R])
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
    cmd = ["cc", *_CFLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", "-"]
    out = subprocess.run(cmd, input=_KERNELS_C, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_kernel_build_without_compiler_raises(tmp_path):
    with pytest.raises(RuntimeError, match="requires a C compiler"):
        _build_kernel(tmp_path, compiler=str(tmp_path / "no-such-cc"))
    assert list(tmp_path.iterdir()) == []


def test_kernel_builds_into_fresh_cache(tmp_path):
    lib = _build_kernel(tmp_path)
    assert list(tmp_path.iterdir()) == [lib]
    assert _build_kernel(tmp_path, compiler=str(tmp_path / "no-such-cc")) == lib  # cache hit
    H = build_hamiltonian(lattice_for_sites(dimer_preset(0.6, 0.5), 300, seed=2))
    v, tsq = H.diagonal[:, None], (H.offdiagonal ** 2)[:, None]
    shifts = np.linspace(-2.5, 2.5, 7)[None, :]
    counts, d = np.empty((1, 7), dtype=np.int64), np.empty((1, 7))
    kernels = _load_kernel(lib)
    kernels.sturm_counts(300, 1, 0, 1, np.array([0, 7]), v, tsq, shifts, _pivmin(v, tsq),
                         counts, d)
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
