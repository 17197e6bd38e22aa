import importlib
import pkgutil
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import chdtrc, expm1 as scipy_expm1
from scipy.stats import chi2, kstest

from polyspec import statistics
from polyspec.cli import main
from polyspec.eigensolve import _pivmin
from polyspec.model import (PolymerSpec, PolymerModel, dimer_preset, lattice_for_sites,
                            potentials_for_sites_batch)
from polyspec.transfer import find_critical_energies, expansion_coeffs, CriticalEnergyReport
from polyspec.statistics import (EmpiricalIDS, PointProcessSample, ClockSpacingSample,
                                 empirical_ids, windowed_ids, pointwise_ids, pool_spectra,
                                 ids_at_critical,
                                 dos_at_critical, les_ensemble, gap_statistics,
                                 counting_statistics, clock_spacing_statistic,
                                 uniformity_test, holder_probe, minami_probe,
                                 InsufficientDataError, _ks_distance, _exp1_cdf,
                                 _chi2_sf)

from conftest import explicit_models

SQ2 = 1.0 / np.sqrt(2.0)


def affine_ids(n=100001):
    # pooled eigenvalues uniform on [0, 1]: N(E) = E
    pooled = np.linspace(0.0, 1.0, n)
    return EmpiricalIDS(pooled=pooled)


def constant_model(c):
    spec = PolymerSpec(1, [c], [1.0])
    return PolymerModel(plus=spec, minus=spec, p_plus=0.5)


def test_empirical_ids_monotone_invertible():
    ids = affine_ids(1001)
    Es = np.linspace(-0.2, 1.2, 301)
    vals = ids.evaluate(Es)
    assert np.all(np.diff(vals) >= 0)
    assert ids.evaluate(-5.0) == 0.0 and ids.evaluate(5.0) == 1.0
    interior = np.linspace(0.05, 0.95, 50)
    assert np.abs(ids.invert(ids.evaluate(interior)) - interior).max() < 1e-9


def serial_sterf_pool(model, L_ids, seed, indices):
    """The pool as one loop of scipy's sterf driver, box after box."""
    return np.concatenate([
        eigvalsh_tridiagonal(seq.potentials, -seq.hoppings[1:], lapack_driver="sterf")
        for seq in (lattice_for_sites(model, L_ids, seed, r) for r in indices)])


UNEQUAL = PolymerModel(PolymerSpec(1, [0.4], [1.0]),
                       PolymerSpec(3, [-0.2, 0.9, 0.1], [0.5, 2.0, 1.0]), 0.3)


@settings(max_examples=40)
@given(model=explicit_models(), L_ids=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       indices=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=7))
@example(model=UNEQUAL, L_ids=1, seed=3, indices=[4])
@example(model=UNEQUAL, L_ids=2, seed=3, indices=[9, 2, 7])
@example(model=UNEQUAL, L_ids=50, seed=8, indices=[10 ** 6 + 5, 3, 3, 40])
def test_pool_spectra_matches_serial_sterf(model, L_ids, seed, indices):
    # every eigenvalue of every box, box after box, each within the window
    # kernel's tol of LAPACK's plus what rounding allows either of them
    want = serial_sterf_pool(model, L_ids, seed, indices)
    got = pool_spectra(model, L_ids, seed, indices)
    assert got.size == want.size == L_ids * len(indices)
    v, tsq = potentials_for_sites_batch(model, L_ids, seed, indices)
    norm = np.abs(v).max() + 2 * np.sqrt(tsq.max(initial=0.0))
    bound = (statistics._IDS_TOL / 2 + 16 * np.finfo(float).eps * norm
             + 2 * _pivmin(v, tsq))
    assert np.abs(got - want).max() <= bound


def test_pool_spectra_draws_boxes_on_calling_thread(tmp_path, monkeypatch):
    # worker threads run only the compiled window kernel; every package
    # function stays on the calling thread, and no thread outlives the pool
    threads = []

    def recorded(model, num_sites, seed, indices):
        threads.extend([threading.get_ident()] * len(indices))
        return potentials_for_sites_batch(model, num_sites, seed, indices)

    monkeypatch.setattr(statistics, "potentials_for_sites_batch", recorded)
    before = threading.active_count()
    code = main(["ids", "--out", str(tmp_path), "--seed", "5",
                 "--param", "L_ids=200", "--param", "realizations=9"])
    assert code in (0, 2)
    assert threading.active_count() == before
    assert len(threads) == 9 and set(threads) == {threading.get_ident()}


def test_pool_spectra_refuses_a_short_pool():
    # a bracket that misses part of the spectrum raises instead of
    # returning fewer than L_ids eigenvalues per box
    bottom, top = UNEQUAL.gershgorin_bound
    narrow = property(lambda self: (bottom, 0.5 * (bottom + top)))
    with mock.patch.object(PolymerModel, "gershgorin_bound", narrow), \
            pytest.raises(RuntimeError, match="for 4 boxes of 20 sites"):
        pool_spectra(UNEQUAL, 20, 1, range(4))


def test_empirical_ids_deterministic_chain():
    ids = empirical_ids(constant_model(0.7), L_ids=400, seed=1, realization_indices=range(10))
    assert abs(ids.evaluate(0.7) - 0.5) < 0.01


@settings(max_examples=40)
@given(model=explicit_models(), L=st.integers(4, 40), R=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32 - 1), x=st.floats(-0.1, 1.1),
       h=st.floats(1e-4, 0.1))
def test_windowed_ids_matches_full_pool(model, L, R, seed, x, h):
    full = empirical_ids(model, L, seed, range(R))
    n = full.total_count
    E0 = float(full.pooled[0] + x * (full.pooled[-1] - full.pooled[0]))
    N0 = float(full.evaluate(E0))
    try:
        win = windowed_ids(model, L, seed, range(R), E0, h)
    except ValueError as e:
        # raised only for a window outside [1/(n+1), n/(n+1)]
        assert f"E0={E0}" in str(e)
        assert not 1 / (n + 1) <= N0 - h <= N0 + h <= n / (n + 1)
        return
    assert win.total_count == n
    # eigenvalues agree to 1e-12 on the scale of H (hoppings reach 1e2 here)
    tol = 1e-12 * max(1.0, np.abs(full.pooled).max())
    # the stored ranks are consecutive, and the full pool's at those ranks
    below = int(win.ranks[0]) - 1
    assert np.array_equal(win.ranks, np.arange(below + 1, below + win.pooled.size + 1))
    stored = full.pooled[below:below + win.pooled.size]
    assert np.abs(win.pooled - stored).max() <= tol
    if not 1 / (n + 1) <= N0 - h <= N0 + h <= n / (n + 1):
        return  # les_ensemble raises on this window
    us = np.linspace(N0 - h, N0 + h, 17)
    assert np.abs(win.invert(us) - full.invert(us)).max() <= tol
    # evaluate midway between stored neighbours, where it moves by at most
    # tol times its slope 1/((n+1) gap)
    lo, hi = np.searchsorted(win.pooled, win.invert([N0 - h, N0 + h]))
    p = win.pooled[max(lo - 1, 0):hi + 1]
    gaps = np.diff(p)
    Es, gaps = (0.5 * (p[1:] + p[:-1]))[gaps > 1e-9], gaps[gaps > 1e-9]
    assert np.all(np.abs(win.evaluate(Es) - full.evaluate(Es))
                  <= 1e-12 + 2 * tol / ((n + 1) * gaps))
    # beyond a window end that is not an end of the pool, both raise
    q = (below + np.array([1, win.pooled.size])) / (n + 1.0)
    for inside_pool, E, u in ((below > 0, win.pooled[0] - 1e-9, q[0] - 1e-9),
                              (below + win.pooled.size < n, win.pooled[-1] + 1e-9,
                               q[1] + 1e-9)):
        if inside_pool:
            with pytest.raises(ValueError, match="outside the stored IDS window"):
                win.evaluate(E)
            with pytest.raises(ValueError, match="outside the stored IDS window"):
                win.invert(u)


FREE = PolymerModel(PolymerSpec(1, [0.0], [1.0]), PolymerSpec(1, [0.0], [1.0]), 0.5)
ANDERSON = PolymerModel(PolymerSpec(1, [3.0], [1e-3]), PolymerSpec(1, [-3.0], [1e-3]), 0.5)


@settings(max_examples=40)
@given(model=explicit_models(), L=st.integers(1, 40), R=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       shift=st.sampled_from([1e-13, 4e-14, 1e-9]))
@example(model=FREE, L=7, R=3, seed=1, u=[0.5], shift=1e-13)  # -max is the minimum
@example(model=ANDERSON, L=30, R=4, seed=2, u=[0.0, 0.3, 1.0], shift=4e-14)  # clusters
@example(model=dimer_preset(0.6, 0.5), L=40, R=6, seed=3, u=[0.25, 0.5], shift=1e-13)
@example(model=UNEQUAL, L=1, R=1, seed=3, u=[0.0], shift=1e-13)
@example(model=PolymerModel(PolymerSpec(4, [0.0] * 4, [1.0, 100.0, 1.0, 1.0]),
                            PolymerSpec(1, [0.0], [1.0]), 0.125),
         L=19, R=2, seed=1, u=[0.0], shift=1e-13)  # a pair closer than tol at both ends
@example(model=PolymerModel(PolymerSpec(4, [0.0, 1.0, 0.0, 0.0], [100.0, 1.0, 1.0, 1.0]),
                            PolymerSpec(2, [0.0, 0.25], [1.0, 1.7782794100389228]), 0.5),
         L=17, R=4, seed=2, u=[0.0], shift=1e-13)  # an end within tol of a pruned box's
def test_pointwise_ids_matches_full_pool(model, L, R, seed, u, shift):
    # evaluate() at the energies it was built for equals empirical_ids on the
    # same boxes: at the pool's eigenvalues, within tol of them, at both ends
    # of the pool and of the reader's store, outside the spectrum and on a
    # grid.  The stored eigenvalues are within delta (both sides' bisection
    # tol and rounding) of the pool's at the same ranks, so N moves by at most
    # the pool's own increment over delta: 1e-12 where no pool eigenvalue is
    # within delta of E.
    full = empirical_ids(model, L, seed, range(R))
    n = full.total_count
    picked = full.pooled[(np.asarray(u) * (n - 1)).astype(int)]

    def read_at(bottom, top):
        return np.concatenate([[bottom, top, bottom - 1.0, top + 1.0, -top, -bottom],
                               full.pooled[[0, -1]], picked, picked - shift, picked + shift,
                               np.linspace(bottom, top, 9)])

    ids = pointwise_ids(model, L, seed, range(R), read_at)
    assert ids.total_count == n and ids.ranks[0] == 1 and ids.ranks[-1] == n
    v, tsq = potentials_for_sites_batch(model, L, seed, range(R))
    norm = np.abs(v).max() + 2 * np.sqrt(tsq.max(initial=0.0))
    delta = statistics._IDS_TOL + 2 * (16 * np.finfo(float).eps * norm + 2 * _pivmin(v, tsq))
    assert np.abs(ids.pooled - full.pooled[ids.ranks - 1]).max() <= delta
    E = read_at(float(ids.pooled[0]), float(ids.pooled[-1]))
    got, want = ids.evaluate(E), full.evaluate(E)
    slack = np.maximum(full.evaluate(E + delta) - want, want - full.evaluate(E - delta))
    assert np.all(np.abs(got - want) <= 1e-12 + slack)


def test_pointwise_ids_draws_each_box_once(monkeypatch):
    # the boxes are drawn once and kept; every count and every eigenvalue
    # comes from those arrays
    drawn = []

    def recorded(model, num_sites, seed, indices, out=None):
        drawn.extend(indices)
        return potentials_for_sites_batch(model, num_sites, seed, indices, out)

    monkeypatch.setattr(statistics, "potentials_for_sites_batch", recorded)
    ids = pointwise_ids(dimer_preset(0.6, 0.5), 50, 4, range(300),
                        lambda bottom, top: np.linspace(bottom, top, 5))
    assert sorted(drawn) == list(range(300)) and ids.total_count == 15000


def test_ids_raises_across_a_rank_gap():
    # ranks 1, 2 and 5, 6 of 6: N reads on a stored node and between
    # consecutive ranks, and raises where np.interp would join ranks 2 and 5
    ids = EmpiricalIDS(pooled=[0.0, 1.0, 3.0, 4.0], ranks=[1, 2, 5, 6], total_count=6)
    assert ids.evaluate([-1.0, 0.5, 1.0, 3.0, 3.5, 4.0, 9.0]) == pytest.approx(
        [0.0, 1.5 / 7, 2 / 7, 5 / 7, 5.5 / 7, 6 / 7, 1.0], abs=1e-15)
    assert ids.invert([2 / 7, 5 / 7, 5.5 / 7]) == pytest.approx([1.0, 3.0, 3.5], abs=1e-15)
    for E in (1.5, 2.999, [0.5, 2.0]):
        with pytest.raises(ValueError, match="outside the stored IDS window"):
            ids.evaluate(E)
    with pytest.raises(ValueError, match="outside the stored IDS window"):
        ids.invert(3 / 7)
    for ranks, n in (([1, 1, 5, 6], 6), ([0, 2, 5, 6], 6), ([1, 2, 5, 7], 6), ([1, 2, 5], 6)):
        with pytest.raises(ValueError, match="increasing rank"):
            EmpiricalIDS(pooled=[0.0, 1.0, 3.0, 4.0], ranks=ranks, total_count=n)


@settings(max_examples=60)
@given(x=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=300),
       s=st.floats(0.0, 200.0), dof=st.integers(1, 40))
def test_ks_and_chi2_match_scipy_stats(x, s, dof):
    x = np.array(x)
    # kstest takes the library's own Exp(1) cdf, so the distances agree exactly
    assert _ks_distance(x, _exp1_cdf) == kstest(x, _exp1_cdf).statistic
    u = x / 20.0
    assert (_ks_distance(u, lambda y: np.clip(y, 0.0, 1.0))
            == kstest(u, "uniform").statistic)
    assert _chi2_sf(dof, s) == pytest.approx(chi2.sf(s, dof), rel=1e-12, abs=0.0)


def test_exp1_cdf_matches_scipy_expon():
    # numpy's expm1 against scipy's (behind stats.expon.cdf): a few ulp at
    # most (3 on this grid with glibc's expm1; the bound leaves room for others)
    y = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-20, 700.0, 20001)])
    theirs = -scipy_expm1(-y)
    assert np.all(np.abs(_exp1_cdf(y) - theirs) <= 8 * np.spacing(theirs))


def test_chi2_sf_matches_chdtrc():
    # the closed form against cephes' incomplete gamma (scipy.special.chdtrc)
    # for dof 1-40 and x in [0, 400], x = 0 included
    xs = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(0.0, 400.0, 4001),
                         np.geomspace(1e-9, 400.0, 400)])
    for dof in range(1, 41):
        ref = chdtrc(dof, xs)
        got = np.array([_chi2_sf(dof, x) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), dof
    assert _chi2_sf(1, 0.0) == _chi2_sf(40, 0.0) == 1.0


# tiny configs of the kinds whose code paths used to import scipy or numpy.ma
# (the chi-square tail, the median, window splitting, transport's window path)
_TINY_RUNS = r"""
import json, sys, tempfile
import polyspec.cli

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

assert loaded("scipy") == [], loaded("scipy")
dimer = {"preset": "dimer", "V": 0.6, "p": 0.5}
runs = {
    "clock-spacing": {"L_list": [100, 200, 400], "realizations": 4},
    "psi-convergence": {"L_list": [100, 200, 400], "realizations": 2},
    "les-poisson": {"L": 200, "realizations": 500, "ids_L": 200, "ids_realizations": 8},
    "lyapunov": {"steps": 4096, "realizations": 4},
    "transport": {"box_radius": 150, "realizations": 2, "T_grid": [5.0, 8.0, 12.0, 18.0, 25.0],
                  "quadrature_points": 200, "free_box_radius": 100,
                  "free_T_grid": [4.0, 6.0, 8.0, 10.0, 12.0]},
}
with tempfile.TemporaryDirectory() as out:
    for kind, params in runs.items():
        model = dict(dimer, V=0.5) if kind in ("lyapunov", "transport") else dimer
        path = f"{out}/{kind}.json"
        with open(path, "w") as f:
            json.dump({"model": model, "params": params}, f)
        code = polyspec.cli.main([kind, "--config", path, "--out", out])
        assert code in (0, 2), (kind, code)
        assert loaded("scipy") == loaded("numpy.ma") == [], (kind, loaded("scipy"),
                                                              loaded("numpy.ma"))
"""


def test_import_and_runs_load_no_scipy():
    # importing polyspec.cli loads no scipy module (scipy.stats included), and
    # neither do runs that take no dense fallback: none of them pays for a
    # deferred import inside the run, numpy.ma included (np.median, np.unique)
    out = subprocess.run([sys.executable, "-c", _TINY_RUNS], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def test_library_import_starts_no_thread():
    # every executor (the IDS pool, window bisection, the Lyapunov product)
    # is made per call and shut down before the call returns
    code = "import threading, polyspec.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "1"


def test_library_exports_resolve():
    # a name left in an __all__ after its definition is deleted fails here by
    # name; one left in the package's own imports fails `import polyspec`
    import polyspec
    for info in pkgutil.iter_modules(polyspec.__path__):
        module = importlib.import_module(f"polyspec.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert missing == [], (info.name, missing)


def test_ids_symmetry_and_branch_small():
    m = dimer_preset(SQ2, 0.5)
    ids = empirical_ids(m, L_ids=1000, seed=7, realization_indices=range(120))
    rep = find_critical_energies(m)[-1]
    formula = ids_at_critical(rep, m)
    assert abs(formula - 5.0 / 8.0) < 1e-9
    assert abs(float(ids.evaluate(rep.energy)) - formula) < 0.02
    Es = np.linspace(0, 2.5, 40)
    assert np.abs(ids.evaluate(Es) + ids.evaluate(-Es) - 1.0).max() < 0.02


def test_ids_at_critical_homogeneous():
    rep = CriticalEnergyReport(energy=0.0, kind_plus="minus_identity",
                               kind_minus="minus_identity", eta_plus=np.pi,
                               eta_minus=np.pi, diagonalizer=np.eye(2),
                               commutator_norm=0.0, residual=0.0,
                               irrationality_violations=[])
    m = dimer_preset(0.5, 0.5)
    assert abs(ids_at_critical(rep, m) - 0.5) < 1e-12


def test_dos_at_critical_values():
    # both dimer phase derivatives equal 1/sqrt(1 - V^2) in the rotation frame
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    coeffs = expansion_coeffs(m, rep)
    n = dos_at_critical(coeffs, m)
    assert abs(n - 1.25 / (2 * np.pi)) < 1e-7
    m2 = dimer_preset(SQ2, 0.5)
    rep2 = find_critical_energies(m2)[-1]
    n2 = dos_at_critical(expansion_coeffs(m2, rep2), m2)
    assert abs(n2 - np.sqrt(2) / (2 * np.pi)) < 1e-6


def test_dos_matches_empirical_derivative():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    n_formula = dos_at_critical(expansion_coeffs(m, rep), m)
    ids = empirical_ids(m, L_ids=2000, seed=3, realization_indices=range(60))
    h = 1e-2
    n_emp = (float(ids.evaluate(rep.energy + h)) - float(ids.evaluate(rep.energy - h))) / (2 * h)
    assert abs(n_emp - n_formula) / n_formula < 0.15


def test_les_sample_empty_below_spectrum():
    m = dimer_preset(0.6, 0.5)
    # fixed energy window far below inf(spectrum): no eigenvalues at all
    s, = les_ensemble(m, -5.0, 2000, 1, 1, window_atoms=5, dos_value=0.2)
    assert s.atoms.size == 0
    # an unfolding window that leaves the pooled IDS raises instead of clamping
    ids = empirical_ids(m, L_ids=500, seed=5, realization_indices=range(30))
    with pytest.raises(ValueError, match="E0=-5.0"):
        les_ensemble(m, -5.0, 2000, 1, 1, window_atoms=5, ids=ids)


def test_les_ensemble_argument_checks():
    m = dimer_preset(0.6, 0.5)
    ids = empirical_ids(m, L_ids=500, seed=5, realization_indices=range(30))
    with pytest.raises(ValueError, match="exactly one"):
        les_ensemble(m, 0.6, 1000, 2, 1, ids=ids, dos_value=0.2)
    with pytest.raises(ValueError, match="exactly one"):
        les_ensemble(m, 0.6, 1000, 2, 1)
    with pytest.raises(ValueError):
        les_ensemble(m, 0.6, 1000, 2, 1, ids=ids, window_atoms=0)


def test_les_unit_intensity_localized():
    m = dimer_preset(0.6, 0.5)
    ids = empirical_ids(m, L_ids=1000, seed=42, realization_indices=range(400))
    samples = les_ensemble(m, 1.2, 1000, 400, 43, window_atoms=8, ids=ids)
    counts = [np.searchsorted(s.atoms, 5.0) - np.searchsorted(s.atoms, -5.0)
              for s in samples]
    assert abs(np.mean(counts) / 10.0 - 1.0) < 0.05


def test_gap_statistics_synthetic_poisson():
    rng = np.random.default_rng(0)
    samples = []
    for r in range(100):
        gaps = rng.exponential(1.0, size=101)
        atoms = np.cumsum(gaps) - 50.0
        samples.append(PointProcessSample(atoms=atoms, center_energy=0.0,
                                          box_sites=1, kind="unfolded",
                                          realization_index=r))
    gs = gap_statistics(samples)
    assert gs.gaps.size == 10000
    assert gs.ks_vs_exp1 < 0.03
    assert abs(gs.mean - 1.0) < 0.05
    assert abs(gs.frac_near_one - (np.exp(-0.9) - np.exp(-1.1))) < 0.02


def test_gap_statistics_clock_prototype():
    rng = np.random.default_rng(1)
    samples = []
    for r in range(20):
        u = rng.random()
        atoms = np.arange(-10, 11) + u
        samples.append(PointProcessSample(atoms=atoms, center_energy=0.0,
                                          box_sites=1, kind="dos_rescaled",
                                          realization_index=r))
    gs = gap_statistics(samples)
    assert np.allclose(gs.gaps, 1.0, atol=1e-12)
    assert gs.frac_near_one == 1.0
    assert gs.ks_vs_degenerate1 <= 0.5 + 1e-12


def test_gap_statistics_insufficient():
    s = PointProcessSample(atoms=np.arange(5.0), center_energy=0.0, box_sites=1,
                           kind="unfolded")
    with pytest.raises(InsufficientDataError):
        gap_statistics([s])


def test_counting_statistics_poisson_and_clock():
    rng = np.random.default_rng(2)
    poisson = []
    for r in range(2000):
        gaps = rng.exponential(1.0, size=61)
        atoms = np.cumsum(gaps) - 30.0
        poisson.append(PointProcessSample(atoms=atoms, center_energy=0.0,
                                          box_sites=1, kind="unfolded",
                                          realization_index=r))
    cs = counting_statistics(poisson, [(-0.5, 0.5), (1.5, 2.5)])
    assert np.all(cs.chi2_pvalues > 0.01)
    assert abs(cs.count_covariance[0, 1]) < 0.05
    # the limit pmf values the chi-square is built against
    assert abs(np.exp(-1.0) - 0.36788) < 1e-4
    assert abs(np.exp(-1.0) / 2 - 0.18394) < 1e-4

    clock = []
    for r in range(600):
        atoms = np.arange(-10, 11) + rng.random()
        clock.append(PointProcessSample(atoms=atoms, center_energy=0.0,
                                        box_sites=1, kind="dos_rescaled",
                                        realization_index=r))
    counts = np.array([np.searchsorted(s.atoms, 0.5) - np.searchsorted(s.atoms, -0.5)
                       for s in clock])
    assert np.all(counts == 1)  # unit interval holds exactly one clock atom


def test_counting_statistics_validation():
    rng = np.random.default_rng(3)
    samples = [PointProcessSample(atoms=np.sort(rng.uniform(-5, 5, 10)),
                                  center_energy=0.0, box_sites=1, kind="unfolded",
                                  realization_index=r) for r in range(600)]
    with pytest.raises(ValueError):
        counting_statistics(samples, [(-1.0, 1.0), (0.5, 2.0)])  # overlap
    with pytest.raises(InsufficientDataError):
        counting_statistics(samples[:100], [(-1.0, 1.0)])


def test_clock_spacing_small_scale():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    sample, summary = clock_spacing_statistic(m, rep, 4000, 40, j_max=10, seed=19)
    assert 0.9 < summary["mean"] < 1.1
    assert summary["num_gaps"] == sample.rescaled_gaps.size
    assert summary["realization_ids"].size == sample.rescaled_gaps.size
    assert np.all(sample.rescaled_gaps > 0)
    # coincident eigenvalues give a zero gap, which is a valid spacing
    assert ClockSpacingSample(rescaled_gaps=[0.0, 1.0]).rescaled_gaps[0] == 0.0
    with pytest.raises(ValueError):
        ClockSpacingSample(rescaled_gaps=[-1.0])


def test_clock_spacing_warns_on_violation():
    m = dimer_preset(SQ2, 0.5)  # eta gap pi/2: violations at k = 4, 8, ...
    rep = find_critical_energies(m)[-1]
    with pytest.warns(UserWarning, match="irrationality"):
        clock_spacing_statistic(m, rep, 1000, 10, j_max=4, seed=3)


def test_uniformity_quick():
    m = dimer_preset(0.6, 0.5)
    rep = find_critical_energies(m)[-1]
    out = uniformity_test(m, rep, 2000, 400, seed=23)
    assert out["ks_statistic"] < 0.1
    assert out["phis"].size == 400
    assert np.all((out["phis"] >= 0) & (out["phis"] < np.pi))


def test_uniformity_synthetic_null():
    from scipy.stats import kstest
    rng = np.random.default_rng(11)
    ks = kstest(rng.random(2000), "uniform").statistic
    assert ks < 0.03


def test_holder_probe_affine():
    ids = affine_ids()
    rep = holder_probe(ids, 0.5, [2.0 ** -k for k in range(3, 9)])
    assert abs(rep.rho1 - 1.0) < 0.05
    assert abs(rep.rho2 - 1.0) < 0.05
    assert rep.satisfies_condition


def test_holder_probe_sqrt_cdf_edge():
    # N(E) = sqrt(E) on [0, 1]; probing at the edge E0 = 0:
    # increments scale like h^{1/2}, inverse increments like k^2
    u = np.linspace(0, 1, 200001)
    pooled = u ** 2
    ids = EmpiricalIDS(pooled=pooled)
    rep = holder_probe(ids, 0.0, [2.0 ** -k for k in range(4, 10)])
    assert abs(rep.rho1 - 0.5) < 0.05
    assert abs(rep.rho2 - 2.0) < 0.1
    assert rep.product > 2.0 / 3.0


def test_holder_probe_diagnostic_on_model():
    m = dimer_preset(0.6, 0.5)
    ids = empirical_ids(m, L_ids=1000, seed=31, realization_indices=range(100))
    rep = holder_probe(ids, 1.2, [2.0 ** -k for k in range(4, 8)])
    assert np.isfinite(rep.rho1) and np.isfinite(rep.rho2)


def test_minami_probe_basics():
    m = dimer_preset(0.6, 0.5)
    out = minami_probe(m, 10000, beta=0.7, gamma=1.0, c2=1.0, realizations=300,
                       E0=1.2, seed=5)
    assert 0.0 <= out["p_ge2"] <= out["p_ge1"] <= 1.0
    far = minami_probe(m, 10000, beta=0.7, gamma=1.0, c2=1.0, realizations=100,
                       E0=-9.0, seed=5)
    assert far["p_ge1"] == 0.0 and far["p_ge2"] == 0.0
    with pytest.raises(ValueError):
        minami_probe(m, 1000, beta=1.2, gamma=1.0, c2=1.0, realizations=10,
                     E0=1.2, seed=1)
    with pytest.raises(ValueError):
        minami_probe(m, 1000, beta=0.5, gamma=1.5, c2=1.0, realizations=10,
                     E0=1.2, seed=1)
    with pytest.raises(ValueError, match="realizations"):
        minami_probe(m, 1000, beta=0.5, gamma=1.0, c2=1.0, realizations=0,
                     E0=1.2, seed=1)


def test_minami_probe_gamma_trend():
    m = dimer_preset(0.6, 0.5)
    p2 = []
    for gamma in (0.6, 0.8, 1.0):
        out = minami_probe(m, 4000, beta=0.6, gamma=gamma, c2=2.0,
                           realizations=1500, E0=1.2, seed=77)
        p2.append(out["p_ge2"])
    assert p2[0] >= p2[1] >= p2[2]
