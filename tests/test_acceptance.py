"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 4-9 run the `polyspec` kinds through `cli.experiment` on the configs below.
Criterion 11b (localized-window transport) reads its Cesaro slope on a later
averaging-time grid than 11a: a Cesaro mean of a bounded moment approaches its
limit only like 1/T, and the localization length grows toward E_c, so the
short grid used for 11a would measure the transient, not the localization.
"""
import time

import numpy as np
import pytest
from scipy.stats import kstest

from polyspec.cli import build_config, experiment
from polyspec.model import dimer_preset, anderson_preset, lattice_for_sites
from polyspec.eigensolve import (build_hamiltonian, gershgorin_interval, sturm_count,
                                 eigenvalues_in_window, dense_oracle)
from polyspec.transfer import find_critical_energies, lyapunov
from polyspec.prufer import phase_shift
from polyspec.statistics import (empirical_ids, ids_at_critical, gap_statistics,
                                 les_ensemble)
from polyspec.transport import transport_exponent

from conftest import ACCEPT_SEED

SQ2 = 1.0 / np.sqrt(2.0)


def _config(kind, seed, **params):
    # every size and threshold is explicit: the kinds' defaults cannot move a gate
    return build_config(kind, {"model": {"preset": "dimer", "V": 0.6, "p": 0.5},
                               "seed": seed, "params": params})


LES_POISSON = _config("les-poisson", ACCEPT_SEED, E0=1.2, L=4000, realizations=1000,
                      window_atoms=12, ids_L=4000, ids_realizations=1200,
                      ks_threshold=0.05, count_intervals=[[-0.5, 0.5], [1.5, 2.5]],
                      chi2_pvalue_min=0.01, covariance_tolerance=0.05)
CLOCK_SPACING = _config("clock-spacing", ACCEPT_SEED, L_list=[5000, 10000, 20000],
                        realizations=200, j_max=20, mean_band=[0.95, 1.05])
UNIFORMITY = _config("uniformity", ACCEPT_SEED + 3, L=10000, realizations=2000,
                     ks_threshold=0.05)
PSI_CONVERGENCE = _config("psi-convergence", ACCEPT_SEED + 4,
                          L_list=[1000, 10000, 100000], realizations=20,
                          x_range=[-5.0, 5.0], x_points=51)


def _report(num, name, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {num:>2} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_critical_energies():
    t0 = time.perf_counter()
    ok = True
    details = []
    for V in (0.3, 0.5, 0.8):
        reps = find_critical_energies(dimer_preset(V, 0.5))
        found = np.array([r.energy for r in reps])
        ok &= found.size == 2
        ok &= bool(np.abs(found - np.array([-V, V])).max() < 1e-8)
        ok &= all(r.residual <= 1e-8 for r in reps)
        details.append(f"V={V}: {np.round(found, 9).tolist()}")
    anderson = find_critical_energies(anderson_preset(0.7, 0.5))
    ok &= anderson == []
    wall = time.perf_counter() - t0
    ok &= wall < 5.0
    assert _report(1, "critical energies", ok,
                   f"{'; '.join(details)}; anderson={len(anderson)}; wall={wall:.1f}s")


def test_criterion_02_lyapunov_dichotomy():
    t0 = time.perf_counter()
    m = dimer_preset(0.5, 0.5)
    g_c, se_c = lyapunov(m, 0.5, steps=10 ** 6, realizations=32, seed=ACCEPT_SEED)
    g_l, se_l = lyapunov(m, 0.8, steps=10 ** 6, realizations=32, seed=ACCEPT_SEED + 1)
    wall = time.perf_counter() - t0
    ok = abs(g_c) < 3 * se_c and g_l > 0 and g_l > 5 * se_l and wall < 30.0
    assert _report(2, "Lyapunov dichotomy", ok,
                   f"L(Ec)={g_c:.2e} ({abs(g_c)/se_c:.1f} sigma), "
                   f"L(0.8)={g_l:.4f} ({g_l/se_l:.0f} sigma), wall={wall:.1f}s")


def test_criterion_03_ids_branch_consistency():
    m = dimer_preset(SQ2, 0.5)
    ids = empirical_ids(m, 2000, ACCEPT_SEED + 2, range(500))
    rep = find_critical_energies(m)[-1]
    formula = ids_at_critical(rep, m)
    emp = float(ids.evaluate(rep.energy))
    branch_err = abs(emp - formula)
    Es = np.linspace(0.0, 2.6, 200)
    sym_err = float(np.abs(ids.evaluate(Es) + ids.evaluate(-Es) - 1.0).max())
    ok = ids.total_count >= 10 ** 6 and branch_err <= 0.01 and sym_err <= 0.01
    assert _report(3, "IDS branch consistency", ok,
                   f"N(+V): empirical={emp:.4f} formula={formula:.4f} "
                   f"(err {branch_err:.4f}); symmetry err={sym_err:.4f}; "
                   f"pooled={ids.total_count}")


def test_acceptance_configs_match_kind_defaults():
    for config in (LES_POISSON, CLOCK_SPACING, UNIFORMITY, PSI_CONVERGENCE):
        default = build_config(config.kind, {})
        assert (config.model, config.params) == (default.model, default.params)


@pytest.fixture(scope="module")
def les_poisson_run():
    """The les-poisson kind: unfolded LES ensemble at E0 = 1.2."""
    return experiment(LES_POISSON)


@pytest.fixture(scope="module")
def clock_spacing_run():
    """The clock-spacing kind at three box sizes, with its wall time."""
    t0 = time.perf_counter()
    return (*experiment(CLOCK_SPACING), time.perf_counter() - t0)


def test_criterion_04_strong_clock(dimer06, clock_spacing_run):
    stats, passes, _, wall = clock_spacing_run
    per_size = stats["per_size"]
    variances = [per_size[L]["variance"] for L in ("5000", "10000", "20000")]
    ok = all(passes.values()) and wall < 300.0
    assert _report(4, "strong clock", ok,
                   f"n(Ec)={dimer06['n_Ec']:.5f}; "
                   f"mean gap(L=2e4)={per_size['20000']['mean']:.4f}; "
                   f"variances={np.round(variances, 5).tolist()}; wall={wall:.0f}s")


def test_criterion_05_poisson_statistics(les_poisson_run):
    stats, passes, _ = les_poisson_run
    ok = all(passes.values()) and stats["num_gaps"] >= 5000
    assert _report(5, "Poisson at noncritical energy", ok,
                   f"gaps={stats['num_gaps']}, KS={stats['ks_vs_exp1']:.4f}, "
                   f"chi2 p={np.round(stats['chi2_pvalues'], 3).tolist()}, "
                   f"cov={stats['count_covariance']:.4f}")


def test_criterion_06_dichotomy_ordering(les_poisson_run, clock_spacing_run):
    poisson, (clock, _, tables, _) = les_poisson_run[0], clock_spacing_run
    # clock-side gap statistics from the pooled rescaled spacings at L = 2e4
    gaps = np.array([g for L, r, g in tables["spacing"][1] if L == 20000])
    ks_clock = float(kstest(gaps, "expon").statistic)
    frac_clock = clock["per_size"]["20000"]["frac_in_band"]
    ok = poisson["ks_vs_exp1"] * 3.0 <= ks_clock
    ok &= frac_clock >= 3.0 * poisson["frac_near_one"]
    assert _report(6, "dichotomy ordering", ok,
                   f"KS(E0=1.2)={poisson['ks_vs_exp1']:.4f} vs KS(Ec)={ks_clock:.4f}; "
                   f"frac(Ec)={frac_clock:.3f} vs frac(1.2)={poisson['frac_near_one']:.3f}")


def test_criterion_07_prufer_uniformity():
    stats, passes, _ = experiment(UNIFORMITY)
    assert _report(7, "Prufer uniformity", all(passes.values()),
                   f"KS={stats['ks_statistic']:.4f} over "
                   f"{stats['num_realizations']} realizations")


def test_criterion_08_psi_convergence():
    stats, passes, _ = experiment(PSI_CONVERGENCE)
    medians = list(stats["medians"].values())
    assert _report(8, "Psi_L convergence", all(passes.values()),
                   f"median sup|Psi-x| = {np.round(medians, 4).tolist()} "
                   f"for L in (1e3, 1e4, 1e5)")


def test_criterion_09_sharpness(dimer06, les_poisson_run):
    model, report, n_Ec = dimer06["model"], dimer06["report"], dimer06["n_Ec"]
    L = 20000
    E0_L = report.energy + L ** (-0.6)
    sharp_samples = les_ensemble(model, E0_L, L, 200, ACCEPT_SEED + 5,
                                 window_atoms=24, dos_value=n_Ec)
    sharp = gap_statistics(sharp_samples)
    control_samples = les_ensemble(model, 1.2, 4000, 500, ACCEPT_SEED + 6,
                                   window_atoms=10, dos_value=n_Ec)
    control = gap_statistics(control_samples)
    control_ks = les_poisson_run[0]["ks_vs_exp1"]
    ok = 0.9 <= sharp.mean <= 1.1
    ok &= not (0.9 <= control.mean <= 1.1)
    ok &= control.frac_near_one < 0.5 * sharp.frac_near_one
    ok &= control_ks < 0.05
    assert _report(9, "sharpness", ok,
                   f"E0(L)=Ec+{L ** (-0.6):.5f}: mean={sharp.mean:.4f} "
                   f"frac={sharp.frac_near_one:.3f}; control mean={control.mean:.4f} "
                   f"frac={control.frac_near_one:.3f}, KS={control_ks:.4f}")


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    max_err = 0.0
    count_mismatches = 0
    for i in range(500):
        L = int(rng.integers(2, 61))
        V = float(rng.uniform(0.1, 0.99))
        model = dimer_preset(V, float(rng.uniform(0.25, 0.75)))
        seq = lattice_for_sites(model, L, seed=int(rng.integers(1 << 30)))
        H = build_hamiltonian(seq)
        lo, hi = gershgorin_interval(H)
        mine = eigenvalues_in_window(H, (lo - 1e-9, hi + 1e-9), tol=1e-12).eigenvalues
        ref = dense_oracle(H)[0].eigenvalues
        if mine.size != L:
            count_mismatches += 1
            continue
        max_err = max(max_err, float(np.abs(mine - ref).max()))
        for E in rng.uniform(lo, hi, size=2):
            if sturm_count(H, float(E)) != int(np.searchsorted(ref, E)):
                count_mismatches += 1
    wall = time.perf_counter() - t0
    ok = max_err < 1e-9 and count_mismatches == 0 and wall < 30.0
    assert _report(10, "oracle equivalence", ok,
                   f"500 instances: max |bisect - oracle| = {max_err:.2e}, "
                   f"count mismatches = {count_mismatches}, wall={wall:.0f}s")


@pytest.fixture(scope="module")
def transport_runs():
    t0 = time.perf_counter()
    m = dimer_preset(0.5, 0.5)
    Ts = [50.0, 80.0, 125.0, 200.0, 300.0, 400.0]
    crit, = transport_exponent(m, 2.0, Ts, box_radius=2000, windows=[(-0.6, 0.6)],
                               realizations=6, seed=ACCEPT_SEED,
                               quadrature_points=800)
    # 11b reads its slope after the Cesaro transient (see its comment); same
    # box, seed and realizations as 11a, quadrature step 2.0 in time.
    late_Ts = [800.0, 1600.0, 3200.0, 6400.0, 12800.0]
    loc, = transport_exponent(m, 2.0, late_Ts, box_radius=2000,
                              windows=[(1.0, 1.6)], realizations=6,
                              seed=ACCEPT_SEED, quadrature_points=6400)
    free, = transport_exponent(anderson_preset(0.0, 0.5), 2.0,
                               [20.0, 40.0, 60.0, 80.0, 100.0], box_radius=1000,
                               realizations=1, seed=ACCEPT_SEED,
                               quadrature_points=500)
    return {"critical": crit, "localized": loc, "free": free,
            "wall": time.perf_counter() - t0}


def test_criterion_11a_transport_critical_window(transport_runs):
    slope = transport_runs["critical"]["slope"]
    wall = transport_runs["wall"]
    ok = slope >= 1.0 and wall < 600.0
    assert _report("11a", "transport, window containing criticals", ok,
                   f"Cesaro slope={slope:.3f} (threshold >= 1.0), "
                   f"total transport wall={wall:.0f}s")


def test_criterion_11b_transport_localized_window(transport_runs):
    # For a bounded moment m(t) the Cesaro mean (1/T) int_0^T m approaches its
    # limit only like 1/T, and near the window's lower edge the localization
    # length grows toward E_c = 0.5 (gamma(1.0) ~ 0.02, xi ~ 50 sites), so the
    # packet settles slowly.  On 11a's grid, T in [50, 400], the fit measures
    # that transient (slope ~0.42); the grid T in [800, 12800] reads the
    # saturated moments, while a delocalized window on it trips the guard.
    run = transport_runs["localized"]
    slope, stderr, Ts = run["slope"], run["stderr"], run["times"]
    ok = slope <= 0.2
    assert _report("11b", "transport, localized window", ok,
                   f"Cesaro slope={slope:.3f} +/- {stderr:.3f} (threshold <= 0.2), "
                   f"T in [{Ts[0]:g}, {Ts[-1]:g}]")


def test_criterion_11c_transport_free_control(transport_runs):
    slope = transport_runs["free"]["slope"]
    ok = abs(slope - 2.0) <= 0.1
    assert _report("11c", "transport, free-chain control", ok,
                   f"Cesaro slope={slope:.4f} (threshold 2.0 +/- 0.1)")


def test_criterion_12_first_order_phase_shift(dimer06):
    model, report, coeffs = dimer06["model"], dimer06["report"], dimer06["coeffs"]
    thetas = np.linspace(0.0, np.pi, 16, endpoint=False)
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    ok = True
    slopes = []
    for sign, eta, d, c in (("plus", report.eta_plus, coeffs.d_plus, coeffs.c_plus),
                            ("minus", report.eta_minus, coeffs.d_minus, coeffs.c_minus)):
        resid = []
        for eps in eps_list:
            S, _ = phase_shift(model, report, sign, eps, thetas)
            pred = thetas + eta + eps * d - eps * np.imag(c * np.exp(2j * thetas))
            resid.append(np.abs(S - pred).max())
        slope = float(np.polyfit(np.log(eps_list), np.log(resid), 1)[0])
        slopes.append(slope)
        ok &= abs(slope - 2.0) <= 0.1
    assert _report(12, "first-order phase shift", ok,
                   f"residual log-log slopes = {np.round(slopes, 3).tolist()} "
                   f"(threshold 2.0 +/- 0.1)")
