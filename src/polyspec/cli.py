"""Experiment driver: configured, reproducible runs with CSV/JSON outputs.

Usage: polyspec <kind> [--config cfg.json] [--seed N] [--out DIR]
[--param key=value ...].  Exit code 0 when all configured statistical checks
pass, 2 when any fails, 1 on configuration or runtime errors.  Each kind
calls its library ensemble once for all realizations; every realization
draws from its own counter-based substream, so identical configs produce
byte-identical outputs.  Summaries are strict JSON: an undefined statistic
is written as null.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .model import PolymerModel, model_from_dict, anderson_preset
from .transfer import find_critical_energies, expansion_coeffs, lyapunov
from .statistics import (empirical_ids, windowed_ids, ids_at_critical, dos_at_critical,
                         les_ensemble, gap_statistics, counting_statistics,
                         clock_spacing_statistic, uniformity_test, psi_errors,
                         holder_probe, minami_probe, COUNTING_MIN_SAMPLES)
from .transport import transport_exponent

__all__ = ["ExperimentConfig", "RunReport", "validate", "experiment", "run", "main",
           "KINDS"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: dict
    params: dict
    seed: int
    out: str

    def semantic_dict(self) -> dict:
        """The fields that determine the results; out does not."""
        return {"kind": self.kind, "model": self.model, "params": self.params,
                "seed": self.seed}


@dataclass(frozen=True)
class RunReport:
    config: dict
    config_hash: str
    version: str
    statistics: dict
    passes: dict
    passed: bool
    wall_seconds: float
    files: list


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.semantic_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if x is None:  # an undefined value is an empty field
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows, config_hash: str) -> None:
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# defaults and validation

_COMMON_DEFAULTS = {"seed": 20240801, "out": "polyspec-out"}
_CONFIG_KEYS = {"kind", "model", "params", *_COMMON_DEFAULTS}

_KIND_DEFAULTS = {
    "critical": {
        "model": {"preset": "dimer", "V": 0.5, "p": 0.5},
        # search null: both polymers' padded Gershgorin bound
        "params": {"search": None, "grid": 20001, "tol": 1e-9,
                   "irr_k_max": 64},
    },
    "lyapunov": {
        "model": {"preset": "dimer", "V": 0.5, "p": 0.5},
        "params": {"energies": [0.5, 0.8], "steps": 1000000, "realizations": 32},
    },
    "ids": {
        "model": {"preset": "dimer", "V": 0.7071067811865476, "p": 0.5},
        "params": {"L_ids": 2000, "realizations": 500, "probe_energies": None,
                   "branch_tolerance": 0.01, "symmetry_tolerance": 0.01},
    },
    "les-poisson": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        # the IDS pool must use the same box size as the LES boxes: finite-size
        # IDS corrections are O(1/L) and shift unfolded atoms by O(1) otherwise
        "params": {"E0": 1.2, "L": 4000, "realizations": 1000, "window_atoms": 12,
                   "ids_L": 4000, "ids_realizations": 1200, "ks_threshold": 0.05,
                   "count_intervals": [[-0.5, 0.5], [1.5, 2.5]],
                   "chi2_pvalue_min": 0.01, "covariance_tolerance": 0.05},
    },
    "les-clock": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"L": 20000, "realizations": 200, "window_atoms": 24,
                   "mean_band": [0.95, 1.05]},
    },
    "clock-spacing": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"L_list": [5000, 10000, 20000], "realizations": 200,
                   "j_max": 20, "mean_band": [0.95, 1.05]},
    },
    "uniformity": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"L": 10000, "realizations": 2000, "ks_threshold": 0.05},
    },
    "psi-convergence": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"L_list": [1000, 10000, 100000], "realizations": 20,
                   "x_range": [-5.0, 5.0], "x_points": 51},
    },
    "sharpness": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"delta": 0.6, "L": 20000, "realizations": 200, "j_max": 20,
                   "mean_band": [0.9, 1.1], "control_E0": 1.2,
                   "control_L": 4000, "control_realizations": 500,
                   "control_window_atoms": 10, "ids_L": 4000,
                   "ids_realizations": 1200, "ks_threshold": 0.05},
    },
    "minami-probe": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"L": 10000, "beta": 0.7, "gamma": 1.0, "c2": 1.0,
                   "realizations": 2000, "E0": 1.2},
    },
    "holder-probe": {
        "model": {"preset": "dimer", "V": 0.6, "p": 0.5},
        "params": {"E0": 1.2, "scales": [2.0 ** -k for k in range(4, 10)],
                   "ids_L": 2000, "ids_realizations": 200},
    },
    "transport": {
        "model": {"preset": "dimer", "V": 0.5, "p": 0.5},
        "params": {"q": 2.0, "box_radius": 2000,
                   "T_grid": [50.0, 80.0, 125.0, 200.0, 300.0, 400.0],
                   "critical_window": [-0.6, 0.6], "localized_window": [1.0, 1.6],
                   "realizations": 6, "quadrature_points": 800,
                   "averaging": "cesaro", "critical_slope_min": 1.0,
                   "localized_slope_max": 0.2, "free_slope_tolerance": 0.1,
                   "free_box_radius": 1000, "free_T_grid": [20.0, 40.0, 60.0, 80.0, 100.0]},
    },
}

KINDS = tuple(sorted(_KIND_DEFAULTS))

# counts below which a run always fails: the critical scan needs two grid
# points; the Lyapunov estimate drops the first half of the steps and its
# stderr needs two realizations; les-poisson's counting test needs its minimum
_LEAST = {"critical": {"grid": 2}, "lyapunov": {"steps": 2, "realizations": 2},
          "les-poisson": {"realizations": COUNTING_MIN_SAMPLES}}


def build_config(kind: str, raw: dict) -> ExperimentConfig:
    if kind not in _KIND_DEFAULTS:
        raise ConfigError(f"unknown kind {kind!r}; available: {list(KINDS)}")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; "
                          f"allowed: {sorted(_CONFIG_KEYS)}")
    defaults = _KIND_DEFAULTS[kind]
    params = dict(defaults["params"])
    params.update(raw.get("params", {}))
    return ExperimentConfig(
        kind=kind,
        model=raw.get("model", defaults["model"]),
        params=params,
        seed=int(raw.get("seed", _COMMON_DEFAULTS["seed"])),
        out=str(raw.get("out", _COMMON_DEFAULTS["out"])),
    )


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and cross-field diagnostics; an empty list means valid."""
    diags = []
    if config.kind not in _KIND_DEFAULTS:
        diags.append(f"kind: unknown {config.kind!r}; available: {list(KINDS)}")
        return diags
    try:
        model_from_dict(config.model)
    except (ValueError, TypeError) as e:
        diags.append(f"model: {e}")
    known = set(_KIND_DEFAULTS[config.kind]["params"])
    for key in config.params:
        if key not in known:
            diags.append(f"params.{key}: unknown parameter for kind {config.kind!r}")
    p = config.params
    if config.kind == "sharpness" and not _float(p.get("delta", 1.0)) > 0.5:
        diags.append("params.delta: delta must exceed 1/2")
    if config.kind == "minami-probe":
        if not (0.0 < _float(p.get("beta", 0.5)) < 1.0):
            diags.append("params.beta: beta must lie in (0, 1)")
        if not (0.0 < _float(p.get("gamma", 1.0)) <= 1.0):
            diags.append("params.gamma: gamma must lie in (0, 1]")
        if not _positive(p.get("c2", 1.0)):
            diags.append("params.c2: c2 must be positive")
    for key, least in _LEAST.get(config.kind, {}).items():
        if _positive_int(p.get(key)) and int(p[key]) < least:
            diags.append(f"params.{key}: must be at least {least}")
    if config.kind == "transport":
        if not _positive(p.get("q", 2.0)):
            diags.append("params.q: q must be positive")
        if p.get("averaging", "cesaro") not in ("cesaro", "abel"):
            diags.append("params.averaging: must be 'cesaro' or 'abel'")
        for key in ("T_grid", "free_T_grid"):
            if key in p and not _time_grid(p[key]):
                diags.append(f"params.{key}: must hold at least two distinct times, "
                             "all positive")
        quad = p.get("quadrature_points")
        if _positive_int(quad) and int(quad) < 2:
            diags.append("params.quadrature_points: must be at least 2")
        elif _positive_int(quad) and p.get("averaging") != "abel":
            # Cesàro values share the grid of quadrature_points times on
            # [0, max T]; a T below its second point would average nothing
            for key in ("T_grid", "free_T_grid"):
                if _time_grid(p.get(key)):
                    Ts = [float(T) for T in p[key]]
                    if min(Ts) < max(Ts) / (int(quad) - 1):
                        diags.append(
                            f"params.{key}: every time must be at least max T / "
                            f"(quadrature_points - 1) = {max(Ts) / (int(quad) - 1)!r}, "
                            "so that [0, T] holds two quadrature points")
    # every integer size or count, the parameters with int defaults, must be positive
    for key, default in _KIND_DEFAULTS[config.kind]["params"].items():
        if type(default) is int and key in p and p[key] is not None \
                and not _positive_int(p[key]):
            diags.append(f"params.{key}: must be a positive integer")
    if p.get("search") is not None and not _interval(p["search"]):
        diags.append("params.search: must be null or [lo, hi] with lo < hi")
    if "L_list" in p and not (isinstance(p["L_list"], list) and p["L_list"]
                              and all(_positive_int(L) for L in p["L_list"])):
        diags.append("params.L_list: must be a nonempty list of positive integers")
    return diags


def _interval(x) -> bool:
    try:
        return len(x) == 2 and float(x[0]) < float(x[1])
    except (TypeError, ValueError):
        return False


def _float(x) -> float:
    """x as a float; NaN, which fails every range check, if it is no number."""
    try:
        return float(x)
    except (TypeError, ValueError):
        return math.nan


def _positive(x) -> bool:
    return _float(x) > 0.0


def _time_grid(x) -> bool:
    return (isinstance(x, list) and all(_positive(T) for T in x)
            and len({float(T) for T in x}) >= 2)


def _positive_int(x) -> bool:
    try:
        return int(x) >= 1
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# experiment implementations: each returns (stats, passes, tables)

def _single_report(model: PolymerModel):
    """The highest critical energy in the polymers' Gershgorin bound."""
    reports = find_critical_energies(model)
    if not reports:
        raise ConfigError("model has no critical energy")
    return max(reports, key=lambda r: r.energy)


def _exp_critical(model, params, seed):
    search = None if params["search"] is None else tuple(params["search"])
    reports = find_critical_energies(model, search=search,
                                     grid=int(params["grid"]), tol=params["tol"],
                                     irr_k_max=int(params["irr_k_max"]))
    rows, irr_rows, stats = [], [], []
    for rep in reports:
        coeffs = expansion_coeffs(model, rep)
        n_c = dos_at_critical(coeffs, model)
        N_c = ids_at_critical(rep, model)
        rows.append((rep.energy, rep.kind_plus, rep.kind_minus, rep.eta_plus,
                     rep.eta_minus, rep.commutator_norm, rep.residual,
                     coeffs.d_plus, coeffs.d_minus, n_c, N_c))
        irr_rows.extend((rep.energy, k, m) for k, m in rep.irrationality_violations)
        stats.append({"energy": rep.energy, "eta_plus": rep.eta_plus,
                      "eta_minus": rep.eta_minus, "dos": n_c, "ids": N_c,
                      "irrationality_violations": rep.irrationality_violations})
    tables = {
        "critical_energies": (["energy", "kind_plus", "kind_minus", "eta_plus",
                               "eta_minus", "commutator_norm", "residual",
                               "d_plus", "d_minus", "dos_critical", "ids_critical"],
                              rows),
        "irrationality": (["energy", "k", "modulus"], irr_rows),
    }
    return {"reports": stats, "count": len(reports)}, {}, tables


def _exp_lyapunov(model, params, seed):
    steps = int(params["steps"])
    R = int(params["realizations"])
    rows, stats = [], {}
    for E in params["energies"]:
        g, se = lyapunov(model, float(E), steps, R, seed)
        rows.append((E, g, se, steps, R))
        stats[str(E)] = {"gamma": g, "stderr": se}
    return stats, {}, {"lyapunov": (["energy", "gamma", "stderr", "steps",
                                     "realizations"], rows)}


def _exp_ids(model, params, seed):
    ids = empirical_ids(model, int(params["L_ids"]), seed,
                        range(int(params["realizations"])))
    pooled = ids.pooled
    grid = np.linspace(pooled[0], pooled[-1], 513)
    curve_rows = [(float(E), float(N)) for E, N in zip(grid, ids.evaluate(grid))]
    sym_grid = np.linspace(0.0, float(np.abs(pooled).max()), 129)
    sym_err = float(np.abs(ids.evaluate(sym_grid) + ids.evaluate(-sym_grid) - 1.0).max())
    reports = find_critical_energies(model)
    probe_rows = []
    branch_err = 0.0
    for rep in reports:
        formula = ids_at_critical(rep, model)
        emp = float(ids.evaluate(rep.energy))
        probe_rows.append((rep.energy, emp, formula))
        branch_err = max(branch_err, abs(emp - formula))
    extra = params.get("probe_energies") or []
    probe_rows.extend((float(E), float(ids.evaluate(E)), None) for E in extra)
    stats = {"pooled_count": int(pooled.size), "symmetry_error": sym_err,
             "branch_error": branch_err,
             "probes": [{"energy": r[0], "empirical": r[1], "formula": r[2]}
                        for r in probe_rows]}
    passes = {}
    if reports:
        passes["branch_consistency"] = branch_err <= params["branch_tolerance"]
    if _symmetric_law(model):
        passes["symmetry"] = sym_err <= params["symmetry_tolerance"]
    tables = {"ids_curve": (["energy", "N"], curve_rows),
              "ids_probes": (["energy", "N_empirical", "N_formula"], probe_rows)}
    return stats, passes, tables


def _symmetric_law(model) -> bool:
    """Whether the disorder law is invariant under v -> -v, so that
    N(E) + N(-E) = 1: every potential is 0, or p_plus = 1/2 and the minus
    polymer is the plus one with negated potentials and the same hoppings."""
    if not (np.any(model.plus.potentials) or np.any(model.minus.potentials)):
        return True
    return (abs(model.p_plus - 0.5) < 1e-12
            and np.array_equal(model.minus.potentials, -model.plus.potentials)
            and np.array_equal(model.minus.hoppings, model.plus.hoppings))


def _ids_indices(params):
    # the IDS pool draws from a shifted substream block so it stays
    # independent of the LES realizations
    return range(10 ** 6, 10 ** 6 + int(params["ids_realizations"]))


def _build_ids(model, params, seed, E0, half_width):
    """The pooled IDS that unfolding at E0 reads, within +-half_width of N(E0)."""
    return windowed_ids(model, int(params["ids_L"]), seed, _ids_indices(params),
                        E0, half_width)


def _gap_rows(samples, *prefix):
    return [(*prefix, s.realization_index, float(g))
            for s in samples for g in np.diff(s.atoms)]


def _les_outputs(samples):
    """Gap statistics and the gaps/atoms tables that both LES kinds write."""
    gs = gap_statistics(samples)
    stats = {"num_gaps": int(gs.gaps.size), "gap_mean": gs.mean,
             "ks_vs_exp1": gs.ks_vs_exp1, "frac_near_one": gs.frac_near_one}
    atom_rows = [(s.realization_index, float(a)) for s in samples for a in s.atoms]
    return gs, stats, {"gaps": (["realization", "gap"], _gap_rows(samples)),
                       "atoms": (["realization", "atom"], atom_rows)}


def _exp_les_poisson(model, params, seed):
    E0, L, window_atoms = float(params["E0"]), int(params["L"]), int(params["window_atoms"])
    ids = _build_ids(model, params, seed, E0, window_atoms / L)
    samples = les_ensemble(model, E0, L, int(params["realizations"]), seed,
                           window_atoms=window_atoms, ids=ids)
    gs, stats, tables = _les_outputs(samples)
    cs = counting_statistics(samples, params["count_intervals"])
    cov_off = float(cs.count_covariance[0, 1]) if len(cs.intervals) > 1 else 0.0
    stats.update(num_samples=len(samples), chi2_pvalues=cs.chi2_pvalues.tolist(),
                 count_covariance=cov_off)
    passes = {"ks_exp1": gs.ks_vs_exp1 < params["ks_threshold"],
              "counting_chi2": bool(np.all(cs.chi2_pvalues > params["chi2_pvalue_min"])),
              "count_covariance": abs(cov_off) <= params["covariance_tolerance"]}
    count_rows = [(s.realization_index, iv[0], iv[1], int(cs.counts[i, j]))
                  for i, s in enumerate(samples) for j, iv in enumerate(cs.intervals)]
    tables["counts"] = (["realization", "interval_lo", "interval_hi", "count"], count_rows)
    return stats, passes, tables


def _exp_les_clock(model, params, seed):
    report = _single_report(model)
    if report.irrationality_violations:
        warnings.warn("irrationality condition fails for this model; "
                      "clock statistics may not converge", stacklevel=2)
    samples = les_ensemble(model, report.energy, int(params["L"]),
                           int(params["realizations"]), seed,
                           window_atoms=int(params["window_atoms"]),
                           dos_value=dos_at_critical(expansion_coeffs(model, report), model))
    gs, stats, tables = _les_outputs(samples)
    stats.update(critical_energy=report.energy,
                 irrationality_violations=report.irrationality_violations)
    lo, hi = params["mean_band"]
    return stats, {"mean_in_band": lo <= gs.mean <= hi}, tables


def _exp_clock_spacing(model, params, seed):
    report = _single_report(model)
    R = int(params["realizations"])
    j_max = int(params["j_max"])
    rows = []
    per_size = {}
    for L in params["L_list"]:
        sample, summary = clock_spacing_statistic(model, report, int(L), R, j_max, seed)
        per_size[str(int(L))] = {k: summary[k] for k in
                                 ("mean", "variance", "frac_in_band", "num_gaps")}
        rows.extend((int(L), int(r), float(g)) for r, g in
                    zip(summary["realization_ids"], sample.rescaled_gaps))
    lo, hi = params["mean_band"]
    sizes = [str(int(L)) for L in params["L_list"]]
    variances = [per_size[s]["variance"] for s in sizes]
    largest = per_size[sizes[-1]]
    passes = {"mean_in_band": largest["mean"] is not None and lo <= largest["mean"] <= hi,
              "variance_decreasing": None not in variances
              and all(a > b for a, b in zip(variances, variances[1:]))}
    stats = {"critical_energy": report.energy, "per_size": per_size}
    return stats, passes, {"spacing": (["L_sites", "realization", "gap"], rows)}


def _exp_uniformity(model, params, seed):
    report = _single_report(model)
    R = int(params["realizations"])
    out = uniformity_test(model, report, int(params["L"]), R, seed)
    phis, ks = out["phis"], out["ks_statistic"]
    stats = {"critical_energy": report.energy, "ks_statistic": ks,
             "num_realizations": R,
             "irrationality_violations": report.irrationality_violations}
    passes = {"ks_uniform": ks < params["ks_threshold"]}
    rows = [(r, float(phi / np.pi)) for r, phi in enumerate(phis)]
    return stats, passes, {"phis": (["realization", "phi_over_pi"], rows)}


def _exp_psi_convergence(model, params, seed):
    report = _single_report(model)
    n_Ec = dos_at_critical(expansion_coeffs(model, report), model)
    xs = np.linspace(params["x_range"][0], params["x_range"][1],
                     int(params["x_points"]))
    R = int(params["realizations"])
    rows = []
    medians = {}
    for L in params["L_list"]:
        L = int(L)
        errs = psi_errors(model, report, L, xs, R, seed)
        medians[str(L)] = float(np.median(errs))
        rows.extend((L, r, float(e)) for r, e in enumerate(errs))
    med_list = [medians[str(int(L))] for L in params["L_list"]]
    passes = {"monotone_decreasing": all(a > b for a, b in zip(med_list, med_list[1:]))}
    stats = {"critical_energy": report.energy, "dos_critical": n_Ec, "medians": medians}
    return stats, passes, {"psi_errors": (["L_sites", "realization", "sup_abs_err"],
                                          rows)}


def _exp_sharpness(model, params, seed):
    report = _single_report(model)
    n_Ec = dos_at_critical(expansion_coeffs(model, report), model)
    L = int(params["L"])
    delta = float(params["delta"])
    E0_L = report.energy + L ** (-delta)
    # clock-like run centered at the drifting energy E0(L)
    sharp_samples = les_ensemble(model, E0_L, L, int(params["realizations"]), seed,
                                 window_atoms=int(params["j_max"]) + 4, dos_value=n_Ec)
    sharp = gap_statistics(sharp_samples)

    # Poisson control at a fixed noncritical energy, unfolded for the KS test
    # and rescaled with the critical DOS as the clock test would be
    control_E0, control_L = float(params["control_E0"]), int(params["control_L"])
    control = (model, control_E0, control_L, int(params["control_realizations"]), seed)
    control_atoms = int(params["control_window_atoms"])
    control_ids = _build_ids(model, params, seed, control_E0, control_atoms / control_L)
    control_unfolded = gap_statistics(les_ensemble(
        *control, window_atoms=control_atoms, ids=control_ids))
    control_resc_samples = les_ensemble(*control, window_atoms=control_atoms,
                                        dos_value=n_Ec)
    control_resc = gap_statistics(control_resc_samples)

    lo, hi = params["mean_band"]
    stats = {"E0_of_L": E0_L, "sharp_gap_mean": sharp.mean,
             "sharp_frac_near_one": sharp.frac_near_one,
             "control_rescaled_mean": control_resc.mean,
             "control_frac_near_one": control_resc.frac_near_one,
             "control_ks_exp1": control_unfolded.ks_vs_exp1}
    passes = {
        "sharp_mean_in_band": lo <= sharp.mean <= hi,
        "control_fails_band": not (lo <= control_resc.mean <= hi)
                              and control_resc.frac_near_one < 0.5 * sharp.frac_near_one,
        "control_ks_exp1": control_unfolded.ks_vs_exp1 < params["ks_threshold"],
    }
    rows = _gap_rows(sharp_samples, "sharp") + _gap_rows(control_resc_samples, "control")
    return stats, passes, {"sharp_gaps": (["regime", "realization", "gap"], rows)}


def _exp_minami(model, params, seed):
    out = minami_probe(model, int(params["L"]), float(params["beta"]),
                       float(params["gamma"]), float(params["c2"]),
                       int(params["realizations"]), float(params["E0"]), seed)
    p1, p2 = out["p_ge1"], out["p_ge2"]
    stats = {"box_sites": out["box_sites"], "interval": list(out["interval"]),
             "p_ge1": p1, "p_ge2": p2,
             "ratio_p2_over_p1sq": p2 / p1 ** 2 if p1 > 0 else None}
    rows = [(r, int(c)) for r, c in enumerate(out["counts"])]
    return stats, {}, {"counts": (["realization", "count"], rows)}


def _exp_holder(model, params, seed):
    ids = empirical_ids(model, int(params["ids_L"]), seed, _ids_indices(params))
    rep = holder_probe(ids, float(params["E0"]), params["scales"])
    stats = {"rho1": rep.rho1, "rho2": rep.rho2, "product": rep.product,
             "satisfies_condition": rep.satisfies_condition}
    rows = [(float(h), float(a), float(b))
            for h, a, b in zip(rep.scales, rep.dN, rep.dE_inverse)]
    return stats, {}, {"increments": (["scale", "dN", "dE_inverse"], rows)}


def _exp_transport(model, params, seed):
    averaging, q = params["averaging"], float(params["q"])
    common = {"seed": seed, "averaging": averaging,
              "quadrature_points": int(params["quadrature_points"])}
    windows = (tuple(params["critical_window"]), tuple(params["localized_window"]))
    crit, loc = transport_exponent(
        model, q, [float(x) for x in params["T_grid"]], int(params["box_radius"]),
        windows=windows, realizations=int(params["realizations"]), **common)
    free, = transport_exponent(
        anderson_preset(0.0, 0.5), q, [float(x) for x in params["free_T_grid"]],
        int(params["free_box_radius"]), realizations=1, **common)
    runs = {"critical_window": crit, "localized_window": loc, "free_chain": free}
    rows = [(name, r, float(T), float(val)) for name, res in runs.items()
            for r, curve in enumerate(res["curves"])
            for T, val in zip(curve.times, curve.values)]
    passes = {
        "critical_slope": crit["slope"] >= params["critical_slope_min"],
        "localized_slope": loc["slope"] <= params["localized_slope_max"],
        "free_slope": abs(free["slope"] - 2.0) <= params["free_slope_tolerance"],
    }
    stats = {name: {"slope": res["slope"], "stderr": res["stderr"],
                    "per_realization": res["per_realization"].tolist()}
             for name, res in runs.items()}
    srows = [(name, res["slope"], res["stderr"]) for name, res in runs.items()]
    tables = {"moments": (["window", "realization", "T", "moment"], rows),
              "slopes": (["window", "slope", "stderr"], srows)}
    return stats, passes, tables


_EXPERIMENTS = {
    "critical": _exp_critical,
    "lyapunov": _exp_lyapunov,
    "ids": _exp_ids,
    "les-poisson": _exp_les_poisson,
    "les-clock": _exp_les_clock,
    "clock-spacing": _exp_clock_spacing,
    "uniformity": _exp_uniformity,
    "psi-convergence": _exp_psi_convergence,
    "sharpness": _exp_sharpness,
    "minami-probe": _exp_minami,
    "holder-probe": _exp_holder,
    "transport": _exp_transport,
}


def experiment(config: ExperimentConfig):
    """Validate one configured experiment and run it: (stats, passes, tables)."""
    diags = validate(config)
    if diags:
        raise ConfigError("; ".join(diags))
    model = model_from_dict(config.model)
    return _EXPERIMENTS[config.kind](model, config.params, config.seed)


def run(config: ExperimentConfig) -> RunReport:
    """Execute one configured experiment and write its CSV/JSON outputs."""
    t0 = time.perf_counter()
    stats, passes, tables = experiment(config)
    wall = time.perf_counter() - t0
    chash = _config_hash(config)
    passed = all(passes.values()) if passes else True
    summary = {
        "config": config.semantic_dict(),
        "config_hash": chash,
        "version": __version__,
        "kind": config.kind,
        "statistics": stats,
        "passes": passes,
        "pass": passed,
    }
    # serialize first: a summary that is not strict JSON must leave no new CSVs
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default) + "\n"
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    prefix = config.kind.replace("-", "_")
    for name, (header, rows) in tables.items():
        path = outdir / f"{prefix}_{name}.csv"
        _write_csv(path, header, rows, chash)
        files.append(str(path))
    spath = outdir / f"{prefix}_summary.json"
    spath.write_text(text)
    files.append(str(spath))
    return RunReport(config=asdict(config), config_hash=chash, version=__version__,
                     statistics=stats, passes=passes, passed=passed,
                     wall_seconds=wall, files=files)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polyspec",
                                     description="Random polymer model experiments")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS + ("validate",):
        sp = sub.add_parser(kind)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="override one params entry "
                        "(VALUE parsed as JSON, falling back to string)")
    args = parser.parse_args(argv)

    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 1
    kind = args.kind if args.kind != "validate" else raw.get("kind")
    if kind is None:
        print("error: validate requires a config file with a 'kind' field",
              file=sys.stderr)
        return 1
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    params = dict(raw.get("params", {}))
    for item in args.param:
        if "=" not in item:
            print(f"error: --param expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 1
        key, _, val = item.partition("=")
        try:
            params[key] = json.loads(val)
        except json.JSONDecodeError:
            params[key] = val
    raw["params"] = params

    try:
        config = build_config(kind, raw)
        if args.kind == "validate":
            diags = validate(config)
            print("\n".join(diags + ["valid" if not diags else f"{len(diags)} problem(s)"]))
            return 0 if not diags else 1
        report = run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - surface with experiment context
        print(f"error [{kind}]: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"kind": report.config["kind"], "config_hash": report.config_hash,
                      "pass": report.passed, "passes": report.passes,
                      "wall_seconds": round(report.wall_seconds, 3),
                      "files": report.files}, indent=2))
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
