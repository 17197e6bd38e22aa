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
import locale  # noqa: F401 - argparse's first parser loads it; at import, not in a run
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .model import PolymerModel, model_from_dict, anderson_preset
from .transfer import critical_tol_floor, find_critical_energies, expansion_coeffs, lyapunov
from .statistics import (windowed_ids, pointwise_ids, ids_at_critical,
                         dos_at_critical, les_ensemble, gap_statistics, counting_statistics,
                         clock_spacing_statistic, uniformity_test, psi_errors,
                         holder_probe, minami_probe, COUNTING_MIN_SAMPLES)
from .transport import ABEL_TRUNCATION, _GUARD_FRACTION, transport_exponent

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


def _fields(column) -> list[str]:
    """_fmt of every value of one table column.  A column of only floats,
    only integers or only str/bool is formatted by one str map: .tolist()
    makes numpy float64/int64 values Python ones, whose str is _fmt's."""
    kinds = set(map(type, column))
    if not any(kinds <= same for same in ({float, np.float64}, {int, np.int64}, {str, bool})):
        return list(map(_fmt, column))
    if kinds & {np.float64, np.int64}:
        column = np.array(column).tolist()
    return list(map(str, column))


def _write_csv(path: Path, header, rows, config_hash: str) -> None:
    columns = [_fields(c) for c in zip(*rows)]
    lines = [f"# config_hash={config_hash}", ",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the parameter table and validation

_COMMON_DEFAULTS = {"seed": 20240801, "out": "polyspec-out"}
_CONFIG_KEYS = {"kind", "model", "params", *_COMMON_DEFAULTS}


class Param(NamedTuple):
    """A parameter's default and the values it accepts.  shape "int": an integer
    >= low (JSON 1e3 counts, a bool does not); "real": a finite number from low
    to high, each end open or closed as `ends` says; "pair": finite [lo, hi],
    lo < hi; "choice": one of `choices`.  With `items` set, a list of at least
    that many entries, all different if `distinct`.  A null default allows null."""
    default: object
    shape: str
    low: float = -math.inf
    high: float = math.inf
    ends: str = "()"
    choices: tuple = ()
    items: int | None = None
    distinct: bool = False

    def entry_ok(self, x) -> bool:
        if self.shape == "int":
            return _integral(x) and x >= self.low
        if self.shape == "real":
            return _finite(x) and (self.low < x if self.ends[0] == "(" else self.low <= x) \
                and (x < self.high if self.ends[1] == ")" else x <= self.high)
        if self.shape == "pair":
            return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_finite, x)) \
                and x[0] < x[1]
        return x in self.choices

    def accepts(self, x) -> bool:
        if x is None or self.items is None:
            return (x is None and self.default is None) or self.entry_ok(x)
        return (isinstance(x, list) and len(x) >= self.items and all(map(self.entry_ok, x))
                and not (self.distinct and len(set(map(float, x))) < len(x)))

    def wants(self) -> str:
        """What the parameter accepts, in words."""
        lo, hi = f"{self.ends[0]}{self.low!r}", f"{self.high!r}{self.ends[1]}"
        want = {"int": f"an integer >= {self.low}", "real": f"a finite number in {lo}, {hi}",
                "pair": "[lo, hi] with finite lo < hi",
                "choice": f"one of {self.choices}"}[self.shape]
        if self.items is not None:
            want = f"a list of {self.items}+ {'distinct ' * self.distinct}entries, each {want}"
        return "null or " + want if self.default is None else want


def _int(default, low=1, **listing) -> Param:
    return Param(default, "int", low, **listing)


def _real(default, low=-math.inf, high=math.inf, ends="()", **listing) -> Param:
    return Param(default, "real", low, high, ends, **listing)


_SLOPE_GRID = {"low": 0.0, "items": 2, "distinct": True}  # a slope needs two points
_KS = {"low": 0.0, "high": 1.0, "ends": "(]"}
_TOL = {"low": 0.0, "ends": "[)"}
# each kind's model is the dimer at p = 1/2, with V = 0.6 unless listed here
_DIMER_V = {"critical": 0.5, "lyapunov": 0.5, "ids": 0.7071067811865476, "transport": 0.5}

_KIND_TABLE = {
    # search null: both polymers' padded Gershgorin bound; a scan needs two points
    "critical": {"search": Param(None, "pair"), "grid": _int(20001, 2),
                 "tol": _real(1e-9, 0.0), "irr_k_max": _int(64)},
    # the estimate drops the first half of the steps, and its stderr needs
    # two realizations; the statistics are keyed by energy
    "lyapunov": {"energies": _real([0.5, 0.8], items=1, distinct=True),
                 "steps": _int(1000000, 2), "realizations": _int(32, 2)},
    "ids": {"L_ids": _int(2000), "realizations": _int(500),
            "probe_energies": _real(None, items=0), "branch_tolerance": _real(0.01, **_TOL),
            "symmetry_tolerance": _real(0.01, **_TOL)},
    # the IDS pool must use the same box size as the LES boxes: finite-size
    # IDS corrections are O(1/L) and shift unfolded atoms by O(1) otherwise;
    # the counting test needs its least number of samples
    "les-poisson": {"E0": _real(1.2), "L": _int(4000), "window_atoms": _int(12),
                    "realizations": _int(1000, COUNTING_MIN_SAMPLES), "ids_L": _int(4000),
                    "ids_realizations": _int(1200), "ks_threshold": _real(0.05, **_KS),
                    "count_intervals": Param([[-0.5, 0.5], [1.5, 2.5]], "pair", items=1),
                    "chi2_pvalue_min": _real(0.01, 0.0, 1.0, "[)"),
                    "covariance_tolerance": _real(0.05, **_TOL)},
    "les-clock": {"L": _int(20000), "realizations": _int(200), "window_atoms": _int(24),
                  "mean_band": Param([0.95, 1.05], "pair")},
    # a trend in L needs two sizes
    "clock-spacing": {"L_list": _int([5000, 10000, 20000], items=2, distinct=True),
                      "realizations": _int(200), "j_max": _int(20),
                      "mean_band": Param([0.95, 1.05], "pair")},
    "uniformity": {"L": _int(10000), "realizations": _int(2000),
                   "ks_threshold": _real(0.05, **_KS)},
    # and the x grid reaches both ends of x_range
    "psi-convergence": {"L_list": _int([1000, 10000, 100000], items=2, distinct=True),
                        "realizations": _int(20), "x_range": Param([-5.0, 5.0], "pair"),
                        "x_points": _int(51, 2)},
    "sharpness": {"delta": _real(0.6, 0.5), "L": _int(20000), "realizations": _int(200),
                  "j_max": _int(20), "mean_band": Param([0.9, 1.1], "pair"),
                  "control_E0": _real(1.2), "control_L": _int(4000),
                  "control_realizations": _int(500), "control_window_atoms": _int(10),
                  "ids_L": _int(4000), "ids_realizations": _int(1200),
                  "ks_threshold": _real(0.05, **_KS)},
    "minami-probe": {"L": _int(10000), "beta": _real(0.7, 0.0, 1.0),
                     "gamma": _real(1.0, 0.0, 1.0, "(]"), "c2": _real(1.0, 0.0),
                     "realizations": _int(2000), "E0": _real(1.2)},
    # each slope is a regression on two scales or more
    "holder-probe": {"E0": _real(1.2), "ids_L": _int(2000), "ids_realizations": _int(200),
                     "scales": _real([2.0 ** -k for k in range(4, 10)], **_SLOPE_GRID)},
    "transport": {"q": _real(2.0, 0.0), "box_radius": _int(2000), "realizations": _int(6),
                  "T_grid": _real([50.0, 80.0, 125.0, 200.0, 300.0, 400.0], **_SLOPE_GRID),
                  "critical_window": Param([-0.6, 0.6], "pair"),
                  "localized_window": Param([1.0, 1.6], "pair"), "free_box_radius": _int(1000),
                  "averaging": Param("cesaro", "choice", choices=("cesaro", "abel")),
                  "critical_slope_min": _real(1.0), "localized_slope_max": _real(0.2),
                  "free_slope_tolerance": _real(0.1, **_TOL), "quadrature_points": _int(800, 2),
                  "free_T_grid": _real([20.0, 40.0, 60.0, 80.0, 100.0], **_SLOPE_GRID)},
}

KINDS = tuple(sorted(_KIND_TABLE))


def _finite(x) -> bool:
    """A real number that is no bool, NaN or infinity."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _integral(x) -> bool:
    """An int that is no bool, or a float with an integral value (JSON 1e3)."""
    return (isinstance(x, int) and not isinstance(x, bool)) or \
        (isinstance(x, float) and x.is_integer())


# Cross-field rules: (the keys it reads, a predicate that returns what is wrong
# or None).  It runs only when each key it reads ("model": the model was built)
# passed its own check, and reports under its first key.

def _disjoint_intervals(p, model, key):
    ivs = sorted((float(lo), float(hi)) for lo, hi in p[key])
    if any(hi > next_lo for (_, hi), (next_lo, _) in zip(ivs, ivs[1:])):
        return "the intervals must be disjoint"


def _window_in_box(p, model, key):
    if not 2 * int(p["window_atoms"]) < int(p["L"]):
        return f"2 * window_atoms must be below L = {int(p['L'])}: a box holds L eigenvalues"


def _in_gershgorin_bound(p, model, key):
    lo, hi = model.gershgorin_bound
    if not lo <= p[key] <= hi:
        return f"must lie in [{lo!r}, {hi!r}], the model's bound on every eigenvalue"


def _above_tol_floor(p, model, key):
    if not p[key] >= critical_tol_floor(model):
        return (f"tol={p[key]!r} is below {critical_tol_floor(model):.3g}, the roundoff of "
                "the commutator norm at a critical energy of this model")


def _quadrature_reaches_T(p, model, key):
    # Cesàro values share the grid of quadrature_points times on
    # [0, max T]; a T below its second point would average nothing
    Ts, quad = [float(T) for T in p[key]], int(p["quadrature_points"])
    if p["averaging"] != "abel" and min(Ts) < max(Ts) / (quad - 1):
        return (f"every time must be at least max T / (quadrature_points - 1) = "
                f"{max(Ts) / (quad - 1)!r}, so that [0, T] holds two quadrature points")


def _free_chain_inside_guard(p, model, key):
    # the free chain (t = 1) spreads at most 2 sites per unit time
    radius, horizon = int(p["free_box_radius"]), max(float(T) for T in p[key])
    horizon *= ABEL_TRUNCATION if p["averaging"] == "abel" else 1
    if 2 * horizon > _GUARD_FRACTION * radius:
        return (f"{p['averaging']} averaging reaches t = {horizon:g}, by which the free "
                f"chain's wavefront (2 sites per unit time) passes {_GUARD_FRACTION:.0%} "
                f"of free_box_radius = {radius}; need 2 * t <= {_GUARD_FRACTION * radius:g}")


def _moments_finite(p, model, key):
    # a moment sums, over the pairs of up to 2 radius + 1 modes whose weights
    # have unit norm, Gram entries up to radius^q times trapezoid kernels up
    # to quadrature_points: that product must stay below the largest double
    radius = max(int(p["box_radius"]), int(p["free_box_radius"]))
    points = int(p["quadrature_points"])
    bound = math.log(sys.float_info.max) - math.log((2 * radius + 1) * points)
    if p[key] * math.log(radius) >= bound:
        return (f"q * ln(max(box_radius, free_box_radius)) = {p[key] * math.log(radius):.6g} "
                f"must be below ln(1.8e308 / ((2 * {radius} + 1) * {points})) = {bound:.6g}: "
                "each moment sums Gram entries up to radius^q over 2 * radius + 1 modes "
                "and quadrature_points times")


_RULES = {
    "critical": [(("tol", "model"), _above_tol_floor)],
    "les-poisson": [(("count_intervals",), _disjoint_intervals)],
    "les-clock": [(("window_atoms", "L"), _window_in_box)],
    "minami-probe": [(("E0", "model"), _in_gershgorin_bound)],
    "transport": [(("T_grid", "quadrature_points", "averaging"), _quadrature_reaches_T),
                  (("free_T_grid", "quadrature_points", "averaging"), _quadrature_reaches_T),
                  (("free_T_grid", "free_box_radius", "averaging"), _free_chain_inside_guard),
                  (("q", "box_radius", "free_box_radius", "quadrature_points"), _moments_finite)],
}


def build_config(kind: str, raw: dict) -> ExperimentConfig:
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; available: {list(KINDS)}")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; "
                          f"allowed: {sorted(_CONFIG_KEYS)}")
    params = {key: p.default for key, p in _KIND_TABLE[kind].items()}
    params.update(raw.get("params", {}))
    seed = raw.get("seed", _COMMON_DEFAULTS["seed"])
    if not _integral(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return ExperimentConfig(
        kind=kind,
        model=raw.get("model", {"preset": "dimer", "V": _DIMER_V.get(kind, 0.6), "p": 0.5}),
        params=params,
        seed=int(seed),
        out=str(raw.get("out", _COMMON_DEFAULTS["out"])),
    )


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and cross-field diagnostics; an empty list means valid."""
    if config.kind not in KINDS:
        return [f"kind: unknown {config.kind!r}; available: {list(KINDS)}"]
    diags = []
    try:
        model, passed = model_from_dict(config.model), {"model"}
    except (ValueError, TypeError) as e:
        model, passed = None, set()
        diags.append(f"model: {e}")
    table = _KIND_TABLE[config.kind]
    for key, value in config.params.items():
        if key not in table:
            diags.append(f"params.{key}: unknown parameter for kind {config.kind!r}")
        elif table[key].accepts(value):
            passed.add(key)
        else:
            diags.append(f"params.{key}: must be {table[key].wants()}, got {value!r}")
    for keys, rule in _RULES.get(config.kind, ()):
        if passed.issuperset(keys) and (wrong := rule(config.params, model, keys[0])):
            diags.append(f"params.{keys[0]}: {wrong}")
    return diags


# ---------------------------------------------------------------------------
# experiment implementations: each returns (stats, passes, tables)

def _single_report(model: PolymerModel):
    """The highest critical energy in the polymers' Gershgorin bound."""
    reports = find_critical_energies(model)
    if not reports:
        raise ConfigError("model has no critical energy")
    return max(reports, key=lambda r: r.energy)


def _exp_critical(model, params, seed):
    reports = find_critical_energies(model, search=params["search"],
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
    gammas, errors = lyapunov(model, np.array(params["energies"], float), steps, R, seed)
    for E, g, se in zip(params["energies"], gammas.tolist(), errors.tolist()):
        rows.append((E, g, se, steps, R))
        stats[str(E)] = {"gamma": g, "stderr": se}
    return stats, {}, {"lyapunov": (["energy", "gamma", "stderr", "steps",
                                     "realizations"], rows)}


def _ids_grids(bottom: float, top: float):
    """The energies `ids` reads N at: the curve grid over the pool's range and
    the nonnegative half of the symmetry grid."""
    return np.linspace(bottom, top, 513), np.linspace(0.0, max(abs(bottom), abs(top)), 129)


def _exp_ids(model, params, seed):
    reports = find_critical_energies(model)
    extra = params.get("probe_energies") or []

    def read_at(bottom, top):
        grid, sym_grid = _ids_grids(bottom, top)
        return np.concatenate([grid, sym_grid, -sym_grid, [rep.energy for rep in reports],
                               np.asarray(extra, float)])

    ids = pointwise_ids(model, int(params["L_ids"]), seed, range(int(params["realizations"])),
                        read_at)
    grid, sym_grid = _ids_grids(float(ids.pooled[0]), float(ids.pooled[-1]))
    curve_rows = [(float(E), float(N)) for E, N in zip(grid, ids.evaluate(grid))]
    sym_err = float(np.abs(ids.evaluate(sym_grid) + ids.evaluate(-sym_grid) - 1.0).max())
    probe_rows = []
    branch_err = 0.0
    for rep in reports:
        formula = ids_at_critical(rep, model)
        emp = float(ids.evaluate(rep.energy))
        probe_rows.append((rep.energy, emp, formula))
        branch_err = max(branch_err, abs(emp - formula))
    probe_rows.extend((float(E), float(ids.evaluate(E)), None) for E in extra)
    stats = {"pooled_count": int(ids.total_count), "symmetry_error": sym_err,
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


def _build_ids(model, params, seed, span, half_width):
    """The pooled IDS that its reader reads on the energy span and within
    +-half_width of N there."""
    return windowed_ids(model, int(params["ids_L"]), seed, _ids_indices(params),
                        span, half_width)


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
    ids = _build_ids(model, params, seed, (E0, E0), window_atoms / L)
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
    variances = [size["variance"] for size in per_size.values()]
    largest = per_size[str(int(params["L_list"][-1]))]
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


def _median(x) -> float:
    """np.median of a nonempty 1-D array, without np.median's import of numpy.ma."""
    x = np.sort(x)
    mid = x.size // 2
    return float(x[mid] if x.size % 2 else np.mean(x[mid - 1:mid + 1]))


def _exp_psi_convergence(model, params, seed):
    report = _single_report(model)
    n_Ec = dos_at_critical(expansion_coeffs(model, report), model)
    xs = np.linspace(*params["x_range"], int(params["x_points"]))
    R = int(params["realizations"])
    rows = []
    medians = {}
    for L in map(int, params["L_list"]):
        errs = psi_errors(model, report, L, xs, R, seed)
        medians[str(L)] = _median(errs)
        rows.extend((L, r, float(e)) for r, e in enumerate(errs))
    med_list = list(medians.values())
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
    control_ids = _build_ids(model, params, seed, (control_E0, control_E0),
                             control_atoms / control_L)
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
    E0, h_max = float(params["E0"]), float(max(params["scales"]))
    ids = _build_ids(model, params, seed, (E0 - h_max, E0 + h_max), h_max)
    rep = holder_probe(ids, E0, params["scales"])
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
    parser.add_argument("kind", choices=[*KINDS, "validate"])
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="override one params entry "
                        "(VALUE parsed as JSON, falling back to string)")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1
    if not (isinstance(raw, dict) and isinstance(raw.get("params", {}), dict)):
        print("config error: the config and its params must be JSON objects", file=sys.stderr)
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
