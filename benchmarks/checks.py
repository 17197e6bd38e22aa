"""Correctness checks on one pass's outputs.

A kind run fails when it exits 1 or raises, when an output file is missing,
when `<kind>_summary.json` is not strict JSON (a bare NaN fails), when at a
seed in `reference.json` a summary statistic or pass flag differs from the
recorded reference, or when the LAPACK spot check disagrees.  Exit 2 (a
statistical check failed) is a recorded outcome, not a failure.

The spot check recomputes a few realizations of each windowed kind with
`scipy.linalg.eigvalsh_tridiagonal` and compares them with the CSV outputs
to 1e-9 in energy, the tolerance of acceptance criterion 10.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from workloads import output_files

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
EIG_TOL = 1e-9
# summary statistics may move by last-bit eigenvalue changes (1e-11 in
# energy, rescaled by n(E) L <= 1e4) but not by more
REL_TOL = ABS_TOL = 1e-6


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_summary(path: Path) -> dict:
    """Parse a summary as strict JSON: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def output_problems(kind: str, code: int | None, outdir: Path) -> list[str]:
    """Exit-code, missing-output and strict-JSON failures of one kind run."""
    if code not in (0, 2):
        return [f"exit code {code}"]
    missing = [f for f in output_files(kind) if not (outdir / f).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        load_summary(outdir / output_files(kind)[-1])
    except ValueError as e:
        return [f"summary is not strict JSON: {e}"]
    return []


def _diff(path: str, got, want, out: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{path}: keys differ")
            return
        for k in want:
            _diff(f"{path}.{k}", got[k], want[k], out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, out)
    elif isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {got!r} != reference {want!r}")
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} != reference {want!r}")


def reference_summary(summary: dict) -> dict:
    """The part of a summary the reference records."""
    return {"statistics": summary["statistics"], "passes": summary["passes"]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_problems(reference: dict, workload: str, seed: int, kind: str,
                       outdir: Path) -> list[str] | None:
    """Differences from the recorded reference; None when the seed has none."""
    want = reference.get(workload, {}).get(str(seed), {}).get(kind)
    if want is None:
        return None
    got = reference_summary(load_summary(outdir / output_files(kind)[-1]))
    out = []
    _diff(kind, got, want, out)
    return out


def _rows(path: Path) -> list[list[str]]:
    with path.open() as f:
        return [row for row in csv.reader(f) if not row[0].startswith("#")][1:]


def _box(model, L: int, seed: int, r: int):
    from polyspec.model import lattice_for_sites
    seq = lattice_for_sites(model, L, seed, r)
    return seq.potentials, -seq.hoppings[1:]


def _lapack_window(model, L, seed, r, a, b) -> np.ndarray:
    d, e = _box(model, L, seed, r)
    return eigvalsh_tridiagonal(d, e, select="v", select_range=(a, b))


def _spot_clock_spacing(model, params, seed, outdir) -> list[str]:
    from polyspec.statistics import dos_at_critical
    from polyspec.transfer import expansion_coeffs, find_critical_energies
    report = max(find_critical_energies(model), key=lambda r: r.energy)
    n_c = dos_at_critical(expansion_coeffs(model, report), model)
    Ec, j_max = report.energy, int(params["j_max"])
    L = int(params["L_list"][0])
    half = (j_max + 4) / (n_c * L)
    rows = _rows(outdir / "clock_spacing_spacing.csv")
    problems = []
    for r in (0, int(params["realizations"]) - 1):
        ev = _lapack_window(model, L, seed, r, Ec - half, Ec + half)
        atoms = n_c * L * (ev - Ec)
        i0 = int(np.searchsorted(atoms, 0.0))
        lo, hi = max(i0 - j_max, 0), min(i0 + j_max, atoms.size - 1)
        want = np.diff(atoms[lo:hi + 1])
        got = np.array([float(g) for l_, r_, g in rows if int(l_) == L and int(r_) == r])
        if got.size != want.size:
            problems.append(f"L={L} r={r}: {got.size} gaps, LAPACK gives {want.size}")
        elif got.size and np.abs(got - want).max() > 2 * EIG_TOL * n_c * L:
            problems.append(f"L={L} r={r}: gaps differ from LAPACK by "
                            f"{np.abs(got - want).max() / (n_c * L):.2e} in energy")
    return problems


def _spot_les_poisson(model, params, seed, outdir) -> list[str]:
    L, ids_L = int(params["L"]), int(params["ids_L"])
    # the IDS pool as the CLI builds it: full spectra of a shifted substream block
    pooled = np.sort(np.concatenate([
        eigvalsh_tridiagonal(*_box(model, ids_L, seed, 10 ** 6 + r), lapack_driver="sterf")
        for r in range(int(params["ids_realizations"]))]))
    q = np.arange(1, pooled.size + 1) / (pooled.size + 1.0)
    n0 = float(np.interp(float(params["E0"]), pooled, q, left=0.0, right=1.0))
    half = int(params["window_atoms"]) / L
    a, b = np.interp([n0 - half, n0 + half], q, pooled)
    rows = _rows(outdir / "les_poisson_atoms.csv")
    problems = []
    for r in (0, int(params["realizations"]) - 1):
        want = _lapack_window(model, L, seed, r, a, b)
        atoms = np.array([float(x) for r_, x in rows if int(r_) == r])
        got = np.interp(n0 + atoms / L, q, pooled)  # atoms back to energies
        if got.size != want.size:
            problems.append(f"r={r}: {got.size} atoms, LAPACK gives {want.size}")
        elif got.size and np.abs(got - want).max() > EIG_TOL:
            problems.append(f"r={r}: eigenvalues differ from LAPACK by "
                            f"{np.abs(got - want).max():.2e}")
    return problems


def _spot_minami(model, params, seed, outdir) -> list[str]:
    summary = load_summary(outdir / "minami_probe_summary.json")["statistics"]
    a, b = summary["interval"]
    counts = {int(r): int(c) for r, c in _rows(outdir / "minami_probe_counts.csv")}
    problems = []
    for r in range(4):
        d, e = _box(model, int(summary["box_sites"]), seed, r)
        ev = eigvalsh_tridiagonal(d, e)
        want = int(np.searchsorted(ev, b, "right") - np.searchsorted(ev, a, "right"))
        if counts.get(r) != want:
            problems.append(f"r={r}: count {counts.get(r)}, LAPACK gives {want}")
    return problems


SPOT_CHECKS = {
    "clock-spacing": _spot_clock_spacing,
    "les-poisson": _spot_les_poisson,
    "minami-probe": _spot_minami,
}


def spot_problems(kind: str, config: dict, seed: int, outdir: Path) -> list[str]:
    check = SPOT_CHECKS.get(kind)
    if check is None:
        return []
    from polyspec.cli import build_config
    from polyspec.model import model_from_dict
    cfg = build_config(kind, config)  # the kind's defaults under the overrides
    return check(model_from_dict(cfg.model), cfg.params, seed, outdir)
