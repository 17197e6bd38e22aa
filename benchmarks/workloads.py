"""The benchmark's workloads: which `polyspec` kinds run, on which model, at
which reduced sizes, and which output tables each kind must write.

Every kind keeps its default parameters except the sizes (box sizes,
realization counts, T grids).  `tiny=True` gives the same kind lists at
sizes small enough for the benchmark's self-tests.
"""
from __future__ import annotations

DIMER_06 = {"preset": "dimer", "V": 0.6, "p": 0.5}
DIMER_05 = {"preset": "dimer", "V": 0.5, "p": 0.5}

# kind -> (model, size overrides, tiny size overrides)
_KINDS = {
    "clock-spacing": (DIMER_06,
                      {"L_list": [500, 1000, 2000], "realizations": 64},
                      {"L_list": [100, 200, 400], "realizations": 4}),
    "uniformity": (DIMER_06,
                   {"L": 4000, "realizations": 1000},
                   {"L": 200, "realizations": 64}),
    "psi-convergence": (DIMER_06,
                        {"L_list": [1000, 4000, 16000], "realizations": 4},
                        {"L_list": [100, 200, 400], "realizations": 2}),
    "les-poisson": (DIMER_06,
                    {"L": 600, "realizations": 500, "ids_L": 600,
                     "ids_realizations": 40},
                    {"L": 200, "realizations": 500, "ids_L": 200,
                     "ids_realizations": 8}),
    "ids": (DIMER_06,
            {"L_ids": 2000, "realizations": 12},
            {"L_ids": 200, "realizations": 4}),
    "minami-probe": (DIMER_06,
                     {"L": 10000, "realizations": 4000},
                     {"L": 1000, "realizations": 64}),
    "lyapunov": (DIMER_05,
                 {"steps": 200000, "realizations": 16},
                 {"steps": 4096, "realizations": 4}),
    # T_max shrinks with the box radius: at radius 1000 the default grid
    # (up to T=400) trips the boundary-contamination guard
    "transport": (DIMER_05,
                  {"box_radius": 1000, "realizations": 1,
                   "T_grid": [25.0, 40.0, 63.0, 100.0, 160.0],
                   "free_box_radius": 500,
                   "free_T_grid": [10.0, 20.0, 30.0, 40.0, 50.0]},
                  {"box_radius": 150, "realizations": 2,
                   "T_grid": [5.0, 8.0, 12.0, 18.0, 25.0],
                   "quadrature_points": 200, "free_box_radius": 100,
                   "free_T_grid": [4.0, 6.0, 8.0, 10.0, 12.0]}),
}

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "clock": ["clock-spacing", "uniformity", "psi-convergence"],
    "poisson": ["les-poisson", "ids", "minami-probe"],
    "dynamics": ["lyapunov", "transport"],
}

# the tables each kind writes besides <prefix>_summary.json
TABLES = {
    "clock-spacing": ["spacing"],
    "uniformity": ["phis"],
    "psi-convergence": ["psi_errors"],
    "les-poisson": ["gaps", "atoms", "counts"],
    "ids": ["ids_curve", "ids_probes"],
    "minami-probe": ["counts"],
    "lyapunov": ["lyapunov"],
    "transport": ["moments", "slopes"],
}


def kind_configs(workload: str, tiny: bool = False) -> list[tuple[str, dict]]:
    """(kind, config-file dict) for each kind of the workload, in run order."""
    out = []
    for kind in WORKLOADS[workload]:
        model, sizes, tiny_sizes = _KINDS[kind]
        out.append((kind, {"model": model, "params": dict(tiny_sizes if tiny else sizes)}))
    return out


def output_files(kind: str) -> list[str]:
    prefix = kind.replace("-", "_")
    return [f"{prefix}_{t}.csv" for t in TABLES[kind]] + [f"{prefix}_summary.json"]
