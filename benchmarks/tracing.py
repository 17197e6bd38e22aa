"""Outside-in tracing of the seven `polyspec` modules, and the per-layer
metrics computed from the spans.

`Tracer.install()` wraps every module-level function of the seven modules
and rebinds the wrapper at every place that binds the original: the module
that defines it, every module that imported it with `from .x import y`, the
package namespace, and module-level dicts such as `cli._EXPERIMENTS`.  So a
call crosses a wrapper whichever name it goes through.  Nothing in the
program changes; the wrappers live only in the traced process.

A span is (layer, function, start, end, parent span, experiment id).  For
the few kernels whose work the metrics count, the wrapper also records the
argument and return shapes, so counts repeat exactly between runs.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("model", "eigensolve", "transfer", "prufer", "statistics", "transport", "cli")


def _sturm(a, out):
    return [a["v"].shape[0], a["shifts"].shape[0], a["shifts"].shape[1]]


def _window(a, out):
    return [a["v"].shape[0], len(out), max((e.size for e in out), default=0),
            sum(e.size for e in out)]


def _free_phase(a, out):
    e = np.asarray(a["energies"])
    return [a["v"].shape[0], e.shape[0], e.shape[1]]


def _lyapunov(a, out):
    return [int(a["steps"]), len(out)]


def _pool(a, out):
    return [int(a["L_ids"]), int(out.size)]


def _les(a, out):
    ids = a["ids"]
    if ids is None:
        return None
    # the pooled eigenvalues the unfolding reads: those inside the window
    # les_ensemble derives from the IDS, N0 +- window_atoms / L
    n0 = float(ids.evaluate(a["E0"]))
    half = a["window_atoms"] / a["L_sites"]
    lo, hi = float(ids.invert(n0 - half)), float(ids.invert(n0 + half))
    inside = int(np.searchsorted(ids.pooled, hi, "right") - np.searchsorted(ids.pooled, lo))
    return [id(ids), int(ids.total_count), inside]


def _setup(a, out):
    return [int(np.count_nonzero(out.weights)), int(out.weights.size)]


def _integrand(a, out):
    s = a["setup"]
    return [s.num_sites, int(s.energies.size), int(np.asarray(a["times"]).size)]


def _sites_batch(a, out):
    return [int(a["num_sites"]), out[0].shape[1]]


def _sites(a, out):
    return [int(a["num_sites"]), 1]


def _run(a, out):
    return [sum(os.path.getsize(f) for f in out.files)]


RECORDERS = {
    ("eigensolve", "sturm_counts_batch"): _sturm,
    ("eigensolve", "eigenvalues_in_window_batch"): _window,
    ("prufer", "free_phase_batch"): _free_phase,
    ("transfer", "_lyapunov_gammas"): _lyapunov,
    ("statistics", "pool_spectra"): _pool,
    ("statistics", "les_ensemble"): _les,
    ("transport", "evolution_setup"): _setup,
    ("transport", "_moment_integrand"): _integrand,
    ("model", "potentials_for_sites_batch"): _sites_batch,
    ("model", "lattice_for_sites"): _sites,
    ("cli", "run"): _run,
}


class Tracer:
    """Span recorder for one process; `experiment` is set by the caller."""

    def __init__(self):
        self.spans = []
        self.records = {}
        self.experiment = -1
        self._stack = []

    def _wrap(self, layer, fn):
        name = fn.__name__
        recorder = RECORDERS.get((layer, name))
        sig = inspect.signature(fn) if recorder else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (layer, name, t0, t1, parent, self.experiment)
            if recorder is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec = recorder(bound.arguments, out)
                if rec is not None:
                    self.records[sid] = rec
            return out

        return traced

    def install(self) -> int:
        """Wrap and rebind every module-level function; returns how many."""
        pkg = importlib.import_module("polyspec")
        mods = {m: importlib.import_module(f"polyspec.{m}") for m in MODULES}
        wrapped = {}
        for layer, mod in mods.items():
            for obj in list(vars(mod).values()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(layer, obj)
        for mod in (pkg, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]
        return len(wrapped)

    def dump(self, path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "records": {str(k): v for k, v in self.records.items()}}))


def _ratio(a, b):
    return a / b if b else 0.0


def analyze(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-shape kernel rates from one pass's spans.

    Returns (metrics, extra): extra holds each layer's self time, the time
    the root spans cover, the layers seen and the rates per batch shape.
    A layer's self time is its spans' durations
    minus their direct child spans; with one worker spans nest strictly.
    """
    spans = trace["spans"]
    recs = {int(k): v for k, v in trace["records"].items()}
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def under(pred):
        """Per span: whether it or an ancestor satisfies pred (parents come first)."""
        flag = [False] * n
        for i, s in enumerate(spans):
            flag[i] = pred(s) or (s[4] >= 0 and flag[s[4]])
        return flag

    def outermost(names):
        inside = under(lambda s: s[1] in names)
        return [i for i, s in enumerate(spans)
                if s[1] in names and not (s[4] >= 0 and inside[s[4]])]

    def of(layer, name):
        return [i for i, s in enumerate(spans) if s[0] == layer and s[1] == name]

    def total(idx):
        return sum((dur[i] for i in idx), 0.0)

    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        layer_self[s[0]] += self_t[i]

    m = {}
    sampling = outermost({"potentials_for_sites_batch", "lattice_for_sites", "substream"})
    m["model.sample_s"] = total(sampling)
    m["model.boxes"] = sum(recs[i][1] for i in sampling if i in recs)

    sturm = of("eigensolve", "sturm_counts_batch")
    window = of("eigensolve", "eigenvalues_in_window_batch")
    in_window = under(lambda s: s[1] == "eigenvalues_in_window_batch")
    m["eigensolve.sweeps"] = len(sturm)
    m["eigensolve.sweep_Mupd"] = sum(recs[i][0] * recs[i][1] * recs[i][2] for i in sturm) / 1e6
    m["eigensolve.sweep_s"] = total(sturm)
    m["eigensolve.sweep_Mupd_per_s"] = _ratio(m["eigensolve.sweep_Mupd"], m["eigensolve.sweep_s"])
    m["eigensolve.window_calls"] = len(window)
    m["eigensolve.sweeps_per_window"] = _ratio(sum(in_window[i] for i in sturm), len(window))
    eigs = sum(recs[i][3] for i in window)
    m["eigensolve.eigs"] = eigs
    m["eigensolve.ms_per_eig"] = _ratio(1e3 * total(window), eigs)
    m["eigensolve.col_use_frac"] = _ratio(eigs, sum(recs[i][1] * recs[i][2] for i in window))
    in_transport = under(lambda s: s[0] == "transport")
    dense = [i for i in of("eigensolve", "dense_oracle") if in_transport[i]]
    m["eigensolve.dense_s"] = total(dense)

    free = of("prufer", "free_phase_batch")
    m["prufer.sweeps"] = len(free)
    m["prufer.sweep_Mupd"] = sum(recs[i][0] * recs[i][1] * recs[i][2] for i in free) / 1e6
    m["prufer.sweep_s"] = total(free)
    m["prufer.sweep_Mupd_per_s"] = _ratio(m["prufer.sweep_Mupd"], m["prufer.sweep_s"])

    lyap = of("transfer", "_lyapunov_gammas")
    m["transfer.scan_s"] = total(outermost({"find_critical_energies"}))
    m["transfer.lyap_s"] = total(lyap)
    m["transfer.lyap_Mprod"] = sum(recs[i][0] * recs[i][1] for i in lyap) / 1e6
    m["transfer.lyap_Mprod_per_s"] = _ratio(m["transfer.lyap_Mprod"], m["transfer.lyap_s"])

    pool = of("statistics", "pool_spectra")
    les = of("statistics", "les_ensemble")
    m["statistics.pool_s"] = total(pool)
    m["statistics.pool_eigs"] = sum(recs[i][1] for i in pool)
    m["statistics.pool_Meig_per_s"] = _ratio(m["statistics.pool_eigs"] / 1e6, m["statistics.pool_s"])
    # one IDS per experiment, read by every les_ensemble chunk in one window
    read = {(spans[i][5], recs[i][0]): recs[i][1:] for i in les if i in recs}
    m["statistics.pool_read_frac"] = _ratio(sum(v[1] for v in read.values()),
                                            sum(v[0] for v in read.values()))
    m["statistics.les_self_s"] = sum(self_t[i] for i in les)
    m["statistics.tests_s"] = total(of("statistics", "gap_statistics")
                                    + of("statistics", "counting_statistics"))

    setups = of("transport", "evolution_setup")
    m["transport.diags"] = len(dense)
    m["transport.self_s"] = layer_self.get("transport", 0.0)
    m["transport.mode_frac"] = _ratio(sum(recs[i][0] for i in setups),
                                      sum(recs[i][1] for i in setups))
    m["transport.integrand_Gflop"] = sum(8 * r[0] * r[1] * r[2] for r in
                                         (recs[i] for i in of("transport", "_moment_integrand"))) / 1e9

    m["cli.self_s"] = layer_self.get("cli", 0.0)
    m["cli.out_MB"] = sum(recs[i][0] for i in of("cli", "run")) / 1e6

    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    extra = {"layer_self_s": dict(layer_self),
             "root_span_s": total(roots),
             "spans": n,
             "layers_seen": sorted({s[0] for s in spans}),
             "shapes": _shapes(spans, recs, dur, sturm, free, lyap, pool)}
    return m, extra


def _shapes(spans, recs, dur, sturm, free, lyap, pool) -> dict:
    """Kernel rates per batch shape: each rate with its input size."""
    def sweep(r):
        return f"{r[0]} rows x ({r[1]}x{r[2]}) cols"

    out = {}
    for label, idx, unit, work, shape in (
            ("sturm_counts_batch", sturm, "Mupd/s", lambda r: r[0] * r[1] * r[2], sweep),
            ("free_phase_batch", free, "Mupd/s", lambda r: r[0] * r[1] * r[2], sweep),
            ("_lyapunov_gammas", lyap, "Mprod/s", lambda r: r[0] * r[1],
             lambda r: f"{r[0]} steps x {r[1]} realizations"),
            ("pool_spectra", pool, "Meig/s", lambda r: r[1],
             lambda r: f"{r[1] // r[0]} boxes x {r[0]} sites")):
        groups = defaultdict(lambda: [0, 0.0, 0])
        for i in idx:
            g = groups[shape(recs[i])]
            g[0] += 1
            g[1] += dur[i]
            g[2] += work(recs[i])
        out[label] = {k: {"calls": c, "s": t, unit: _ratio(w / 1e6, t)}
                      for k, (c, t, w) in sorted(groups.items())}
    return out


# metrics that count work: they must repeat exactly between runs
COUNTS = ("model.boxes", "eigensolve.sweeps", "eigensolve.sweep_Mupd",
          "eigensolve.window_calls", "eigensolve.sweeps_per_window", "eigensolve.eigs",
          "eigensolve.col_use_frac", "prufer.sweeps", "prufer.sweep_Mupd",
          "transfer.lyap_Mprod", "statistics.pool_eigs", "statistics.pool_read_frac",
          "transport.diags", "transport.mode_frac", "transport.integrand_Gflop",
          "cli.out_MB")
