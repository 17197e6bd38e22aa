#!/usr/bin/env python3
"""polyspec benchmark: time `polyspec <kind>` batches end to end, and trace
them layer by layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload clock|poisson|dynamics --seed N \
        --seconds S --trace 0|1 [--out BENCH.json]

One pass spawns a fresh Python process that imports `polyspec.cli` and calls
`polyspec.cli.main(argv)` once per kind of the workload (see workloads.py),
with `--seed N`, outputs in a temporary directory under the repository root,
the default `--workers 1` and BLAS pinned to one thread.  Passes repeat until
S seconds are used; the report gives medians and quartiles over passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then traced passes (tracing.py), and prints the per-layer metrics.  Every
pass is checked (checks.py); the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  --out appends the full
report to a JSON file.
"""
import sys

sys.dont_write_bytecode = True  # a run leaves the repository tree unchanged

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # for the checks; main() first tests that it exists

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, kind_configs  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 5       # set-up samples per run: passes plus import-only probes
PASS_TIMEOUT = 60    # seconds; a pass that takes longer fails (passes take 3-8 s)

# per-layer metric -> (end-to-end metric it should move, workload where it works)
MOVES = {
    "model.sample_s": ("les-poisson_s, ids_s", "poisson"),
    "model.boxes": ("les-poisson_s, ids_s", "poisson"),
    "eigensolve.dense_s": ("transport_s, peak_rss_mb", "dynamics"),
    "transport.": ("transport_s, peak_rss_mb", "dynamics"),
    "eigensolve.": ("clock-spacing_s, wall_s; les-poisson_s, minami-probe_s",
                    "clock mostly, poisson partly"),
    "prufer.": ("uniformity_s, psi-convergence_s", "clock"),
    "transfer.scan_s": ("every kind that certifies E_c", "all"),
    "transfer.": ("lyapunov_s", "dynamics"),
    "statistics.": ("les-poisson_s, ids_s, peak_rss_mb", "poisson"),
    "cli.": ("wall_s", "poisson mostly"),
    "trace.": ("none: cost and coverage of the tracing itself", "all"),
}


def moves(metric: str) -> tuple[str, str]:
    return next(v for k, v in MOVES.items() if metric.startswith(k))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(workdir: Path, *extra: str) -> dict | None:
    """Run worker.py once; its result, or None when it produced none."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    t0 = time.monotonic()
    try:
        subprocess.run(cmd + [repr(t0), str(workdir), *extra], env=_child_env(),
                       stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"pass timed out after {PASS_TIMEOUT} s", file=sys.stderr)
        return None
    path = workdir / "result.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _hash_dir(d: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def run_pass(workdir: Path, configs, seed: int, traced: bool) -> dict:
    workdir.mkdir()
    runs = []
    for kind, config in configs:
        cfg = workdir / f"{kind}.config.json"
        cfg.write_text(json.dumps(config))
        runs.append([kind, [kind, "--config", str(cfg), "--seed", str(seed),
                            "--out", str(workdir / kind)]])
    (workdir / "pass.json").write_text(json.dumps({"trace": traced, "runs": runs}))
    t0 = time.monotonic()
    result = _spawn(workdir)
    duration = time.monotonic() - t0
    if result is None:
        result = {"kinds": [{"kind": k, "exit": None, "wall_s": None} for k, _ in configs]}
    result.update(traced=traced, duration=duration, dir=workdir)
    return result


def check_pass(p: dict, first: dict | None, configs, workload: str, seed: int,
               reference: dict) -> None:
    """Annotate each kind of the pass with its failures.

    The first pass gets the full checks; later passes of the run must write
    byte-identical outputs, traced or not.
    """
    cfg = dict(configs)
    for i, k in enumerate(p["kinds"]):
        outdir = p["dir"] / k["kind"]
        problems = checks.output_problems(k["kind"], k["exit"], outdir)
        k["hashes"] = {} if problems else _hash_dir(outdir)
        if not problems and first is not None:
            if k["hashes"] != first["kinds"][i]["hashes"]:
                problems.append("outputs differ from the run's first pass")
        elif not problems:
            ref = checks.reference_problems(reference, workload, seed, k["kind"], outdir)
            k["reference_checked"] = ref is not None
            problems += ref or []
            problems += checks.spot_problems(k["kind"], cfg[k["kind"]], seed, outdir)
            k["spot_checked"] = k["kind"] in checks.SPOT_CHECKS
        k["problems"] = problems


def quartiles(values: list) -> dict:
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _openblas_version():
    import numpy as np
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def _git_commit():
    """HEAD's commit read from .git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas_version(),
            "thread_env": THREAD_ENV, "seed": seed, "git_commit": _git_commit()}


def _pass_wall(p: dict) -> float | None:
    walls = [k["wall_s"] for k in p["kinds"]]
    return None if None in walls else sum(walls)


def end_to_end(passes: list, setups: list) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"] and _pass_wall(p) is not None]
    stats = {"wall_s": quartiles([_pass_wall(p) for p in plain]),
             "setup_s": quartiles(setups),
             "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in plain])}
    per_kind = {f"{k['kind']}_s": quartiles([p["kinds"][i]["wall_s"] for p in plain])
                for i, k in enumerate(plain[0]["kinds"])}
    return stats, per_kind


def per_layer(passes: list) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"] and _pass_wall(p) is not None]
    plain = [_pass_wall(p) for p in passes if not p["traced"] and _pass_wall(p) is not None]
    rows, extras = [], []
    for p in traced:
        m, extra = tracing.analyze(json.loads((p["dir"] / "spans.json").read_text()))
        wall = _pass_wall(p)
        m["trace.overhead_s"] = wall - statistics.median(plain)
        m["trace.span_frac"] = extra["root_span_s"] / wall
        rows.append(m)
        extras.append(extra)
    stats = {name: quartiles([m[name] for m in rows]) for name in rows[0]}
    repeat = all(m[c] == rows[0][c] for m in rows for c in tracing.COUNTS)
    return stats, {"counts_repeat": repeat, **extras[len(extras) // 2]}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    configs = kind_configs(workload, tiny)
    reference = {} if tiny else checks.load_reference()  # recorded at full size
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        passes, start = [], time.monotonic()
        while True:
            p = run_pass(work / f"pass{len(passes)}", configs, seed,
                         traced=trace and len(passes) > 0)
            first = passes[0] if passes else None
            check_pass(p, first, configs, workload, seed, reference)
            passes.append(p)
            elapsed = time.monotonic() - start
            missing_traced = trace and not any(q["traced"] for q in passes)
            if not missing_traced and elapsed + p["duration"] > seconds:
                break
        setups = [p["setup_s"] for p in passes if "setup_s" in p]
        while len(setups) < MIN_SETUPS:
            probe = work / f"probe{len(setups)}"
            probe.mkdir()
            r = _spawn(probe, "--probe")
            if r is None:
                break
            setups.append(r["setup_s"])
        runs = [k for p in passes for k in p["kinds"]]
        failed = [k for k in runs if k["problems"]]
        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "seconds": seconds, "environment": environment(seed),
                  "passes": len(passes), "attempted": len(runs), "failed": len(failed),
                  "fail_frac": len(failed) / len(runs),
                  "failures": [{"kind": k["kind"], "problems": k["problems"]} for k in failed],
                  "exit_codes": {k["kind"]: k["exit"] for k in passes[0]["kinds"]},
                  "reference_checked": any(k.get("reference_checked") for k in runs),
                  "spot_checked": sorted({k["kind"] for k in runs if k.get("spot_checked")})}
        if not failed:
            e2e, kinds = end_to_end(passes, setups)
            report.update(end_to_end=e2e, per_kind=kinds)
            if trace:
                layers, extra = per_layer(passes)
                report.update(per_layer=layers, trace_detail=extra,
                              moves={name: moves(name) for name in layers})
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(q: dict, unit: str) -> str:
    return (f"median {q['median']:.6g} {unit}  q1 {q['q1']:.6g}  q3 {q['q3']:.6g}"
            f"  n={q['n']}")


def units_of(bench: dict) -> dict:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def print_report(report: dict, bench: dict) -> None:
    print(f"polyspec benchmark  workload={report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}  passes={report['passes']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"exit codes {report['exit_codes']}  reference checked: "
          f"{report['reference_checked']}  LAPACK spot checks: {report['spot_checked']}")
    print(f"fail_frac {report['fail_frac']:.6g} (failed {report['failed']} of "
          f"{report['attempted']} kind runs)")
    for f in report["failures"]:
        print(f"FAILED {f['kind']}: {'; '.join(f['problems'])}")
    units = units_of(bench)
    for name, q in report.get("end_to_end", {}).items():
        print(f"{name:<22} {_fmt(q, units[name])}")
    for name, q in report.get("per_kind", {}).items():
        print(f"{name:<22} {_fmt(q, 's')}")
    if "per_layer" in report:
        tr = report["trace_detail"]
        print(f"spans {tr['spans']}  layers {tr['layers_seen']}  "
              f"counts repeat: {tr['counts_repeat']}")
        for layer, s in sorted(tr["layer_self_s"].items()):
            print(f"self time {layer:<11} {s:.4f} s")
        for name, q in report["per_layer"].items():
            target, where = report["moves"][name]
            print(f"{name:<30} {_fmt(q, units[name])}  [moves {target} on {where}]")
        for kernel, shapes in tr["shapes"].items():
            for shape, v in shapes.items():
                rate = next(f"{val:.4g} {u}" for u, val in v.items() if u.endswith("/s"))
                print(f"rate {kernel:<20} {shape:<34} {v['calls']} calls  "
                      f"{v['s']:.4f} s  {rate}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    if not (SRC / "polyspec" / "cli.py").is_file():
        print(f"polyspec sources not found under {SRC}", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, bench)
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.is_file() else {"runs": []}
        record["runs"].append(report)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[key]]
    values, units = report.get(key, {}), units_of(bench)
    metrics = {n: {"value": values[n]["median"], "unit": units[n]}
               for n in names if n in values}
    correct = report["failed"] == 0 and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
