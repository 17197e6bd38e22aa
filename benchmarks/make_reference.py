#!/usr/bin/env python3
"""Record the reference summaries the benchmark compares against.

Usage (from the repository root): python3 benchmarks/make_reference.py SEED [SEED ...]

Runs one untraced pass of every workload per seed and stores the
`statistics` and `passes` of each kind's summary in benchmarks/reference.json
(merged with what is there).  Record it only at a commit whose outputs are
trusted: a later run at a recorded seed fails on any difference beyond
checks.REL_TOL / checks.ABS_TOL.
"""
import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from run import ROOT, run_pass  # noqa: E402
from workloads import WORKLOADS, kind_configs, output_files  # noqa: E402


def main(seeds: list[int]) -> int:
    reference = checks.load_reference()
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        for workload in WORKLOADS:
            for seed in seeds:
                p = run_pass(work / f"{workload}-{seed}", kind_configs(workload), seed, False)
                for k in p["kinds"]:
                    outdir = p["dir"] / k["kind"]
                    problems = checks.output_problems(k["kind"], k["exit"], outdir)
                    if problems:
                        print(f"{workload} seed {seed} {k['kind']}: {problems}", file=sys.stderr)
                        return 1
                    summary = checks.load_summary(outdir / output_files(k["kind"])[-1])
                    reference.setdefault(workload, {}).setdefault(str(seed), {})[k["kind"]] = \
                        checks.reference_summary(summary)
                print(f"recorded {workload} seed {seed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main([int(s) for s in sys.argv[1:]]))
