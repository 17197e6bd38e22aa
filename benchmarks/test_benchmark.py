"""Self-tests of the benchmark at a tiny size.

Run from the repository root: python3 -m pytest -q -p no:cacheprovider benchmarks
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, kind_configs  # noqa: E402

SEED = 5
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _pass(d: Path, workload: str, traced: bool, first=None) -> dict:
    configs = kind_configs(workload, tiny=True)
    p = bench.run_pass(d, configs, SEED, traced)
    bench.check_pass(p, first, configs, workload, SEED, {})
    return p


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: an untraced pass and two traced ones."""
    out = {}
    for w in WORKLOADS:
        d = tmp_path_factory.mktemp(w)
        plain = _pass(d / "plain", w, False)
        out[w] = [plain] + [_pass(d / f"traced{i}", w, True, plain) for i in range(2)]
    return out


def _trace(p):
    return tracing.analyze(json.loads((p["dir"] / "spans.json").read_text()))


def test_every_pass_passes_its_checks(passes):
    for w, ps in passes.items():
        for p in ps:
            assert [k["problems"] for k in p["kinds"]] == [[]] * len(p["kinds"]), w


def test_traced_and_untraced_outputs_are_byte_identical(passes):
    for ps in passes.values():
        for i, k in enumerate(ps[0]["kinds"]):
            assert k["hashes"], k["kind"]
            assert all(p["kinds"][i]["hashes"] == k["hashes"] for p in ps[1:])


def test_every_module_gets_a_span(passes):
    seen = set()
    for ps in passes.values():
        seen |= set(_trace(ps[1])[1]["layers_seen"])
    assert seen == set(tracing.MODULES)


def test_counts_repeat_exactly(passes):
    for ps in passes.values():
        a, b = _trace(ps[1])[0], _trace(ps[2])[0]
        assert {c: a[c] for c in tracing.COUNTS} == {c: b[c] for c in tracing.COUNTS}


def test_metrics_match_benchmark_json(passes):
    names = set(_trace(passes["clock"][1])[0]) | {"trace.overhead_s", "trace.span_frac"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(tracing.COUNTS) <= names
    for m in BENCHMARK["per_layer"]:
        bench.moves(m["name"])  # every per-layer metric names what it should move
    e2e, _ = bench.end_to_end(passes["clock"][:1], [1.0])
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}


def _tree():
    out = {}
    for d, dirs, files in os.walk(bench.ROOT):
        dirs[:] = [x for x in dirs if x != ".git"]
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.join(d, f)] = (st.st_size, st.st_mtime_ns)
    return out


def test_run_leaves_the_tree_unchanged():
    before = _tree()
    report = bench.run("dynamics", SEED, 0, True, tiny=True)
    assert _tree() == before
    assert report["failed"] == 0
    assert set(report["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "clock", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
