"""Every experiment kind end to end at a tiny config, against a golden record.

`golden_kinds.json` has one line per kind: the `params` it runs with at seed
5, the summary's `statistics` and `passes`, and each CSV's data-row count.
Floats must agree to rel/abs 1e-9.  les-poisson, les-clock, uniformity and
minami-probe run more than 256 realizations, so a realization batch boundary
lies inside the record.
"""
import json
from pathlib import Path

import pytest

from polyspec.cli import KINDS, build_config, run

GOLDEN = json.loads(Path(__file__).with_name("golden_kinds.json").read_text())


def _flat(x, path=""):
    """{json path: leaf} of a nested summary, so pytest.approx can compare it."""
    if isinstance(x, (dict, list)):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        return {k: v for key, val in items for k, v in _flat(val, f"{path}/{key}").items()}
    return {path: x}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_matches_golden(kind, tmp_path):
    want = GOLDEN[kind]
    report = run(build_config(kind, {"params": want["params"], "seed": 5,
                                     "out": str(tmp_path)}))
    summary = json.loads(Path(report.files[-1]).read_text())
    got = {"params": want["params"], "statistics": summary["statistics"],
           "passes": summary["passes"],
           "rows": {Path(f).stem: len(Path(f).read_text().splitlines()) - 2
                    for f in report.files[:-1]}}
    assert _flat(got) == pytest.approx(_flat(want), rel=1e-9, abs=1e-9)
