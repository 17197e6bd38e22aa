"""One pass of a workload in a fresh process: import `polyspec.cli`, then call
`polyspec.cli.main(argv)` once per kind of the workload.

Usage: worker.py SPAWN_T0 WORKDIR [--probe]

SPAWN_T0 is the parent's `time.monotonic()` just before it spawned this
process, so the set-up time covers interpreter start and all imports.
WORKDIR holds `pass.json` (workload, seed, kinds, trace flag) written by the
parent; the worker writes `result.json` and, when tracing, `spans.json`
there.  With --probe it only measures the set-up time.
"""
import time
import sys

_T0 = float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import polyspec.cli  # noqa: E402

SETUP_S = time.monotonic() - _T0


def main() -> None:
    workdir = Path(sys.argv[2])
    if "--probe" in sys.argv[3:]:
        (workdir / "result.json").write_text(json.dumps({"setup_s": SETUP_S}))
        return
    spec = json.loads((workdir / "pass.json").read_text())
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    kinds = []
    for i, (kind, argv) in enumerate(spec["runs"]):
        if tracer is not None:
            tracer.experiment = i
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = polyspec.cli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # noqa: BLE001 - a raising kind is a failed run
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        kinds.append({"kind": kind, "exit": code, "wall_s": wall})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(workdir / "spans.json")
    (workdir / "result.json").write_text(json.dumps(
        {"setup_s": SETUP_S, "peak_rss_mb": rss_mb, "kinds": kinds}))


if __name__ == "__main__":
    main()
