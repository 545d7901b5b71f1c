"""One benchmark child: import npscan, run CLI calls, report as JSON.

Usage (run.py starts it with PYTHONPATH pointing at the checkout's src/):

    python3 perfbench/child.py '{"argvs": [[...], ...], "trace": false}'

It writes one JSON object to stdout: the wall-clock time at which
``npscan.cli.main`` became callable, the numpy version, and for each CLI
call its exit code, wall time and captured output.  With ``"trace": true``
the layer spans of tracing.py are installed before the first call and
their totals are added.  With ``"argvs": []`` it only measures set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def _call(cli_main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        except Exception:  # reported as a failed operation, not a crash
            rc = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    spec = json.loads(sys.argv[1])
    from npscan.cli import main as cli_main

    ready = time.time()
    import numpy
    import npscan

    report = {"ready": ready, "numpy": numpy.__version__, "npscan_file": npscan.__file__}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    report["calls"] = [_call(cli_main, argv) for argv in spec["argvs"]]
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.totals()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
