"""Regenerate the pinned outputs in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every later difference from these files as a failed operation.  The
scan CSVs must still match the digests in workloads.SCANS; a change that
alters them on purpose updates those digests in the same commit.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads
from npscan.cli import main as cli_main


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return out.getvalue()


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.SCANS:
        (workloads.REFERENCE_DIR / f"{name}.csv").write_text(_run(workloads.scan_argv(name)))

    cases = [(poly, p) for p, d in workloads.CROSSCHECK_CELLS for poly in workloads.pool(p, d)]
    cases += list(workloads.FIXED_CASES)
    checks = None
    table = {}
    for poly, p in cases:
        argv = workloads.crosscheck_argv(poly, p)
        pairs = workloads.parse_crosscheck(_run(argv))
        names = [name for name, _ in pairs]
        if checks is None:
            checks = names
        if names != checks:
            raise SystemExit(f"{argv} printed checks {names}, expected {checks}")
        table[workloads.case_id(argv)] = [status for _, status in pairs]
    rows = ",\n".join(f"{json.dumps(case)}: {json.dumps(statuses)}" for case, statuses in table.items())
    (workloads.REFERENCE_DIR / "crosscheck.json").write_text(
        f'{{"checks": {json.dumps(checks)},\n"cases": {{\n{rows}\n}}}}\n')


if __name__ == "__main__":
    main()
