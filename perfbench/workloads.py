"""The benchmark's workloads: what each child process runs, and how its
output is checked against the reference pinned at the commit that defined
the benchmark.

Every workload drives the public CLI entry ``npscan.cli.main`` in a fresh
process, so each run pays the cold ``lru_cache``s in ``fields``, ``kernels``
and ``lfunction`` the way every CLI user does.

Why these three:

* ``scan-x3`` -- ``scan "x^3" --p-max 300`` (61 rows).  Many cheap primes
  with d = 3.  About 60% of the time goes to ``cyclotomic.pi_valuation``
  (O(p^2) bigint binomials) and about 35% to Zech table builds for F_{p^2},
  where the pure-Python generator search dominates.
* ``scan-d5`` -- ``scan "dickson(5,1)" --p-max 47`` (14 rows).  Few primes
  and big fields: F_{p^4} up to 4.9M elements.  Nearly all of the time is
  ``kernels`` Zech work, peak RSS is near 280 MB, and ``cyclotomic`` is
  under 0.2%, so a change confined to ``cyclotomic`` should leave it alone.
* ``crosscheck-batch`` -- ``crosscheck`` over a list of cases in one
  process, like ``scripts/crosscheck_grid.py``.  It uses the same layers
  differently: ``kernels.find_first_root`` through ``fields.embed`` (Horner
  root search over F_{7^8}), which the scans never reach; the
  ``_extension_histogram`` cache, which hits on most requests here and on
  none in the scans; and the ``curvezeta`` product formula in Z[zeta_p][t].

The scans are the paper's fixed inputs and ignore the seed.  The
crosscheck cases are seeded: per (p, d) cell the seed picks two monic
integer polynomials, coefficients in [-9, 9], out of a pool of POOL_SIZE
such polynomials drawn once from a fixed generator.  Drawing from a pool
keeps every seed checkable: ``reference/crosscheck.json`` pins the status
lines of every pool entry.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import zip_longest
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NAMES = ("scan-x3", "scan-d5", "crosscheck-batch")

SCANS = {
    "scan-x3": {
        "poly": "x^3",
        "p_max": 300,
        "sha256": "69c352fbcd6f068807cbbdde13b2121de15e94c23bd1f48fc33e959e217c78a6",
        "summary": "# rows=61 np_eq_hp=28 gap_witness=33 admissible=32 errors=0",
    },
    "scan-d5": {
        "poly": "dickson(5,1)",
        "p_max": 47,
        "sha256": "e30c9a30399bebc1cf227d3c3b7e1d69ed527cc31d78a312bc7d8de9438d78c5",
        "summary": "# rows=14 np_eq_hp=3 gap_witness=9 admissible=7 errors=0",
    },
}

CROSSCHECK_CELLS = ((7, 3), (5, 4), (3, 5), (3, 7), (11, 2), (5, 3))
PER_CELL = 2
POOL_SIZE = 32
FIXED_CASES = (("dickson(5,1)", 3), ("dickson(7,1)", 3), ("dickson(5,1)", 7))


def scan_argv(name: str) -> list[str]:
    spec = SCANS[name]
    return ["scan", spec["poly"], "--p-max", str(spec["p_max"]), "--no-timing"]


def crosscheck_argv(poly: str, p: int) -> list[str]:
    # "--" keeps a leading negative coefficient from parsing as a flag
    return ["crosscheck", "--", poly, str(p)]


def pool(p: int, d: int) -> list[str]:
    """The POOL_SIZE candidate polynomials of cell (p, d), ascending
    coefficients with the leading 1, in the CLI's comma form."""
    rng = random.Random(f"npscan-crosscheck-pool-{p}-{d}")
    return [
        ",".join(str(c) for c in [rng.randint(-9, 9) for _ in range(d)] + [1])
        for _ in range(POOL_SIZE)
    ]


def crosscheck_cases(seed: int) -> list[tuple[str, int]]:
    rng = random.Random(seed)
    cases = []
    for p, d in CROSSCHECK_CELLS:
        candidates = pool(p, d)
        cases.extend((candidates[i], p) for i in rng.sample(range(POOL_SIZE), PER_CELL))
    cases.extend(FIXED_CASES)
    return cases


def argvs(name: str, seed: int) -> list[list[str]]:
    """The CLI argument lists one child runs, in order."""
    if name in SCANS:
        return [scan_argv(name)]
    if name == "crosscheck-batch":
        return [crosscheck_argv(poly, p) for poly, p in crosscheck_cases(seed)]
    raise ValueError(f"unknown workload {name!r}")


def case_id(argv: list[str]) -> str:
    return f"{argv[-2]}@{argv[-1]}"


def parse_crosscheck(stdout: str) -> list[tuple[str, str]]:
    """(check, status) pairs from crosscheck's aligned two-column output."""
    pairs = []
    for line in stdout.splitlines():
        name, _, status = line.partition("  ")
        pairs.append((name, status.strip()))
    return pairs


def _reference_csv(name: str) -> list[str]:
    data = (REFERENCE_DIR / f"{name}.csv").read_bytes()
    if hashlib.sha256(data).hexdigest() != SCANS[name]["sha256"]:
        raise RuntimeError(f"reference/{name}.csv does not match its pinned digest")
    return data.decode().splitlines()


def _reference_crosscheck() -> dict[str, list[tuple[str, str]]]:
    ref = json.loads((REFERENCE_DIR / "crosscheck.json").read_text())
    checks = ref["checks"]
    return {case: list(zip(checks, statuses)) for case, statuses in ref["cases"].items()}


class Checker:
    """Counts operations and failures in a child's CLI results.

    An operation is a scan row or a crosscheck status line.  It fails on a
    nonzero exit, an error row, a FAIL line, or output that differs from the
    pinned reference.
    """

    def __init__(self, name: str):
        self.name = name
        if name in SCANS:
            self.rows = _reference_csv(name)[1:]  # data rows, header excluded
        else:
            self.cases = _reference_crosscheck()

    def check(self, argv: list[str], result: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for one CLI call's result."""
        if self.name in SCANS:
            return self._check_scan(result)
        return self._check_crosscheck(argv, result)

    def _check_scan(self, result: dict) -> tuple[int, int, list[str]]:
        expected = self.rows
        lines = result["stdout"].splitlines()
        got = lines[1:]
        failed = sum(1 for want, have in zip_longest(expected, got) if want != have)
        problems = []
        if failed:
            problems.append(f"{failed} CSV rows differ from reference/{self.name}.csv")
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}")
        summary = SCANS[self.name]["summary"]
        if summary not in result["stderr"].splitlines():
            problems.append(f"summary line {summary!r} missing from stderr")
        if problems and not failed:
            failed = len(expected)
        return len(expected), failed, problems

    def _check_crosscheck(self, argv: list[str], result: dict) -> tuple[int, int, list[str]]:
        case = case_id(argv)
        expected = self.cases.get(case)
        if expected is None:
            raise RuntimeError(f"case {case} has no pinned reference")
        got = parse_crosscheck(result["stdout"])
        bad = [
            (want, have)
            for want, have in zip_longest(expected, got)
            if want != have or (have is not None and have[1] == "FAIL")
        ]
        problems = [f"{case}: expected {want}, got {have}" for want, have in bad]
        failed = len(bad)
        if result["rc"] != 0:
            problems.append(f"{case}: exit code {result['rc']}: {result['stderr'].strip()[-300:]}")
            failed = len(expected)
        return len(expected), failed, problems
