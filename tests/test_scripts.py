"""Smoke tests for the command-line scripts under scripts/.

Each script is loaded from its file and its main() called with small
bounds, so the test runs in seconds and writes only into tmp_path.
"""

import importlib.util
import pathlib

import pytest

from npscan import curvezeta

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def demo():
    return load("oscillation_demo")


def test_oscillation_demo_jobs_write_identical_csvs(demo, tmp_path, capsys):
    def csv_texts(jobs):
        out = tmp_path / f"jobs{jobs}"
        argv = ["--p-max", "30", "--quintic-p-max", "20", "--jobs", str(jobs)]
        assert demo.main(argv + ["--out-dir", str(out)]) == 0
        return {tag: (out / f"scan_{tag}.csv").read_text() for tag in ("x3", "d5")}

    serial = csv_texts(1)
    assert csv_texts(2) == serial
    rows = {tag: text.splitlines() for tag, text in serial.items()}
    assert len(rows["x3"]) == 1 + 9 and len(rows["d5"]) == 1 + 7
    # the wall-time ms column, last, is empty on every row
    assert all(row.endswith(",") for tag_rows in rows.values() for row in tag_rows[1:])
    assert capsys.readouterr().out.count("verdict: oscillates (limit cannot exist)") == 4


def test_crosscheck_grid_one_cell(capsys):
    grid = load("crosscheck_grid")
    assert grid.main(["--primes", "3", "--degrees", "2", "--per-cell", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"


def test_crosscheck_grid_skips_a_cell_over_the_budget(capsys):
    """At p = 2, d = 29 the full L needs 2^28 elements, over --max-enum:
    the cell is skipped with the refused enumeration, not a traceback."""
    grid = load("crosscheck_grid")
    assert grid.main(["--primes", "2", "--degrees", "29", "--per-cell", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=2 d=29: skip (enumeration of 16777216 elements exceeds budget 10000000)",
        "all checks passed",
    ]


def test_crosscheck_grid_refuses_before_computing_every_l(monkeypatch, capsys):
    """At p = 7, d = 4 the curve needs 7^9 elements, over --max-enum: the
    product formula computes L(chi_1), then P_1 refuses, so the cell costs
    one L-polynomial, not p - 1 = 6."""
    calls = []
    l_polynomial = curvezeta.l_polynomial

    def counted(gbar, chi, budget):
        calls.append(chi)
        return l_polynomial(gbar, chi, budget)

    monkeypatch.setattr(curvezeta, "l_polynomial", counted)
    grid = load("crosscheck_grid")
    assert grid.main(["--primes", "7", "--degrees", "4", "--per-cell", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=7 d=4: skip (enumeration of 40353607 elements exceeds budget 10000000)",
        "all checks passed",
    ]
    assert calls == [curvezeta.Character(7, 1)]
