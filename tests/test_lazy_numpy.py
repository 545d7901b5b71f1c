"""numpy loads on first use: CLI runs that enumerate no field never load it,
nor do help and usage errors.
Nor does importing the CLI load dataclasses and the modules it pulls in.

The test modules import numpy early, so an in-process test never sees the
lazy module; each case here runs in a fresh interpreter.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import npscan

# the subprocess imports the same npscan as these tests, installed or not
PKG_ROOT = str(pathlib.Path(npscan.__file__).resolve().parents[1])

# Runs cli.main on the argv in sys.argv[1] after the statements in
# sys.argv[2], then writes its exit code and the numpy submodules loaded to
# stderr's last line (an unloaded lazy numpy is in sys.modules, but none of
# its submodules).  argparse exits on help and usage errors.
RUN_CLI = """
import json, sys
exec(sys.argv[2])
from npscan.cli import main
try:
    rc = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
sys.stdout.flush()
loaded = sorted(k for k in sys.modules if k.startswith("numpy."))
sys.stderr.write("\\n" + json.dumps([rc, loaded]) + "\\n")
"""


def python(*args):
    path = os.pathsep.join(filter(None, [PKG_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(argv, first="", exit_code=0):
    """(stdout, the numpy submodules loaded) of cli.main(argv) in a fresh
    interpreter that runs first before it imports npscan.cli."""
    res = python("-c", RUN_CLI, json.dumps(argv), first)
    rc, loaded = json.loads(res.stderr.splitlines()[-1])
    assert (res.returncode, rc) == (0, exit_code), res.stderr
    return res.stdout, loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "x^3", "--p-max", "300", "--no-timing"],
        ["dickson", "generate", "5", "1"],
        ["dickson", "recognize", "x^5-5x^3+5x"],
    ],
    ids=["scan-x3", "dickson-generate", "dickson-recognize"],
)
def test_runs_without_enumeration_load_no_numpy(argv):
    out, loaded = run_cli(argv)
    assert out and not loaded
    assert run_cli(argv, "import numpy")[0] == out


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["-h"], 0), (["scan", "-h"], 0), (["scan", "x^3", "--bogus"], 2)],
    ids=["help", "scan-help", "unrecognized-argument"],
)
def test_help_and_usage_errors_load_no_numpy(argv, exit_code):
    assert run_cli(argv, exit_code=exit_code)[1] == []


def test_cache_replay_loads_no_numpy(tmp_path):
    argv = ["scan", "x^3+x", "--p-max", "60", "--no-timing", "--cache", str(tmp_path / "c.jsonl")]
    fresh, writer = run_cli(argv)
    assert writer  # rows at p = 2 mod 3 enumerate F_p
    replay, loaded = run_cli(argv)
    assert replay == fresh and not loaded
    assert run_cli(argv, "import numpy")[0] == fresh


def test_enumerating_runs_load_numpy():
    out, loaded = run_cli(["np", "x^3", "7", "--no-timing"], "import npscan")
    assert loaded
    assert out == run_cli(["np", "x^3", "7", "--no-timing"], "import numpy")[0]
    out, loaded = run_cli(["scan", "dickson(5,1)", "--p-max", "47", "--no-timing"], "import npscan")
    assert loaded
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e30c9a30399bebc1cf227d3c3b7e1d69ed527cc31d78a312bc7d8de9438d78c5"
    )


def test_cli_import_loads_no_dataclasses_or_inspect():
    """npscan's records are NamedTuples: dataclasses would pull in inspect,
    ast, dis and tokenize, about 6 ms, before a command's first row."""
    res = python("-c", "import sys, npscan.cli;"
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


def test_numpy_imported_after_or_before_npscan_is_one_module():
    after = python("-c", "import npscan, numpy; from npscan import _numpy;"
                   "assert _numpy.np is numpy; print(int(numpy.arange(4).sum()))")
    assert (after.returncode, after.stdout) == (0, "6\n"), after.stderr
    before = python("-c", "import numpy, npscan; from npscan import _numpy;"
                    "assert _numpy.np is numpy and type(numpy) is type(npscan)")
    assert before.returncode == 0, before.stderr


def test_missing_numpy_fails_the_import():
    res = python("-c", "import sys; sys.modules['numpy'] = None; import npscan")
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1].startswith("ModuleNotFoundError: import of numpy halted")
