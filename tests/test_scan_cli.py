"""Prime scan driver, record serialization, cache, and the CLI surface.

CLI tests go through subprocess (python -m npscan.cli) so argument parsing,
exit codes, and stream separation are exercised exactly as a user sees them.
"""

import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from npscan import cli as cli_module, lfunction, scan as scan_module
from npscan.cli import main, parse_poly
from npscan.cyclotomic import CycInt
from npscan.dickson import DicksonSpec, dickson
from npscan.errors import InvariantViolation, MissingOrigin
from npscan.polygons import lower_hull
from npscan.scan import (
    CACHE_VERSION,
    VERDICT_NO_WITNESS,
    VERDICT_OSCILLATES,
    ScanOptions,
    ScanRecord,
    cache_load,
    cache_key,
    cache_put,
    good_places,
    primes_upto,
    record_from_json,
    record_to_json,
    record_to_row,
    run_scan,
    scan_record,
    validate_record,
    write_csv,
)
import npscan
from npscan import ratpoly

F = Fraction
X3 = (F(0), F(0), F(0), F(1))
HEADER = "p,c,d,vertices,slopes,gap,np_eq_hp,p_mod_d,admissible,slope_mult_ge2,v0,ms"


# the subprocess imports the same npscan as these tests, installed or not
PKG_ROOT = str(pathlib.Path(npscan.__file__).resolve().parents[1])


def cli(*args):
    path = os.pathsep.join(filter(None, [PKG_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "npscan.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]


def test_good_places():
    assert good_places(X3, 30) == [2, 5, 7, 11, 13, 17, 19, 23, 29]
    # a denominator of 5 rules out p = 5
    f = (F(1, 5), F(0), F(0), F(1))
    assert 5 not in good_places(f, 30) and 7 in good_places(f, 30)
    # even degree rules out p = 2
    assert good_places((F(0), F(0), F(0), F(0), F(1)), 10) == [3, 5, 7]


def test_scan_x_cubed_frozen():
    records, summary = run_scan(X3, ScanOptions(p_max=30, timing=False))
    assert summary.hint == DicksonSpec(3, F(0))
    assert summary.verdict == VERDICT_OSCILLATES
    assert (summary.n_rows, summary.n_np_eq_hp, summary.n_gap_witness) == (9, 3, 6)
    assert summary.n_admissible == 5 and summary.n_errors == 0
    by_p = {r.p: r for r in records}
    assert sorted(by_p) == [2, 5, 7, 11, 13, 17, 19, 23, 29]
    r5 = by_p[5]
    assert (r5.gap, r5.v0, r5.admissible, r5.np_eq_hp) == (F(1, 6), F(1, 2), True, False)
    r7 = by_p[7]
    assert r7.np_eq_hp and r7.admissible is False and r7.gap == 0
    # p = 2 fails admissibility on the p | 6n gate but still shows the gap
    assert by_p[2].admissible is False and by_p[2].gap == F(1, 6)
    for p in (7, 13, 19):
        assert by_p[p].np_eq_hp, p


def test_scan_x_squared_no_witness():
    f = (F(0), F(0), F(1))
    records, summary = run_scan(f, ScanOptions(p_max=20))
    assert summary.hint is None  # D_2 is never a global permutation polynomial
    assert summary.verdict == VERDICT_NO_WITNESS
    assert summary.n_gap_witness == 0
    assert all(r.np_eq_hp for r in records)


@pytest.mark.parametrize("poly", ["x^4+x", "x^7+x"])
def test_scan_verdict_needs_an_admissible_gap(poly):
    """Small primes give these f both an NP = HP row and a gap >= 1/(2d),
    but no Dickson factor makes a prime admissible, so no gap backs the
    verdict: the paper proves the gap only at admissible primes."""
    _, summary = run_scan(parse_poly(poly), ScanOptions(p_max=100, timing=False))
    assert summary.hint is None and summary.n_admissible == 0
    assert summary.n_np_eq_hp and summary.n_gap_witness
    assert summary.verdict == VERDICT_NO_WITNESS


def test_cli_scan_without_hint_witnesses_no_oscillation():
    """x^3 without its detected factor D_3(x, 0): the gaps stay in the counts
    but admit no verdict."""
    res = cli("scan", "x^3", "--p-max", "30", "--no-auto-hint", "--no-timing")
    assert res.returncode == 0
    assert "# verdict: no oscillation witnessed up to bound" in res.stderr
    assert "np_eq_hp=3 gap_witness=6 admissible=0" in res.stderr


def test_scan_dickson5_oscillates():
    records, summary = run_scan(dickson(5, F(1)), ScanOptions(p_max=11))
    assert summary.hint == DicksonSpec(5, F(1))
    assert summary.verdict == VERDICT_OSCILLATES
    by_p = {r.p: r for r in records}
    assert by_p[11].np_eq_hp
    assert by_p[7].admissible and by_p[7].gap >= F(1, 10)


def test_csv_deterministic_across_jobs():
    def csv_text(jobs):
        records, _ = run_scan(X3, ScanOptions(p_max=20, jobs=jobs, timing=False))
        buf = io.StringIO()
        write_csv(records, buf)
        return buf.getvalue()

    assert csv_text(1) == csv_text(2)
    assert csv_text(1).splitlines()[0] == HEADER


def test_scan_error_row_for_bad_character():
    rec = scan_record(X3, 5, char=5)
    assert rec.error == "character index divisible by p"
    assert rec.polygon is None
    validate_record(rec)  # error rows are exempt from invariants


def test_scan_budget_error_row():
    rec = scan_record(X3, 29, budget=10)
    assert rec.error is not None and rec.error.startswith("budget-exceeded")


def test_validate_record_violations():
    records, _ = run_scan(X3, ScanOptions(p_max=10))
    by_p = {r.p: r for r in records}
    r5, r7 = by_p[5], by_p[7]

    # claim admissibility without the witnesses
    with pytest.raises(InvariantViolation):
        validate_record(dataclasses.replace(r7, admissible=True))
    # p = 7 is 1 mod d, so NP != HP there is a violation
    with pytest.raises(InvariantViolation):
        validate_record(dataclasses.replace(r7, polygon=r5.polygon))
    # polygon missing the forced endpoint (d-1, (d-1)/2)
    bad_end = lower_hull([(0, 0), (2, F(5, 4))])
    with pytest.raises(InvariantViolation):
        validate_record(dataclasses.replace(r5, polygon=bad_end))
    # polygon dipping below Hodge
    below = lower_hull([(0, 0), (2, F(1, 2))])
    with pytest.raises(InvariantViolation):
        validate_record(dataclasses.replace(r5, polygon=below))


def test_record_json_roundtrip():
    records, _ = run_scan(X3, ScanOptions(p_max=10))
    for rec in records:
        assert record_from_json(record_to_json(rec)) == rec


def test_record_cells_and_quads():
    rec = ScanRecord(7, 1, 3, lower_hull([(0, 0), (1, F(1, 3)), (2, 1)]), None, 12)
    assert record_to_row(rec) == [
        "7", "1", "3", "0/1:0/1;1/1:1/3;2/1:1/1", "1/3:1/1;2/3:1/1",
        "0/1", "true", "1", "", "false", "", "12",
    ]
    obj = record_to_json(rec)
    assert obj["vertices"] == [[0, 1, 0, 1], [1, 1, 1, 3], [2, 1, 1, 1]]
    assert obj["slopes"] == [[1, 3, 1, 1], [2, 3, 1, 1]]
    assert (obj["gap"], obj["v0"], obj["ms"], obj["error"]) == ([0, 1], None, 12, None)
    assert list(obj) == HEADER.split(",") + ["error"]
    err = ScanRecord(5, 5, 3, None, True, None, "character index divisible by p")
    assert record_to_row(err) == ["5", "5", "3", "", "", "", "", "2", "true", "", "", ""]


def test_record_from_json_validates_vertices():
    obj = record_to_json(scan_record(X3, 5))
    with pytest.raises(MissingOrigin):
        record_from_json({**obj, "vertices": [[1, 1, 0, 1]]})
    with pytest.raises(ValueError):  # slopes 2, 1: not convex
        record_from_json({**obj, "vertices": [[0, 1, 0, 1], [1, 1, 2, 1], [2, 1, 3, 1]]})


def test_verdict_strings_exact():
    assert VERDICT_OSCILLATES == "oscillates (limit cannot exist)"
    assert VERDICT_NO_WITNESS == "no oscillation witnessed up to bound"


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    key = cache_key(X3, 5, 1)
    assert cache_load(path).get(key) is None  # missing file is a miss
    rec = scan_record(X3, 5)
    cache_put(path, key, rec)
    assert cache_load(path).get(key) == rec
    assert cache_load(path).get(cache_key(X3, 7, 1)) is None


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    key = cache_key(X3, 5, 1)
    rec = scan_record(X3, 5)
    cache_put(path, key, rec)
    with open(path) as fp:
        good = fp.read()
    with open(path, "w") as fp:
        fp.write("this is not json\n" + good)
    assert cache_load(path).get(key) == rec
    assert "cache" in capsys.readouterr().err.lower()


def test_cache_version_mismatch_is_a_miss(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    key = cache_key(X3, 5, 1)
    entry = {"key": key, "version": "other", "record": record_to_json(scan_record(X3, 5))}
    with open(path, "w") as fp:
        fp.write(json.dumps(entry) + "\n")
    assert cache_load(path).get(key) is None
    assert CACHE_VERSION == "npscan-cache-1"


@pytest.mark.parametrize("bad", ["42", "[]", "null", '"entry"'])
def test_cache_skips_json_that_is_not_an_entry(tmp_path, capsys, monkeypatch, bad):
    """A line that parses as JSON but is not an object is a corrupt line; the
    valid lines after it still replay."""
    path = tmp_path / "c.jsonl"
    args = ["scan", "x^3", "--p-max", "13", "--no-timing", "--cache", str(path)]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    path.write_text(bad + "\n" + path.read_text())

    def no_compute(*args, **kwargs):
        raise AssertionError("a cached prime was recomputed")

    monkeypatch.setattr(scan_module, "scan_record", no_compute)
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert f"cache: skipping corrupt line 1 of {path}" in err


def test_cache_replay_derives_columns_from_vertices(tmp_path):
    """A cache line's gap/np_eq_hp/... are not trusted: they follow its vertices."""
    path = str(tmp_path / "cache.jsonl")
    key = cache_key(X3, 5, 1)
    entry = {"key": key, "version": CACHE_VERSION, "record": record_to_json(scan_record(X3, 5))}
    entry["record"].update(
        gap=[0, 1], np_eq_hp=True, p_mod_d=1, slope_mult_ge2=False, v0=None
    )
    with open(path, "w") as fp:
        fp.write(json.dumps(entry) + "\n")
    rec = cache_load(path)[key]
    assert (rec.gap, rec.np_eq_hp, rec.p_mod_d) == (F(1, 6), False, 2)
    assert (rec.slope_mult_ge2, rec.v0) == (True, F(1, 2))
    replayed, summary = run_scan(X3, ScanOptions(p_max=5, timing=False, cache_path=path))
    assert replayed[-1].polygon == rec.polygon and replayed[-1].np_eq_hp is False
    assert (summary.n_np_eq_hp, summary.n_gap_witness) == (0, 2)


def test_cache_written_by_jobs_matches_serial(tmp_path):
    """--jobs computes through the same call as a serial scan, timing included."""
    def cache_text(jobs):
        path = tmp_path / f"cache{jobs}.jsonl"
        run_scan(X3, ScanOptions(p_max=13, jobs=jobs, timing=False, cache_path=str(path)))
        return path.read_text()

    serial = cache_text(1)
    assert all(json.loads(line)["record"]["ms"] is None for line in serial.splitlines())
    assert cache_text(2) == serial


def test_timed_cache_replayed_without_timing_prints_no_ms(tmp_path, capsys):
    """--no-timing settles ms when the record is made, cache replays included."""
    path = str(tmp_path / "cache.jsonl")
    assert main(["scan", "x^3", "--p-max", "13", "--cache", path]) == 0
    with open(path) as fp:
        assert all(isinstance(json.loads(line)["record"]["ms"], int) for line in fp)
    capsys.readouterr()
    replay = ["scan", "x^3", "--p-max", "13", "--cache", path, "--no-timing"]
    assert main(replay) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",") for row in rows)
    assert main(replay + ["--format", "json"]) == 0
    objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    assert len(objs) == 5 and all(obj["ms"] is None for obj in objs)
    records, _ = run_scan(X3, ScanOptions(p_max=13, timing=False, cache_path=path))
    assert all(rec.ms is None for rec in records)


def test_scan_replays_from_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    first, _ = run_scan(X3, ScanOptions(p_max=20, cache_path=path))
    second, _ = run_scan(X3, ScanOptions(p_max=20, cache_path=path))
    assert first == second  # cached records replay ms and all
    with open(path) as fp:
        assert len(fp.readlines()) == len(first)


def test_cache_replays_no_row_the_budget_refuses(tmp_path, capsys):
    """The cache key leaves the budget out: rows cached at the default
    budget are recomputed, and refused, under a budget below p^2."""
    path = str(tmp_path / "cache.jsonl")
    scan = ["scan", "dickson(5,1)", "--p-max", "13", "--no-timing"]
    assert main(scan + ["--cache", path]) == 0
    capsys.readouterr()
    outputs = []
    for cache in (["--cache", path], []):
        assert main(scan + ["--budget", "50"] + cache) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "errors=2" in outputs[0].err and VERDICT_NO_WITNESS in outputs[0].err


def test_cache_replay_recomputes_admissible(tmp_path):
    """admissible depends on the Dickson hint, which the cache key leaves out."""
    path = str(tmp_path / "cache.jsonl")
    opts = ScanOptions(p_max=30, timing=False, cache_path=path)
    _, plain = run_scan(X3, dataclasses.replace(opts, auto_hint=False))
    replayed, hinted = run_scan(X3, opts)
    assert plain.n_admissible == 0
    assert hinted.hint == DicksonSpec(3, F(0)) and hinted.n_admissible == 5
    assert replayed == run_scan(X3, dataclasses.replace(opts, cache_path=None))[0]


# ---------------------------------------------------------------------------
# polynomial parsing


def test_parse_poly_forms():
    d5 = dickson(5, F(1))
    assert parse_poly("x^5 - 5x^3 + 5x") == d5
    assert parse_poly("x^5 - 5*x^3 + 5*x") == d5
    assert parse_poly("dickson(5,1)") == d5
    assert parse_poly("0,5,0,-5,0,1") == d5
    assert parse_poly("dickson(3,0) + x^2") == (F(0), F(0), F(1), F(1))
    assert parse_poly("1/2, 1") == (F(1, 2), F(1))
    assert parse_poly("x") == ratpoly.X


def test_parse_poly_rejects_garbage():
    for bad in ("x^3 +", "x^3 + + x", "", "x^^2", "x^3 y"):
        with pytest.raises(ValueError):
            parse_poly(bad)


# sha256 of stdout of the benchmark's scans (perfbench/workloads.py),
# taken before polygons.py moved to its integer form
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["scan", "x^3", "--p-max", "300", "--no-timing"],
            "69c352fbcd6f068807cbbdde13b2121de15e94c23bd1f48fc33e959e217c78a6",
        ),
        (
            ["scan", "dickson(5,1)", "--p-max", "47", "--no-timing"],
            "e30c9a30399bebc1cf227d3c3b7e1d69ed527cc31d78a312bc7d8de9438d78c5",
        ),
        (
            ["scan", "x^3", "--p-max", "300", "--no-timing", "--format", "json"],
            "acd6c8dd8b8bf40711d51073b98e63b36355745750b44567d64ea52d0bb20a10",
        ),
    ],
    ids=["scan-x3-csv", "scan-d5-csv", "scan-x3-json"],
)
def test_benchmark_scan_stdout_digest(capsys, args, digest):
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# CLI subprocess tests


def test_cli_np_golden_line():
    res = cli("np", "x^3", "7", "--no-timing")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        HEADER,
        "7,1,3,0/1:0/1;1/1:1/3;2/1:1/1,1/3:1/1;2/3:1/1,0/1,true,1,,false,,",
    ]
    res = cli("np", "x^3", "5", "--no-timing")
    assert res.stdout.splitlines()[1] == (
        "5,1,3,0/1:0/1;2/1:1/1,1/2:2/1,1/6,false,2,,true,1/2,"
    )
    # goldens computed on the full L-path; x^3 at 10007 is beyond the full
    # path's budget and matches the Stickelberger oracle in test_lfunction;
    # x^9+x at 53 (K = 4, F_{53^4} histograms) comes from the half-L path
    pinned_rows = {
        ("x^3", "71"): "71,1,3,0/1:0/1;2/1:1/1,1/2:2/1,1/6,false,2,,true,1/2,",
        ("dickson(5,1)", "23"):
            "23,1,5,0/1:0/1;2/1:7/11;4/1:2/1,7/22:2/1;15/22:2/1,13/110,false,3,,true,7/22,",
        ("dickson(5,1)", "29"):
            "29,1,5,0/1:0/1;1/1:3/14;2/1:9/14;3/1:17/14;4/1:2/1,"
            "3/14:1/1;3/7:1/1;4/7:1/1;11/14:1/1,3/70,false,4,,false,,",
        ("x^3", "10007"): "10007,1,3,0/1:0/1;2/1:1/1,1/2:2/1,1/6,false,2,,true,1/2,",
        ("x^9+x", "53"):
            "53,1,9,0/1:0/1;1/1:3/13;2/1:7/13;3/1:12/13;4/1:18/13;5/1:25/13;6/1:33/13;"
            "7/1:42/13;8/1:4/1,3/13:1/1;4/13:1/1;5/13:1/1;6/13:1/1;7/13:1/1;8/13:1/1;"
            "9/13:1/1;10/13:1/1,32/117,false,8,,false,,",
    }
    for (poly, p), row in pinned_rows.items():
        res = cli("np", poly, p, "--no-timing")
        assert res.returncode == 0 and res.stdout.splitlines()[1] == row, (poly, p)


def test_cli_np_json():
    res = cli("np", "x^3", "5", "--format", "json", "--no-timing")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["vertices"] == [[0, 1, 0, 1], [2, 1, 1, 1]]
    assert obj["gap"] == [1, 6] and obj["np_eq_hp"] is False


def test_cli_scan_streams_and_verdict():
    res = cli("scan", "x^3", "--p-max", "30", "--no-timing")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == HEADER and len(lines) == 10
    assert "# verdict: oscillates (limit cannot exist)" in res.stderr
    assert "np_eq_hp=3" in res.stderr


def test_cli_scan_json_summary():
    res = cli("scan", "x^2", "--p-max", "10", "--format", "json", "--no-timing")
    assert res.returncode == 0
    objs = [json.loads(line) for line in res.stdout.splitlines()]
    assert objs[-1]["summary"]["verdict"] == VERDICT_NO_WITNESS
    assert all("p" in o for o in objs[:-1])


def test_cli_exit_codes():
    assert cli("np", "x^3 +", "7").returncode == 2  # dangling sign
    assert cli("np", "x^3", "9").returncode == 2  # not prime
    assert cli("np", "x^3", "3").returncode == 2  # bad place: p | d
    assert cli("np", "x^5", "11", "--budget", "10").returncode == 3
    assert cli("crosscheck", "x^2", "3").returncode == 0


def test_cli_rejects_options_a_subcommand_ignores(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    for argv in (
        ["np", "x^3", "7", "--cache", str(cache)],
        ["np", "x^3", "7", "--jobs", "8"],
        ["crosscheck", "x^3", "5", "--char", "3"],
        ["crosscheck", "x^3", "5", "--format", "json"],
        ["crosscheck", "x^3", "5", "--no-timing"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not cache.exists()


def test_cli_indivisible_recurrence_exits_4(monkeypatch, capsys):
    """Exact sums that give a non-integral a_k are computed data failing a theorem."""
    exact = lfunction.exp_sum

    def corrupted(fbar, m, chi, budget=None):
        s = exact(fbar, m, chi, budget)
        return s + CycInt.one(s.p) if m == 2 else s

    monkeypatch.setattr(lfunction, "exp_sum", corrupted)
    assert main(["np", "dickson(5,1)", "7", "--no-timing"]) == 4
    assert "coefficient a_2 is not integral" in capsys.readouterr().err
    assert main(["scan", "dickson(5,1)", "--p-max", "7", "--no-timing"]) == 4


def test_scan_caches_rows_before_a_failing_prime(monkeypatch, tmp_path, capsys):
    """A prime that fails a theorem ends the scan with exit 4; the rows that
    finished before it are in the cache, and stdout stays empty as before."""
    exact = lfunction.exp_sum

    def corrupted(fbar, m, chi, budget=None):
        s = exact(fbar, m, chi, budget)
        return s + CycInt.one(s.p) if m == 2 and s.p == 7 else s

    monkeypatch.setattr(lfunction, "exp_sum", corrupted)
    cache = tmp_path / "c.jsonl"
    argv = ["scan", "dickson(5,1)", "--p-max", "13", "--cache", str(cache), "--no-timing"]
    assert main(argv) == 4
    assert capsys.readouterr().out == ""
    rows = [json.loads(line)["record"] for line in cache.read_text().splitlines()]
    assert [row["p"] for row in rows] == [2, 3]


def test_main_called_repeatedly_in_one_process_matches_separate_runs(capsys):
    """One parser serves every call: options of one call must not leak into
    the next, and each call prints what a fresh process prints."""
    argvs = [
        ["np", "x^3", "7", "--format", "json", "--char", "2", "--no-timing"],
        ["crosscheck", "x^3", "7", "--budget", "50"],
        ["np", "x^3", "7", "--no-timing"],
        ["crosscheck", "x^3", "7"],
        ["np", "x^5", "11", "--budget", "10", "--no-timing"],
        ["np", "x^3", "7", "--no-timing"],
    ]
    capsys.readouterr()
    in_process = []
    for argv in argvs:
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    separate = [(res.returncode, res.stdout) for res in (cli(*argv) for argv in argvs)]
    assert in_process == separate
    assert cli_module._build_parser() is cli_module._build_parser()


def test_cli_np_past_int64_bound_exits_3():
    res = cli("np", "x^3", "2147483659", "--budget", "10000000000")
    assert res.returncode == 3
    assert "budget-exceeded" in res.stderr


def test_cli_zeta():
    res = cli("zeta", "x^2", "3")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["p1"] == ["1", "0", "3"] and obj["genus"] == 1
    # x + 7x^3 reduces to x mod 7: the genus is the reduced curve's, 0
    res = cli("zeta", "0,1,0,7", "7")
    assert res.returncode == 0
    assert res.stdout == '{"p": 7, "q": 7, "genus": 0, "p1": ["1"]}\n'


def test_cli_dickson_subcommands():
    res = cli("dickson", "generate", "5", "1")
    obj = json.loads(res.stdout)
    assert obj["coeffs"] == ["0/1", "5/1", "0/1", "-5/1", "0/1", "1/1"]
    assert obj["poly"] == "x^5 - 5*x^3 + 5*x"
    res = cli("dickson", "recognize", "x^3 - 3x + 7")
    obj = json.loads(res.stdout)
    assert (obj["n"], obj["a"], obj["constant"]) == (3, "1", "7")
    res = cli("dickson", "perm-check", "5", "1", "7", "--brute")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["permutes"] is True and obj["bruteforce"] is True
    assert obj["q"] == 7


def test_cli_decompose():
    res = cli("decompose", "x^6")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["markers"] == ["dickson", "dickson"]
    assert len(obj["factors"]) == 2


def test_cli_crosscheck_runs_dickson_checks():
    res = cli("crosscheck", "x^3", "5")
    assert res.returncode == 0
    assert "dickson-divisibility" in res.stdout
    assert "pass" in res.stdout and "fail" not in res.stdout


@pytest.mark.parametrize("poly,p", [("x", "5"), ("x+1", "7")])
def test_cli_crosscheck_linear_polynomial_skips_dickson_checks(capsys, poly, p):
    """A linear f has no composition factor of degree > 1, so no Dickson factor."""
    assert main(["crosscheck", poly, p]) == 0
    assert capsys.readouterr().out == (
        "product-formula         pass\n"
        "slope-length-relation   pass\n"
        "base-change-invariance  pass\n"
        "character-independence  pass\n"
        "dickson-divisibility    skipped (no Dickson factor)\n"
        "dickson-sum-collapse    skipped (no Dickson factor)\n"
    )


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
def test_cli_np_checks_p_is_prime_first(capsys, p):
    assert main(["np", "x^3", p]) == 2
    assert capsys.readouterr() == ("", f"error: {p} is not prime\n")
