"""Prime scan driver, record serialization, cache, and the CLI surface.

CLI tests go through subprocess (python -m npscan.cli) so argument parsing,
exit codes, and stream separation are exercised exactly as a user sees them.
"""

import gc
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from npscan import cli as cli_module, lfunction, scan as scan_module
from npscan.cli import main, parse_poly
from npscan.cyclotomic import CycInt
from npscan.dickson import DicksonSpec, dickson
from npscan.errors import BadPlace, InvariantViolation, MissingOrigin
from npscan.polygons import hodge_polygon, lower_hull, vertical_gap
from npscan.scan import (
    CACHE_VERSION,
    VERDICT_NO_WITNESS,
    VERDICT_OSCILLATES,
    ScanOptions,
    ScanRecord,
    cache_load,
    cache_key,
    cache_put,
    _csv_cell,
    good_places,
    primes_upto,
    record_from_json,
    record_to_json,
    record_to_row,
    record_values,
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


def test_jobs_pool_is_no_larger_than_the_rows(monkeypatch):
    """--jobs asks for no more workers than there are rows to compute: a
    fork-started pool forks every worker at its first task."""
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    records, _ = run_scan(X3, ScanOptions(p_max=30, jobs=64, timing=False))
    assert len(records) == 9 and len(asked) == 1 and asked[0] <= 9
    assert records == run_scan(X3, ScanOptions(p_max=30, timing=False))[0]


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
        validate_record(r7._replace(admissible=True))
    # p = 7 is 1 mod d, so NP != HP there is a violation
    with pytest.raises(InvariantViolation):
        validate_record(r7._replace(polygon=r5.polygon))
    # polygon missing the forced endpoint (d-1, (d-1)/2)
    bad_end = lower_hull([(0, 0), (2, F(5, 4))])
    with pytest.raises(InvariantViolation):
        validate_record(r5._replace(polygon=bad_end))
    # polygon dipping below Hodge
    below = lower_hull([(0, 0), (2, F(1, 2))])
    with pytest.raises(InvariantViolation):
        validate_record(r5._replace(polygon=below))


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


@pytest.mark.parametrize("where", ["a directory", "under a missing directory"])
def test_unusable_cache_path_exits_2(tmp_path, capsys, where):
    path = tmp_path if where == "a directory" else tmp_path / "missing" / "cache.jsonl"
    assert main(["scan", "x^3", "--p-max", "20", "--cache", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


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
    _, plain = run_scan(X3, opts._replace(auto_hint=False))
    replayed, hinted = run_scan(X3, opts)
    assert plain.n_admissible == 0
    assert hinted.hint == DicksonSpec(3, F(0)) and hinted.n_admissible == 5
    assert replayed == run_scan(X3, opts._replace(cache_path=None))[0]


def test_cache_entry_of_another_prime_is_recomputed(tmp_path, capsys):
    """A cache line whose record names another prime than its key's is a
    miss: the row is recomputed and appended, and stderr says so once."""
    path = tmp_path / "cache.jsonl"
    scan = ["scan", "x^3+x", "--p-max", "13", "--no-timing"]
    assert main(scan) == 0
    clean = capsys.readouterr()
    assert main(scan + ["--cache", str(path)]) == 0
    capsys.readouterr()
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    next(e for e in entries if e["record"]["p"] == 7)["record"]["p"] = 11
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert main(scan + ["--cache", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == clean.out
    notes = [line for line in out.err.splitlines() if line.startswith("cache:")]
    assert len(notes) == 1 and "p = 7" in notes[0]
    assert len(path.read_text().splitlines()) == len(entries) + 1


def test_cache_line_without_a_polygon_or_with_an_error_is_recomputed(tmp_path, capsys):
    """cache_put writes only rows with a polygon and no error, so a line
    with blank vertices or with an error is an invalid record: its row is
    recomputed and the scan prints what a clean scan prints."""
    path = tmp_path / "cache.jsonl"
    scan = ["scan", "x^3+x", "--p-max", "13", "--no-timing"]
    assert main(scan) == 0
    clean = capsys.readouterr()
    assert main(scan + ["--cache", str(path)]) == 0
    capsys.readouterr()
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    lineno = {e["record"]["p"]: i for i, e in enumerate(entries, 1)}
    entries[lineno[7] - 1]["record"]["vertices"] = None
    entries[lineno[11] - 1]["record"]["error"] = "budget-exceeded: edited"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert main(scan + ["--cache", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == clean.out
    notes = [line for line in out.err.splitlines() if line.startswith("cache:")]
    assert notes == [f"cache: invalid record at line {lineno[p]} of {path}" for p in (7, 11)]
    assert [line for line in out.err.splitlines() if line not in notes] == clean.err.splitlines()


# ---------------------------------------------------------------------------
# rows of a shifted monomial (x + b)^d + c, taken from Stickelberger's closed form


def shifted_monomial(d, b, c):
    xd = ratpoly.poly_pow(ratpoly.X, d)
    return ratpoly.poly_add(ratpoly.poly_shift(xd, b), ratpoly.constant(c))


@pytest.mark.parametrize("d", range(1, 10))
def test_shifted_monomial_scan_rows_equal_np_rows(d):
    """Each closed-form scan row is the row np computes from half of L."""
    for b, c in ((0, 0), (1, 2), (F(-3, 2), F(5, 7))):
        f = shifted_monomial(d, b, c)
        assert ratpoly.is_shifted_monomial(f)
        records, _ = run_scan(f, ScanOptions(p_max=60, timing=False, auto_hint=False))
        assert [rec.p for rec in records] == good_places(f, 60)
        for rec in records:
            assert rec.error is None
            want = record_to_row(scan_record(f, rec.p, timing=False))
            assert record_to_row(rec) == want, (d, b, c, rec.p)


@pytest.mark.parametrize(
    "f", [(F(0), F(1), F(0), F(1)), dickson(5, F(1)), (F(0), F(0), F(1), F(0), F(1))],
    ids=["x^3+x", "D_5(x,1)", "x^4+x^2"],
)
def test_scan_of_a_non_monomial_takes_half_of_l(monkeypatch, f):
    """A non-monomial takes Stickelberger's polygon only at p = 1 mod d,
    where it is HP (Adolphson-Sperber); every other row is half of L's."""
    assert not ratpoly.is_shifted_monomial(f)
    closed_form = scan_module.monomial_polygon

    def refuse(d, p):
        if p % d != 1:
            raise AssertionError(f"closed form used for a non-monomial at p = {p}")
        return closed_form(d, p)

    monkeypatch.setattr(scan_module, "monomial_polygon", refuse)
    records, _ = run_scan(f, ScanOptions(p_max=13, timing=False))
    assert records and all(rec.polygon is not None for rec in records)


def _random_monic(d, seed):
    """Ascending integer coefficients of a seeded random monic f of degree d."""
    rng = random.Random(seed)
    return ",".join([str(rng.randint(-9, 9)) for _ in range(d)] + ["1"])


RANDOM_MONIC = [_random_monic(d, seed=d) for d in range(3, 10)]


@pytest.mark.parametrize(
    "poly", ["x^3", "x^3+x", "x^4+x", "3,3,3,1", "x^5+x", "dickson(5,1)", *RANDOM_MONIC]
)
def test_closed_form_flag_keeps_every_row(poly):
    """closed_form only allows the closed form: scan_record takes
    Stickelberger's polygon where f is a shifted monomial ("3,3,3,1" is
    (x + 1)^3 + 2) and at p = 1 mod d, and half of L elsewhere, so every
    row renders as half of L renders it."""
    f = parse_poly(poly)
    for p in good_places(f, 60):
        allowed = scan_record(f, p, timing=False, closed_form=True)
        assert record_to_row(allowed) == record_to_row(scan_record(f, p, timing=False)), p


@pytest.mark.parametrize("text, primes", [("x^3+x", (7, 13)), ("dickson(5,1)", (11, 31))])
def test_rows_at_1_mod_d_share_one_polygon(text, primes):
    """Every row at p = 1 mod d takes the class polygon of d, memoized once,
    and it is the Hodge polygon."""
    f = parse_poly(text)
    first, second = (scan_record(f, p, timing=False, closed_form=True).polygon for p in primes)
    assert first is second and first == hodge_polygon(ratpoly.degree(f))


def test_np_of_a_monomial_takes_half_of_l(monkeypatch, capsys):
    """np never takes the closed form: np x^3 7 runs one half-L polynomial
    and its valuations (the benchmark's tracer probe relies on this)."""
    def refuse(*args):
        raise AssertionError("closed form used by np")

    calls = {"l_polynomial": 0, "pi_valuation": 0}

    def counted(name):
        inner = getattr(lfunction, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scan_module, "monomial_polygon", refuse)
    for name in calls:
        monkeypatch.setattr(lfunction, name, counted(name))
    assert main(["np", "x^3", "7", "--no-timing"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        HEADER, "7,1,3,0/1:0/1;1/1:1/3;2/1:1/1,1/3:1/1;2/3:1/1,0/1,true,1,,false,,"
    ]
    assert calls["l_polynomial"] == 1 and calls["pi_valuation"] >= 1


def test_monomial_scan_prints_the_half_l_bytes(tmp_path, capsys):
    """sha256 of scan x^3 --p-max 60 as printed when every row came from half
    of L, under --jobs, a cache replay and a budget that refuses 13 rows."""
    plain = "f31796da9719d5633037f38cfa953741c4d042c188d060e81d4dd52beebec890"
    refused = "63b0160f2ba00c69a04b91b34b45f84ead55fac34c7f4544ff9376f208b089fb"
    base = ["scan", "x^3", "--p-max", "60", "--no-timing"]
    cache = ["--cache", str(tmp_path / "c.jsonl")]
    budget = ["--budget", "10"]
    runs = [
        (base, plain),
        (base + ["--jobs", "2"], plain),
        (base + cache, plain),
        (base + cache, plain),  # every row replayed
        (base + cache + budget, refused),  # 13 replays refused by the budget
        (base + budget, refused),
    ]
    for argv, digest in runs:
        assert main(argv) == 0, argv
        out = capsys.readouterr()
        assert hashlib.sha256(out.out.encode()).hexdigest() == digest, argv
        n_errors = 13 if digest == refused else 0
        assert f"errors={n_errors}" in out.err
        assert sum(1 for row in out.out.splitlines()[1:] if ",1,3,,," in row) == n_errors
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 16


def test_hodge_scan_rows_enumerate_nothing_and_keep_their_bytes(monkeypatch, tmp_path, capsys):
    """Rows at p = 1 mod d come from the closed form, never from half of L,
    and print the bytes they printed when they came from half of L (sha256
    taken then): plain, under budgets that refuse rows (all of D_5's Hodge
    rows among them), and from a cache written and then replayed.  The
    --jobs runs go unpatched, as workers need not inherit the patch, and
    are checked by digest alone."""
    x3x = ["scan", "x^3+x", "--p-max", "60", "--no-timing"]
    runs = [
        (x3x, "c71bcb34bb77ed1d07d31056a32a019f9434d7f4b3629d68fcf8a9ab5ec1e77e", 0),
        (x3x + ["--budget", "10"],
         "788ecf3495bc5ca2440ac25ba49abc7207b3d8f0eac910edeb61c6f013600f54", 13),
        (["scan", "dickson(5,1)", "--p-max", "60", "--budget", "100", "--no-timing"],
         "f064da505c39739f9391e754400be4d49b56934b2d51bb821beb9757a360c85b", 13),
    ]
    half_l = scan_module.np_at_prime

    def refuse_hodge_rows(f, p, *args):
        if p % ratpoly.degree(ratpoly.as_poly(f)) == 1:
            raise AssertionError(f"half of L asked for a row at p = {p} = 1 mod d")
        return half_l(f, p, *args)

    for i, (argv, digest, n_errors) in enumerate(runs):
        cache = ["--cache", str(tmp_path / f"c{i}.jsonl")]
        with monkeypatch.context() as patched:
            patched.setattr(scan_module, "np_at_prime", refuse_hodge_rows)
            outs = []
            for extra in ([], cache, cache):  # the second cache run replays
                assert main(argv + extra) == 0, argv + extra
                outs.append(capsys.readouterr())
        assert main(argv + ["--jobs", "2"]) == 0, argv
        outs.append(capsys.readouterr())
        for out in outs:
            assert hashlib.sha256(out.out.encode()).hexdigest() == digest, argv
            assert f"errors={n_errors}" in out.err


def test_closed_form_rows_are_validated(monkeypatch):
    """A wrong closed form fails the scan's theorem checks: the Hodge polygon
    at the admissible prime 5 lacks the repeated slope."""
    monkeypatch.setattr(scan_module, "monomial_polygon", lambda d, p: hodge_polygon(d))
    with pytest.raises(InvariantViolation, match="p = 5 is admissible"):
        run_scan(X3, ScanOptions(p_max=30))


# ---------------------------------------------------------------------------
# columns read off the polygon: one computation per distinct polygon


def _scans(f, p_max, tmp_path):
    """Records of f from a serial scan, --jobs 2, and a cache written then replayed."""
    opts = ScanOptions(p_max=p_max, timing=False)
    cached = opts._replace(cache_path=str(tmp_path / "cache.jsonl"))
    return {
        "serial": run_scan(f, opts)[0],
        "jobs": run_scan(f, opts._replace(jobs=2))[0],
        "cache-write": run_scan(f, cached)[0],
        "cache-replay": run_scan(f, cached)[0],
    }


@pytest.mark.parametrize("text, p_max", [("x^5+3", 400), ("x^3+x", 300)])
def test_shared_columns_equal_direct_computation(tmp_path, text, p_max):
    f = parse_poly(text)
    hp = hodge_polygon(ratpoly.degree(f))
    gap_cell = HEADER.split(",").index("gap")
    for how, records in _scans(f, p_max, tmp_path).items():
        assert [rec.p for rec in records] == good_places(f, p_max), how
        for rec in records:
            poly = rec.polygon
            slopes = poly.slope_multiset()
            v0 = next((s for s, length in slopes if length >= 2), None)
            gap = vertical_gap(poly, hp)
            assert rec.gap == gap and rec.np_eq_hp == (poly == hp), (how, rec.p)
            assert rec.slopes == slopes and rec.v0 == v0, (how, rec.p)
            assert rec.slope_mult_ge2 == (v0 is not None), (how, rec.p)
            assert record_to_row(rec)[gap_cell] == f"{gap.numerator}/{gap.denominator}"
            assert record_to_json(rec)["gap"] == [gap.numerator, gap.denominator]


def test_rows_with_equal_polygons_share_their_columns(tmp_path):
    """x^5 + 3 has four classes of good places mod 5: rows share a polygon
    object per class and, keyed by value, one set of columns per distinct
    polygon, whether computed, from --jobs workers or replayed."""
    f = parse_poly("x^5+3")
    runs = _scans(f, 400, tmp_path)
    serial = runs["serial"]
    assert len(serial) == 77 and sum(rec.admissible for rec in serial) == 58
    assert {rec.p_mod_d for rec in serial} == {1, 2, 3, 4}
    for residue in (1, 2, 3, 4):
        polys = [rec.polygon for rec in serial if rec.p_mod_d == residue]
        assert all(poly is polys[0] for poly in polys)
    for how, records in runs.items():
        for rec, first in zip(records, serial):
            assert rec == first, how
            assert rec._columns is first._columns, (how, rec.p)
    # p = 2, 3 mod 5 give equal polygons from two cache entries of the closed form
    two, three = (next(r for r in serial if r.p_mod_d == k) for k in (2, 3))
    assert two.polygon is not three.polygon and two._columns is three._columns


@pytest.mark.parametrize("f, p_max, char, budget, hint", [
    ("x^3+x", 120, 5, 80, DicksonSpec(3, F(-1, 3))),  # never admissible: 3 | p^2 - 1
    ("x^3", 200, 7, None, None),  # D_3(x, 0) by auto-hint: admissible or not
])
def test_rows_render_as_their_values(tmp_path, f, p_max, char, budget, hint):
    """record_to_row, which takes the polygon's cells from _polygon_columns,
    prints what the per-cell rendering of record_values prints, on
    closed-form and half-L rows, budget and character error rows, timed
    rows and their cache replays."""
    opts = ScanOptions(p_max=p_max, char=char, budget=budget, hint=hint,
                       cache_path=str(tmp_path / "cache.jsonl"))
    fresh, _ = run_scan(parse_poly(f), opts)
    replayed, _ = run_scan(parse_poly(f), opts)
    for rec in fresh + replayed:
        assert record_to_row(rec) == [_csv_cell(v) for v in record_values(rec)], rec
    errors = {rec.error.split(":")[0] for rec in fresh if rec.error}
    assert errors == ({"character index divisible by p", "budget-exceeded"} if budget
                      else {"character index divisible by p"})
    # x^3 + x takes the closed form at p = 1 mod 3 only, and half of L at 2 mod 3
    assert {rec.p_mod_d for rec in fresh if rec.polygon} == {1, 2}
    assert all(rec.ms is not None for rec in fresh + replayed if rec.polygon)
    assert {rec.admissible for rec in fresh} == ({False} if hint else {True, False})


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
    for bad in (
        "x^3 +", "x^3 + + x", "", "x^^2", "x^3 y",
        "-x+", "dickson(5,1", "dickson(5,1+2)", ")x(", "x^3 - - x",
    ):
        with pytest.raises(ValueError):
            parse_poly(bad)


_SPACE = st.sampled_from(["", " ", "  "])


@st.composite
def _monomial_term(draw):
    """One of N, x, x^k, N*x^k, Nx^k, with its polynomial."""
    n, k = draw(st.integers(0, 99)), draw(st.integers(0, 9))
    form = draw(st.sampled_from(["N", "x", "x^k", "N*x^k", "Nx^k"]))
    text = form.replace("N", str(n)).replace("k", str(k))
    coef = n if "N" in form else 1
    deg = k if "k" in form else int("x" in form)
    return text, ratpoly.poly_scale(ratpoly.poly_pow(ratpoly.X, deg), coef)


@st.composite
def _dickson_term(draw):
    n = draw(st.integers(1, 7))
    num, den = draw(st.integers(-20, 20)), draw(st.integers(1, 9))
    a_text = str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}"
    return f"dickson({n},{a_text})", dickson(n, F(num, den))


@st.composite
def _expression(draw):
    """A sum of terms with random signs (the first one optional) and spaces."""
    terms = draw(st.lists(st.one_of(_monomial_term(), _dickson_term()), min_size=1, max_size=6))
    text, total = draw(_SPACE), ()
    for i, (term, poly) in enumerate(terms):
        sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
        text += sign + draw(_SPACE) + term + draw(_SPACE)
        total = (ratpoly.poly_sub if sign == "-" else ratpoly.poly_add)(total, poly)
    return text, total


@settings(max_examples=300, deadline=None)
@given(_expression())
def test_parse_poly_sums_of_terms(case):
    text, expected = case
    assume("x" in text or "dickson" in text)  # else it reads as a coefficient list
    assert parse_poly(text) == expected


# sha256 of stdout of the benchmark's scans (perfbench/workloads.py),
# taken before polygons.py moved to its integer form.  x^3 is a monomial,
# so its rows come from the closed form; x^3 + x is none, and its rows
# keep the pi-adic valuation and the F_p histograms at scan scale.
@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["scan", "x^3", "--p-max", "300", "--no-timing"],
            "69c352fbcd6f068807cbbdde13b2121de15e94c23bd1f48fc33e959e217c78a6",
        ),
        (
            ["scan", "x^3+x", "--p-max", "300", "--no-timing"],
            "75b529921d31d79f0ee95c0379c4b5b9857f5d181ea1ba0832e69a1e2eb91602",
        ),
        (
            ["scan", "x^3+x", "--p-max", "300", "--no-timing", "--format", "json"],
            "b8e4f3158c8b4ec9e65b0a89e2ad45d82204cd9b500e113f0d2a7ce7ac960e30",
        ),
        (
            ["scan", "dickson(5,1)", "--p-max", "47", "--no-timing"],
            "e30c9a30399bebc1cf227d3c3b7e1d69ed527cc31d78a312bc7d8de9438d78c5",
        ),
        (
            ["scan", "x^3", "--p-max", "300", "--no-timing", "--format", "json"],
            "acd6c8dd8b8bf40711d51073b98e63b36355745750b44567d64ea52d0bb20a10",
        ),
        (  # 77 closed-form rows in four classes mod 5, 58 admissible
            ["scan", "x^5+3", "--p-max", "400", "--no-timing"],
            "2ec2a6ae62cf47416acd7e43f182a90b36248aa6b34e74bd400d2ecb291f0aa3",
        ),
    ],
    ids=[
        "scan-x3-csv", "scan-x3x-csv", "scan-x3x-json", "scan-d5-csv", "scan-x3-json",
        "scan-x5c-csv",
    ],
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


@pytest.mark.parametrize("p_max", ["20", "1"])
@pytest.mark.parametrize("hint", ["1,0", "0,1", "-3,1"])
def test_cli_scan_refuses_a_hint_with_n_at_most_1(capsys, hint, p_max):
    """A Dickson hint needs n > 1, as is_admissible does; the scan refuses
    one before any row, so a scan with no rows refuses it too."""
    assert main(["scan", "x^3", f"--dickson-hint={hint}", "--p-max", p_max]) == 2
    assert capsys.readouterr() == ("", "error: n must be > 1\n")


def test_hinted_scan_rows_test_no_primality(monkeypatch, tmp_path, capsys):
    """run_scan's primes come from the sieve, so neither its fresh rows nor
    its cache replays run is_prime, in scan_record or for admissibility;
    both print the bytes pinned when every row tested primality."""
    def refuse(p):
        raise AssertionError(f"is_prime({p}) on a sieved prime")

    # the module, not the function dickson that the package exports under its name
    dickson_module = importlib.import_module("npscan.dickson")
    monkeypatch.setattr(dickson_module, "is_prime", refuse)
    monkeypatch.setattr(scan_module, "is_prime", refuse)
    cache = tmp_path / "cache.jsonl"
    argv = ["scan", "x^3", "--p-max", "2000", "--no-timing"]
    for extra in ([], ["--cache", str(cache)], ["--cache", str(cache)]):  # plain, write, replay
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "486ed0dbbacf77542a1f1cedb3ad57daba3b30300815b72f4717469ee6c78a14"
        )
    assert len(cache.read_text().splitlines()) == 302  # the replay computed no row
    with pytest.raises(AssertionError):  # the patch reaches is_admissible
        dickson_module.is_admissible(5, F(0), 3)


@pytest.mark.parametrize("p_max", ["4611686018427387904", "9223372036854775808"])
def test_cli_scan_past_the_sieve_exits_2(capsys, p_max):
    """A --p-max whose sieve cannot be allocated (MemoryError) or indexed
    (OverflowError) is a usage error naming the bound; both fail before
    any memory is taken."""
    assert main(["scan", "x^3", "--p-max", p_max]) == 2
    assert capsys.readouterr() == ("", f"error: cannot sieve the primes up to {p_max}\n")


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


def test_main_leaves_the_gc_freeze_as_it_found_it(monkeypatch, capsys):
    """main freezes what exists before the command, so the cyclic collector
    skips it during the command, and unfreezes it on every way out; a
    caller's own freeze is left in place."""
    exact, during = lfunction.exp_sum, []

    def watched(*args, **kwargs):
        during.append(gc.get_freeze_count())
        return exact(*args, **kwargs)

    def broken(*args, **kwargs):
        raise InvariantViolation("patched exp_sum")

    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            return f"SystemExit({exc.code})"

    cases = [
        (["np", "x^3", "7", "--no-timing"], watched, 0),
        (["np", "x^3+", "7"], exact, 2),  # bad polynomial
        (["np", "x^3+x", "101", "--budget", "10"], exact, 3),
        (["np", "x^3", "7", "--no-timing"], broken, 4),  # np rows enumerate F_7
        (["np", "x^3"], exact, "SystemExit(2)"),
    ]
    assert gc.get_freeze_count() == 0
    for argv, exp_sum, rc in cases:
        monkeypatch.setattr(lfunction, "exp_sum", exp_sum)
        assert exit_code(argv) == rc, argv
        assert gc.get_freeze_count() == 0, argv
    assert during and all(during)

    sentinel = [[]]
    sentinel[0].append(sentinel)  # a cycle, tracked by the collector
    gc.freeze()
    try:
        for argv, exp_sum, rc in cases:
            frozen = gc.get_freeze_count()
            monkeypatch.setattr(lfunction, "exp_sum", exp_sum)
            assert exit_code(argv) == rc, argv
            # frozen objects the command frees (a cache's evicted entries)
            # leave the count; main adds none and thaws none
            assert 0 < gc.get_freeze_count() <= frozen, argv
        # frozen objects are in no generation that gc.get_objects lists
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    assert any(obj is sentinel for obj in gc.get_objects())
    capsys.readouterr()


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


def test_cli_crosscheck_checks_the_closed_form(monkeypatch, capsys):
    """For a shifted monomial the character-independence line also holds the
    closed form of scan rows to the full L."""
    assert main(["crosscheck", "x^3", "5"]) == 0
    assert "character-independence  pass" in capsys.readouterr().out
    monkeypatch.setattr(scan_module, "monomial_polygon", lambda d, p: hodge_polygon(d))
    assert main(["crosscheck", "x^3", "5"]) == 4
    out = capsys.readouterr()
    assert "character-independence  FAIL" in out.out.splitlines()
    assert "invariant violation" in out.err


def test_theorem_routes_check_the_place_first():
    """The closed form refuses a bad place with half of L's BadPlace: a
    shifted monomial and x^3 + x/7 (7 = 1 mod 3) that are not 7-integral,
    and x^3 at p = 3, which divides d."""
    cases = [
        (ratpoly.poly_shift(X3, F(1, 7)), 7, "nonintegral"),
        ((F(0), F(1, 7), F(0), F(1)), 7, "nonintegral"),
        (X3, 3, "degree"),
    ]
    for f, p, cause in cases:
        with pytest.raises(BadPlace) as want:
            lfunction.np_at_prime(f, p)
        for closed_form in (False, True):
            with pytest.raises(BadPlace) as got:
                scan_record(f, p, closed_form=closed_form)
            assert (got.value.cause, str(got.value)) == (cause, str(want.value))


def test_cli_crosscheck_checks_the_hodge_route(monkeypatch, capsys):
    """The character-independence line holds the closed form of scan rows
    at p = 1 mod d to the full L: 7 = 1 mod 3, and x^3 + x is no shifted
    monomial."""
    assert main(["crosscheck", "x^3+x", "7"]) == 0
    assert "character-independence  pass" in capsys.readouterr().out.splitlines()
    supersingular = lfunction.monomial_polygon(3, 2)
    monkeypatch.setattr(scan_module, "monomial_polygon", lambda d, p: supersingular)
    assert main(["crosscheck", "x^3+x", "7"]) == 4
    out = capsys.readouterr()
    assert "character-independence  FAIL" in out.out.splitlines()
    assert "invariant violation" in out.err


def test_cli_crosscheck_checks_the_scan_route_of_any_f(monkeypatch, capsys):
    """The character-independence line holds the route scan rows take to the
    full L for every f, not only for a shifted monomial."""
    monkeypatch.setattr(scan_module, "np_at_prime", lambda f, p, *args: hodge_polygon(3))
    assert main(["crosscheck", "x^3+x", "5"]) == 4
    out = capsys.readouterr()
    assert "character-independence  FAIL" in out.out.splitlines()
    assert "invariant violation" in out.err
