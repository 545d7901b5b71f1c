"""Prime scans: per-prime Newton polygon records and oscillation verdicts.

A scan walks the primes p <= p_max that are good places for a monic f in
Q[x] (p-integral coefficients, gcd(d, p) = 1), computes NP_p(f), and flags
each record: does NP equal the Hodge polygon, how large is the vertical
gap, is some slope repeated, and -- when a Dickson factor (n, a) drives
the scan -- is (p, a, n) admissible.  Two theorem-backed invariants are
enforced per record, and the scan verdict says "oscillates" exactly when
an NP = HP prime and an admissible prime with a gap >= 1/(2d) were seen:
the paper proves that such gaps recur, so the polygons cannot converge.
A gap at a prime that is not admissible (small primes show some for f
with no global permutation factor) backs no verdict, though gap_witness
counts it.

NP_p(f) comes from half of the L-polynomial (np_at_prime) or, where the
caller of scan_record allows it, from Stickelberger's closed form
(monomial_polygon; scan_record says when): the same bytes, no field.

Records serialize to a fixed CSV schema and to JSON with [num, den] pairs;
this module is the only one that writes a record or reads one back.  An
append-only JSON-lines cache keyed by a content hash skips recomputation
of the rows this scan's budget would let it compute.  A record stores only
what its prime's computation produced, so a cache line replays its stored
fields only.  What a row reads off its polygon (the flags, their CSV cells
and the polygon-only checks) is computed once per distinct (polygon, d),
keyed by the polygon's value: rows of one residue class, rows from --jobs
workers and cache replays share it.  A row renders only p, c, d, p mod d,
admissible and ms.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from fractions import Fraction
from typing import IO, NamedTuple, Sequence

from . import ratpoly
from .dickson import DicksonSpec, _admissibility_gates, find_dickson_factor
from .errors import BadPlace, BudgetExceeded, InvariantViolation, NotPrime
from .fields import is_prime
from .lfunction import check_half_l_budget, check_place, monomial_polygon, np_at_prime
from .polygons import ConvexPolygon, hodge_polygon, lies_above, vertical_gap

CACHE_VERSION = "npscan-cache-1"

VERDICT_OSCILLATES = "oscillates (limit cannot exist)"
VERDICT_NO_WITNESS = "no oscillation witnessed up to bound"

CSV_COLUMNS = (
    "p",
    "c",
    "d",
    "vertices",
    "slopes",
    "gap",
    "np_eq_hp",
    "p_mod_d",
    "admissible",
    "slope_mult_ge2",
    "v0",
    "ms",
)


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    try:  # zeroed: a bytearray repeat that fails to allocate also prints a SystemError
        composite = bytearray(n + 1)
    except (MemoryError, OverflowError):  # n + 1 bytes exceed memory or an index
        raise ValueError(f"cannot sieve the primes up to {n}") from None
    composite[0] = composite[1] = 1
    for i in range(2, int(n**0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\1" * ((n - i * i) // i + 1)
    return [i for i, c in enumerate(composite) if not c]


class ScanOptions(NamedTuple):
    """Dial settings for a prime scan."""

    p_max: int = 100
    char: int = 1
    budget: int | None = None
    jobs: int = 1
    hint: DicksonSpec | None = None
    auto_hint: bool = True
    cache_path: str | None = None
    timing: bool = True


class ScanRecord(NamedTuple):
    """One prime's worth of scan output: what its computation produced.

    polygon is None on an error row, and so are the columns read off it
    (gap, np_eq_hp, slopes, v0, slope_mult_ge2).  They come from
    _polygon_columns, so a record always agrees with its own vertices.
    """

    p: int
    c: int
    d: int
    polygon: ConvexPolygon | None
    admissible: bool | None
    ms: int | None
    error: str | None = None

    @property
    def p_mod_d(self) -> int:
        return self.p % self.d

    @property
    def _columns(self) -> PolygonColumns:
        return _NO_POLYGON if self.polygon is None else _polygon_columns(self.polygon, self.d)

    @property
    def gap(self) -> Fraction | None:
        return self._columns.gap

    @property
    def np_eq_hp(self) -> bool | None:
        return self._columns.np_eq_hp

    @property
    def slopes(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        """(slope, horizontal length) per segment."""
        return self._columns.slopes

    @property
    def v0(self) -> Fraction | None:
        """The smallest slope of multiplicity >= 2, if any."""
        return self._columns.v0

    @property
    def slope_mult_ge2(self) -> bool | None:
        return self._columns.slope_mult_ge2


class PolygonColumns(NamedTuple):
    """What a record of degree d reads off its polygon alone.

    defect names the first of validate_record's polygon-only checks that
    fails, if any.
    """

    gap: Fraction | None
    np_eq_hp: bool | None
    slopes: tuple[tuple[Fraction, Fraction], ...] | None
    v0: Fraction | None
    slope_mult_ge2: bool | None
    wide_gap: bool  # gap >= 1/(2d)
    defect: str | None
    cells: tuple[str, ...]  # CSV: vertices, slopes, gap, np_eq_hp, slope_mult_ge2, v0


_NO_POLYGON = PolygonColumns(None, None, None, None, None, False, None, ("",) * 6)


# A scan meets few distinct polygons: a shifted monomial at most d - 1.
@functools.lru_cache(maxsize=256)
def _polygon_columns(poly: ConvexPolygon, d: int) -> PolygonColumns:
    hp = hodge_polygon(d)
    defect = None
    if not lies_above(poly, hp):
        defect = "Newton polygon dips below Hodge"
    elif poly.end != hp.end:  # (d-1, (d-1)/2)
        defect = "polygon does not end at (d-1, (d-1)/2)"
    slopes = poly.slope_multiset()
    v0 = next((s for s, length in slopes if length >= 2), None)
    gap = vertical_gap(poly, hp)
    np_eq_hp, mult = poly == hp, v0 is not None
    cells = tuple(map(_csv_cell, (poly.vertices, slopes, gap, np_eq_hp, mult, v0)))
    return PolygonColumns(gap, np_eq_hp, slopes, v0, mult, gap >= Fraction(1, 2 * d), defect, cells)


class ScanSummary(NamedTuple):
    """Counts over all records plus the oscillation verdict."""

    f: str
    d: int
    p_max: int
    hint: DicksonSpec | None
    n_rows: int
    n_np_eq_hp: int
    n_gap_witness: int
    n_admissible: int
    n_slope_mult_ge2: int
    n_errors: int
    verdict: str


def good_places(f: Sequence[Fraction], p_max: int) -> list[int]:
    """Primes p <= p_max at which check_place raises no BadPlace."""
    fq = ratpoly.as_poly(f)
    out = []
    for p in primes_upto(p_max):
        try:
            check_place(fq, p)
        except BadPlace:
            continue
        out.append(p)
    return out


def _admissible(p: int, hint: DicksonSpec | None) -> bool | None:
    """is_admissible(p, hint.a, hint.n).admissible, for a prime p."""
    return None if hint is None else all(_admissibility_gates(p, hint.a, hint.n))


class _ScanPolynomial(NamedTuple):
    """f with what picks a row's route, settled once for every row of a
    scan.  scan_record takes a prime that comes with one as a good place:
    run_scan's primes come from good_places, which sieved them and ran
    check_place on each."""

    f: tuple[Fraction, ...]  # ratpoly.as_poly(f)
    d: int
    monic: bool
    shifted: bool  # (x + b)^d + c

    @classmethod
    def of(cls, f: Sequence[Fraction]) -> _ScanPolynomial:
        fq = ratpoly.as_poly(f)
        return cls(fq, ratpoly.degree(fq), ratpoly.is_monic(fq), ratpoly.is_shifted_monomial(fq))


def scan_record(
    f: Sequence[Fraction],
    p: int,
    char: int = 1,
    budget: int | None = None,
    hint: DicksonSpec | None = None,
    timing: bool = True,
    closed_form: bool = False,
) -> ScanRecord:
    """Compute one record; budget blowups land in the error field.

    closed_form allows, and does not assert, the closed form.  After half
    of L's place check (check_place) and budget check, monomial_polygon
    (Stickelberger) gives a row of f = (x + b)^d + c, and a row of any
    monic f of degree >= 2 at p = 1 mod d, where it is HP = NP_p(f)
    (Adolphson-Sperber).  Every other row comes from half of L.  run_scan
    passes f as a _ScanPolynomial and skips the checks it settled per scan:
    the primality of p and the place check of the closed form."""
    settled = isinstance(f, _ScanPolynomial)
    if not settled:
        if not is_prime(p):  # before char % p reads it
            raise NotPrime(f"{p} is not prime")
        f = _ScanPolynomial.of(f)
    d = f.d
    admissible = _admissible(p, hint)
    c_eff = char % p
    if c_eff == 0:
        return ScanRecord(p, char, d, None, admissible, None, "character index divisible by p")
    t0 = time.perf_counter()
    try:
        # Stickelberger's polygon; at p = 1 mod d it is HP = NP_p(f) (Adolphson-Sperber)
        if closed_form and (d >= 2 and p % d == 1 and f.monic or f.shifted):
            if not settled:
                check_place(f.f, p)
            check_half_l_budget(p, d, budget)
            poly = monomial_polygon(d, p)
        else:
            poly = np_at_prime(f.f, p, c_eff, budget)
    except BudgetExceeded as exc:
        return ScanRecord(p, c_eff, d, None, admissible, None, f"budget-exceeded: {exc}")
    ms = int((time.perf_counter() - t0) * 1000) if timing else None
    return ScanRecord(p, c_eff, d, poly, admissible, ms)


def validate_record(rec: ScanRecord) -> None:
    """Hard, theorem-backed assertions; a failure is a build-failing event.

    A fresh row's polygon comes from half of L or from the closed form, so
    its endpoint and its half past K = (d-1) // 2 hold by construction;
    those checks still bite on cached rows.  NP = HP at p = 1 mod d holds
    Stickelberger's class polygon to a Hodge polygon built on its own.
    The computed half is checked against Hodge here and in newton_polygon;
    the full-path comparison is crosscheck's character-independence line.
    The checks that read the polygon alone run once per distinct polygon
    (_polygon_columns); every row still asserts them, and those that read
    p or the hint.
    """
    if rec.error is not None or rec.polygon is None:
        return
    cols = rec._columns
    if cols.defect is not None:
        raise InvariantViolation(f"p = {rec.p}: {cols.defect}")
    if rec.p_mod_d == 1 and not cols.np_eq_hp:
        raise InvariantViolation(f"p = {rec.p} is 1 mod d but NP != HP")
    if rec.admissible and not (cols.slope_mult_ge2 and cols.wide_gap):
        raise InvariantViolation(
            f"p = {rec.p} is admissible but lacks the repeated slope or the 1/(2d) gap"
        )


def run_scan(f, opts: ScanOptions) -> tuple[list[ScanRecord], ScanSummary]:
    """Scan all good places up to opts.p_max; returns (records, summary)."""
    scan_f = _ScanPolynomial.of(f)
    fq, d = scan_f.f, scan_f.d
    if d < 1 or not scan_f.monic:
        raise ValueError("f must be monic of degree >= 1")
    hint = opts.hint
    if hint is None and opts.auto_hint:
        fact = find_dickson_factor(fq, require_gpp=True)
        if fact is not None:
            hint = fact.spec
    primes = good_places(fq, opts.p_max)

    cached: dict[int, ScanRecord] = {}
    cache = cache_load(opts.cache_path) if opts.cache_path is not None else {}
    # the key leaves the budget out: a row is replayed only where half of L
    # would pass it, the check of l_polynomial(..., half=True)
    for p in primes if cache else ():  # no rows, no keys to hash
        rec = cache.get(cache_key(fq, p, opts.char))
        if rec is not None and (rec.p, rec.c, rec.d) != (p, opts.char % p, d):
            print(f"cache: the entry for p = {p} holds a record of p = {rec.p}, c = {rec.c},"
                  f" d = {rec.d}; recomputing it", file=sys.stderr)
        elif rec is not None:
            with contextlib.suppress(BudgetExceeded):
                check_half_l_budget(p, d, opts.budget)
                # admissible depends on this scan's hint, which the key leaves out;
                # ms is settled here, so the renderers print what the record holds
                cached[p] = rec._replace(
                    admissible=_admissible(p, hint), ms=rec.ms if opts.timing else None
                )

    # every p is a good place from good_places, so each row skips those checks
    compute = functools.partial(scan_record, scan_f, char=opts.char, budget=opts.budget,
                                hint=hint, timing=opts.timing, closed_form=True)
    todo = [p for p in primes if p not in cached]
    ordered: list[ScanRecord] = []
    with contextlib.ExitStack() as stack:
        fresh = map(compute, todo)  # records of todo, in order, as they finish
        if opts.jobs > 1 and len(todo) > 1:
            from concurrent.futures import ProcessPoolExecutor  # imported by parallel scans only

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(opts.jobs, len(todo))))
            stack.callback(pool.shutdown, cancel_futures=True)  # start no more on a raise
            fresh = pool.map(compute, todo)
        # each row is validated and cached as it comes out, so the rows
        # before a prime that raises stay in the cache
        for p in primes:
            rec = cached[p] if p in cached else next(fresh)
            validate_record(rec)
            if opts.cache_path is not None and rec.error is None and p not in cached:
                cache_put(opts.cache_path, cache_key(fq, p, opts.char), rec)
            ordered.append(rec)

    n_np = sum(1 for r in ordered if r.np_eq_hp)
    gaps = [r for r in ordered if r._columns.wide_gap]  # gap >= 1/(2d)
    backed = any(r.admissible for r in gaps)  # where the paper proves the gap recurs
    verdict = VERDICT_OSCILLATES if (n_np and backed) else VERDICT_NO_WITNESS
    summary = ScanSummary(
        f=ratpoly.format_poly(fq),
        d=d,
        p_max=opts.p_max,
        hint=hint,
        n_rows=len(ordered),
        n_np_eq_hp=n_np,
        n_gap_witness=len(gaps),
        n_admissible=sum(1 for r in ordered if r.admissible),
        n_slope_mult_ge2=sum(1 for r in ordered if r.slope_mult_ge2),
        n_errors=sum(1 for r in ordered if r.error is not None),
        verdict=verdict,
    )
    return ordered, summary


# ---------------------------------------------------------------------------
# rendering: exact strings only, no floats.  A value is None, a bool, a
# Fraction, a sequence of Fraction pairs (vertices, slopes) or an int; pairs
# are "a/b:c/d;..." in a CSV cell and [[a, b, c, d], ...] in JSON.


def record_values(rec: ScanRecord) -> tuple:
    """The record's values in CSV_COLUMNS order."""
    poly = rec.polygon
    return (
        rec.p,
        rec.c,
        rec.d,
        None if poly is None else poly.vertices,
        rec.slopes,
        rec.gap,
        rec.np_eq_hp,
        rec.p_mod_d,
        rec.admissible,
        rec.slope_mult_ge2,
        rec.v0,
        rec.ms,
    )


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, tuple):
        return ";".join(f"{_csv_cell(a)}:{_csv_cell(b)}" for a, b in v)
    return str(v)


def _json_value(v):
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, tuple):
        return [[*_json_value(a), *_json_value(b)] for a, b in v]
    return v  # None, bool, int


def record_to_row(rec: ScanRecord) -> list[str]:
    """[_csv_cell(v) for v in record_values(rec)], with the polygon's cells
    rendered once per polygon by _polygon_columns (empty on an error row)."""
    vertices, slopes, gap, np_eq_hp, mult, v0 = rec._columns.cells
    return [str(rec.p), str(rec.c), str(rec.d), vertices, slopes, gap, np_eq_hp,
            str(rec.p_mod_d), _csv_cell(rec.admissible), mult, v0, _csv_cell(rec.ms)]


def record_to_json(rec: ScanRecord) -> dict:
    row = {name: _json_value(v) for name, v in zip(CSV_COLUMNS, record_values(rec))}
    row["error"] = rec.error
    return row


def record_from_json(obj: dict) -> ScanRecord:
    """The stored fields of a JSON row; the derived columns are recomputed."""
    quads = obj.get("vertices")
    return ScanRecord(
        p=obj["p"],
        c=obj["c"],
        d=obj["d"],
        polygon=ConvexPolygon(tuple(
            (Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in quads
        )) if quads else None,
        admissible=obj.get("admissible"),
        ms=obj.get("ms"),
        error=obj.get("error"),
    )


def summary_to_json(s: ScanSummary) -> dict:
    return {
        "summary": {
            "f": s.f,
            "d": s.d,
            "p_max": s.p_max,
            "hint": None
            if s.hint is None
            else {"n": s.hint.n, "a": [s.hint.a.numerator, s.hint.a.denominator]},
            "rows": s.n_rows,
            "np_eq_hp": s.n_np_eq_hp,
            "gap_witness": s.n_gap_witness,
            "admissible": s.n_admissible,
            "slope_mult_ge2": s.n_slope_mult_ge2,
            "errors": s.n_errors,
            "verdict": s.verdict,
        }
    }


def write_csv(records: Sequence[ScanRecord], fp: IO[str]) -> None:
    fp.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:  # no encoded cell holds a comma, so none is quoted
        fp.write(",".join(record_to_row(rec)) + "\n")


# ---------------------------------------------------------------------------
# append-only JSON-lines cache


def cache_key(f: Sequence[Fraction], p: int, c: int) -> str:
    import hashlib  # imported by scans with a cache only

    payload = json.dumps(
        {"f": ratpoly.to_strings(ratpoly.as_poly(f)), "p": p, "c": c, "v": CACHE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_load(path: str) -> dict[str, ScanRecord]:
    """Newest valid entry per key; corrupt lines are skipped loudly."""
    found: dict[str, ScanRecord] = {}
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return found
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                obj = None
            if not isinstance(obj, dict):  # not JSON, or JSON but not an entry
                print(f"cache: skipping corrupt line {lineno} of {path}", file=sys.stderr)
                continue
            if obj.get("version") != CACHE_VERSION:
                continue
            try:
                rec = record_from_json(obj["record"])  # re-validates the polygon
                if rec.polygon is None or rec.error is not None:  # cache_put writes neither
                    raise ValueError("no polygon, or an error")
                found[obj["key"]] = rec
            except Exception:
                print(f"cache: invalid record at line {lineno} of {path}", file=sys.stderr)
    return found


def cache_put(path: str, key: str, rec: ScanRecord) -> None:
    entry = {"key": key, "version": CACHE_VERSION, "record": record_to_json(rec)}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
