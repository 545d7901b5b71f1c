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

Records serialize to a fixed CSV schema and to JSON with [num, den] pairs;
this module is the only one that writes a record or reads one back.  An
append-only JSON-lines cache keyed by a content hash skips recomputation
of the rows this scan's budget would let it compute.  A record stores only
what its prime's computation produced; the flags are derived from its
polygon, so a cache line replays its stored fields only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import IO, Sequence

from . import ratpoly
from .dickson import DicksonSpec, find_dickson_factor, is_admissible
from .errors import BudgetExceeded, InvariantViolation, NotPrime
from .fields import DEFAULT_ENUM_BUDGET, is_prime
from .lfunction import np_at_prime
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
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


@dataclass(frozen=True)
class ScanOptions:
    """Dial settings for a prime scan."""

    p_max: int = 100
    char: int = 1
    budget: int | None = None
    jobs: int = 1
    hint: DicksonSpec | None = None
    auto_hint: bool = True
    cache_path: str | None = None
    timing: bool = True


@dataclass(frozen=True)
class ScanRecord:
    """One prime's worth of scan output: what its computation produced.

    polygon is None on an error row.  The columns read off the polygon
    (gap, np_eq_hp, slope_mult_ge2, v0) are derived on first use, so a
    record always agrees with its own vertices; they are None when the
    polygon is.
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

    @functools.cached_property
    def gap(self) -> Fraction | None:
        return None if self.polygon is None else vertical_gap(self.polygon, hodge_polygon(self.d))

    @functools.cached_property
    def np_eq_hp(self) -> bool | None:
        return None if self.polygon is None else self.polygon == hodge_polygon(self.d)

    @functools.cached_property
    def slopes(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        """(slope, horizontal length) per segment, built once per record."""
        return None if self.polygon is None else self.polygon.slope_multiset()

    @functools.cached_property
    def v0(self) -> Fraction | None:
        """The smallest slope of multiplicity >= 2, if any."""
        if self.polygon is None:
            return None
        return next((s for s, length in self.slopes if length >= 2), None)

    @property
    def slope_mult_ge2(self) -> bool | None:
        return None if self.polygon is None else self.v0 is not None


@dataclass(frozen=True)
class ScanSummary:
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
    """Primes p <= p_max with p-integral coefficients and gcd(d, p) = 1."""
    fq = ratpoly.as_poly(f)
    d = ratpoly.degree(fq)
    out = []
    for p in primes_upto(p_max):
        if d % p == 0:
            continue
        if any(c.denominator % p == 0 for c in fq):
            continue
        out.append(p)
    return out


def _admissible(p: int, hint: DicksonSpec | None) -> bool | None:
    return None if hint is None else is_admissible(p, hint.a, hint.n).admissible


def scan_record(
    f: Sequence[Fraction],
    p: int,
    char: int = 1,
    budget: int | None = None,
    hint: DicksonSpec | None = None,
    timing: bool = True,
) -> ScanRecord:
    """Compute one record; budget blowups land in the error field."""
    if not is_prime(p):  # before char % p reads it
        raise NotPrime(f"{p} is not prime")
    fq = ratpoly.as_poly(f)
    d = ratpoly.degree(fq)
    admissible = _admissible(p, hint)
    c_eff = char % p
    if c_eff == 0:
        return ScanRecord(p, char, d, None, admissible, None, "character index divisible by p")
    t0 = time.perf_counter()
    try:
        poly = np_at_prime(fq, p, c_eff, budget)
    except BudgetExceeded as exc:
        return ScanRecord(p, c_eff, d, None, admissible, None, f"budget-exceeded: {exc}")
    ms = int((time.perf_counter() - t0) * 1000) if timing else None
    return ScanRecord(p, c_eff, d, poly, admissible, ms)


def validate_record(rec: ScanRecord) -> None:
    """Hard, theorem-backed assertions; a failure is a build-failing event.

    A fresh row's polygon comes from half of L, so its endpoint and its
    half past K = (d-1) // 2 hold by construction; those checks still bite
    on cached rows.  The computed half is checked against Hodge here and in
    newton_polygon; the full-path comparison is crosscheck's
    character-independence line and the tests.
    """
    if rec.error is not None or rec.polygon is None:
        return
    d = rec.d
    hp = hodge_polygon(d)
    if not lies_above(rec.polygon, hp):
        raise InvariantViolation(f"p = {rec.p}: Newton polygon dips below Hodge")
    if rec.polygon.end != hp.end:  # (d-1, (d-1)/2)
        raise InvariantViolation(f"p = {rec.p}: polygon does not end at (d-1, (d-1)/2)")
    if rec.p_mod_d == 1 and not rec.np_eq_hp:
        raise InvariantViolation(f"p = {rec.p} is 1 mod d but NP != HP")
    if rec.admissible and not (rec.slope_mult_ge2 and rec.gap >= Fraction(1, 2 * d)):
        raise InvariantViolation(
            f"p = {rec.p} is admissible but lacks the repeated slope or the 1/(2d) gap"
        )


def run_scan(f, opts: ScanOptions) -> tuple[list[ScanRecord], ScanSummary]:
    """Scan all good places up to opts.p_max; returns (records, summary)."""
    fq = ratpoly.as_poly(f)
    d = ratpoly.degree(fq)
    if d < 1 or not ratpoly.is_monic(fq):
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
    # would pass it, the p^((d-1) // 2) check of l_polynomial(..., half=True)
    limit = DEFAULT_ENUM_BUDGET if opts.budget is None else opts.budget
    for p in primes if cache else ():  # no rows, no keys to hash
        rec = cache.get(cache_key(fq, p, opts.char))
        if rec is not None and p ** ((d - 1) // 2) <= limit:
            # admissible depends on this scan's hint, which the key leaves out;
            # ms is settled here, so the renderers print what the record holds
            cached[p] = replace(
                rec, admissible=_admissible(p, hint), ms=rec.ms if opts.timing else None
            )

    compute = functools.partial(
        scan_record, fq, char=opts.char, budget=opts.budget, hint=hint, timing=opts.timing
    )
    todo = [p for p in primes if p not in cached]
    ordered: list[ScanRecord] = []
    with contextlib.ExitStack() as stack:
        fresh = map(compute, todo)  # records of todo, in order, as they finish
        if opts.jobs > 1 and len(todo) > 1:
            from concurrent.futures import ProcessPoolExecutor  # imported by parallel scans only

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=opts.jobs))
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

    gap_bound = Fraction(1, 2 * d)
    n_np = sum(1 for r in ordered if r.np_eq_hp)
    gaps = [r for r in ordered if r.gap is not None and r.gap >= gap_bound]
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
    return [_csv_cell(v) for v in record_values(rec)]


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
                found[obj["key"]] = record_from_json(obj["record"])  # re-validates the polygon
            except Exception:
                print(f"cache: invalid record at line {lineno} of {path}", file=sys.stderr)
    return found


def cache_put(path: str, key: str, rec: ScanRecord) -> None:
    entry = {"key": key, "version": CACHE_VERSION, "record": record_to_json(rec)}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
