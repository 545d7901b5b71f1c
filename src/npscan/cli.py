"""Command line front end.

Subcommands:

  np         Newton polygon of L(f mod p, chi_c, t) at a single prime.
  scan       per-prime records over all good places p <= bound, plus verdict.
  crosscheck internal consistency battery at one prime (product formula,
             slope lengths, base change, character independence, Dickson
             divisibility and sum collapse when a factor is present).
  dickson    generate / recognize / perm-check for Dickson polynomials.
  decompose  functional decomposition of a monic polynomial over Q.
  zeta       zeta numerator P_1 of the curve y^p - y = g(x) over F_{p^e}.

Exit codes: 0 success, 2 bad input, bad place or unusable --cache path,
3 enumeration budget exceeded, 4 a theorem-backed check failed on
computed data.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from fractions import Fraction

from . import ratpoly, scan
from .curvezeta import (
    divisibility_check,
    p1_polynomial,
    product_formula_check,
    slope_length_relation_check,
)
from .dickson import (
    DicksonSpec,
    dickson,
    dickson_perm_criterion,
    decompose,
    find_dickson_factor,
    is_admissible,
    is_permutation_bruteforce,
    recognize_dickson,
)
from .errors import BudgetExceeded, InvariantViolation, NpscanError
from .fields import DEFAULT_ENUM_BUDGET, build_field
from .lfunction import (
    Character,
    exp_sum,
    l_polynomial,
    newton_polygon,
    np_base_change_check,
    reduce_mod_p,
)

# a "*" stands only between a coefficient and x
_MONOMIAL_RE = re.compile(r"^(?:(\d+)(?:\*(?=x))?)?(x(?:\^(\d+))?)?$")
_DICKSON_RE = re.compile(r"^dickson\((\d+),(-?\d+(?:/\d+)?)\)$")


def parse_poly(text: str) -> ratpoly.QPoly:
    """Parse "1,0,-2/3" (ascending coefficients) or "x^3 - 2x + 1" or
    "dickson(5,1)"; the expression form allows sums of integer monomials
    and dickson(n,a) terms."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if "x" in s or "dickson" in s:
        return _parse_expression(s)
    return ratpoly.as_poly([Fraction(tok.strip()) for tok in s.split(",")])


def _parse_expression(text: str) -> ratpoly.QPoly:
    s = text.replace(" ", "")
    if s.count("(") != s.count(")"):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not s.startswith(("+", "-")):
        s = "+" + s
    # split at every sign but one after a comma, dickson's a as in dickson(3,-2)
    pieces = re.split(r"(?<!,)([+-])", s)  # "", sign, term, sign, term, ...
    total: ratpoly.QPoly = ()
    for sign, term in zip(pieces[1::2], pieces[2::2]):
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        add = ratpoly.poly_sub if sign == "-" else ratpoly.poly_add
        total = add(total, _parse_term(term, text))
    return total


def _parse_term(term: str, text: str) -> ratpoly.QPoly:
    m = _DICKSON_RE.match(term)
    if m:
        return dickson(int(m.group(1)), Fraction(m.group(2)))
    m = _MONOMIAL_RE.match(term)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse term {term!r} in {text!r}")
    coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
    k = 0 if m.group(2) is None else int(m.group(3) or 1)
    return ratpoly.as_poly([0] * k + [coef])


def _parse_hint(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--dickson-hint expects 'n,a'")
    return DicksonSpec(int(parts[0]), Fraction(parts[1]))


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                        help="max field elements to enumerate per object")


def _add_record_options(parser: argparse.ArgumentParser) -> None:
    """Options of the subcommands that print scan records (np, scan)."""
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--char", type=int, default=1, metavar="C",
                        help="character index c of chi_c (default 1)")
    _add_budget(parser)
    parser.add_argument("--no-timing", action="store_true",
                        help="blank the ms column for reproducible output")


def _add_np(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("poly")
    parser.add_argument("p", type=int)
    _add_record_options(parser)
    parser.set_defaults(func=cmd_np)


def _add_scan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("poly")
    parser.add_argument("--p-max", type=int, default=100)
    parser.add_argument("--dickson-hint", metavar="N,A", default=None,
                        help="treat (n, a) as the scan's Dickson factor")
    parser.add_argument("--no-auto-hint", action="store_true",
                        help="do not search f for a Dickson factor")
    _add_record_options(parser)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for scans")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="JSON-lines record cache (appended to)")
    parser.set_defaults(func=cmd_scan)


def _add_crosscheck(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("poly")
    parser.add_argument("p", type=int)
    parser.add_argument("--base-change", type=int, default=2, metavar="N",
                        help="extension degree for the base-change check")
    _add_budget(parser)
    parser.set_defaults(func=cmd_crosscheck)


def _add_dickson(parser: argparse.ArgumentParser) -> None:
    dk_sub = parser.add_subparsers(dest="action", required=True)
    g = dk_sub.add_parser("generate")
    g.add_argument("n", type=int)
    g.add_argument("a")
    g.set_defaults(func=cmd_dickson_generate)
    r = dk_sub.add_parser("recognize")
    r.add_argument("poly")
    r.set_defaults(func=cmd_dickson_recognize)
    pc = dk_sub.add_parser("perm-check")
    pc.add_argument("n", type=int)
    pc.add_argument("a")
    pc.add_argument("p", type=int)
    pc.add_argument("-e", type=int, default=1)
    pc.add_argument("--brute", action="store_true",
                    help="also enumerate the field to confirm")
    pc.set_defaults(func=cmd_dickson_perm)


def _add_decompose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("poly")
    parser.set_defaults(func=cmd_decompose)


def _add_zeta(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("poly")
    parser.add_argument("p", type=int)
    parser.add_argument("-e", type=int, default=1)
    _add_budget(parser)
    parser.set_defaults(func=cmd_zeta)


# name -> (help, adds the command's arguments); the full tree and each
# command's own parser are built from it, so each option is declared once
_COMMANDS = {
    "np": ("Newton polygon at one prime", _add_np),
    "scan": ("scan primes up to a bound", _add_scan),
    "crosscheck": ("consistency battery at one prime", _add_crosscheck),
    "dickson": ("Dickson polynomial utilities", _add_dickson),
    "decompose": ("functional decomposition over Q", _add_decompose),
    "zeta": ("curve zeta numerator P_1", _add_zeta),
}


@functools.cache  # built for top-level help and errors only, then reused
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="npscan", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, add) in _COMMANDS.items():
        add(sub.add_parser(name, help=help_text))
    return top


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command name's parser as _build_parser builds it, without the rest."""
    parser = argparse.ArgumentParser(prog=f"npscan {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """_build_parser().parse_args(argv), building only the parser of the
    command argv names unless the full tree has to report on argv."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _build_parser().parse_args(argv)  # exits with the top-level message


def cmd_np(args) -> int:
    f = parse_poly(args.poly)
    rec = scan.scan_record(f, args.p, args.char, args.budget, hint=None,
                           timing=not args.no_timing)
    if rec.error:
        print(f"error: {rec.error}", file=sys.stderr)
        return 3 if rec.error.startswith("budget") else 2
    scan.validate_record(rec)
    if args.format == "json":
        print(json.dumps(scan.record_to_json(rec)))
    else:
        scan.write_csv([rec], sys.stdout)
    return 0


def cmd_scan(args) -> int:
    f = parse_poly(args.poly)
    hint = _parse_hint(args.dickson_hint) if args.dickson_hint else None
    opts = scan.ScanOptions(
        p_max=args.p_max,
        char=args.char,
        budget=args.budget,
        jobs=args.jobs,
        hint=hint,
        auto_hint=not args.no_auto_hint,
        cache_path=args.cache,
        timing=not args.no_timing,
    )
    records, summary = scan.run_scan(f, opts)
    if args.format == "json":
        for rec in records:
            print(json.dumps(scan.record_to_json(rec)))
        print(json.dumps(scan.summary_to_json(summary)))
    else:
        scan.write_csv(records, sys.stdout)
        print(f"# verdict: {summary.verdict}", file=sys.stderr)
        print(
            f"# rows={summary.n_rows} np_eq_hp={summary.n_np_eq_hp}"
            f" gap_witness={summary.n_gap_witness} admissible={summary.n_admissible}"
            f" errors={summary.n_errors}",
            file=sys.stderr,
        )
    return 0


def cmd_crosscheck(args) -> int:
    f = parse_poly(args.poly)
    p = args.p
    budget = args.budget
    results: list[tuple[str, str]] = []

    def run(name, thunk):
        try:
            ok = thunk()
        except BudgetExceeded as exc:
            results.append((name, f"skipped ({exc})"))
            return
        results.append((name, "pass" if ok else "FAIL"))

    fbar = reduce_mod_p(f, p)

    run("product-formula", lambda: product_formula_check(fbar, budget))
    run("slope-length-relation", lambda: slope_length_relation_check(fbar, budget))
    run("base-change-invariance",
        lambda: np_base_change_check(fbar, args.base_change, Character(p, 1), budget))

    def character_independence():
        # also pins the half-L path (np rows) and whatever route scan rows
        # of f take to the full L
        polys = set()
        for c in range(1, p):
            chi = Character(p, c)
            polys.add(newton_polygon(l_polynomial(fbar, chi, budget)))
            polys.add(newton_polygon(l_polynomial(fbar, chi, budget, half=True)))
        polys.add(scan.scan_record(f, p, budget=budget, closed_form=True).polygon)
        return len(polys) == 1

    run("character-independence", character_independence)

    fact = find_dickson_factor(f, require_gpp=False)
    if fact is None:
        results.append(("dickson-divisibility", "skipped (no Dickson factor)"))
        results.append(("dickson-sum-collapse", "skipped (no Dickson factor)"))
    else:
        n, a = fact.spec.n, fact.spec.a
        g = ratpoly.poly_compose(fact.outer, dickson(n, a))

        def dick_div():
            small = p1_polynomial(reduce_mod_p(fact.outer, p), budget)
            big = p1_polynomial(reduce_mod_p(g, p), budget)
            return divisibility_check(small, big)

        if ratpoly.degree(fact.outer) % p == 0 or ratpoly.degree(g) % p == 0:
            results.append(("dickson-divisibility", "skipped (degree divisible by p)"))
        else:
            run("dickson-divisibility", dick_div)

        triple = is_admissible(p, a, n)
        if not triple.admissible:
            results.append(
                ("dickson-sum-collapse", f"skipped ((p, a, n) = ({p}, {a}, {n}) not admissible)")
            )
        else:
            def sum_collapse():
                f1bar = reduce_mod_p(fact.outer, p)
                gbar = reduce_mod_p(g, p)
                chi = Character(p, 1)
                for m in (1, n):
                    # the collapse needs D_n(x, a) to permute F_{p^m}
                    am = build_field(p, m).element(ratpoly.mod_p(a, p))
                    if not dickson_perm_criterion(n, am):
                        continue
                    if exp_sum(f1bar, m, chi, budget) != exp_sum(gbar, m, chi, budget):
                        return False
                return True

            run("dickson-sum-collapse", sum_collapse)

    width = max(len(name) for name, _ in results)
    failed = False
    for name, status in results:
        print(f"{name.ljust(width)}  {status}")
        failed = failed or status == "FAIL"
    if failed:
        raise InvariantViolation("crosscheck: a theorem-backed identity failed")
    return 0


def cmd_dickson_generate(args) -> int:
    n = args.n
    a = Fraction(args.a)
    coeffs = dickson(n, a)
    print(json.dumps({"n": n, "a": str(a), "coeffs": ratpoly.to_strings(coeffs),
                      "poly": ratpoly.format_poly(coeffs)}))
    return 0


def cmd_dickson_recognize(args) -> int:
    u = parse_poly(args.poly)
    form = recognize_dickson(u)
    if form is None:
        print(json.dumps({"match": False}))
    else:
        print(json.dumps({
            "match": True,
            "n": form.n,
            "a": str(form.a),
            "shift": str(form.shift),
            "constant": str(form.constant),
        }))
    return 0


def cmd_dickson_perm(args) -> int:
    n = args.n
    a = Fraction(args.a)
    field = build_field(args.p, args.e)
    permutes = dickson_perm_criterion(n, field.element(ratpoly.mod_p(a, args.p)))
    out = {"n": n, "a": str(a), "q": field.q, "permutes": permutes, "bruteforce": None}
    if args.brute:
        gbar = field.poly([ratpoly.mod_p(c, args.p) for c in dickson(n, a)])
        out["bruteforce"] = is_permutation_bruteforce(gbar)
        if out["bruteforce"] != permutes:
            raise InvariantViolation("criterion and brute force disagree")
    print(json.dumps(out))
    return 0


def cmd_decompose(args) -> int:
    f = parse_poly(args.poly)
    chain = decompose(f)
    print(json.dumps({
        "factors": [ratpoly.to_strings(g) for g in chain.factors],
        "markers": list(chain.markers()),
        "pretty": [ratpoly.format_poly(g) for g in chain.factors],
    }))
    return 0


def cmd_zeta(args) -> int:
    g = parse_poly(args.poly)
    field = build_field(args.p, args.e)
    gbar = field.poly([ratpoly.mod_p(c, args.p) for c in g])
    b = p1_polynomial(gbar, args.budget)
    print(json.dumps({
        "p": args.p,
        "q": field.q,
        "genus": (len(b) - 1) // 2,  # deg P_1 = 2g; g is the reduced curve's
        "p1": [str(c) for c in b],
    }))
    return 0


def main(argv=None) -> int:
    # The cyclic collector skips what exists before the command (modules,
    # classes, functions, and numpy's if it is loaded), here and in --jobs
    # workers forked during it; a caller's own freeze is left as it is.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _run(argv)
    finally:
        if freeze:
            gc.unfreeze()


def _run(argv) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (NpscanError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
