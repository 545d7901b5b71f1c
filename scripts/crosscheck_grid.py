#!/usr/bin/env python3
"""Exercise the dual-route consistency checks over a (p, d) grid.

For random monic polynomials over F_p this verifies, with exact integer
arithmetic, that

  * the zeta numerator P_1(C(g), t) of the Artin-Schreier cover equals the
    product of the L-functions over the nontrivial additive characters, and
  * every slope segment of the curve's Newton polygon is (p-1) times as
    long as the matching L-function segment.

Both checks run under an enumeration budget of --max-enum field elements;
a cell that needs more is reported as skipped, with the enumeration that
was refused, not silently dropped.

Usage:
    python scripts/crosscheck_grid.py
    python scripts/crosscheck_grid.py --per-cell 5 --seed 3 --max-enum 1e6
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from npscan.curvezeta import product_formula_check, slope_length_relation_check
from npscan.errors import BudgetExceeded
from npscan.fields import build_field


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--per-cell", type=int, default=3, help="random polys per cell")
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument(
        "--max-enum",
        type=float,
        default=1e7,
        help="skip cells that would enumerate more field elements than this",
    )
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    budget = int(args.max_enum)
    failures = 0
    for p in args.primes:
        field = build_field(p, 1)
        for d in args.degrees:
            if math.gcd(d, p) != 1:
                print(f"p={p} d={d}: skip (p divides d)")
                continue
            t0 = time.perf_counter()
            try:
                for i in range(args.per_cell):
                    coeffs = [rng.randrange(p) for _ in range(d)] + [1]
                    gbar = field.poly(coeffs)
                    ok_prod = product_formula_check(gbar, budget)
                    ok_len = slope_length_relation_check(gbar, budget)
                    if not (ok_prod and ok_len):
                        failures += 1
                        print(f"p={p} d={d} #{i}: FAIL product={ok_prod} lengths={ok_len}")
            except BudgetExceeded as exc:
                print(f"p={p} d={d}: skip ({exc})")
                continue
            dt = time.perf_counter() - t0
            print(f"p={p} d={d}: {args.per_cell} instances ok ({dt:.2f}s)")
    if failures:
        print(f"{failures} failures", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
