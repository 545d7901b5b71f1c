#!/usr/bin/env python3
"""Reproduce the headline oscillation picture from the command line.

Scans two polynomials across all good primes up to a bound:

  * f = x^3 (the smallest Dickson kernel D_3(x, 0)): primes that are
    1 mod 3 pin the Newton polygon to the Hodge bound, primes that are
    2 mod 3 push it 1/6 above.  Both witness classes recur forever, so
    the polygon cannot converge.
  * f = D_5(x, 1) = x^5 - 5x^3 + 5x: same story with admissible primes
    supplying the repeated slope and the >= 1/10 gap.

The CSV reports leave the wall-time ms column empty, so a rerun, with any
--jobs, writes the same bytes.

Usage:
    python scripts/oscillation_demo.py --out-dir out/
    python scripts/oscillation_demo.py --p-max 200 --quintic-p-max 40
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from npscan.dickson import dickson
from npscan.ratpoly import format_poly
from npscan.scan import ScanOptions, run_scan, write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p-max", type=int, default=100, help="prime bound for x^3")
    ap.add_argument(
        "--quintic-p-max",
        type=int,
        default=50,
        help="prime bound for D_5(x,1); each prime costs an F_{p^2} enumeration",
    )
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    ap.add_argument("--out-dir", default="out", help="directory for the CSV reports")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    targets = [
        ("x3", (Fraction(0), Fraction(0), Fraction(0), Fraction(1)), args.p_max),
        ("d5", dickson(5, Fraction(1)), args.quintic_p_max),
    ]
    for tag, f, bound in targets:
        out_path = os.path.join(args.out_dir, f"scan_{tag}.csv")
        opts = ScanOptions(p_max=bound, jobs=args.jobs, timing=False)
        records, summary = run_scan(f, opts)
        with open(out_path, "w") as fp:
            write_csv(records, fp)
        hp_ps = [r.p for r in records if r.np_eq_hp]
        gap_ps = [
            r.p
            for r in records
            if r.gap is not None and r.gap >= Fraction(1, 2 * summary.d)
        ]
        print(f"f = {format_poly(f)}  (primes <= {bound})")
        print(f"  wrote {out_path} ({summary.n_rows} rows)")
        print(f"  NP = HP at p in {hp_ps}")
        print(f"  gap >= 1/{2 * summary.d} at p in {gap_ps}")
        print(f"  verdict: {summary.verdict}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
