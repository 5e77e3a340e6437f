#!/usr/bin/env python3
"""Run every exhaustive scan in one pass and print compact verdict lines.

Covers the sumset size dichotomy, the extremal-nullity classification, the
additive-coset vanishing-form check (gridnull.scans.ore_scan, one instance
per subgroup V, checked as V and 1 + V) and both plane-count scans.  scd and
ore run under SCAN_CONFIG, whose bound admits scd p=11 and 13 and ore on F2^6
above the default caps: scd p=13 checks 67,092,481 subset pairs, under 2^28;
the subgroup enumerator budgets F2^6 at 26,387 elements over all its
subgroups, over 2^13.  redei runs under its own REDEI_CONFIG, which admits
q=17 to 37, the prime powers 25 and 27 among them (over every field it solves
the power-sum equations over F_p instead of walking every subset), and leaves
scd p=17 refused.  Exit code is nonzero when any scan has a counterexample.
"""

import argparse
import sys
import time

import gridnull as g
from gridnull.scans import ore_scan

SCAN_CONFIG = g.OracleConfig(max_subset_scan_q=27)
REDEI_CONFIG = g.OracleConfig(max_subset_scan_q=37)


def line(name, scan, *args):
    """Run scan(*args), which gives a ScanReport, and print its verdict line
    with the time it took; the count is padded to 12 digits, the widest the
    defaults print (redei q=37 checks 137,438,953,471 subsets)."""
    t0 = time.perf_counter()
    rep = scan(*args)
    tag = "ok" if rep.verdict else "COUNTEREXAMPLE"
    print(f"{name:<32} {tag:<16} instances={rep.instances:<12} {time.perf_counter() - t0:.2f}s")
    return rep.verdict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scd-primes", type=int, nargs="*", default=[2, 3, 5, 7, 11, 13])
    ap.add_argument(
        "--redei-orders", type=int, nargs="*",
        default=[5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37],
    )
    ap.add_argument(
        "--ore-fields",
        nargs="*",
        default=[
            "F2^2", "F2^3", "F3^2", "F3^3", "F5^2", "F3^4", "F2^5/1,0,1,0,0,1",
            "F2^6/1,1,0,0,0,0,1",
        ],
    )
    args = ap.parse_args()

    try:
        return 0 if run(args) else 1
    except g.GridNullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> bool:
    """Every scan args asks for, one verdict line each; True when all hold."""
    all_ok = True
    for p in args.scd_primes:
        all_ok &= line(f"sumset-dichotomy p={p}", g.scd_scan, p, SCAN_CONFIG)
    for q in args.redei_orders:
        all_ok &= line(f"extremal-nullity q={q}", g.redei_scan, q, REDEI_CONFIG)
    for spec in args.ore_fields:
        all_ok &= line(f"additive-form {spec}", ore_scan, g.parse_field(spec), SCAN_CONFIG)
    grid = g.parse_grid("mul(3) x mul(3) x mul(2)", g.parse_field("F7"))
    all_ok &= line("plane-scan F7 mul grid", g.plane_scan, grid, "pp")
    grid = g.parse_grid("all x tracezero x tracezero", g.parse_field("F3^2"))
    all_ok &= line("plane-scan F9 additive grid", g.plane_scan, grid, "ppp")
    return all_ok


if __name__ == "__main__":
    sys.exit(main())
