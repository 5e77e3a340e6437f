#!/usr/bin/env python3
"""Tabulate the nullity of every nonempty subset of a small finite field.

Prints a size-by-nullity census and lists the subsets attaining the largest
nullity for each size.  Useful for eyeballing which structures (cosets of
root-of-unity groups, additive cosets, full field) sit at the extremes.
The census is gridnull.scans.nullity_census under CONFIG: --max-size bounds
its walk, and a walk over more than 2^20 subsets is refused before it starts.
"""

import argparse
import sys

import gridnull as g
from gridnull.scans import nullity_census

CONFIG = g.OracleConfig(max_subset_scan_q=20)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F7", help="field spec, e.g. F7 or F3^2")
    ap.add_argument("--units-only", action="store_true",
                    help="restrict to subsets of the unit group")
    ap.add_argument("--max-size", type=int, default=None)
    args = ap.parse_args()

    try:
        ctx = g.parse_field(args.field)
        census = nullity_census(ctx, args.units_only, args.max_size, CONFIG).details
    except g.GridNullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"field {census['field']}, pool size {census['pool_size']}")
    print(f"{'size':>4} {'nullity':>8} {'count':>8}")
    for size, lam, count in census["rows"]:
        print(f"{size:>4} {lam:>8} {count:>8}")
    print()
    for size, lam, frozen in census["maximisers"]:
        print(f"size {size}: max nullity {lam} at {frozen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
