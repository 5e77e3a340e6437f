#!/usr/bin/env python3
"""Tabulate the nullity of every nonempty subset of a small finite field.

Prints a size-by-nullity census and lists the subsets attaining the largest
nullity for each size.  Useful for eyeballing which structures (cosets of
root-of-unity groups, additive cosets, full field) sit at the extremes.
"""

import argparse
import sys
from collections import defaultdict
from itertools import combinations

import gridnull as g


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F7", help="field spec, e.g. F7 or F3^2")
    ap.add_argument("--units-only", action="store_true",
                    help="restrict to subsets of the unit group")
    ap.add_argument("--max-size", type=int, default=None)
    args = ap.parse_args()

    ctx = g.parse_field(args.field)
    pool = [x for x in ctx.elements() if not (args.units_only and x.is_zero)]
    hi = len(pool) if args.max_size is None else args.max_size

    census = defaultdict(int)
    best = {}
    for size in range(1, hi + 1):
        for combo in combinations(pool, size):
            lam = g.FiniteSet(ctx, combo).nullity
            census[(size, lam)] += 1
            if lam > best.get(size, (-1, None))[0]:
                best[size] = (lam, combo)

    print(f"field {ctx.spec_string()}, pool size {len(pool)}")
    print(f"{'size':>4} {'nullity':>8} {'count':>8}")
    for (size, lam), count in sorted(census.items()):
        print(f"{size:>4} {lam:>8} {count:>8}")
    print()
    for size in sorted(best):
        lam, combo = best[size]
        frozen = g.FiniteSet(ctx, combo)
        print(f"size {size}: max nullity {lam} at {frozen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
