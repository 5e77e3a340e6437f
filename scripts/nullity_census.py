#!/usr/bin/env python3
"""Tabulate the nullity of every nonempty subset of a small finite field.

Prints a size-by-nullity census and lists the subsets attaining the largest
nullity for each size.  Useful for eyeballing which structures (cosets of
root-of-unity groups, additive cosets, full field) sit at the extremes.
Nullities come from the oracle's Gray-code walk, one root factor per subset,
unless --max-size leaves under a quarter of the 2^|pool| subsets: then only
those are visited, each with its own char poly.
"""

import argparse
import sys
from collections import defaultdict
from itertools import combinations
from math import comb

import gridnull as g
from gridnull.oracle import _subset_nullities


def subset_nullities(ctx, pool, hi):
    """(pool indices, nullity) for each nonempty subset of at most hi elements."""
    n = len(pool)
    hi = min(hi, n)
    if 4 * sum(comb(n, k) for k in range(1, hi + 1)) < 2**n:
        for size in range(1, hi + 1):
            for combo in combinations(range(n), size):
                yield combo, g.FiniteSet(ctx, [pool[i] for i in combo]).nullity
        return
    for mask, lam in _subset_nullities(ctx, pool):
        if mask.bit_count() <= hi:
            yield tuple(i for i in range(n) if mask >> i & 1), lam


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
    # size -> min (-nullity, pool indices): the first maximiser in
    # combinations order, which is lex order of the indices
    best = {}
    for combo, lam in subset_nullities(ctx, pool, hi):
        census[(len(combo), lam)] += 1
        best[len(combo)] = min(best.get(len(combo), (1,)), (-lam, combo))

    print(f"field {ctx.spec_string()}, pool size {len(pool)}")
    print(f"{'size':>4} {'nullity':>8} {'count':>8}")
    for (size, lam), count in sorted(census.items()):
        print(f"{size:>4} {lam:>8} {count:>8}")
    print()
    for size in sorted(best):
        neg_lam, combo = best[size]
        frozen = g.FiniteSet(ctx, [pool[i] for i in combo])
        print(f"size {size}: max nullity {-neg_lam} at {frozen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
