#!/usr/bin/env python3
"""Tabulate the nullity of every nonempty subset of a small finite field.

Prints a size-by-nullity census and lists the subsets attaining the largest
nullity for each size.  Useful for eyeballing which structures (cosets of
root-of-unity groups, additive cosets, full field) sit at the extremes.
Nullities come from the depth-first subset walk of gridnull.scans, one
root factor per subset; --max-size bounds the walk, which then visits only
the subsets of at most that many elements.  A walk over more than _MAX_WALK subsets is
refused before it starts.
"""

import argparse
import sys
from collections import defaultdict
from math import comb

import gridnull as g
from gridnull.scans import _subset_nullities

# The most subsets one run walks: a pool of 31 has 2^31 - 1, hours of work
_MAX_WALK = 2**20


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F7", help="field spec, e.g. F7 or F3^2")
    ap.add_argument("--units-only", action="store_true",
                    help="restrict to subsets of the unit group")
    ap.add_argument("--max-size", type=int, default=None)
    args = ap.parse_args()

    try:
        ctx = g.parse_field(args.field)
        # the walk's length, C(n, 1) + ... + C(n, most), counted up to 2^64 and
        # before the pool of n is built (Q has none: ctx.elements() refuses it)
        n, walk = (ctx.cardinality or 0) - args.units_only, 0
        for k in range(1, min(n, n if args.max_size is None else args.max_size) + 1):
            walk += comb(n, k)
            if walk >> 64:
                break
        if walk > _MAX_WALK:
            count = walk if walk < 1 << 64 else "more than 2^64"
            raise g.ScanTooLarge(f"a walk over {count} subsets is above the bound of {_MAX_WALK}")
        pool = [x for x in ctx.elements() if not (args.units_only and x.is_zero)]
    except g.GridNullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    census = defaultdict(int)
    # size -> (nullity, mask) of the first maximiser in walk order, which is
    # lex order of the pool indices
    best = {}
    for mask, lam in _subset_nullities(ctx, pool, args.max_size):
        size = mask.bit_count()
        census[(size, lam)] += 1
        if lam > best.get(size, (-1,))[0]:
            best[size] = (lam, mask)

    print(f"field {ctx.spec_string()}, pool size {len(pool)}")
    print(f"{'size':>4} {'nullity':>8} {'count':>8}")
    for (size, lam), count in sorted(census.items()):
        print(f"{size:>4} {lam:>8} {count:>8}")
    print()
    for size in sorted(best):
        lam, mask = best[size]
        frozen = g.FiniteSet(ctx, [x for i, x in enumerate(pool) if mask >> i & 1])
        print(f"size {size}: max nullity {lam} at {frozen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
