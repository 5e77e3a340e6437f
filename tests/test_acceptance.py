"""End-to-end acceptance run.

Eleven numbered checks, each printing exactly one verdict line.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they happen.
"""

from fractions import Fraction

import gridnull as g
from support import (
    F4,
    F5,
    F7,
    F8,
    F9,
    F11,
    F13,
    F27,
    Q,
    make_rng,
    random_add_grid,
    random_cct_instance,
    random_cct_overflow_instance,
    random_gcn_instance,
    random_mul_grid,
    random_multipoly,
    random_rational_set,
    random_set,
    random_varbounded_poly,
)


def _verdict(num: int, name: str, ok: bool, note: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"[criterion {num:02d}] {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} failed: {name}{suffix}"


# 01: closed-form nullities of full fields, unit groups, root-of-unity
# cosets, and trace-zero sets.

def test_criterion_01_nullity_ground_truths():
    ok = True
    for ctx in (F4, F5, F7, F8, F9, F11):
        q = ctx.cardinality
        full = g.FiniteSet(ctx, ctx.elements())
        units = g.FiniteSet(ctx, [x for x in ctx.elements() if not x.is_zero])
        ok = ok and full.nullity == q - 2
        ok = ok and units.nullity == q - 2
    for ctx in (F7, F9, F11):
        q = ctx.cardinality
        shifts = (ctx.one, ctx.element(2))
        for d in range(1, q):
            if (q - 1) % d:
                continue
            for s in shifts:
                ok = ok and g.multiplicative_coset(ctx, d, s).nullity == d - 1
    for ctx, p, e in ((F4, 2, 1), (F8, 2, 2), (F9, 3, 1)):
        size = p**e
        want = (size - size // p) - 1
        ok = ok and g.trace_zero_set(ctx).nullity == want
    _verdict(1, "closed-form nullity ground truths", ok)


# 02: the three equivalent nullity computations agree on random sets, and
# the brute-force moment oracle confirms the fast tables.

def _nullity_via_char_poly(A):
    u = A.char_poly
    n = len(A)
    lam = 0
    for r in range(1, n + 1):
        if not u.coefficient(n - r).is_zero:
            break
        lam = r
    return lam


def _nullity_via_scan(values):
    lam = 0
    for r in range(1, len(values)):
        if not values[r].is_zero:
            break
        lam = r
    return lam


def test_criterion_02_nullity_computations_agree():
    rng = make_rng(202)
    ok = True
    fields = (Q, F5, F7, F9)
    for i in range(200):
        ctx = fields[i % 4]
        hi = 8 if ctx.kind == "rationals" else min(8, ctx.cardinality)
        A = random_set(rng, ctx, rng.randint(1, hi))
        n = len(A)
        table = A.moments(n)
        lam = A.nullity
        ok = ok and lam == _nullity_via_char_poly(A)
        ok = ok and lam == _nullity_via_scan(table.e)
        ok = ok and lam == _nullity_via_scan(table.h)
        ok = ok and g.moments_bruteforce(A, n) == table
    _verdict(2, "elementary/complete/char-poly nullity agreement", ok)


# 03: power sums of reciprocal root products: the piecewise closed form,
# the peel-one-element recurrence, partial fractions, and the series check.

def test_criterion_03_vanishing_sum_identities():
    rng = make_rng(303)
    ok = True
    fields = (Q, F5, F7, F9)
    for i in range(200):
        ctx = fields[i % 4]
        hi = 8 if ctx.kind == "rationals" else min(8, ctx.cardinality)
        A = random_set(rng, ctx, rng.randint(1, hi))
        n = len(A)
        table = A.moments(n + 2)
        for d in range(0, 2 * n + 1):
            s = A.sylvester_sum(d)
            if d < n - 1:
                ok = ok and s == ctx.zero
            elif d == n - 1:
                ok = ok and s == ctx.one
            else:
                ok = ok and s == table.h[d - n + 1]
        if n >= 2:
            head = g.FiniteSet(ctx, A.elements[:-1])
            last = A.elements[-1]
            for d in range(0, 2 * n + 1):
                rhs = ctx.zero
                for e in range(d):
                    rhs = rhs + head.sylvester_sum(e) * last ** (d - e - 1)
                ok = ok and A.sylvester_sum(d) == rhs
        x = _point_off_set(rng, ctx, A)
        if x is not None:
            lhs = A.char_poly(x).inv()
            rhs = ctx.zero
            for a in A.elements:
                rhs = rhs + A.weight_at(a) * (x - a).inv()
            ok = ok and lhs == rhs
    for _ in range(20):
        A = random_rational_set(rng, rng.randint(2, 6))
        ok = ok and g.exp_series_check(A, 12)
    _verdict(3, "reciprocal-product sum identities", ok)


def _point_off_set(rng, ctx, A):
    pool = [x for x in ctx.elements() if x not in A] if ctx.kind != "rationals" else None
    if pool is not None:
        return rng.choice(pool) if pool else None
    while True:
        x = ctx.element(Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
        if x not in A:
            return x


# 04: witness search on grids whose factors carry slack: random instances,
# then one fixed instance with a pinned first witness.

def test_criterion_04_witness_search_random():
    rng = make_rng(404)
    ok = True
    for _ in range(500):
        f, grid, k = random_gcn_instance(rng)
        rep = g.gcn_check(f, grid)
        ok = ok and rep.hypothesis_ok
        ok = ok and rep.witness is not None
        ok = ok and not f.evaluate(rep.witness).is_zero
    _verdict(4, "witness search, 500 random qualifying instances", ok)


def test_criterion_04_witness_search_fixed_instance():
    # The witness is the first non-vanishing point of grid.points(): each
    # factor in insertion order, last coordinate fastest.  In order
    # [-1, 0, 1] the first point (-1, -1) already gives f = 2; in order
    # [1, -1, 0] the first point (1, 1) vanishes and the scan moves on.
    f = g.parse_poly("x1*x2 - x1^3", 2, Q)
    ok = True
    got = []
    for order, pinned in (([-1, 0, 1], (-1, -1)), ([1, -1, 0], (1, -1))):
        A = g.FiniteSet(Q, order)
        grid = g.grid_make([A, A])
        rep = g.gcn_check(f, grid)
        ok = ok and rep.hypothesis_ok
        ok = ok and rep.witness == tuple(Q.element(v) for v in pinned)
        ok = ok and not f.evaluate(rep.witness).is_zero
        for a in grid.points():
            if a == rep.witness:
                break
            ok = ok and f.evaluate(a).is_zero
        got.append("(" + ", ".join(str(x) for x in rep.witness) + ")")
    _verdict(
        4,
        "witness search, fixed instance pinned to (-1, -1) and (1, -1)",
        ok,
        note=f"first non-vanishing points computed: {', '.join(got)}",
    )


# 05: grid-weighted sums recover the top coefficient inside the degree
# bound and are seen to fail once the bound is exceeded by one.

def test_criterion_05_weighted_sum_extracts_top_coefficient():
    rng = make_rng(505)
    ok = True
    for _ in range(500):
        f, grid = random_cct_instance(rng)
        rep = g.cct_coefficient(f, grid)
        ok = ok and rep.degree_bound_ok
        ok = ok and rep.weighted_sum == rep.direct_coefficient
    mismatches = 0
    for _ in range(200):
        f, grid = random_cct_overflow_instance(rng)
        rep = g.cct_coefficient(f, grid)
        ok = ok and not rep.degree_bound_ok
        if rep.weighted_sum != rep.direct_coefficient:
            mismatches += 1
    ok = ok and mismatches >= 1
    cube = g.multiplicative_coset(F7, 3)
    fixed = g.cct_coefficient(g.parse_poly("x1^2", 1, F7), g.grid_make([cube]))
    ok = ok and fixed.weighted_sum == F7.one
    ok = ok and fixed.direct_coefficient == F7.one
    _verdict(
        5,
        "weighted sums equal top coefficients under the bound",
        ok,
        note=f"out-by-one mismatches: {mismatches}/200",
    )


# 06: low-degree polynomials over structured grids round-trip through
# value interpolation.

def test_criterion_06_interpolation_round_trip():
    rng = make_rng(606)
    ok = True
    for i in range(100):
        mode = i % 4
        if mode == 0:
            grid = random_mul_grid(rng, F7)
        elif mode == 1:
            grid = random_mul_grid(rng, F11)
        elif mode == 2:
            grid = random_add_grid(rng, F8, min_size=4)
        else:
            grid = random_add_grid(rng, F9, min_size=3)
        ctx = grid.ctx
        lam = grid.joint_nullity
        f = random_multipoly(rng, ctx, grid.n, lam)
        values = {a: f.evaluate(a) for a in grid.points()}
        ok = ok and g.interpolate(grid, values, lam) == f
    _verdict(6, "interpolation round trips on structured grids", ok)


# 07: structured-grid sum formulas: factorized sums, vanishing sums in
# positive characteristic, top-coefficient-free vanishing, the averaged
# product-weight identity, and prime-subfield rationality of interpolants.

def test_criterion_07_structured_grid_sums():
    rng = make_rng(707)
    ok = True
    for _ in range(200):
        ctx = rng.choice([F7, F11, F13])
        grid = random_mul_grid(rng, ctx)
        lam = grid.joint_vandermonde
        f = random_varbounded_poly(rng, ctx, grid.n, lam)
        origin = tuple(ctx.zero for _ in range(grid.n))
        want = f.evaluate(origin) * ctx.element(grid.size)
        ok = ok and g.grid_sum(f, grid) == want
    for _ in range(200):
        ctx = rng.choice([F4, F8, F9])
        grid = random_add_grid(rng, ctx, min_size=2, shifts=True)
        lam = grid.joint_vandermonde
        f = random_multipoly(rng, ctx, grid.n, grid.n * (lam + 1) - 1)
        ok = ok and g.grid_sum(f, grid) == ctx.zero
    for _ in range(200):
        ctx = rng.choice([F8, F9, F27])
        grid = random_add_grid(rng, ctx, n=rng.randint(1, 2), min_size=3, shifts=False)
        bound = grid.n * (min(grid.sizes) - 1) - 1
        f = random_multipoly(rng, ctx, grid.n, bound)
        ok = ok and g.grid_sum(f, grid) == ctx.zero
    for _ in range(200):
        ctx = rng.choice([F8, F9])
        grid = random_add_grid(rng, ctx, min_size=2, shifts=False)
        p = ctx.characteristic
        m = min(grid.sizes)
        bound = sum(s - 1 for s in grid.sizes) + (m - m // p) - 1
        f = random_multipoly(rng, ctx, grid.n, bound)
        top = tuple(s - 1 for s in grid.sizes)
        f = f - g.MultiPoly.monomial(ctx, grid.n, top, f.coefficient(top))
        ok = ok and g.grid_sum(f, grid) == ctx.zero
    for _ in range(100):
        ctx = rng.choice([F7, F11])
        q = ctx.cardinality
        divisors = [d for d in range(2, q) if (q - 1) % d == 0]
        n = rng.randint(1, 3)
        grid = g.grid_make(
            [g.multiplicative_coset(ctx, rng.choice(divisors)) for _ in range(n)]
        )
        m = min(grid.sizes)
        bound = sum(s - 1 for s in grid.sizes) + m - 1
        f = random_multipoly(rng, ctx, n, bound)
        acc = ctx.zero
        for a in grid.points():
            prod = ctx.one
            for x in a:
                prod = prod * x
            acc = acc + prod * f.evaluate(a)
        top = tuple(s - 1 for s in grid.sizes)
        ok = ok and acc == ctx.element(grid.size) * f.coefficient(top)
    ok = ok and _subfield_rationality_holds(rng)
    _verdict(7, "structured grid sum formulas and subfield rationality", ok)


def _subfield_rationality_holds(rng) -> bool:
    """Interpolation over prime-subfield grids with prime-subfield values
    must land in the prime subfield coefficientwise."""
    base = [F9.element(0), F9.element(1), F9.element(2)]
    ok = True
    for _ in range(50):
        n = rng.randint(1, 3)
        factors = [
            g.FiniteSet(F9, rng.sample(base, rng.randint(2, 3))) for _ in range(n)
        ]
        grid = g.grid_make(factors)
        lam = grid.joint_nullity
        values = {a: F9.element(rng.randint(0, 2)) for a in grid.points()}
        rebuilt = g.interpolate(grid, values, lam)
        ok = ok and all(c.in_prime_subfield for c in rebuilt.terms.values())
        terms = []
        for k in _low_monomials(n, lam, grid.sizes):
            terms.append((k, F9.element(rng.randint(0, 2))))
        f = g.MultiPoly(F9, n, terms)
        again = g.interpolate(grid, {a: f.evaluate(a) for a in grid.points()}, lam)
        ok = ok and again == f
        ok = ok and all(c.in_prime_subfield for c in again.terms.values())
    return ok


def _low_monomials(n, lam, sizes):
    out = [tuple(0 for _ in range(n))]
    if lam >= 1:
        for i in range(n):
            if sizes[i] >= 2:
                k = [0] * n
                k[i] = 1
                out.append(tuple(k))
    return out


# 08: exhaustive small-prime scan of the sumset size dichotomy.

def test_criterion_08_sumset_dichotomy_scan():
    ok = True
    counts = []
    for p in (2, 3, 5, 7):
        rep = g.scd_scan(p)
        ok = ok and rep.verdict
        ok = ok and rep.instances == (2**p - 1) ** 2
        ok = ok and not rep.counterexamples
        counts.append(rep.instances)
    _verdict(
        8,
        "sumset size dichotomy over p in {2, 3, 5, 7}",
        ok,
        note=f"pair counts: {counts}",
    )


# 09: exhaustive scan of extremal-nullity subsets of the unit group.

def test_criterion_09_extremal_nullity_classification():
    ok = True
    for q in (5, 7, 9, 11, 13):
        rep = g.redei_scan(q)
        ok = ok and rep.verdict
        ok = ok and rep.instances == 2**q - 1
        ok = ok and not rep.counterexamples
    _verdict(9, "extremal nullity classification over q in {5, 7, 9, 11, 13}", ok)


# 10: no plane meets the scanned grids in exactly one point; the second
# grid additionally has all counts divisible by the characteristic.

def test_criterion_10_plane_intersection_scans():
    ok = True
    grid1 = g.parse_grid("mul(3) x mul(3) x mul(2)", F7)
    rep1 = g.plane_scan(grid1, mode="pp")
    ok = ok and rep1.verdict
    ok = ok and rep1.instances == 57
    ok = ok and rep1.details["pp_structured"]
    grid2 = g.parse_grid("all x tracezero x tracezero", F9)
    rep2 = g.plane_scan(grid2, mode="ppp")
    ok = ok and rep2.verdict
    ok = ok and rep2.instances == 91
    ok = ok and rep2.details["ppp_applies"]
    _verdict(10, "plane intersection count scans", ok)


# 11: the vanishing polynomial of every additive subgroup, shifted or not,
# is an additive polynomial plus a constant.

def test_criterion_11_additive_coset_vanishing_form():
    ok = True
    checked = 0
    for ctx in (F4, F8, F9, F27):
        for gens in g.enumerate_additive_subgroups(ctx):
            ok = ok and g.ore_form_check(ctx, list(gens))
            ok = ok and g.ore_form_check(ctx, list(gens), shift=ctx.generator)
            checked += 2
    _verdict(
        11,
        "additive-coset vanishing polynomials are additive plus constant",
        ok,
        note=f"subgroup/shift pairs checked: {checked}",
    )
