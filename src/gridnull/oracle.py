"""Naive reference implementations and exhaustive scans.

The references are deliberately slow and literal: subset enumeration for
elementary moments, weak compositions for complete ones, a Gray-code walk
over the whole power set.  The fast paths are tested against these, never
the other way around.  The classification scans account for every subset,
or every pair, but visit only what can decide them: redei the 0/1
solutions of the power-sum equations over F_p, each confirmed from its
roots, scd the pairs of positive nullity; each shortcut has a differential
test against the full walk.
Every oracle enforces its size bounds with an error instead of silently
delegating.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import NamedTuple

from .errors import (
    CharacteristicZero,
    DivisionByZero,
    EvenQ,
    FieldNotRationals,
    MissingValue,
    NotPrimeField,
    PreconditionViolated,
    ScanTooLarge,
    SizeBoundExceeded,
)
from .field import ExtensionField, FieldCtx, FieldElement, PrimeField
from .field import _digits, _is_prime, _prime_factors, _row_reduce
from .grids import Grid, _span_values
from .nullity import FiniteSet, MomentTable, _leading_zeros
from .poly import MultiPoly, Monomial, UniPoly, _root_values
from .reports import ScanReport


class _Caps(NamedTuple):
    max_set_size: int = 8
    max_degree: int = 16
    max_subset_scan_q: int = 13
    series_truncation_order: int = 12


class OracleConfig(_Caps):
    """The oracles' size caps; every cap must be positive."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise PreconditionViolated("oracle bounds must be positive")
        return self

    @classmethod
    def _make(cls, iterable):
        """Checked like a direct call; ``_replace`` builds through this."""
        return cls(*iterable)


_DEFAULT = OracleConfig()


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_caps(A: FiniteSet, d: int, config: OracleConfig, noun: str) -> None:
    """Refuse a set larger, or an order or degree d higher, than the config allows."""
    cfg = config or _DEFAULT
    if len(A) > cfg.max_set_size:
        raise SizeBoundExceeded(f"set size {len(A)} exceeds {cfg.max_set_size}")
    if d > cfg.max_degree:
        raise SizeBoundExceeded(f"{noun} {d} exceeds {cfg.max_degree}")


def moments_bruteforce(A: FiniteSet, R: int, config: OracleConfig = None) -> MomentTable:
    """Moments by raw enumeration: r-subsets, weak compositions, power sums."""
    _check_caps(A, R, config, "order")
    ctx, elems = A.ctx, A.elements
    e, h, p = [ctx.one], [ctx.one], [ctx.element(len(elems))]
    for r in range(1, R + 1):
        subsets = itertools.combinations(elems, r)
        e.append(sum((math.prod(s, start=ctx.one) for s in subsets), ctx.zero))
        h.append(_monomial_sum(ctx, elems, r))
        p.append(sum((x**r for x in elems), ctx.zero))
    return MomentTable(tuple(e), tuple(h), tuple(p))


def _monomial_sum(ctx: FieldCtx, elems, total: int) -> FieldElement:
    """Sum of all monomials of degree total in elems, one weak composition at a time."""
    monomials = (
        math.prod((x**k for x, k in zip(elems, ks) if k), start=ctx.one)
        for ks in _compositions(total, len(elems))
    )
    return sum(monomials, ctx.zero)


def sylvester_rhs_bruteforce(A: FiniteSet, d: int, config: OracleConfig = None) -> FieldElement:
    """Sum of all monomials of degree d - |A| + 1 in the elements of A."""
    _check_caps(A, d, config, "degree")
    total = d - len(A) + 1
    return _monomial_sum(A.ctx, A.elements, total) if total >= 0 else A.ctx.zero


def sylvester_sum_bruteforce(A: FiniteSet, d: int, config: OracleConfig = None) -> FieldElement:
    """Sum of a^d / prod_(b != a) (a - b) over A, one element at a time."""
    _check_caps(A, d, config, "degree")
    one = A.ctx.one
    terms = (a**d / math.prod((a - b for b in A if b != a), start=one) for a in A)
    return sum(terms, A.ctx.zero)


def exp_series_check(A: FiniteSet, D: int, config: OracleConfig = None) -> bool:
    """Exponential generating identity, compared term by term up to z^D.

    The left side packages the complete moments with factorial denominators;
    the right side is the sum of exp(a z) against the derivative weights.
    Both sides are expanded with independent code paths and exact rationals.
    """
    cfg = config or _DEFAULT
    if A.ctx.kind != "rationals":
        raise FieldNotRationals("the series identity is checked over the rationals")
    if len(A) < 2:
        raise PreconditionViolated("the series identity needs at least two elements")
    if D > cfg.series_truncation_order:
        raise SizeBoundExceeded(f"order {D} exceeds {cfg.series_truncation_order}")
    ctx = A.ctx
    m = len(A)
    table = moments_bruteforce(A, max(D - m + 1, 0), cfg)
    for s in range(D + 1):
        lhs = table.h[s - m + 1] if s >= m - 1 else ctx.zero
        if lhs != sylvester_sum_bruteforce(A, s, cfg):
            return False
    return True


def _field_for_order(q: int) -> FieldCtx:
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise PreconditionViolated(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return PrimeField(p) if e == 1 else ExtensionField(p, e)


def char_poly_bruteforce(ctx: FieldCtx, roots) -> UniPoly:
    """prod (X - a) over the roots by element operators: top coefficient
    first, each factor multiplied in place by c_j -= a * c_(j-1) from the
    last entry down.  The reference for the contexts' list kernels."""
    coeffs = [ctx.one]
    for a in map(ctx.element, roots):
        coeffs.append(ctx.zero)
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] = coeffs[j] - a * coeffs[j - 1]
    return UniPoly(ctx, reversed(coeffs))


def _subset_nullities(ctx: FieldCtx, elements):
    """(mask, nullity) for each nonempty subset of elements, in Gray-code order.

    Bit i of mask stands for elements[i].  prod (X - a) over the subset is kept
    as raw values, top coefficient first; each step multiplies it by one root
    factor or divides it exactly by one, one list kernel call of O(|A|).  The
    nullity counts the vanishing coefficients just below the top, capped at
    |A|, as in FiniteSet.
    """
    mul_root, div_root = ctx._mul_root, ctx._div_root
    values = [x.value for x in elements]
    coeffs = [ctx.one.value]
    mask = 0
    for step in range(1, 1 << len(values)):
        bit = (step & -step).bit_length() - 1
        mask ^= 1 << bit
        if mask >> bit & 1:
            coeffs = mul_root(coeffs, values[bit])
        else:
            coeffs = div_root(coeffs, values[bit])
        yield mask, _leading_zeros(coeffs)


def _mask_set(ctx: FieldCtx, mask: int) -> FiniteSet:
    """The set of the elements x with bit x.value of mask set."""
    return FiniteSet(ctx, [x for x in ctx.elements() if mask >> x.value & 1])


def _power_sum_kernel(ctx: FieldCtx, r: int):
    """Mask (bit a.value for a in A) of every A within F_q^* whose power sums
    p_1(A), ..., p_r(A) all vanish, each once, for a finite field and r > 0.

    p_k(A) = sum_a x_a a^k is F_p-linear in the 0/1 indicator x, so each
    k <= r gives e equations over F_p, one per base-p digit of a^k; k with
    p | k gives none new, as p_(pk) = p_k^p.  The system is row-reduced once
    by field._row_reduce.  The free columns are Gray-walked, each step adding
    or removing one column of pivot values, and an assignment is kept when
    every pivot value is 0 or 1.
    """
    p, e, vpow = ctx.characteristic, ctx.e, ctx._vpow
    n = ctx.cardinality - 1  # column j stands for the unit of value j + 1
    rows = [
        row
        for k in range(1, r + 1)
        if k % p
        for row in zip(*(_digits(vpow(a, k), p, e) for a in range(1, n + 1)))
    ]
    pivots = _row_reduce(rows, p)
    free = [j for j in range(n) if j not in pivots]
    # the pivot values are -F x_free: free column j leaving A adds F[:, j] to
    # them, entering A adds -F[:, j]
    steps = [([row[j] for row in rows], [-row[j] % p for row in rows]) for j in free]
    values, chosen = [0] * len(rows), 0
    yield 0
    for step in range(1, 1 << len(free)):
        bit = (step & -step).bit_length() - 1
        chosen ^= 1 << bit
        values = [(v + c) % p for v, c in zip(values, steps[bit][chosen >> bit & 1])]
        if max(values) < 2:
            inside = [j for i, j in enumerate(free) if chosen >> i & 1]
            inside += [j for v, j in zip(values, pivots) if v]
            yield sum(2 << j for j in inside)


def _kernel_masks(ctx: FieldCtx, lam: int) -> list:
    """Masks of the nonempty subsets of F_q of nullity >= lam: each A of
    ``_power_sum_kernel(ctx, lam)``, with and without 0 (bit 0), is rebuilt
    from its roots and kept when its nullity, capped at |A|, is >= lam."""
    return [
        mask
        for kernel in _power_sum_kernel(ctx, lam)
        for mask in (kernel, kernel | 1)
        if mask and _mask_set(ctx, mask).nullity >= lam
    ]


def redei_scan(q: int, config: OracleConfig = None) -> ScanReport:
    """All subsets of a small odd field: who reaches nullity (q-1)/2?

    The expected answer is exactly the full field and its units.  In every
    characteristic Newton's identities write p_k as a sum of e_i p_(k-i) and
    +-k e_k, so e_1 = ... = e_lam = 0 forces p_1 = ... = p_lam = 0, and
    ``_kernel_masks`` takes its candidates from the 0/1 solutions of those
    lam power-sum equations.  Only the converse, needed for the kernel to be
    exactly the qualifying sets, asks k < p: over F_(p^e), e > 1, lam >= p
    and k e_k vanishes at k = p, so the kernel may hold more sets.  Each
    candidate, with and without 0, is therefore confirmed by its nullity
    from its own roots, never read off the equations: a wrong kernel can
    lose a set but never add one.  ``instances`` counts the 2^q - 1
    nonempty subsets, and sets are built only for qualifying masks, in mask
    order.  ``_subset_nullities`` is the walk over every subset.
    """
    cfg = config or _DEFAULT
    if q % 2 == 0:
        raise EvenQ(f"half of {q} - 1 is not an integer")
    if q <= 3:
        raise PreconditionViolated("the classification needs q > 3")
    if q > cfg.max_subset_scan_q:
        raise ScanTooLarge(f"2^{q} subsets exceed the scan bound")
    ctx = _field_for_order(q)
    lam = (q - 1) // 2
    masks = _kernel_masks(ctx, lam)
    full = (1 << q) - 1
    qualifying = [_mask_set(ctx, mask) for mask in sorted(masks)]
    expected = [_mask_set(ctx, full), _mask_set(ctx, full - 1)]
    unexpected = [A for A in qualifying if A not in expected]
    missing = [A for A in expected if A not in qualifying]
    verdict = not unexpected and not missing
    return ScanReport(
        name="redei",
        instances=full,
        verdict=verdict,
        details={
            "q": q,
            "lambda": lam,
            "qualifying": [repr(A) for A in qualifying],
        },
        counterexamples=tuple(
            {"set": repr(A), "problem": "unexpected"} for A in unexpected
        )
        + tuple({"set": repr(A), "problem": "missing"} for A in missing),
    )


def _rotation_sumset(p: int, a_mask: int, b_mask: int) -> int:
    """Mask of A + B in F_p, the or of A rotated by each b in B."""
    full = (1 << p) - 1
    c_mask = 0
    for b in range(p):
        if b_mask >> b & 1:
            c_mask |= (a_mask << b | a_mask >> p - b) & full
    return c_mask


def _dichotomy_holds(null_of, a_mask: int, b_mask: int, c_mask: int) -> bool:
    """N(A + B) >= min(N(A), N(B)), or else |A + B| >= |A| + |B| + N(A + B)."""
    null = null_of[c_mask]
    return null >= min(null_of[a_mask], null_of[b_mask]) or (
        c_mask.bit_count() >= a_mask.bit_count() + b_mask.bit_count() + null
    )


def scd_scan(p: int, config: OracleConfig = None) -> ScanReport:
    """Sumset dichotomy over F_p for every pair of nonempty subsets.

    Subsets are bitmasks, and ``_subset_nullities`` gives each mask's nullity
    once.  A pair with min(N(A), N(B)) = 0 holds by N(A + B) >= 0, so only
    pairs of masks of positive nullity are checked, each sumset by
    ``_rotation_sumset``; counterexamples come in (a_mask, b_mask) order.  The
    (2^p - 1)^2 pairs are refused above 2^(max_subset_scan_q + 1).
    """
    cfg = config or _DEFAULT
    if not _is_prime(p):
        raise NotPrimeField(f"{p} is not prime")
    bound = cfg.max_subset_scan_q + 1
    # for p >= 2, (2^p - 1)^2 <= 2^bound exactly when 2p <= bound
    if 2 * p > bound:
        pairs = ((1 << p) - 1) ** 2 if p <= 64 else f"(2^{p} - 1)^2"
        raise ScanTooLarge(f"{pairs} subset pairs exceed the scan bound 2^{bound}")
    ctx = PrimeField(p)
    full = (1 << p) - 1
    null_of = [0] * (full + 1)
    for mask, null in _subset_nullities(ctx, ctx.elements()):
        null_of[mask] = null
    positive = [mask for mask in range(1, full + 1) if null_of[mask]]
    bad = []
    for a_mask in positive:
        for b_mask in positive:
            c_mask = _rotation_sumset(p, a_mask, b_mask)
            if not _dichotomy_holds(null_of, a_mask, b_mask, c_mask):
                bad.append({"a_mask": a_mask, "b_mask": b_mask, "sum_mask": c_mask})
    return ScanReport(
        name="scd",
        instances=full * full,
        verdict=not bad,
        details={"p": p, "pairs": full * full},
        counterexamples=tuple(bad),
    )


def ore_form_check(ctx: FieldCtx, generators, shift=None) -> bool:
    """Structural checks for a coset A = shift + V of an additive subgroup V.

    Verifies that the vanishing polynomial P_A is supported on p-power
    degrees (plus a constant), which by Lucas' theorem is the binomial
    relations C(n-r, k-r) e_r = 0 for r < k < n on its elementary moments
    (k is 0 or a power of p exactly when p divides every C(k, j), 0 < j < k;
    tests/test_oracle.py::test_p_power_degrees_are_the_binomial_zeros), that
    translating A by an element outside V keeps those moments, and, when A
    is V, that the coefficient of X is the product of the nonzero elements.

    P_A(X - c) - P_A(X) = -L_V(c) is constant for every c in the field, so
    a translate by c outside V (a set other than A) keeps the coefficients of
    X, ..., X^n.  One of 1, t, ..., t^(e-1), whose values are p^0, ...,
    p^(e-1), lies outside V unless V is the field; the first such is the
    translate, whose char poly is built from its own roots, never shifted
    from P_A.  Everything runs on raw values: the span by grids._span_values,
    each char poly (top coefficient first) by poly._root_values.
    """
    if ctx.kind == "rationals":
        raise CharacteristicZero("additive structure needs characteristic p > 0")
    p, vadd = ctx.characteristic, ctx._vadd
    span = _span_values(ctx, generators, shift)
    n, members = len(span), set(span)
    cp = _root_values(ctx, span)

    # p^i <= n needs i < n.bit_length(), and larger powers never meet the support
    support = {n - j for j, c in enumerate(cp) if c}
    if not support <= {0} | {p**i for i in range(n.bit_length())}:
        return False

    first = span[0]
    c = next((p**i for i in range(ctx.e) if vadd(p**i, first) not in members), None)
    if c is not None:
        translated = _root_values(ctx, [vadd(x, c) for x in span])
        # the coefficients of X, ..., X^n are +-e_(n-1), ..., e_0
        if translated[:-1] != cp[:-1]:
            return False

    # the product of the units of A is never 0, so the coefficient of X is not
    return 0 not in members or cp[n - 1] == reduce(ctx._vmul, filter(None, span), 1)


def enumerate_additive_subgroups(ctx: FieldCtx, config: OracleConfig = None) -> list:
    """Generator tuples, one per distinct additive subgroup of the field.

    Each subspace of F_p^e, on the base-p digits of element indices, is met
    once as its reduced row echelon basis, pivots on the top digits.  Its rows
    in pivot order are the greedy basis of the span (each next generator is
    the smallest index not yet in it): by the matroid greedy property, the
    lex-first generator subset ``additive_subgroups_bruteforce`` keeps, so
    sorting by (dimension, indices) gives its list; () spans {0}.  The budget
    is the number of elements over all the subgroups, the sum over k of
    [e choose k]_p * p^k, against 2^max_subset_scan_q; it is at least both
    the subgroup count and the field size, and is checked before any element
    is built.
    """
    cfg = config or _DEFAULT
    if ctx.kind == "rationals":
        raise CharacteristicZero("additive subgroups need characteristic p > 0")
    p, e = ctx.characteristic, ctx.e
    # gaussian runs through the Gaussian binomials [e choose k]_p
    elements, gaussian = 0, 1
    for k in range(e + 1):
        elements += gaussian * p**k
        gaussian = gaussian * (p ** (e - k) - 1) // (p ** (k + 1) - 1)
    if elements > 2**cfg.max_subset_scan_q:
        raise ScanTooLarge(
            f"{elements} elements over all subgroups exceed the scan bound "
            f"2^{cfg.max_subset_scan_q}"
        )
    bases = []
    for dim in range(e + 1):
        for pivots in itertools.combinations(range(e), dim):
            # row i: digit 1 at its pivot, free digits below it off the pivots
            free = [(i, p**j) for i, t in enumerate(pivots) for j in range(t) if j not in pivots]
            for digits in itertools.product(range(p), repeat=len(free)):
                rows = [p**t for t in pivots]
                for (i, weight), d in zip(free, digits):
                    rows[i] += d * weight
                bases.append(tuple(rows))
    bases.sort(key=lambda rows: (len(rows), rows))
    elems = ctx.elements()
    return [tuple(elems[v] for v in rows) for rows in bases]


def multiplicative_subgroup_bruteforce(ctx: FieldCtx, d: int) -> list:
    """{x : x^d = 1} by a power of every unit, in field enumeration order."""
    return [x for x in ctx.elements() if not x.is_zero and x**d == ctx.one]


def additive_subgroups_bruteforce(ctx: FieldCtx) -> list:
    """First generator subset, by size then lex order, spanning each subgroup; unbounded.

    Each span is {0} closed by element operators under adding each generator
    in turn: a generator already in the span adds nothing and is skipped, any
    other adds the p - 1 translates of the span by its multiples.
    """
    p = ctx.characteristic
    nonzero = [x for x in ctx.elements() if not x.is_zero]
    found = {}
    for size in range(ctx.e + 1):
        for gens in itertools.combinations(nonzero, size):
            span = {ctx.zero}
            for gen in gens:
                if gen in span:
                    continue
                layer = span
                for _ in range(p - 1):
                    layer = {x + gen for x in layer}
                    span = span | layer
            span = frozenset(span)
            if span not in found:
                found[span] = gens
    return list(found.values())


def _ref_coeffs(x: FieldElement) -> list:
    """c_0, ..., c_{e-1}: the base-p digits of the element's index."""
    p, v = x.ctx.characteristic, x.value
    return [v // p**j % p for j in range(x.ctx.e)]


def field_element_bruteforce(ctx: FieldCtx, coeffs) -> FieldElement:
    """The element c_0 + c_1 t + ..., reduced by long division modulo ctx.modulus."""
    p, e = ctx.characteristic, ctx.e
    c = [int(x) % p for x in coeffs] + [0] * e
    for top in range(len(c) - 1, e - 1, -1):
        k = c[top]
        if k:  # subtract k X^(top-e) times the monic modulus
            for j, mj in enumerate(ctx.modulus):
                c[top - e + j] = (c[top - e + j] - k * mj) % p
    return FieldElement(ctx, sum(cj * p**j for j, cj in enumerate(c[:e])))


def _ref_mul(x: FieldElement, y: FieldElement) -> FieldElement:
    a, b = _ref_coeffs(x), _ref_coeffs(y)
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return field_element_bruteforce(x.ctx, prod)


def _ref_pow(x: FieldElement, k: int) -> FieldElement:
    if k < 0:
        return _ref_pow(field_op_bruteforce("inv", x), -k)
    result, base = field_element_bruteforce(x.ctx, [1]), x
    while k:
        if k & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        k >>= 1
    return result


def field_op_bruteforce(op: str, x: FieldElement, y=None) -> FieldElement:
    """One finite-field operation by polynomial arithmetic on coefficients.

    op is "add", "sub", "mul", "neg", "inv" or "pow" (y an int exponent).
    Coefficients are the base-p digits of the element index; products are
    schoolbook, reduced by long division modulo ctx.modulus; the inverse is
    x^(q-2) by square and multiply.  No kernel or table of the field is used.
    """
    ctx = x.ctx
    if op == "pow":
        return _ref_pow(x, y)
    if op == "mul":
        return _ref_mul(x, y)
    if op == "inv":
        if not any(_ref_coeffs(x)):
            raise DivisionByZero("cannot invert 0")
        return _ref_pow(x, ctx.cardinality - 2)
    if op == "neg":
        return field_op_bruteforce("sub", field_element_bruteforce(ctx, []), x)
    sign = {"add": 1, "sub": -1}[op]
    return field_element_bruteforce(
        ctx, [a + sign * b for a, b in zip(_ref_coeffs(x), _ref_coeffs(y))]
    )


def coefficient_oracle(f: MultiPoly, k: Monomial) -> FieldElement:
    """Independent coefficient lookup by scanning the term list."""
    k = tuple(int(x) for x in k)
    for m, c in f.terms.items():
        if m == k:
            return c
    return f.ctx.zero


def _evaluate_bruteforce(f: MultiPoly, point) -> FieldElement:
    """f at one point, term by term through the element operators."""
    total = f.ctx.zero
    for m, c in f.terms.items():
        v = c
        for x, k in zip(point, m):
            if k:
                v = v * x**k
        total = total + v
    return total


def _weights_bruteforce(A: FiniteSet) -> dict:
    """{a: prod over b != a of (a - b)^(-1)} through the element operators."""
    return {a: math.prod((a - b for b in A if b != a), start=A.ctx.one).inv() for a in A}


def grid_values_bruteforce(f: MultiPoly, grid: Grid) -> list:
    """f at each point of the grid, one evaluation per point."""
    return [_evaluate_bruteforce(f, a) for a in grid.points()]


def grid_sum_bruteforce(f: MultiPoly, grid: Grid, mode: str = "plain") -> FieldElement:
    """Sum of f over the grid, plain or weighted, one evaluation per point."""
    weights = [_weights_bruteforce(A) for A in grid.factors]
    acc = grid.ctx.zero
    for a in grid.points():
        v = _evaluate_bruteforce(f, a)
        if mode == "weighted":
            for w, x in zip(weights, a):
                v = v * w[x]
        acc = acc + v
    return acc


def plane_count_bruteforce(c, grid: Grid) -> int:
    """Grid points on the plane c.x = 0, by a dot product at every point."""
    ctx = grid.ctx
    cv = tuple(map(ctx.element, c))
    count = 0
    for a in grid.points():
        dot = ctx.zero
        for ci, xi in zip(cv, a):
            dot = dot + ci * xi
        if dot.is_zero:
            count += 1
    return count


def interpolate_bruteforce(grid: Grid, values, lam: int) -> MultiPoly:
    """Coefficients of degree <= lam as weighted grid sums, point by point.

    For each point a, v(a) prod_i w_i(a_i) a_i^(s_i-1-k_i) is added to the
    coefficient of every monomial k with |k| <= lam and k_i < s_i.  The grid
    and lambda are not checked here; ``theorems.interpolate`` checks them.
    """
    ctx = grid.ctx
    pow_tables = []
    weight_tables = []
    for A in grid.factors:
        pow_tables.append({a: [a**k for k in range(len(A))] for a in A})
        weight_tables.append(_weights_bruteforce(A))
    ks = [
        k
        for k in itertools.product(*(range(min(lam, s - 1) + 1) for s in grid.sizes))
        if sum(k) <= lam
    ]
    acc = {k: ctx.zero for k in ks}
    for a in grid.points():
        try:
            v = values[a]
        except KeyError:
            raise MissingValue(f"no value supplied for grid point {a}") from None
        v = ctx.element(v)
        w = ctx.one
        for i, x in enumerate(a):
            w = w * weight_tables[i][x]
        v = v * w
        if v.is_zero:
            continue
        for k in ks:
            term = v
            for i, (x, ki) in enumerate(zip(a, k)):
                term = term * pow_tables[i][x][grid.sizes[i] - ki - 1]
            acc[k] = acc[k] + term
    return MultiPoly(ctx, grid.n, acc)
