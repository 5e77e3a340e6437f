"""Naive reference implementations of the fast paths.

The references are deliberately slow and literal: subset enumeration for
elementary moments, weak compositions for complete ones, polynomial
arithmetic on coefficients for field operations, one evaluation per grid
point for the engines.  The fast paths are tested against these, never
the other way around.  Every oracle enforces its size bounds with an error
instead of silently delegating.  Only the tests call them, so the library
and the CLI never import this module: ``gridnull`` loads it on first use
of a reference it exports.  The exhaustive scans live in ``gridnull.scans``
and are re-exported here under their old names.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    DivisionByZero,
    FieldNotRationals,
    MissingValue,
    PreconditionViolated,
    SizeBoundExceeded,
)
from .field import FieldCtx, FieldElement
from .grids import Grid
from .nullity import FiniteSet, MomentTable
from .poly import MultiPoly, Monomial, UniPoly
from .scans import (
    _DEFAULT,
    OracleConfig,
    enumerate_additive_subgroups,
    ore_form_check,
    redei_scan,
    scd_scan,
)

__all__ = [
    # the scans, re-exported from gridnull.scans
    "OracleConfig", "enumerate_additive_subgroups", "ore_form_check", "redei_scan", "scd_scan",
    # the references
    "additive_subgroups_bruteforce", "char_poly_bruteforce", "coefficient_oracle",
    "exp_series_check", "field_element_bruteforce", "field_op_bruteforce",
    "grid_sum_bruteforce", "grid_values_bruteforce", "interpolate_bruteforce",
    "moments_bruteforce", "multiplicative_subgroup_bruteforce", "plane_count_bruteforce",
    "sylvester_rhs_bruteforce", "sylvester_sum_bruteforce",
]


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
