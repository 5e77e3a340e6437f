"""Cartesian grids of finite sets, and the structured families that feed them.

A grid is a product A_1 x ... x A_n of finite subsets of one field.  Its
joint nullity (and joint Vandermonde degree) is the minimum over the
factors, which is what every grid-level bound consumes.  The structured
constructors build the families with extremal nullity: shifted
multiplicative subgroups, cosets of additive subgroups in positive
characteristic, and the kernel of the absolute trace.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from math import prod

from .errors import (
    CharacteristicZero,
    EmptyFactorList,
    InfiniteField,
    MixedFields,
    NotExtensionField,
    OrderDoesNotDivide,
    ParseError,
    SizeBoundExceeded,
    ZeroShift,
)
from .field import FieldCtx, FieldElement, _digits, _int_literal, _row_reduce, _unit_of_order, trace
from .nullity import FiniteSet, _split_top_level, parse_set, weight as _weight
from .poly import _MAX_SET_SIZE, _exponent, parse_element


class Grid:
    """Immutable product of factors sharing one field."""

    __slots__ = (
        "ctx",
        "factors",
        "sizes",
        "size",
        "has_singleton",
        "joint_nullity",
    )

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise EmptyFactorList("a grid needs at least one factor")
        ctx = factors[0].ctx
        for A in factors:
            if A.ctx is not ctx:
                raise MixedFields("grid factors must share one field")
        self.ctx = ctx
        self.factors = factors
        self.sizes = tuple(len(A) for A in factors)
        self.size = prod(self.sizes)
        self.has_singleton = any(s == 1 for s in self.sizes)
        self.joint_nullity = min(A.nullity for A in factors)

    @property
    def joint_vandermonde(self) -> int:
        """Read on demand: each factor fills its power sums up to |A|."""
        return min(A.vandermonde_degree for A in self.factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    def points(self):
        """Lexicographic product order over each factor's insertion order,
        last coordinate fastest."""
        return product(*(A.elements for A in self.factors))

    def weight(self, a) -> FieldElement:
        return _weight(self, a)

    def __contains__(self, point) -> bool:
        pt = tuple(point)
        return len(pt) == len(self.factors) and all(
            x in A for A, x in zip(self.factors, pt)
        )

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return " x ".join(repr(A) for A in self.factors)


def grid_make(factors) -> Grid:
    """Build a grid from FiniteSet factors."""
    return Grid(factors)


def _check_size(size: int) -> None:
    """Refuse a structured set by its exact size before any of it is built."""
    if size > _MAX_SET_SIZE:
        raise SizeBoundExceeded(f"a set of {size} elements exceeds the set bound {_MAX_SET_SIZE}")


def multiplicative_coset(ctx: FieldCtx, d: int, shift=None) -> FiniteSet:
    """shift * {x : x^d = 1}, for d dividing the number of units.

    The subgroup is the d powers of one element of order d, from
    field._unit_of_order, listed in field enumeration order, then multiplied
    by the shift.
    """
    d = _exponent(d, "subgroup order")
    if ctx.kind == "rationals":
        raise InfiniteField("multiplicative cosets need a finite field")
    q = ctx.cardinality
    if d < 1 or (q - 1) % d != 0:
        raise OrderDoesNotDivide(f"{d} does not divide {q - 1}")
    _check_size(d)
    shift = ctx.one if shift is None else ctx.element(shift)
    if shift.is_zero:
        raise ZeroShift("the shift must be a unit")
    powers = accumulate(repeat(_unit_of_order(ctx, d), d - 1), ctx._vmul, initial=1)
    return FiniteSet(ctx, map(ctx._wrap, ctx._outer((shift.value,), sorted(powers))))


def _span_values(ctx: FieldCtx, generators, shift=None) -> list:
    """The values of shift + span of the generators over the prime subfield,
    in product order of coefficient vectors, the last generator's fastest:
    each generator's multiples 0, g, ..., (p-1)g are added to every value so
    far by _vadd, and repeats are dropped at once, the first of each kept."""
    gens = [ctx.element(g).value for g in generators]
    vadd, span = ctx._vadd, [0 if shift is None else ctx.element(shift).value]
    for g in gens:
        multiples = list(accumulate(repeat(g, ctx.characteristic - 1), vadd, initial=0))
        span = list(dict.fromkeys([vadd(s, m) for s in span for m in multiples]))
    return span


def _rank(ctx: FieldCtx, values) -> int:
    """The dimension of the span of values over the prime subfield, by
    row reduction of their base-p digits."""
    return len(_row_reduce([_digits(v, ctx.p, ctx.e) for v in values], ctx.p))


def additive_coset(ctx: FieldCtx, generators, shift=None) -> FiniteSet:
    """shift + span of the generators over the prime subfield, ordered as by
    _span_values; refused by its size p^rank before it is spanned."""
    if ctx.kind == "rationals":
        raise CharacteristicZero("additive cosets need positive characteristic")
    gens = [ctx.element(g) for g in generators]
    _check_size(ctx.p ** _rank(ctx, [g.value for g in gens]))
    return FiniteSet(ctx, map(ctx._wrap, _span_values(ctx, gens, shift)))


def trace_zero_set(ctx: FieldCtx) -> FiniteSet:
    """All elements with absolute trace zero, in field enumeration order."""
    if ctx.kind != "extension":
        raise NotExtensionField("the trace kernel needs a proper extension field")
    _check_size(ctx.cardinality // ctx.characteristic)
    return FiniteSet(ctx, [x for x in ctx.elements() if trace(x).is_zero])


def parse_factor(text: str, ctx: FieldCtx) -> FiniteSet:
    """One factor: {…} literal, mul(d[,shift]), add(g;…[,shift]), tracezero, all, units."""
    s = text.strip()
    if s.startswith("{"):
        return parse_set(s, ctx)
    if s in ("all", "units"):  # 0 comes first in enumeration order
        if ctx.kind == "rationals":
            raise InfiniteField(f"'{s}' needs a finite field")
        _check_size(ctx.cardinality - (s == "units"))
        return FiniteSet(ctx, ctx.elements()[s == "units" :])
    if s == "tracezero":
        return trace_zero_set(ctx)
    for name in ("mul", "add"):
        if s.startswith(name + "(") and s.endswith(")"):
            args = _split_top_level(s[len(name) + 1 : -1], ",")
            args = [a.strip() for a in args]
            if name == "mul":
                if len(args) not in (1, 2) or not args[0].isdecimal():
                    raise ParseError("expected mul(d) or mul(d, shift)")
                shift = parse_element(args[1], ctx) if len(args) == 2 else None
                return multiplicative_coset(ctx, _int_literal(args[0]), shift)
            if len(args) not in (1, 2):
                raise ParseError("expected add(g1;g2;...) or add(g1;...;gk, shift)")
            gen_texts = [g for g in _split_top_level(args[0], ";") if g.strip()]
            gens = [parse_element(g, ctx) for g in gen_texts]
            shift = parse_element(args[1], ctx) if len(args) == 2 else None
            return additive_coset(ctx, gens, shift)
    raise ParseError(f"unrecognized grid factor {s!r}")


def parse_grid(text: str, ctx: FieldCtx) -> Grid:
    """Parse factors separated by x, e.g. 'mul(3) x {0,1} x tracezero'; a
    factor text repeated in the grid is parsed once, into one shared FiniteSet."""
    parts = [p.strip() for p in _split_top_level(text, "x", "({", ")}", "brackets in grid")]
    if not any(parts):
        raise EmptyFactorList("empty grid expression")
    factors = {p: parse_factor(p, ctx) for p in dict.fromkeys(parts)}
    return grid_make([factors[p] for p in parts])
