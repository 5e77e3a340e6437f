"""Moment analysis of finite subsets of a field.

A finite set A carries three families of moments: elementary (signed
coefficients of the monic polynomial vanishing on A), complete (computed by
an entwining recurrence from the elementary ones), and power sums.  The
nullity of A is the number of leading elementary moments that vanish, and
the Vandermonde degree counts leading vanishing power sums.  Both are capped
at |A|, and the cap is attained only by {0}.

Weights 1/P'(a) against the derivative of the vanishing polynomial drive the
coefficient-extraction and interpolation machinery; the classical rational
sum over A of a^d/P'(a) collapses to 0, 1, or a complete moment.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    EmptySet,
    MixedFields,
    ParseError,
    PointNotOnGrid,
    PreconditionViolated,
)
from .field import FieldCtx, FieldElement
from .poly import UniPoly, _exponent, parse_element


def _leading_zeros(table) -> int:
    """How many raw values from table[1] on are zero before the first nonzero one."""
    r = 1
    while r < len(table) and not table[r]:
        r += 1
    return r - 1


def _column_exponent(k, noun: str) -> int:
    """k as a set column's exponent or moment order, an int >= 0, a float
    refused as the noun; read no memo before it (2.0 == 2)."""
    k = _exponent(k, noun)
    if k < 0:
        raise PreconditionViolated(f"a set column or moment order needs an int >= 0, got {k}")
    return k


class MomentTable(NamedTuple):
    """Moments of one set, indexed 0..R: e[r], h[r], p[r]."""

    e: tuple
    h: tuple
    p: tuple

    @property
    def order(self) -> int:
        return len(self.e) - 1


class FiniteSet:
    """Immutable nonempty set of distinct field elements, insertion-ordered.

    The elementary table is read once from the characteristic polynomial;
    the complete and power-sum tables grow monotonically to the largest order
    ever requested, and already-computed entries are never recomputed.  Cache
    fills replace whole tuples, so readers see either the old table or the
    extended one.  For the grid engines, the power column (a^k for a in A),
    the weighted column (a^k/P'(a) for a in A) and the sums of both are kept
    per exponent k for the set's lifetime, each built on first use.  Every
    table, weight (keyed by the value of a) and cache holds raw values, built
    by the context's value kernels; only the public reads make elements.
    """

    __slots__ = ("ctx", "elements", "_set", "_char", "_e", "_h", "_p", "_weights", "_cols", "_sums")

    def __init__(self, ctx: FieldCtx, elements):
        elems = tuple(dict.fromkeys(map(ctx.element, elements)))
        if not elems:
            raise EmptySet("a finite set of field elements must be non-empty")
        self.ctx = ctx
        self.elements = elems
        self._set = frozenset(elems)
        self._char = None
        self._e = None
        self._h = (ctx.one.value,)
        self._p = (ctx.element(len(elems)).value,)
        self._weights = None
        self._cols, self._sums = {(0, False): (ctx.one.value,) * len(elems)}, {}

    @property
    def char_poly(self) -> UniPoly:
        if self._char is None:
            self._char = UniPoly.from_roots(self.ctx, self.elements)
        return self._char

    def _elementary(self) -> tuple:
        """(e_0, ..., e_|A|) as values; e_r is (-1)^r times the degree-(|A|-r) coefficient."""
        if self._e is None:
            vneg, top_first = self.ctx._vneg, reversed(self.char_poly.coeffs)
            self._e = tuple(vneg(c.value) if r % 2 else c.value for r, c in enumerate(top_first))
        return self._e

    def _ensure_h(self, R: int) -> tuple:
        """(h_0, ..., h_R) as values, growing the cached table by
        h_r = -(c_1 h_(r-1) + ... + c_n h_(r-n)), where X^n + c_1 X^(n-1) +
        ... + c_n is the char poly, so that h_r = sum (-1)^(i+1) e_i h_(r-i)."""
        R = _column_exponent(R, "order")
        if len(self._h) <= R:
            c = [self.ctx._vneg(x.value) for x in reversed(self.char_poly.coeffs[:-1])]
            h, dot = list(self._h), self.ctx._dot
            for r in range(len(h), R + 1):
                m = min(r, len(c))
                h.append(dot(c[:m], h[r - m : r][::-1]))
            self._h = tuple(h)
        return self._h[: R + 1]

    def _ensure_p(self, R: int) -> tuple:
        """(p_0, ..., p_R) as values, growing the cached table.  Over F_q of
        characteristic c, a^r for r >= 1 depends only on r mod (q - 1), and
        (sum a^t)^(c^i) = sum a^(t c^i); so p_r = p_t^(c^i) for any t < r with
        t c^i = r mod (q - 1).  Any other p_r, r = 32j + s, is the dot product
        of the columns a^(32j) and a^s: only the 32 columns a^s and one column
        a^(32j) per block of 32 are built."""
        R = _column_exponent(R, "order")
        if len(self._p) <= R:
            ctx, p, q = self.ctx, list(self._p), self.ctx.cardinality
            steps = [] if q is None else [ctx.characteristic**i for i in range(ctx.e)]
            a, low = self._column(1), [self._column(s) for s in range(min(R + 1, 32))]
            high = (None, None)
            for r in range(len(p), R + 1):
                for ci in steps:
                    t = (r * (q // ci) - 1) % (q - 1) + 1  # q // ci inverts ci mod q - 1
                    if t < r:
                        p.append(ctx._vpow(p[t], ci))
                        break
                else:
                    j, s = divmod(r, 32)
                    if high[0] != j:
                        high = (j, [ctx._vpow(x, 32 * j) for x in a])
                    p.append(ctx._dot(high[1], low[s]))
            self._p = tuple(p)
        return self._p[: R + 1]

    def _elementary_to(self, R: int) -> tuple:
        R = _column_exponent(R, "order")
        e = self._elementary()[: R + 1]
        return e + (self.ctx.zero.value,) * (R + 1 - len(e))

    def moments(self, R: int) -> MomentTable:
        tables = self._elementary_to(R), self._ensure_h(R), self._ensure_p(R)
        return MomentTable(*(tuple(map(self.ctx._wrap, t)) for t in tables))

    @property
    def nullity(self) -> int:
        return _leading_zeros(self._elementary())

    @property
    def vandermonde_degree(self) -> int:
        return _leading_zeros(self._ensure_p(len(self.elements)))

    def _weight_table(self) -> dict:
        """{a: 1/P'(a)} on values, in element order, P' by Horner on values
        after UniPoly.derivative; distinct roots keep P'(a) nonzero."""
        if self._weights is None:
            vadd, vmul, vinv = self.ctx._vadd, self.ctx._vmul, self.ctx._vinv
            deriv = [c.value for c in reversed(self.char_poly.derivative().coeffs)]
            self._weights = {}
            for x in (a.value for a in self.elements):
                acc = 0
                for c in deriv:
                    acc = vadd(vmul(acc, x), c)
                self._weights[x] = vinv(acc)
        return self._weights

    def weight_at(self, a) -> FieldElement:
        """1/P'(a) for a in the set."""
        a = self.ctx.element(a)
        try:
            return self.ctx._wrap(self._weight_table()[a.value])
        except KeyError:
            raise PointNotOnGrid(f"{a} is not in the set") from None

    def _column(self, k: int, weighted: bool = False) -> tuple:
        """column(k, weighted) as values, built once by the value kernels; the
        build refuses an exponent that is no int >= 0."""
        key = (k, weighted)
        if key not in self._cols:
            _column_exponent(k, "column exponent")
            if weighted:
                col = map(self.ctx._vmul, self._weight_table().values(), self._column(k))
            else:
                vpow = self.ctx._vpow
                col = (vpow(a.value, k) for a in self.elements)
            self._cols[key] = tuple(col)
        return self._cols[key]

    def column(self, k: int, weighted: bool = False) -> tuple:
        """(a^k for a in A), or (a^k/P'(a) for a in A) when weighted."""
        k = _column_exponent(k, "column exponent")
        return tuple(map(self.ctx._wrap, self._column(k, weighted)))

    def _sum(self, k: int, weighted: bool):
        """The sum of column(k, weighted) as a value, kept per (k, weighted); a
        weighted (Sylvester) sum is 0 for k < |A| - 1 and 1 for k = |A| - 1 at once."""
        key = (k, weighted)
        if key not in self._sums:
            top = len(self.elements) - 1
            if weighted and k <= top:
                self._sums[key] = self.ctx.one.value if k == top else self.ctx.zero.value
            else:
                self._sums[key] = self.ctx._dot(self._cols[0, False], self._column(k, weighted))
        return self._sums[key]

    def column_sum(self, k: int, weighted: bool = False) -> FieldElement:
        """The sum of column(k, weighted); the weighted one is sylvester_sum(k)."""
        return self.ctx._wrap(self._sum(_column_exponent(k, "column exponent"), weighted))

    def sylvester_sum(self, d: int) -> FieldElement:
        """Sum of a^d/P'(a) over A, by _sum."""
        return self.ctx._wrap(self._sum(_column_exponent(d, "degree"), True))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v) -> bool:
        try:
            x = self.ctx.element(v)
        except (MixedFields, TypeError):
            return False
        return x in self._set

    def __eq__(self, other):
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self.ctx is other.ctx and self._set == other._set

    def __hash__(self):
        return hash((self.ctx, self._set))

    def __repr__(self):
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


def elementary_moments(A: FiniteSet, R: int) -> list:
    """[e_0, ..., e_R]; e_r is the signed degree-(|A|-r) coefficient."""
    return list(map(A.ctx._wrap, A._elementary_to(R)))


def complete_moments(A: FiniteSet, R: int) -> list:
    """[h_0, ..., h_R] via h_r = sum_{i=1}^{r} (-1)^(i+1) e_i h_{r-i}."""
    return list(map(A.ctx._wrap, A._ensure_h(R)))


def power_sums(A: FiniteSet, R: int) -> list:
    """[p_0, ..., p_R] with p_r the sum of r-th powers; p_0 = |A|; no char poly."""
    return list(map(A.ctx._wrap, A._ensure_p(R)))


def weight(grid, a) -> FieldElement:
    """Product over coordinates of 1/P'_i(a_i) for a point of the grid."""
    factors = grid.factors
    point = tuple(a)
    if len(point) != len(factors):
        raise PointNotOnGrid(
            f"point has {len(point)} coordinates, grid has {len(factors)}"
        )
    w = factors[0].ctx.one
    for A, x in zip(factors, point):
        w = w * A.weight_at(x)
    return w


def _split_top_level(
    text: str, sep: str, opens: str = "(", closes: str = ")", noun: str = "parentheses"
) -> list[str]:
    """Split text at each sep outside the brackets opens/closes; noun names them in errors."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in opens:
            depth += 1
        elif ch in closes:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced {noun}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced {noun}")
    parts.append("".join(cur))
    return parts


def parse_set(text: str, ctx: FieldCtx) -> FiniteSet:
    """Parse a brace-wrapped, comma-separated set of field elements."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError("set literal must look like {a, b, ...}")
    inner = s[1:-1].strip()
    if not inner:
        raise EmptySet("empty set literal")
    return FiniteSet(ctx, [parse_element(p, ctx) for p in _split_top_level(inner, ",")])
