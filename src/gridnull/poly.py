"""Dense univariate and sparse multivariate polynomials with exact coefficients.

Univariate polynomials store a trimmed coefficient tuple, constant term
first.  Multivariate polynomials store a sparse map from exponent tuples to
nonzero coefficients.  The degree of the zero polynomial is the dedicated
sentinel MINUS_INFINITY, which compares below every integer and absorbs
addition, so degree arithmetic needs no special cases.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, zip_longest
from operator import add, index
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    EmptySet,
    ExponentOutOfRange,
    GridNullError,
    MixedFields,
    ParseError,
    PreconditionViolated,
    SizeBoundExceeded,
    UnknownVariable,
)
from .field import FieldCtx, FieldElement, _int_literal


class _MinusInfinity:
    """Order-absorbing degree sentinel for the zero polynomial."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-inf"


MINUS_INFINITY = _MinusInfinity()

Monomial = tuple[int, ...]

# The most term pairs one polynomial product may multiply: about 0.5 s at
# 1-2 us a pair on a 2-vCPU VM.  Powers meet it at each step of their ladder.
_MAX_TERM_PAIRS = 250_000

# The most elements of a structured set (mul(d), all, units, tracezero), checked
# before it is built; its char poly is O(n^2), so no larger one would finish.
_MAX_SET_SIZE = 2**20


def _exponent(k, noun="exponent") -> int:
    """k as an int; a value that is no integer (2.0, 1.9) is refused, named by noun."""
    try:
        return index(k)
    except TypeError:
        raise ExponentOutOfRange(f"{noun} {k!r} is not an integer") from None


def _root_values(ctx: FieldCtx, roots) -> list:
    """prod (X - a) over raw root values, top coefficient first, one root
    factor at a time by the context's list kernel."""
    return reduce(ctx._mul_root, roots, [ctx.one.value])


class UniPoly:
    """Univariate polynomial over a field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable = ()):
        cs = [ctx.element(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, ctx: FieldCtx, roots: Sequence[FieldElement]) -> "UniPoly":
        """prod (X - a) over the roots by _root_values; the monic result is
        wrapped without coercing its values again."""
        values = _root_values(ctx, [ctx.element(a).value for a in roots])
        poly = object.__new__(cls)
        poly.ctx, poly.coeffs = ctx, tuple(map(ctx._wrap, reversed(values)))
        return poly

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def coefficient(self, k: int) -> FieldElement:
        k = _exponent(k)
        if k < 0:
            raise ExponentOutOfRange("negative exponent")
        return self.coeffs[k] if k < len(self.coeffs) else self.ctx.zero

    def __call__(self, x) -> FieldElement:
        x = self.ctx.element(x)
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        cs = [self.ctx.element(k) * c for k, c in enumerate(self.coeffs) if k >= 1]
        return UniPoly(self.ctx, cs)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise MixedFields("polynomials over different fields")
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.ctx.zero)
        return UniPoly(self.ctx, [a - b for a, b in pairs])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __str__(self):
        return _format_terms(
            [((k,), c) for k, c in enumerate(self.coeffs) if not c.is_zero],
            lambda m: _power_string("X", m[0]),
        )

    __repr__ = __str__


def char_poly(A) -> UniPoly:
    """Monic polynomial with simple roots exactly at the given elements."""
    elements = list(A)
    if not elements:
        raise EmptySet("cannot build the characteristic polynomial of nothing")
    ctx = elements[0].ctx
    if len(set(elements)) != len(elements):
        raise PreconditionViolated("elements must be distinct")
    return UniPoly.from_roots(ctx, elements)


def _merge(ctx: FieldCtx, pairs) -> dict:
    """The one term merger: (monomial, raw value) pairs to a terms map.  A
    repeated monomial is added by ctx._vadd where it was first seen, a sum
    that reaches zero is deleted at once, so a cancelled term that comes back
    goes last, and each survivor is wrapped once, over Q an integral one as its int."""
    vadd, acc = ctx._vadd, {}
    for m, v in pairs:
        if m in acc:
            v = vadd(acc[m], v)
            if not v:
                del acc[m]
                continue
        elif not v:
            continue
        acc[m] = v
    wrap = ctx._wrap  # every finite-field value, and many over Q, pass as ints on the type test
    return {
        m: wrap(v if v.__class__ is int or v.denominator != 1 else v.numerator)
        for m, v in acc.items()
    }


class MultiPoly:
    """Sparse polynomial in n variables; keys are exponent tuples.  The
    constructor is the validating boundary: given a mapping or (monomial,
    coefficient) pairs, it checks each exponent tuple, coerces each
    coefficient by ctx.element and hands the raw values to _merge.
    Arithmetic, the parser, raise_degree and theorems.interpolate hold
    valid terms already and build through _of_values, on _merge alone."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx: FieldCtx, n: int, terms: Mapping | Iterable = ()):
        if n < 0:
            raise DimensionMismatch("variable count must be non-negative")
        pairs = []
        for m, c in terms.items() if isinstance(terms, Mapping) else terms:
            m = tuple(map(_exponent, m))
            if len(m) != n:
                raise DimensionMismatch(f"exponent tuple {m} has length {len(m)}, expected {n}")
            if any(k < 0 for k in m):
                raise ExponentOutOfRange("negative exponent")
            pairs.append((m, ctx.element(c).value))
        self.ctx, self.n, self.terms = ctx, n, _merge(ctx, pairs)

    @classmethod
    def _of_values(cls, ctx: FieldCtx, n: int, pairs) -> "MultiPoly":
        """The polynomial of trusted (exponent tuple, raw value) pairs."""
        f = object.__new__(cls)
        f.ctx, f.n, f.terms = ctx, n, _merge(ctx, pairs)
        return f

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "MultiPoly":
        return cls(ctx, n, {})

    @classmethod
    def constant(cls, ctx: FieldCtx, n: int, c) -> "MultiPoly":
        return cls(ctx, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, ctx: FieldCtx, n: int, exponents: Sequence[int], c=1) -> "MultiPoly":
        return cls(ctx, n, {tuple(exponents): c})

    @classmethod
    def variable(cls, ctx: FieldCtx, n: int, index: int) -> "MultiPoly":
        """The variable x<index>, 1-based."""
        if not 1 <= index <= n:
            raise UnknownVariable(f"x{index} is outside 1..{n}")
        return cls.monomial(ctx, n, (0,) * (index - 1) + (1,) + (0,) * (n - index))

    @property
    def total_degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(m) for m in self.terms)

    def coefficient(self, m: Sequence[int]) -> FieldElement:
        m = tuple(m)
        if len(m) != self.n:
            raise DimensionMismatch(f"monomial {m} has wrong arity")
        return self.terms.get(m, self.ctx.zero)

    def evaluate(self, point: Sequence) -> FieldElement:
        """f at the point: each monomial's value by the context's _vmul and
        _vpow, and their sum against the coefficients by _dot, on raw values."""
        ctx = self.ctx
        pt = [ctx.element(x).value for x in point]
        if len(pt) != self.n:
            raise DimensionMismatch(
                f"point has {len(pt)} coordinates, expected {self.n}"
            )
        vmul, vpow = ctx._vmul, ctx._vpow
        monomials = []
        for m in self.terms:
            v = None
            for x, k in zip(pt, m):
                if k:
                    v = vpow(x, k) if v is None else vmul(v, vpow(x, k))
            monomials.append(ctx.one.value if v is None else v)
        return ctx._wrap(ctx._dot([c.value for c in self.terms.values()], monomials))

    def _compat(self, other):
        if other.ctx is not self.ctx:
            raise MixedFields("polynomials over different fields")
        if other.n != self.n:
            raise DimensionMismatch("polynomials in different variable counts")

    def _values(self) -> list:
        return [(m, c.value) for m, c in self.terms.items()]

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.constant(self.ctx, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._compat(other)
        return MultiPoly._of_values(self.ctx, self.n, self._values() + other._values())

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, FieldElement, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        vmul = self.ctx._vmul
        if isinstance(other, (int, FieldElement)):
            v = self.ctx.element(other).value
            pairs = [(m, vmul(c.value, v)) for m, c in self.terms.items()]
        elif isinstance(other, MultiPoly):
            self._compat(other)
            a, b = len(self.terms), len(other.terms)
            if a * b > _MAX_TERM_PAIRS:
                msg = f"a product of polynomials with {a} and {b} terms makes {a * b} term pairs"
                raise SizeBoundExceeded(f"{msg}, above the bound of {_MAX_TERM_PAIRS}")
            ys = other._values()
            pairs = [
                (tuple(map(add, m1, m2)), vmul(c1.value, c2))
                for m1, c1 in self.terms.items()
                for m2, c2 in ys
            ]
        else:
            return NotImplemented
        return MultiPoly._of_values(self.ctx, self.n, pairs)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """By squaring and multiplying, each product within _MAX_TERM_PAIRS;
        a single term (m, c) gives (k*m, c^k) at once."""
        if not isinstance(k, int) or k < 0:
            raise ExponentOutOfRange("polynomial exponents must be integers >= 0")
        ctx, n = self.ctx, self.n
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return MultiPoly._of_values(ctx, n, [(tuple(e * k for e in m), ctx._vpow(c.value, k))])
        result = MultiPoly._of_values(ctx, n, [((0,) * n, ctx.one.value)])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.n == other.n and self.terms == other.terms

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


def raise_degree(f: MultiPoly, grid, k: Sequence[int]) -> MultiPoly:
    """Multiply f by prod_i x_i^(s_i - k_i - 1) where s_i are the grid's factor
    sizes.  This moves the monomial k of f onto the top monomial
    (s_1 - 1, ..., s_n - 1) of the product.
    """
    k = tuple(map(_exponent, k))
    if len(k) != f.n or grid.n != f.n:
        raise DimensionMismatch("sizes, exponents, and variables disagree")
    for ki, si in zip(k, grid.sizes):
        if not 0 <= ki <= si - 1:
            raise ExponentOutOfRange(f"exponent {ki} outside 0..{si - 1}")
    shifts = tuple(si - ki - 1 for ki, si in zip(k, grid.sizes))
    shifted = [(tuple(map(add, m, shifts)), c) for m, c in f._values()]
    return MultiPoly._of_values(f.ctx, f.n, shifted)


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

# One findall: x<i>^<k> and t^<k> are power tokens when digits follow the ^ at
# once, any other ^ is an operator, and an error finds its position in a rescan.
_LEXEME = r"x\d+(?:\^\d+)?|t(?:\^\d+)?|\d+|[-+*^()/]"
_LEXEME_RE, _TOKEN_RE = re.compile(_LEXEME), re.compile(_LEXEME + r"|\S")
_NOT_ATOMS = frozenset(["", ")", "*", "^", "/", "+", "-"])  # "" ends the text


def _check_lexemes(text: str) -> None:
    """Raise the first character outside the grammar, or integer past the
    int/str digit limit, in text order (a variable's index at its x)."""
    for mt in _TOKEN_RE.finditer(text):
        tok, pos = mt.group(), mt.start()
        if not _LEXEME_RE.fullmatch(tok):
            raise ParseError(f"unexpected character {tok!r}", pos)
        for run in re.finditer(r"\d+", tok):
            _int_literal(run.group(), pos if run.start() == 1 else pos + run.start())


def _check_power_digits(w, k: int) -> None:
    """Refuse w^k over Q when it has more digits than the int/str conversion
    limit (a limit of 0 sets none).  For b the bit length of w's numerator or
    denominator, whichever is longer, |w^k| >= 2^(k (b - 1)), and 1233/4096 <
    log10(2): the estimate never exceeds the digits of w^k.  parse_poly names
    a stray character in the text before this error."""
    limit = sys.get_int_max_str_digits()
    digits = (k * (max(abs(w.numerator), w.denominator).bit_length() - 1) * 1233 >> 12) + 1
    if limit and digits > limit:
        raise SizeBoundExceeded(
            f"a literal power of at least {digits} digits exceeds the int/str conversion"
            f" limit of {limit}"
        )


class _Parser:
    """Recursive descent on lists of raw (exponent tuple, value) pairs.  A sum
    joins its terms' pairs, merged once by MultiPoly._of_values at the top and
    in each group (a zero pair merges to nothing).  A product of single pairs
    keeps one exponent list and one raw value; a factor of several terms, and
    each factor after one, goes left to right through MultiPoly's * and **."""

    def __init__(self, text: str, n: int, ctx: FieldCtx):
        self.text, self.n, self.ctx, self.i = text, n, ctx, 0
        self.tokens = _TOKEN_RE.findall(text) + [""]
        self.poly = partial(MultiPoly._of_values, ctx, n)

    def at(self, i: int) -> int:
        """Where token i starts, or the end of the text for the end token."""
        mt = next(islice(_TOKEN_RE.finditer(self.text), i, None), None)
        return len(self.text) if mt is None else mt.start()

    def expr(self) -> list:
        tokens, n, ctx, poly = self.tokens, self.n, self.ctx, self.poly
        vmul, vpow, vneg, one = ctx._vmul, ctx._vpow, ctx._vneg, ctx.one.value
        pairs, i, sign = [], self.i, tokens[self.i]
        while True:
            if sign == "+" or sign == "-":
                i += 1
            exps, v, f, first = [0] * n, None, None, True  # v is None for one
            while True:
                tok, k, w, g = tokens[i], None, None, None
                c, i = tok[:1], i + 1
                if c == "x":
                    j, _, k = tok[1:].partition("^")
                    j, k = int(j), int(k) if k else None
                    if not 0 < j <= n:
                        raise UnknownVariable(f"x{j} is outside 1..{n}", self.at(i - 1))
                elif c == "t":
                    if ctx.kind != "extension":
                        message = "t denotes the extension generator and needs an extension field"
                        raise UnknownVariable(message, self.at(i - 1))
                    k, w = int(tok[2:]) if tok[2:] else None, ctx.generator.value
                elif c == "(":
                    self.i = i
                    g, i = self.expr(), self.i
                    if tokens[i] != ")":
                        raise ParseError("expected ')'", self.at(i))
                    g, i = poly(g)._values(), i + 1
                elif tok in _NOT_ATOMS:
                    message = f"unexpected token {tok!r}" if tok else "unexpected end of input"
                    raise ParseError(message, self.at(i - 1))
                else:  # int fails on a character outside the grammar, named by _check_lexemes
                    w = int(tok)
                    if tokens[i] == "/":
                        if ctx.kind != "rationals":
                            raise ParseError("fraction literals need the rationals", self.at(i - 1))
                        den = tokens[i + 1]
                        if not den.isdecimal() or not int(den):
                            raise ParseError("expected a nonzero denominator", self.at(i + 1))
                        w, i = Fraction(w, int(den)), i + 2
                    w = ctx._canon(w)
                if k is None and tokens[i] == "^":  # a power token takes no second ^
                    if not tokens[i + 1].isdecimal():
                        raise ParseError("expected a non-negative integer exponent", self.at(i + 1))
                    k, i = int(tokens[i + 1]), i + 2
                if g is not None:
                    if k is not None and len(g) != 1:
                        g, k = (poly(g) ** k)._values(), None
                    if len(g) == 1:  # one pair (m, w) to the power k is (k*m, w^k)
                        ((m, w),), g = g, None
                        exps = list(map(add, exps, m if k is None else [e * k for e in m]))
                elif c == "x":
                    exps[j - 1] += 1 if k is None else k
                if w is not None:
                    if k is not None and ctx.kind == "rationals":  # a power costs its size
                        _check_power_digits(w, k)
                    w = w if k is None else vpow(w, k)  # _vpow makes 0^0 one
                    v = w if v is None else vmul(v, w)
                if g is not None or f is not None:  # through MultiPoly's *, left to right
                    pair = [(tuple(exps), one if v is None else v)]
                    left, right = pair if f is None else f, pair if g is None else g
                    f = g if first else (poly(left) * poly(right))._values()
                    if len(f) == 1:
                        ((m, v),) = f
                        exps, f = list(m), None
                    else:  # exps and v hold the next factor alone
                        exps, v = [0] * n, None
                if tokens[i] != "*":
                    break
                i, first = i + 1, False
            f = [(tuple(exps), one if v is None else v)] if f is None else f
            pairs += f if sign != "-" else [(m, vneg(w)) for m, w in f]
            sign = tokens[i]
            if sign != "+" and sign != "-":
                self.i = i
                return pairs


def parse_poly(text: str, n: int, ctx: FieldCtx) -> MultiPoly:
    """Parse a polynomial in variables x1..xn over the given field.

    Terms are joined by + and -; a term is a product of integer literals
    (fractions over the rationals, t over an extension field), variables with
    optional integer exponents, and parenthesized subexpressions, which are
    expanded during parsing.  A stray character or over-long integer is
    reported first."""
    parser = _Parser(text, n, ctx)
    try:
        pairs, tok = parser.expr(), parser.tokens[parser.i]
        if tok:  # quoted as written, up to a power token's ^
            source = tok.partition("^")[0] or tok
            raise ParseError(f"unexpected trailing input {source!r}", parser.at(parser.i))
    except RecursionError:  # expr recurses once per group
        _check_lexemes(text)
        raise ParseError("parentheses nested too deeply") from None
    except (GridNullError, ValueError):
        _check_lexemes(text)
        raise
    return parser.poly(pairs)


def parse_element(text: str, ctx: FieldCtx) -> FieldElement:
    """Parse a single field element using the polynomial grammar."""
    return parse_poly(text, 0, ctx).coefficient(())


def _power_string(name: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return name
    return f"{name}^{k}"


def _format_terms(pairs, monomial_str) -> str:
    """Shared term joiner; pairs are (sort-key monomial, coefficient)."""
    if not pairs:
        return "0"
    ordered = sorted(pairs, key=lambda mc: (sum(mc[0]), mc[0]), reverse=True)
    pieces = []
    for m, c in ordered:
        var_part = monomial_str(m)
        s = str(c)
        negative = s.startswith("-")
        if negative:
            s = s[1:]
        if var_part:
            if s == "1":
                body = var_part
            else:
                if any(ch in s for ch in "+-*"):
                    s = f"({s})"
                body = f"{s}*{var_part}"
        else:
            body = s
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def format_poly(f: MultiPoly) -> str:
    """Render terms in graded-lexicographic order, highest first."""

    def mono(m: Monomial) -> str:
        parts = [
            _power_string(f"x{i + 1}", k) for i, k in enumerate(m) if k > 0
        ]
        return "*".join(parts)

    return _format_terms(list(f.terms.items()), mono)
