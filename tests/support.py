"""Seeded instance generators shared across the suite.

Every random draw goes through a random.Random seeded by the caller, so a
failing batch replays exactly from its seed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import add

import gridnull as g
from gridnull.field import _TABLE_CAP, _int_literal

Q = g.Rationals()
F2 = g.PrimeField(2)
F3 = g.PrimeField(3)
F5 = g.PrimeField(5)
F7 = g.PrimeField(7)
F11 = g.PrimeField(11)
F13 = g.PrimeField(13)
F4 = g.ExtensionField(2, 2)
F8 = g.ExtensionField(2, 3)
F9 = g.ExtensionField(3, 2)
F27 = g.ExtensionField(3, 3)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_element(rng, ctx):
    if ctx.kind == "rationals":
        return ctx.element(random_rational(rng))
    if ctx.cardinality > _TABLE_CAP:  # by value, without enumerating the field
        return g.FieldElement(ctx, rng.randrange(ctx.cardinality))
    return rng.choice(ctx.elements())


def nonzero_element(rng, ctx):
    while True:
        x = random_element(rng, ctx)
        if not x.is_zero:
            return x


def random_rational_set(rng, size: int) -> g.FiniteSet:
    vals = set()
    while len(vals) < size:
        vals.add(random_rational(rng))
    return g.FiniteSet(Q, sorted(vals))


def random_subset(rng, ctx, size: int) -> g.FiniteSet:
    if ctx.cardinality > _TABLE_CAP:  # by value, without enumerating the field
        values = rng.sample(range(ctx.cardinality), size)
        return g.FiniteSet(ctx, [g.FieldElement(ctx, v) for v in values])
    return g.FiniteSet(ctx, rng.sample(ctx.elements(), size))


def random_set(rng, ctx, size: int) -> g.FiniteSet:
    if ctx.kind == "rationals":
        return random_rational_set(rng, size)
    return random_subset(rng, ctx, size)


def zero_sum_rational_set(rng, size: int) -> g.FiniteSet:
    """A rational set with vanishing element sum (so at least 1-Vandermonde)."""
    while True:
        head = set()
        while len(head) < size - 1:
            head.add(random_rational(rng))
        last = -sum(head)
        if last not in head:
            return g.FiniteSet(Q, sorted(head) + [last])


def random_monomial(rng, n: int, total_bound: int, var_bound=None) -> tuple:
    m = []
    remaining = rng.randint(0, total_bound)
    for _ in range(n):
        cap = remaining if var_bound is None else min(remaining, var_bound)
        k = rng.randint(0, cap)
        m.append(k)
        remaining -= k
    rng.shuffle(m)
    return tuple(m)


def random_multipoly(rng, ctx, n: int, total_bound: int, max_terms: int = 6,
                     var_bound=None) -> g.MultiPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, n, total_bound, var_bound)
        terms.append((m, random_element(rng, ctx)))
    return g.MultiPoly(ctx, n, terms)


def random_varbounded_poly(rng, ctx, n: int, var_bound: int,
                           max_terms: int = 6) -> g.MultiPoly:
    """Each variable's exponent at most var_bound; total degree unrestricted."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, var_bound) for _ in range(n))
        terms.append((m, random_element(rng, ctx)))
    return g.MultiPoly(ctx, n, terms)


def random_structured_factor(rng, ctx, max_size: int = 6) -> g.FiniteSet:
    """A factor that is sometimes a shifted multiplicative subgroup, else a
    plain random subset of size at least 2."""
    q = ctx.cardinality
    if rng.random() < 0.4:
        divisors = [d for d in range(2, max_size + 1) if (q - 1) % d == 0]
        if divisors:
            return g.multiplicative_coset(
                ctx, rng.choice(divisors), nonzero_element(rng, ctx)
            )
    return random_subset(rng, ctx, rng.randint(2, min(max_size, q)))


def random_gcn_instance(rng):
    """A (poly, grid, monomial) triple satisfying the witness hypothesis."""
    ctx = rng.choice([F5, F7, F11, F13])
    n = rng.randint(1, 3)
    grid = g.grid_make([random_structured_factor(rng, ctx) for _ in range(n)])
    k = tuple(rng.randint(0, s - 1) for s in grid.sizes)
    bound = sum(k) + grid.joint_nullity
    terms = [(k, nonzero_element(rng, ctx))]
    for _ in range(rng.randint(0, 4)):
        m = random_monomial(rng, n, bound)
        if m != k:
            terms.append((m, random_element(rng, ctx)))
    return g.MultiPoly(ctx, n, terms), grid, k


def random_cct_instance(rng):
    """A (poly, grid) pair within the weighted-sum degree bound."""
    ctx = rng.choice([F5, F7, F11])
    n = rng.randint(1, 3)
    grid = g.grid_make([random_structured_factor(rng, ctx) for _ in range(n)])
    bound = sum(s - 1 for s in grid.sizes) + grid.joint_nullity
    f = random_multipoly(rng, ctx, n, bound)
    return f, grid


def random_cct_overflow_instance(rng):
    """A (poly, grid) pair whose degree exceeds the bound by exactly one."""
    ctx = rng.choice([F5, F7, F11])
    n = rng.randint(1, 2)
    grid = g.grid_make([random_structured_factor(rng, ctx) for _ in range(n)])
    bound = sum(s - 1 for s in grid.sizes) + grid.joint_nullity
    over = [0] * n
    remaining = bound + 1
    for i in range(n - 1):
        over[i] = rng.randint(0, remaining)
        remaining -= over[i]
    over[-1] = remaining
    rng.shuffle(over)
    terms = [(tuple(over), nonzero_element(rng, ctx))]
    for _ in range(rng.randint(0, 3)):
        terms.append((random_monomial(rng, n, bound), random_element(rng, ctx)))
    return g.MultiPoly(ctx, n, terms), grid


def random_mul_grid(rng, ctx, n=None) -> g.Grid:
    """Factors are shifted multiplicative subgroups of order at least 2."""
    q = ctx.cardinality
    divisors = [d for d in range(2, q) if (q - 1) % d == 0]
    n = n or rng.randint(1, 3)
    return g.grid_make(
        [
            g.multiplicative_coset(ctx, rng.choice(divisors), nonzero_element(rng, ctx))
            for _ in range(n)
        ]
    )


def random_add_grid(rng, ctx, n=None, min_size=3, shifts=True) -> g.Grid:
    """Factors are additive cosets of size at least min_size."""
    nonzero = [x for x in ctx.elements() if not x.is_zero]
    n = n or rng.randint(1, 3)
    factors = []
    while len(factors) < n:
        rank = rng.randint(1, ctx.e)
        gens = rng.sample(nonzero, rank)
        shift = random_element(rng, ctx) if shifts else None
        A = g.additive_coset(ctx, gens, shift)
        if len(A) >= min_size:
            factors.append(A)
    return g.grid_make(factors)


# The tokenizer and parser that parse_poly replaced, kept as its reference: a
# token is (kind, value, position), and an operator's kind is its character.
_TOKEN_RE = re.compile(r"(?P<int>\d+)|x(?P<var>\d+)|(?P<gen>t)|(?P<op>[-+*^()/])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, pos = m.lastgroup, m.start()
        val = m.group(kind)
        if kind == "bad":
            raise g.ParseError(f"unexpected character {val!r}", pos)
        if kind in ("int", "var"):  # a variable is at the position of its x
            val = _int_literal(val, pos)
        tokens.append((val if kind == "op" else kind, val, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _LegacyParser:
    """Recursive descent on lists of raw (exponent tuple, value) pairs, one
    method call per token.  An atom is one pair and a sum joins its terms'
    pairs; parse and each parenthesised group merge them once.  A product or
    power of single pairs is one pair, on values; any other goes through
    MultiPoly's * and ** and their term-pair bound."""

    def __init__(self, text: str, n: int, ctx):
        self.text, self.n, self.ctx = text, n, ctx
        self.tokens, self.i = _tokenize(text), 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def poly(self, pairs) -> g.MultiPoly:
        return g.MultiPoly._of_values(self.ctx, self.n, pairs)

    def parse(self) -> g.MultiPoly:
        pairs = self.expr()
        kind, _, pos = self.take()
        if kind != "end":
            source = _TOKEN_RE.match(self.text, pos).group()
            raise g.ParseError(f"unexpected trailing input {source!r}", pos)
        return self.poly(pairs)

    def expr(self) -> list:
        pairs, vneg = [], self.ctx._vneg
        op = self.take()[0] if self.peek() in ("+", "-") else "+"
        while True:
            term = self.term()
            pairs += term if op == "+" else [(m, vneg(v)) for m, v in term]
            if self.peek() not in ("+", "-"):
                return pairs
            op = self.take()[0]

    def term(self) -> list:
        f = self.factor()
        while self.peek() == "*":
            self.take()
            h = self.factor()
            if len(f) == len(h) == 1:
                (m1, v1), (m2, v2) = f[0], h[0]
                f = [(tuple(map(add, m1, m2)), self.ctx._vmul(v1, v2))]
            else:
                f = (self.poly(f) * self.poly(h))._values()
        return f

    def factor(self) -> list:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, exp, pos = self.take()
            if kind != "int":
                raise g.ParseError("expected a non-negative integer exponent", pos)
            if len(base) == 1:  # (k*m, v^k), where _vpow makes 0^0 one
                ((m, v),) = base
                return [(tuple(e * exp for e in m), self.ctx._vpow(v, exp))]
            base = (self.poly(base) ** exp)._values()
        return base

    def atom(self) -> list:
        kind, val, pos = self.take()
        ctx, n, m = self.ctx, self.n, (0,) * self.n
        if kind == "(":
            pairs = self.expr()
            kind, _, pos = self.take()
            if kind != ")":
                raise g.ParseError("expected ')'", pos)
            return self.poly(pairs)._values()
        if kind == "int":
            if self.peek() == "/":
                if ctx.kind != "rationals":
                    raise g.ParseError("fraction literals need the rationals", pos)
                self.take()
                dkind, den, dpos = self.take()
                if dkind != "int" or den == 0:
                    raise g.ParseError("expected a nonzero denominator", dpos)
                val = Fraction(val, den)
            v = ctx._canon(val)
        elif kind == "var":
            if not 1 <= val <= n:
                raise g.UnknownVariable(f"x{val} is outside 1..{n}", pos)
            m, v = m[: val - 1] + (1,) + m[val:], ctx.one.value
        elif kind == "gen":
            if ctx.kind != "extension":
                raise g.UnknownVariable(
                    "t denotes the extension generator and needs an extension field",
                    pos,
                )
            v = ctx.generator.value
        elif kind == "end":
            raise g.ParseError("unexpected end of input", pos)
        else:
            raise g.ParseError(f"unexpected token {val!r}", pos)
        return [(m, v)]


def legacy_parse(text: str, n: int, ctx) -> g.MultiPoly:
    """text by the token-list parser that parse_poly replaced: the reference
    for its terms, their order and its errors."""
    return _LegacyParser(text, n, ctx).parse()


def reference_parse(text: str, n: int, ctx) -> g.MultiPoly:
    """text by MultiPoly arithmetic alone, on the legacy tokens: every atom
    a MultiPoly, and each +, -, *, ^ and unary - the operator's own, which
    merges its result.  Valid input only: the reference for the parser's
    terms and their order."""
    tokens, i = _tokenize(text), 0

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr():
        sign = take()[0] if tokens[i][0] in ("+", "-") else "+"
        f = term() if sign == "+" else -term()
        while tokens[i][0] in ("+", "-"):
            f = f + term() if take()[0] == "+" else f - term()
        return f

    def term():
        f = factor()
        while tokens[i][0] == "*":
            take()
            f = f * factor()
        return f

    def factor():
        f = atom()
        if tokens[i][0] == "^":
            take()
            f = f ** take()[1]
        return f

    def atom():
        kind, val, _ = take()
        if kind == "(":
            f = expr()
            take()
            return f
        if kind == "var":
            return g.MultiPoly.variable(ctx, n, val)
        if kind == "gen":
            return g.MultiPoly.constant(ctx, n, ctx.generator)
        if tokens[i][0] == "/":
            take()
            val = Fraction(val, take()[1])
        return g.MultiPoly.constant(ctx, n, val)

    return expr()
