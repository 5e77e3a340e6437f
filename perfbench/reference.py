"""Naive arithmetic that checks the library's answers without using it.

Nothing here imports gridnull.  Finite-field elements are plain ints: a
residue for F_p, and for F_{p^e} the index of the element in gridnull's
documented enumeration order (base-p digits, constant coefficient least
significant).  Rationals are Fractions.  Products in F_{p^e} come from a
multiplication table built from the field's modulus; the default modulus is
found here by brute force, as the smallest monic irreducible polynomial.

Values are compared with the library through display strings, which the
library documents and its tests pin, so a change to its internal element
representation does not disturb these checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod


def _poly_mulmod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    e = len(modulus) - 1
    for k in range(len(out) - 1, e - 1, -1):
        c = out[k]
        if c:
            for j in range(e + 1):
                out[k - e + j] = (out[k - e + j] - c * modulus[j]) % p
    return out[:e]


def _has_factor_of_degree(m, d, p):
    """True when a monic polynomial of degree d divides m over F_p."""
    e = len(m) - 1
    for tail in itertools.product(range(p), repeat=d):
        f = list(tail) + [1]
        r = list(m)
        for k in range(e, d - 1, -1):
            c = r[k]
            if c:
                for j in range(d + 1):
                    r[k - d + j] = (r[k - d + j] - c * f[j]) % p
        if not any(r[:d]):
            return True
    return False


def smallest_irreducible(p: int, e: int) -> tuple:
    """Monic irreducible of degree e, first in (c_{e-1}, ..., c_0) order."""
    for k in range(p**e):
        m = [(k // p**j) % p for j in range(e)] + [1]
        if not any(_has_factor_of_degree(m, d, p) for d in range(1, e // 2 + 1)):
            return tuple(m)
    raise ValueError(f"no irreducible of degree {e} over F_{p}")


class FiniteRef:
    """F_p or F_{p^e}; elements are ints in [0, q) in enumeration order."""

    finite = True

    def __init__(self, p: int, e: int = 1, modulus=None):
        self.p, self.e, self.q = p, e, p**e
        if e > 1 and modulus is None:
            modulus = smallest_irreducible(p, e)
        self.modulus = tuple(modulus) if modulus else None
        self.zero, self.one = 0, 1
        self.elements = tuple(range(self.q))
        q = self.q
        digits = [self.digits(k) for k in range(q)]
        self._add = [
            [self.index([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self.index([(-x) % p for x in digits[a]]) for a in range(q)]
        if e == 1:
            self._mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            self._mul = [
                [self.index(_poly_mulmod(digits[a], digits[b], self.modulus, p)) for b in range(q)]
                for a in range(q)
            ]
        self._inv = {a: b for a in range(1, q) for b in range(1, q) if self._mul[a][b] == 1}
        self._pow = {}

    def digits(self, k: int) -> list:
        return [(k // self.p**j) % self.p for j in range(self.e)]

    def index(self, digits) -> int:
        return sum(c * self.p**j for j, c in enumerate(digits))

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]

    def pow(self, a, k: int):
        key = (a, k)
        out = self._pow.get(key)
        if out is None:
            out = 1
            for _ in range(k):
                out = self._mul[out][a]
            self._pow[key] = out
        return out

    def show(self, a) -> str:
        """The library's display string for the element."""
        if self.e == 1:
            return str(a)
        parts = []
        for j, c in reversed(list(enumerate(self.digits(a)))):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{j}" if c == 1 else f"{c}*t^{j}")
        return "+".join(parts) if parts else "0"

    def trace(self, a):
        acc, frob = a, a
        for _ in range(self.e - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        return acc


class RationalRef:
    """Q with exact Fractions."""

    finite = False
    p = 0
    zero, one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def pow(self, a, k):
        return a**k

    def show(self, a) -> str:
        return str(a)


def ref_field(spec: str):
    """Field from a spec string: Q, F<p>, F<p>^<e> or F<p>^<e>/<c0>,...,1."""
    if spec == "Q":
        return RationalRef()
    body, _, mod = spec[1:].partition("/")
    p, _, e = body.partition("^")
    modulus = tuple(int(c) for c in mod.split(",")) if mod else None
    return FiniteRef(int(p), int(e) if e else 1, modulus)


# ---------------------------------------------------------------------------
# Sets, moments and grids
# ---------------------------------------------------------------------------


def dedupe(values) -> list:
    seen, out = set(), []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def factor_elements(F, factor) -> list:
    """Elements of one grid factor, in the library's documented order.

    factor is ("set", values) | ("all",) | ("units",) | ("tracezero",) |
    ("mul", d, shift) | ("add", generators, shift); a shift may be None.
    """
    kind = factor[0]
    if kind == "set":
        return dedupe(factor[1])
    if kind == "all":
        return list(F.elements)
    if kind == "units":
        return [x for x in F.elements if x != F.zero]
    if kind == "tracezero":
        return [x for x in F.elements if F.trace(x) == F.zero]
    if kind == "mul":
        _, d, shift = factor
        s = F.one if shift is None else shift
        return [F.mul(s, x) for x in F.elements if x != F.zero and F.pow(x, d) == F.one]
    if kind == "add":
        _, gens, shift = factor
        out = []
        for coeffs in itertools.product(range(F.p), repeat=len(gens)):
            acc = F.zero if shift is None else shift
            for c, g in zip(coeffs, gens):
                acc = F.add(acc, F.mul(F.from_int(c), g))
            out.append(acc)
        return dedupe(out)
    raise ValueError(f"unknown factor {factor!r}")


def char_poly(F, elements) -> list:
    """Coefficients of prod (X - a), constant term first."""
    coeffs = [F.one]
    for a in elements:
        nxt = [F.zero] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] = F.add(nxt[j + 1], c)
            nxt[j] = F.sub(nxt[j], F.mul(a, c))
        coeffs = nxt
    return coeffs


def set_nullity(F, elements) -> int:
    """Number of leading elementary symmetric functions that vanish."""
    cp = char_poly(F, elements)
    n = len(elements)
    for r in range(1, n + 1):
        if cp[n - r] != F.zero:
            return r - 1
    return n


def weights(F, elements) -> dict:
    """1 / prod_{b != a} (a - b) for each a of the set."""
    return {
        a: F.inv(prod_f(F, (F.sub(a, b) for b in elements if b != a)))
        for a in elements
    }


def prod_f(F, values):
    acc = F.one
    for v in values:
        acc = F.mul(acc, v)
    return acc


class RefGrid:
    """Factor element lists with their sizes, nullities and weights."""

    def __init__(self, F, factors):
        self.F = F
        self.factors = [factor_elements(F, f) for f in factors]
        self.sizes = tuple(len(A) for A in self.factors)
        self.n = len(self.factors)
        self.size = prod(self.sizes)
        self.joint_nullity = min(set_nullity(F, A) for A in self.factors)
        self._weights = None

    @property
    def weights(self):
        if self._weights is None:
            self._weights = [weights(self.F, A) for A in self.factors]
        return self._weights

    def points(self):
        return itertools.product(*self.factors)

    def weight(self, point):
        return prod_f(self.F, (w[x] for w, x in zip(self.weights, point)))


def evaluate(F, terms: dict, point) -> object:
    """Sum of c * prod x_i^k_i over the terms {exponents: coefficient}."""
    acc = F.zero
    for m, c in terms.items():
        v = c
        for x, k in zip(point, m):
            if k:
                v = F.mul(v, F.pow(x, k))
        acc = F.add(acc, v)
    return acc


def total_degree(terms: dict):
    return max((sum(m) for m in terms), default=None)
