"""Exact arithmetic over the rationals, prime fields, and small extension fields.

A field context owns the arithmetic kernels and the canonical representation
of its elements: reduced fractions for the rationals, residues in [0, p) for
a prime field, and coefficient vectors modulo a monic irreducible polynomial
for an extension field.  Contexts compare structurally, so independently
built contexts with the same parameters interoperate.  All arithmetic is
exact; floating point never appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DivisionByZero,
    GridNullError,
    InfiniteField,
    MixedFields,
    NonPrimeModulus,
    NotExtensionField,
    ParseError,
    ReducibleModulus,
    UnsupportedDegree,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p as plain integer lists, constant term first.  These
# back the extension-field kernels and the modulus checks; they are kept
# independent of the public polynomial module on purpose.
# ---------------------------------------------------------------------------


def _px_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _px_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _px_trim(out)


def _px_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _px_trim(out)


def _px_divmod(a: Sequence[int], b: Sequence[int], p: int):
    b = _px_trim(list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = _px_trim(list(a))
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        q[shift] = factor
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - factor * bj) % p
        _px_trim(a)
    return _px_trim(q), a


def _px_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    return _px_divmod(a, m, p)[1]


def _px_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _px_trim(list(a))
    b = _px_trim(list(b))
    while b:
        a, b = b, _px_mod(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _px_powmod(base: Sequence[int], exp: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _px_mod(base, m, p)
    while exp:
        if exp & 1:
            result = _px_mod(_px_mul(result, base, p), m, p)
        exp >>= 1
        if exp:
            base = _px_mod(_px_mul(base, base, p), m, p)
    return result


def _px_invmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Inverse of a modulo m via the extended Euclidean algorithm."""
    r0, r1 = _px_trim(list(m)), _px_mod(a, m, p)
    s0, s1 = [], [1]
    while r1:
        q, r = _px_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _px_sub(s0, _px_mul(q, s1, p), p)
    if len(r0) != 1:
        raise DivisionByZero("element is not invertible")
    inv_c = pow(r0[0], p - 2, p)
    return _px_mod([(c * inv_c) % p for c in s0], m, p)


def _px_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic m of degree e >= 2: m divides X^(p^e) - X
    and shares no factor with X^(p^(e/l)) - X for any prime l dividing e."""
    e = len(m) - 1
    x = [0, 1]
    for ell in _prime_factors(e):
        h = _px_powmod(x, p ** (e // ell), m, p)
        if len(_px_gcd(_px_sub(h, x, p), m, p)) != 1:
            return False
    return _px_powmod(x, p**e, m, p) == x


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Candidates X^e + c_{e-1} X^(e-1) + ... + c_0 are ordered by the tuple
    (c_{e-1}, ..., c_0); the first irreducible one wins.
    """
    for k in range(p**e):
        tail = [(k // p**j) % p for j in range(e)]
        m = tail + [1]
        if _px_is_irreducible(m, p):
            return tuple(m)
    raise GridNullError(f"no irreducible polynomial of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of a field; feed it to field_make."""

    kind: str  # "rationals" | "prime" | "extension"
    p: Optional[int] = None
    e: Optional[int] = None
    modulus: Optional[tuple[int, ...]] = None


class FieldElement:
    """A single field element bound to its owning context."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: "FieldCtx", value):
        self.ctx = ctx
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise MixedFields(
                    f"cannot combine elements of {self.ctx} and {other.ctx}"
                )
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction) and self.ctx.kind == "rationals":
            return self.ctx.element(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._sub(other.value, self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        # square and multiply; k == 0 yields one even for the zero element
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv(self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == self.ctx.zero.value

    @property
    def in_prime_subfield(self) -> bool:
        """True when the element lies in the prime subfield of its context."""
        if self.ctx.kind == "extension":
            return all(c == 0 for c in self.value[1:])
        return True

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.value == other.value
        if isinstance(other, (int, Fraction)):
            coerced = self._coerce(other)
            return coerced is not None and self.value == coerced.value
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.value))

    def __str__(self):
        return self.ctx._fmt(self.value)

    __repr__ = __str__


class FieldCtx:
    """Common interface of the three field kinds."""

    kind: str
    characteristic: int
    cardinality: Optional[int]

    def element(self, v) -> FieldElement:
        return FieldElement(self, self._canon(v))

    def from_int(self, n: int) -> FieldElement:
        raise NotImplementedError

    @property
    def zero(self) -> FieldElement:
        z = getattr(self, "_zero", None)
        if z is None:
            z = self.from_int(0)
            setattr(self, "_zero", z)
        return z

    @property
    def one(self) -> FieldElement:
        o = getattr(self, "_one", None)
        if o is None:
            o = self.from_int(1)
            setattr(self, "_one", o)
        return o

    def elements(self) -> tuple[FieldElement, ...]:
        """All elements in canonical enumeration order; finite fields only."""
        raise NotImplementedError

    def sort_key(self, x: FieldElement):
        """Key for the canonical ascending order used in displays."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.spec_string()


class Rationals(FieldCtx):
    """The field of rational numbers with exact Fraction values."""

    kind = "rationals"
    characteristic = 0
    cardinality = None

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.ctx != self:
                raise MixedFields("element belongs to a different field")
            return v.value
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot build a rational from {v!r}")

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, Fraction(n))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("cannot invert 0")
        return 1 / a

    def elements(self):
        raise InfiniteField("the rationals cannot be enumerated")

    def sort_key(self, x: FieldElement):
        return x.value

    def _fmt(self, v: Fraction) -> str:
        return str(v)

    def spec_string(self) -> str:
        return "Q"

    def _key(self):
        return ("rationals",)


class PrimeField(FieldCtx):
    """Integers modulo a prime, as residues in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.cardinality = p

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.ctx != self:
                raise MixedFields("element belongs to a different field")
            return v.value
        if isinstance(v, int):
            return v % self.p
        raise TypeError(f"cannot build a residue from {v!r}")

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, n % self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("cannot invert 0")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = tuple(FieldElement(self, i) for i in range(self.p))
            self._elements = cached
        return cached

    def sort_key(self, x: FieldElement):
        return x.value

    def _fmt(self, v: int) -> str:
        return str(v)

    def spec_string(self) -> str:
        return f"F{self.p}"

    def _key(self):
        return ("prime", self.p)


class ExtensionField(FieldCtx):
    """F_p[t] modulo a monic irreducible polynomial of degree e >= 2.

    Values are coefficient tuples (c_0, ..., c_{e-1}) for c_0 + c_1 t + ...;
    enumeration orders elements by the base-p integer with c_{e-1} most
    significant, so the prime subfield comes first.
    """

    kind = "extension"

    def __init__(self, p: int, e: int, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if not isinstance(e, int) or e < 2:
            raise UnsupportedDegree("extension degree must be an integer >= 2")
        default = _default_modulus(p, e) if e <= 4 else None
        if modulus is None:
            if default is None:
                raise UnsupportedDegree(
                    "degrees above 4 require an explicit modulus"
                )
            modulus = default
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise GridNullError(
                    f"modulus must be monic of degree {e} (got {list(modulus)})"
                )
            if not _px_is_irreducible(list(modulus), p):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} factors over F_{p}"
                )
        self.p = p
        self.e = e
        self.modulus = tuple(modulus)
        self.characteristic = p
        self.cardinality = p**e
        self._spec = f"F{p}^{e}"
        if self.modulus != default:
            self._spec += "/" + ",".join(str(c) for c in self.modulus)

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.ctx != self:
                raise MixedFields("element belongs to a different field")
            return v.value
        if isinstance(v, int):
            return self.from_int(v).value
        if isinstance(v, (tuple, list)):
            reduced = _px_mod([int(c) % self.p for c in v], list(self.modulus), self.p)
            return tuple(reduced + [0] * (self.e - len(reduced)))
        raise TypeError(f"cannot build an extension element from {v!r}")

    def from_int(self, n: int) -> FieldElement:
        vec = [n % self.p] + [0] * (self.e - 1)
        return FieldElement(self, tuple(vec))

    @property
    def generator(self) -> FieldElement:
        """The residue class of t."""
        vec = [0] * self.e
        vec[1] = 1
        return FieldElement(self, tuple(vec))

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        prod = _px_mod(_px_mul(list(a), list(b), self.p), list(self.modulus), self.p)
        return tuple(prod + [0] * (self.e - len(prod)))

    def _inv(self, a):
        if all(c == 0 for c in a):
            raise DivisionByZero("cannot invert 0")
        inv = _px_invmod(list(a), list(self.modulus), self.p)
        return tuple(inv + [0] * (self.e - len(inv)))

    def elements(self):
        cached = getattr(self, "_elements", None)
        if cached is None:
            out = []
            for k in range(self.cardinality):
                vec = tuple((k // self.p**j) % self.p for j in range(self.e))
                out.append(FieldElement(self, vec))
            cached = tuple(out)
            self._elements = cached
        return cached

    def sort_key(self, x: FieldElement):
        return tuple(reversed(x.value))

    def _fmt(self, v) -> str:
        parts = []
        for j in range(self.e - 1, -1, -1):
            c = v[j]
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{j}" if c == 1 else f"{c}*t^{j}")
        return "+".join(parts) if parts else "0"

    def spec_string(self) -> str:
        return self._spec

    def _key(self):
        return ("extension", self.p, self.e, self.modulus)


def field_make(spec: FieldSpec) -> FieldCtx:
    """Build a field context from a declarative spec."""
    if spec.kind == "rationals":
        return Rationals()
    if spec.kind == "prime":
        return PrimeField(spec.p)
    if spec.kind == "extension":
        return ExtensionField(spec.p, spec.e, spec.modulus)
    raise GridNullError(f"unknown field kind {spec.kind!r}")


def enumerate_elements(ctx: FieldCtx) -> tuple[FieldElement, ...]:
    """All elements of a finite context in canonical order."""
    return ctx.elements()


def trace(x: FieldElement, ctx: Optional[FieldCtx] = None) -> FieldElement:
    """Trace down to the prime subfield: x + x^p + ... + x^(p^(e-1))."""
    if ctx is not None and ctx != x.ctx:
        raise MixedFields("trace context disagrees with the element")
    ctx = x.ctx
    if ctx.kind != "extension":
        raise NotExtensionField("trace requires an extension field")
    p = ctx.characteristic
    acc = x
    frob = x
    for _ in range(ctx.e - 1):
        frob = frob**p
        acc = acc + frob
    return acc


_FIELD_RE = re.compile(r"^(Q|F(\d+)(?:\^(\d+))?(?:/([0-9,]+))?)$")


def parse_field(text: str) -> FieldCtx:
    """Parse a field spec: Q | F<p> | F<p>^<e> | F<p>^<e>/<c0>,...,1."""
    s = text.strip()
    m = _FIELD_RE.match(s)
    if m is None:
        raise ParseError(f"unrecognized field spec {text!r}")
    if m.group(1) == "Q":
        return Rationals()
    p = int(m.group(2))
    if m.group(3) is None:
        if m.group(4) is not None:
            raise ParseError("a modulus requires an explicit extension degree")
        return PrimeField(p)
    e = int(m.group(3))
    modulus = None
    if m.group(4) is not None:
        modulus = tuple(int(c) for c in m.group(4).split(","))
    return ExtensionField(p, e, modulus)
