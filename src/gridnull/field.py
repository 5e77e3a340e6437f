"""Exact arithmetic over the rationals and the finite fields F_p and F_{p^e}.

A field context owns the arithmetic kernels and the canonical representation
of its elements.  A rational is an int or a Fraction.  A finite-field element
is an int: its index in the field's enumeration order, the base-p number
whose digits c_0, ..., c_{e-1} (c_{e-1} most significant) are the
coefficients of c_0 + c_1 t + ... + c_{e-1} t^(e-1) modulo a monic
irreducible polynomial of degree e; a prime field is the case e = 1.  Up to
_TABLE_CAP elements, extension-field products, inverses and powers are
lookups in exp/log tables built once from the first primitive element, which
_unit_of_order finds; sums are XOR (p = 2) or a Zech-log lookup.  Above the
cap they are polynomial arithmetic on the digits.

Every context computes on raw values, with no element object per step, by
its kernels: the scalar value kernels _vadd, _vmul, _vneg, _vinv and _vpow;
the list kernels _outer (the products x*y for x in xs, y in ys, flattened),
_vsum (elementwise sums) and _dot (the sum of the products x*y over
zip(xs, ys)); and _mul_root, which multiplies a top-first coefficient list
by (X - a).  Each kind supplies its own scalar value kernels: residues mod
p, p = 2 tables (XOR sums, exp[log a + log b] products), odd-p tables (log
and Zech), ints and Fractions over Q, and digit polynomial arithmetic above
the cap.  The list kernels have one generic form in FieldCtx; residues and
tables keep faster forms of their own (see FieldCtx).  An element operator
wraps one scalar value kernel's result; subtraction has no kernel, as an
element's a - b is a + (-b).  Values become elements where they leave the
library (the weights' P' aside, see nullity).  Contexts are interned, one
object per field, so context equality is identity.  All arithmetic is
exact; floating point never appears.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat, zip_longest
from math import gcd
from operator import add, mul, neg, pos, xor
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


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below the smallest strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017).  Twelve bases are not enough below this bound:
# 318665857834031151167461 is a strong pseudoprime to 2, 3, ..., 37.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below _PRIME_BOUND."""
    if n >= _PRIME_BOUND:
        raise GridNullError(f"primality is decided only below {_PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_literal(digits: str, position=None) -> int:
    """int(digits), as a ParseError past Python's int/str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the int/str conversion limit",
            position,
        ) from None


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


def _no_inverse():
    raise DivisionByZero("cannot invert 0")


# ---------------------------------------------------------------------------
# Polynomials over F_p as plain integer lists, constant term first.  These
# find and check moduli, build the tables, and are the kernels above the
# table cap; they are kept independent of the public polynomial module on
# purpose.
# ---------------------------------------------------------------------------


def _px_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _px_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _px_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


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
    return a  # up to a unit factor: Rabin's test reads only its length


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
    (c_{e-1}, ..., c_0); the first irreducible one wins.  The first p are
    the binomials X^e + c_0.  One of them can be irreducible only if every
    prime factor of e divides p - 1, and 4 divides p - 1 when 4 divides e
    (Lidl and Niederreiter, Finite Fields, Thm 3.75); otherwise they are
    skipped.
    """
    binomials = all((p - 1) % ell == 0 for ell in _prime_factors(e)) and (e % 4 or p % 4 == 1)
    for k in range(0 if binomials else p, p**e):
        tail = [(k // p**j) % p for j in range(e)]
        m = tail + [1]
        if _px_is_irreducible(m, p):
            return tuple(m)
    raise GridNullError(f"no irreducible polynomial of degree {e} over F_{p}")


def _digits(v: int, p: int, e: int) -> list[int]:
    """Coefficients c_0, ..., c_{e-1} of the element with index v."""
    out = []
    for _ in range(e):
        v, c = divmod(v, p)
        out.append(c)
    return out


def _index(c: Sequence[int], p: int) -> int:
    """Index of the element with coefficients c_0, c_1, ..."""
    v = 0
    for x in reversed(c):
        v = v * p + x
    return v


def _row_reduce(rows: list, p: int) -> list[int]:
    """The pivot columns, increasing, of rows (residues mod p, one length)
    brought in place to reduced row echelon form, the zero rows dropped:
    row i has a 1 at pivots[i], and every other row a 0 there."""
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        i = len(pivots)
        j = next((j for j in range(i, len(rows)) if rows[j][col]), None)
        if j is None:
            continue
        rows[i], rows[j] = rows[j], rows[i]
        inv = pow(rows[i][col], -1, p)
        rows[i] = top = [x * inv % p for x in rows[i]]
        for j, row in enumerate(rows):
            if j != i and row[col]:
                rows[j] = [(x - row[col] * y) % p for x, y in zip(row, top)]
        pivots.append(col)
    del rows[len(pivots):]  # the rest are zero
    return pivots


def _exp_log(p: int, e: int, m: Sequence[int], g: int) -> tuple[list[int], list[int]]:
    """(exp, log): exp[k] is the index of g^k for 0 <= k < p^e - 1 and log
    inverts it on the units, for g the index of a primitive element: a table
    field's first, found on its digit kernels (t itself need not be one).

    Each step multiplies by g with one shift, reduction by m and
    multiply-add per digit of g: O(e) for g = a t + b.
    """
    n = p**e - 1
    g = _px_trim(_digits(g, p, e))
    g.reverse()  # Horner order: x * g = (...(g_d x) t + g_{d-1} x) t + ...
    exp, log = [0] * n, [0] * (n + 1)
    shifts = [[-h * c % p for c in m[:e]] for h in range(p)]  # h t^e as digits
    weights = [p**j for j in range(e)]
    x = [1] + [0] * (e - 1)
    for k in range(n):
        v = sum(map(mul, x, weights))
        exp[k] = v
        log[v] = k
        y = [g[0] * b % p for b in x]
        for gj in g[1:]:
            y = [(s + r + gj * b) % p for s, r, b in zip((0, *y), shifts[y[-1]], x)]
        x = y
    return exp, log


def _unit_of_order(ctx: FiniteField, d: int) -> int:
    """The value w = v^((q-1)/d) for the first unit v, in enumeration order,
    whose w has order exactly d; d must divide q - 1.  Only the prime
    factors r of d are tested, by w^(d/r) != 1, so d = q - 1 gives the first
    primitive element, and the powers of w are the subgroup of order d.
    """
    vpow, k, rs = ctx._vpow, (ctx.cardinality - 1) // d, _prime_factors(d)
    for v in range(1, ctx.cardinality):
        w = vpow(v, k)
        if all(vpow(w, d // r) != 1 for r in rs):
            return w


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------

# Fields of at most this many elements get lookup tables and one object per
# element, about 160 bytes per element.  The build costs 2-4 us per element
# on a 2-vCPU VM: at most about 8 ms at the cap (F_{2^11}, F_{7^4} is above
# it), against about 100 ms for a whole gridnull process.  At 2^12-2^14 a
# one-shot command on a few points spent more on the build (16-150 ms) than
# the digit kernels would spend on its arithmetic.
_TABLE_CAP = 2**11

# Interned contexts by constructor arguments and by canonical parameters.
# Every field built stays for the life of the process (at most about 0.3 MB
# for a field at the table cap).
_CONTEXTS: dict = {}


def _intern(key, build):
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        # setdefault is atomic: threads that race to build keep the first
        ctx = _CONTEXTS.setdefault(key, build())
    return ctx


class FieldElement:
    """A single field element bound to its owning context."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: "FieldCtx", value):
        self.ctx = ctx
        self.value = value

    def _coerce(self, other):
        """other in this context through FieldCtx.element; None for other types."""
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.ctx.element(other)
        return None

    # Each operator takes the same-context case first: contexts are
    # interned, so one identity test stands for _coerce.

    def __add__(self, other):
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return ctx._wrap(ctx._vadd(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return ctx._wrap(ctx._vadd(self.value, ctx._vneg(other.value)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        return ctx._wrap(ctx._vadd(other.value, ctx._vneg(self.value)))

    def __mul__(self, other):
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return ctx._wrap(ctx._vmul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        ctx = self.ctx
        return ctx._wrap(ctx._vneg(self.value))

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
        # k == 0 yields one even for the zero element
        ctx = self.ctx
        return ctx._wrap(ctx._vpow(self.value, k))

    def inv(self) -> "FieldElement":
        ctx = self.ctx
        return ctx._wrap(ctx._vinv(self.value))

    @property
    def is_zero(self) -> bool:
        return not self.value

    @property
    def in_prime_subfield(self) -> bool:
        """True when the element lies in the prime subfield of its context."""
        return self.ctx.kind == "rationals" or self.value < self.ctx.p

    def __bool__(self):
        return bool(self.value)

    # An element equals the int n only as the image of n in [0, p) (any n over
    # Q), whose value is n itself, so equal objects hash alike.
    def __eq__(self, other):
        if other.__class__ is FieldElement:
            return self.value == other.value and self.ctx is other.ctx
        if isinstance(other, int):
            return self.value == other and self.in_prime_subfield
        if isinstance(other, Fraction):
            return self.ctx.kind == "rationals" and self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        return self.ctx._fmt(self.value)

    __repr__ = __str__


class FieldCtx:
    """Common interface of the three field kinds.

    Contexts are interned: a constructor returns the one context of its
    field, and copies and pickles come back as that same object.  Every
    context has the elements ``zero`` and ``one``, _wrap, which makes the
    element of a value, and kernels on values; a value is an int, or over Q
    an int or a Fraction (see Rationals).  Each kind sets its scalar value
    kernels _vadd(a, b), _vmul(a, b), _vneg(a), _vinv(a) and _vpow(a, k)
    (k >= 0).  The list kernels _outer(xs, ys), _vsum(xs, ys) and
    _dot(xs, ys) are as in the module docstring; _mul_root(cs, a) takes a
    list top coefficient first and gives that of (X - a) times cs.  The list
    kernels here are the generic form on the scalar value kernels.  A kind
    keeps its own form only where the generic one would cost a Python call
    more: residues keep every list kernel, tables _outer, _dot and
    _mul_root, and odd-p tables _vsum too, with the Zech step inline there
    and in _dot.  The element operators call the scalar value kernels.
    """

    kind: str
    characteristic: int
    cardinality: Optional[int]
    zero: FieldElement
    one: FieldElement

    def _outer(self, xs, ys) -> list:
        mul = self._vmul
        return [mul(x, y) for x in xs for y in ys]

    def _vsum(self, xs, ys) -> list:
        return list(map(self._vadd, xs, ys))

    def _dot(self, xs, ys):
        return reduce(self._vadd, map(self._vmul, xs, ys), self.zero.value)

    def _mul_root(self, cs: list, a) -> list:
        # each coefficient is c - a * b, the sum of c and (-a) * b
        mul, add, na = self._vmul, self._vadd, self._vneg(a)
        return [add(c, mul(na, b)) for b, c in zip((0, *cs), (*cs, 0))]

    def element(self, v) -> FieldElement:
        if isinstance(v, FieldElement):
            if v.ctx is not self:
                raise MixedFields(f"cannot combine elements of {v.ctx} and {self}")
            return v
        return self._wrap(self._canon(v))

    def elements(self) -> tuple[FieldElement, ...]:
        """All elements in canonical enumeration order; finite fields only."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return parse_field, (self.spec_string(),)

    def __repr__(self):
        return self.spec_string()


class Rationals(FieldCtx):
    """The field of rational numbers.  _canon, _vinv and _dot give an int for
    an integral value and a reduced Fraction otherwise; the other kernels are
    the int and Fraction operators, which never give a float but may give an
    integral Fraction n/1, equal to n in value, hash and str."""

    kind = "rationals"
    characteristic = 0
    cardinality = None

    def __new__(cls):
        return _intern(("rationals",), lambda: object.__new__(cls)._setup())

    def _setup(self):
        self._hash = hash("Q")
        self._wrap = partial(FieldElement, self)
        self.zero, self.one = self.element(0), self.element(1)
        return self

    def _canon(self, v):
        if isinstance(v, int):
            return int(v)
        if isinstance(v, Fraction):
            return v if v.denominator != 1 else v.numerator
        raise TypeError(f"cannot build a rational from {v!r}")

    _vadd, _vmul, _vneg, _vpow = add, mul, neg, pow

    def _vinv(self, a):
        return self._canon(Fraction(1, a)) if a else _no_inverse()  # 1 / a on an int is a float

    def _dot(self, xs, ys):
        # one Fraction at the end: the partial sums are n/d over the lcm d
        # of the denominators so far
        n, d = 0, 1
        for x, y in zip(xs, ys):
            e = x.denominator * y.denominator
            g = gcd(d, e)
            n, d = n * (e // g) + x.numerator * y.numerator * (d // g), d // g * e
        return n if d == 1 else self._canon(Fraction(n, d))

    def elements(self):
        raise InfiniteField("the rationals cannot be enumerated")

    def _fmt(self, v: Fraction) -> str:
        try:
            return str(v)
        except ValueError:
            raise GridNullError(
                "cannot print a rational with more digits than the int/str conversion limit"
            ) from None

    def spec_string(self) -> str:
        return "Q"


class FiniteField(FieldCtx):
    """F_{p^e}, built by PrimeField (e = 1) and ExtensionField (e >= 2).

    Values are element indices (see the module docstring).  The kernels are
    chosen once, from e and the cardinality q: residues mod p when e = 1,
    else digit arithmetic, which exp/log/Zech tables replace wholesale when
    q <= _TABLE_CAP (their primitive element is found on the digits).  Up to
    the cap each element object exists once and _wrap returns it from a
    table.
    """

    def _setup(self, p: int, e: int, modulus, spec: str):
        q = p**e
        self.p, self.e, self.modulus = p, e, modulus
        self.characteristic, self.cardinality = p, q
        self._spec = spec
        self._hash = hash((p, e, modulus))
        if q <= _TABLE_CAP:
            self._elems = tuple(map(partial(FieldElement, self), range(q)))
            # a list's __getitem__ is a builtin method, called in half the time of a tuple's
            self._wrap = list(self._elems).__getitem__
        else:
            self._elems = None
            self._wrap = partial(FieldElement, self)
        self.zero, self.one = self._wrap(0), self._wrap(1)
        if e == 1:
            self._residue_kernels()
            self._fmt = str  # what the digit path prints for e = 1
        else:
            self._digit_kernels()
            if q <= _TABLE_CAP:
                self._table_kernels()
        return self

    def _residue_kernels(self):
        p = self.p
        self._vadd = lambda a, b: (a + b) % p
        self._vmul = lambda a, b: a * b % p
        self._vneg = lambda a: -a % p
        self._vinv = lambda a: pow(a, p - 2, p) if a else _no_inverse()
        self._vpow = lambda a, k: pow(a, k, p)
        self._outer = lambda xs, ys: [x * y % p for x in xs for y in ys]
        self._vsum = lambda xs, ys: [(x + y) % p for x, y in zip(xs, ys)]
        self._dot = lambda xs, ys: sum(map(mul, xs, ys)) % p
        self._mul_root = lambda cs, a: [(c - a * b) % p for b, c in zip((0, *cs), (*cs, 0))]

    def _table_kernels(self):
        p, q = self.p, self.cardinality
        n = q - 1
        exp, log = _exp_log(p, self.e, self.modulus, _unit_of_order(self, n))
        # log 0 is 2n, so any sum of logs with it lands in the zero half of
        # exp_v; it is doubled, so a sum of two unit logs needs no mod n
        n2 = log[0] = 2 * n
        exp_v = exp * 2 + [0] * (n2 + 1)

        logs = partial(map, log.__getitem__)

        def vpow(a, k):
            return exp_v[log[a] * k % n] if a else (0 if k else 1)

        def outer(xs, ys):
            ls = list(logs(ys))
            return [exp_v[lx + ly] for lx in logs(xs) for ly in ls]

        def products(xs, ys):
            """The logs of the products x*y over zip(xs, ys)."""
            return map(add, logs(xs), logs(ys))

        self._vmul = lambda a, b: exp_v[log[a] + log[b]]
        self._vinv = lambda a: exp_v[n - log[a]] if a else _no_inverse()
        self._vpow, self._outer = vpow, outer
        if p == 2:

            def mul_root(cs, a):
                la = log[a]
                return [c ^ exp_v[la + log[b]] for b, c in zip((0, *cs), (*cs, 0))]

            self._vadd, self._vneg = xor, pos  # -a is a
            self._dot = lambda xs, ys: reduce(xor, map(exp_v.__getitem__, products(xs, ys)), 0)
            self._mul_root = mul_root
            return
        # zech[k] = log(1 + g^k): adding 1 increments the lowest digit.  It is
        # doubled, so zech[k - i] is log(1 + g^(k-i)) for any -n < k - i < 2n
        zech = [log[v + 1 - p if v % p == p - 1 else v + 1] for v in exp] * 2
        # -1 = g^(n/2)
        negv = [0] * q
        for k, v in enumerate(exp):
            negv[v] = exp[(k + n // 2) % n]

        def plus(c, k):
            """The value c + g^k, where g^k is 0 for k >= 2n (a sum of logs with log 0)."""
            if k >= n2:
                return c
            if not c:
                return exp_v[k]
            i = log[c]
            return exp_v[i + zech[k - i]]

        def mul_root(cs, a):
            la = log[negv[a]]  # log of -a, so la + log[b] is the log of -ab
            return [plus(c, la + log[b]) for b, c in zip((0, *cs), (*cs, 0))]

        def vadd(a, b):
            if not (a and b):
                return a or b
            i = log[a]
            return exp_v[i + zech[log[b] - i]]

        def dot(xs, ys):  # plus inline
            c = 0
            for k in products(xs, ys):
                if k < n2:
                    c = exp_v[(i := log[c]) + zech[k - i]] if c else exp_v[k]
            return c

        self._vadd, self._vneg = vadd, negv.__getitem__
        self._vsum = lambda xs, ys: [  # vadd inline
            exp_v[(i := log[a]) + zech[log[b] - i]] if a and b else a or b for a, b in zip(xs, ys)
        ]
        self._dot, self._mul_root = dot, mul_root

    def _digit_kernels(self):
        p, e, m = self.p, self.e, list(self.modulus)
        digits = partial(_digits, p=p, e=e)

        def vadd(a, b):
            return _index([(x + y) % p for x, y in zip(digits(a), digits(b))], p)

        def vmul(a, b):
            return _index(_px_mod(_px_mul(digits(a), digits(b), p), m, p), p)

        def vneg(a):
            return _index([-x % p for x in digits(a)], p)

        def vinv(a):
            return _index(_px_invmod(digits(a), m, p), p) if a else _no_inverse()

        def vpow(a, k):
            return _index(_px_powmod(digits(a), k, m, p), p)

        self._vadd, self._vmul, self._vneg = vadd, vmul, vneg
        self._vinv, self._vpow = vinv, vpow

    def _canon(self, v):
        if isinstance(v, int):
            return v % self.p
        if self.e > 1 and isinstance(v, (tuple, list)):
            try:
                c = [int(x) % self.p for x in v]
            except ValueError:
                raise TypeError(f"cannot build an extension element from {v!r}") from None
            return _index(_px_mod(c, list(self.modulus), self.p), self.p)
        what = "a residue" if self.e == 1 else "an extension element"
        raise TypeError(f"cannot build {what} from {v!r}")

    def elements(self):
        if self._elems is None:
            self._elems = tuple(FieldElement(self, v) for v in range(self.cardinality))
        return self._elems

    def _fmt(self, v: int) -> str:
        parts = []
        for j, c in reversed(list(enumerate(_digits(v, self.p, self.e)))):
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


class PrimeField(FiniteField):
    """Integers modulo a prime, as residues in [0, p)."""

    kind = "prime"

    def __new__(cls, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        return _intern(
            ("prime", p), lambda: object.__new__(cls)._setup(p, 1, None, f"F{p}")
        )


class ExtensionField(FiniteField):
    """F_p[t] modulo a monic irreducible polynomial of degree e >= 2.

    Enumeration orders elements by the base-p integer of their coefficients
    with c_{e-1} most significant, so the prime subfield comes first.
    """

    kind = "extension"

    def __new__(cls, p: int, e: int, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if not isinstance(e, int) or e < 2:
            raise UnsupportedDegree("extension degree must be an integer >= 2")
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
        return _intern(("extension", p, e, modulus), lambda: cls._build(p, e, modulus))

    @classmethod
    def _build(cls, p: int, e: int, modulus):
        default = _default_modulus(p, e) if e <= 4 else None
        if modulus is None:
            if default is None:
                raise UnsupportedDegree(
                    "degrees above 4 require an explicit modulus"
                )
            modulus = default
        else:
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise GridNullError(
                    f"modulus must be monic of degree {e} (got {list(modulus)})"
                )
            if not _px_is_irreducible(list(modulus), p):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} factors over F_{p}"
                )
        spec = f"F{p}^{e}"
        if modulus != default:
            spec += "/" + ",".join(str(c) for c in modulus)
        return _intern(
            ("extension", p, e, modulus),
            lambda: object.__new__(cls)._setup(p, e, modulus, spec),
        )

    @property
    def generator(self) -> FieldElement:
        """The residue class of t."""
        return self._wrap(self.p)


def trace(x: FieldElement) -> FieldElement:
    """Trace down to the prime subfield: x + x^p + ... + x^(p^(e-1))."""
    ctx = x.ctx
    if ctx.kind != "extension":
        raise NotExtensionField("trace requires an extension field")
    frobenius = accumulate(repeat(ctx.p, ctx.e - 1), ctx._vpow, initial=x.value)  # x, x^p, ...
    return ctx._wrap(reduce(ctx._vadd, frobenius))


_FIELD_RE = re.compile(r"^(Q|F(\d+)(?:\^(\d+))?(?:/([0-9,]+))?)$")


def parse_field(text: str) -> FieldCtx:
    """Parse a field spec: Q | F<p> | F<p>^<e> | F<p>^<e>/<c0>,...,1."""
    s = text.strip()
    m = _FIELD_RE.match(s)
    if m is None:
        raise ParseError(f"unrecognized field spec {text!r}")
    if m.group(1) == "Q":
        return Rationals()
    p = _int_literal(m.group(2))
    if m.group(3) is None:
        if m.group(4) is not None:
            raise ParseError("a modulus requires an explicit extension degree")
        return PrimeField(p)
    e = _int_literal(m.group(3))
    modulus = None
    if m.group(4) is not None:
        modulus = tuple(map(_int_literal, m.group(4).split(",")))
    return ExtensionField(p, e, modulus)
