"""Finite-field kernels against the polynomial-arithmetic reference, the
value kernels (scalar, list and root-factor) against element operators, and
context interning."""

import copy
import pickle
import re
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import gridnull as g
from gridnull.field import _PRIME_BOUND, _TABLE_CAP, _is_prime, _prime_factors, _unit_of_order
from gridnull.oracle import char_poly_bruteforce, field_element_bruteforce, field_op_bruteforce
from gridnull.poly import _root_values
from support import F4, F7, F8, F9, F13, F27, Q

# Table fields: F9's default modulus X^2 + 1 has t of order 4, so its tables
# come from another primitive element.  Above the cap: polynomial
# arithmetic on the digits.
_TABLE_FIELDS = [
    F7,
    F4,
    F8,
    F9,
    F27,
    g.parse_field("F2^8/1,0,1,1,1,0,0,0,1"),
    g.parse_field("F2^5/1,0,1,0,0,1"),
]
_ABOVE_CAP = [
    g.parse_field("F2^17/1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1"),
    g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1"),
    g.parse_field("F3^9/1,0,1,2,0,0,0,0,0,1"),
    g.PrimeField(65537),
]
_FIELDS = _TABLE_FIELDS + _ABOVE_CAP


def test_field_sizes_sit_on_both_sides_of_the_cap():
    assert all(ctx.cardinality <= _TABLE_CAP for ctx in _TABLE_FIELDS)
    assert all(ctx.cardinality > _TABLE_CAP for ctx in _ABOVE_CAP)
    assert F9.generator ** 4 == F9.one


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=len(_FIELDS) - 1), st.data())
def test_kernels_match_polynomial_reference(fidx, data):
    ctx = _FIELDS[fidx]
    q = ctx.cardinality
    element = st.integers(min_value=0, max_value=q - 1).map(
        lambda v: g.FieldElement(ctx, v)
    )
    x, y = data.draw(element), data.draw(element)
    assert x + y == field_op_bruteforce("add", x, y)
    assert x - y == field_op_bruteforce("sub", x, y)
    assert x * y == field_op_bruteforce("mul", x, y)
    assert -x == field_op_bruteforce("neg", x)
    k = data.draw(st.integers(min_value=-2 * q, max_value=2 * q) | st.integers(0, 10**30))
    if x.is_zero:
        with pytest.raises(g.DivisionByZero):
            x.inv()
        if k < 0:
            with pytest.raises(g.DivisionByZero):
                x**k
        else:
            assert x**k == (ctx.one if k == 0 else ctx.zero)
    else:
        assert x.inv() == field_op_bruteforce("inv", x)
        assert x**k == field_op_bruteforce("pow", x, k)
        assert y / x == field_op_bruteforce("mul", y, field_op_bruteforce("inv", x))
    if ctx.kind == "extension":
        coeffs = data.draw(
            st.lists(st.integers(min_value=-50, max_value=50), max_size=2 * ctx.e + 2)
        )
        assert ctx.element(coeffs) == field_element_bruteforce(ctx, coeffs)


# One field or more per kernel kind: Fractions, residues, p = 2 tables, odd-p
# tables, and digits above the cap, whose list kernels are FieldCtx's generic ones
_ROOT_FIELDS = [
    Q,
    F7,
    F13,
    g.PrimeField(65537),
    g.parse_field("F2^4"),
    g.parse_field("F2^8/1,0,1,1,1,0,0,0,1"),
    F9,
    g.parse_field("F5^2"),
    F27,
    g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1"),
    g.parse_field("F3^9/1,0,1,2,0,0,0,0,0,1"),
]


def _root(ctx):
    """A root as an element, or as an int to be coerced; 0 comes up often."""
    if ctx.kind == "rationals":
        value = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    else:
        value = st.integers(min_value=0, max_value=ctx.cardinality - 1)
    return st.just(0) | st.integers(-9, 9) | value.map(lambda v: g.FieldElement(ctx, v))


def _top_first(poly):
    return [c.value for c in reversed(poly.coeffs)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ROOT_FIELDS), st.data())
def test_root_factor_kernels_match_element_operators(ctx, data):
    pool = data.draw(st.lists(_root(ctx), min_size=1, max_size=4))
    # drawn from a small pool, so roots repeat
    roots = data.draw(st.lists(st.sampled_from(pool), max_size=9))
    values = [ctx.element(a).value for a in roots]
    coeffs = [ctx.one.value]
    for k, a in enumerate(values):
        coeffs = ctx._mul_root(coeffs, a)
        assert coeffs == _top_first(char_poly_bruteforce(ctx, roots[: k + 1]))
    assert g.UniPoly.from_roots(ctx, roots) == char_poly_bruteforce(ctx, roots)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ROOT_FIELDS), st.data())
def test_value_kernels_match_element_operators(ctx, data):
    # a small pool with zero in it, so entries repeat; lists may be empty
    drawn = data.draw(st.lists(_root(ctx), min_size=1, max_size=4))
    pool = [ctx.zero] + [ctx.element(a) for a in drawn]
    xs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    ys = data.draw(st.lists(st.sampled_from(pool), min_size=len(xs), max_size=len(xs)))
    zs = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    xv, yv, zv = ([x.value for x in v] for v in (xs, ys, zs))
    assert ctx._outer(xv, zv) == [(x * z).value for x in xs for z in zs]
    assert ctx._outer(zv, xv) == [(z * x).value for z in zs for x in xs]
    assert ctx._vsum(xv, yv) == [(x + y).value for x, y in zip(xs, ys)]
    assert ctx._dot(xv, yv) == sum((x * y for x, y in zip(xs, ys)), ctx.zero).value
    assert ctx._dot(xv, yv) == ctx._dot(yv, xv)
    k = data.draw(st.integers(min_value=0, max_value=3 * (ctx.cardinality or 4)))
    for x, y in zip(xs, ys):
        assert ctx._vadd(x.value, y.value) == (x + y).value
        assert ctx._vmul(x.value, y.value) == (x * y).value
        assert ctx._vneg(x.value) == (-x).value
        assert ctx._vpow(x.value, k) == (x**k).value
        assert ctx._vpow(x.value, 0) == ctx.one.value
        if x.is_zero:
            with pytest.raises(g.DivisionByZero):
                ctx._vinv(x.value)
        else:
            assert ctx._vinv(x.value) == x.inv().value


# Every input form a rational takes: ints, bools, Fractions, integral ones too
_RATIONALS = (
    st.sampled_from([0, 1, -1, True, False, Fraction(0), Fraction(1), Fraction(-6, 3)])
    | st.integers(-50, 50)
    | st.integers(-50, 50).map(Fraction)
    | st.fractions(min_value=-20, max_value=20, max_denominator=6)
)


def _exact(v, ref: Fraction, canonical=False):
    """v is ref as an int or a Fraction, never a float or a bool; canonical
    values are ints exactly when integral."""
    assert type(v) in (int, Fraction)
    assert v == ref and hash(v) == hash(ref) and str(v) == str(ref)
    if canonical:
        assert type(v) is (int if ref.denominator == 1 else Fraction)


@settings(max_examples=400, deadline=None)
@given(st.lists(_RATIONALS, min_size=1, max_size=5), st.integers(0, 6), st.data())
def test_q_kernels_return_ints_or_fractions(raw, k, data):
    refs = [Fraction(v) for v in raw]
    values = [Q._canon(v) for v in raw]
    for v, r in zip(values, refs):
        _exact(v, r, canonical=True)
        _exact(Q.element(v).value, r, canonical=True)
        assert str(Q.element(v)) == str(r)
    # arithmetic may also hand a kernel an integral Fraction
    xs = [data.draw(st.sampled_from([v, Fraction(v)])) for v in values]
    a, b, ra, rb = xs[0], xs[-1], refs[0], refs[-1]
    x, y = Q.element(a), Q.element(b)
    _exact((x + y).value, ra + rb)
    _exact((x - y).value, ra - rb)
    _exact((x * y).value, ra * rb)
    _exact((-x).value, -ra)
    _exact((x**k).value, ra**k)
    if ra:
        _exact(x.inv().value, 1 / ra, canonical=True)
    _exact(Q._vadd(a, b), ra + rb)
    _exact(Q._vmul(a, b), ra * rb)
    _exact(Q._vpow(a, k), ra**k)
    for v, r in zip(Q._outer(xs, xs), [x * y for x in refs for y in refs]):
        _exact(v, r)
    for v, r in zip(Q._vsum(xs, xs[::-1]), map(sum, zip(refs, refs[::-1]))):
        _exact(v, r)
    _exact(Q._dot(xs, xs[::-1]), sum(map(mul, refs, refs[::-1])), canonical=True)
    coeffs = Q._mul_root(xs, a)
    ref_coeffs = [c - ra * d for d, c in zip((0, *refs), (*refs, 0))]
    for v, r in zip(coeffs, ref_coeffs, strict=True):
        _exact(v, r)


def test_list_kernels_of_empty_lists():
    for ctx in _ROOT_FIELDS:
        assert ctx._outer([], [ctx.one.value]) == ctx._outer([ctx.one.value], []) == []
        assert ctx._vsum([], []) == []
        assert ctx._dot([], []) == ctx.zero.value
        assert type(ctx._dot([], [])) is type(ctx.zero.value)


_PRODUCT_FIELDS = [
    F7,
    F13,
    F4,
    F9,
    g.parse_field("F2^4"),
    F27,
    g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1"),  # digit kernels
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PRODUCT_FIELDS), st.data())
def test_root_product_matches_element_operators(ctx, data):
    """poly._root_values, the one product of root factors on raw values,
    against the element-operator reference, repeated roots included."""
    value = st.integers(min_value=0, max_value=ctx.cardinality - 1)
    pool = data.draw(st.lists(value, min_size=1, max_size=6))
    values = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    roots = [g.FieldElement(ctx, v) for v in values]
    assert _root_values(ctx, values) == _top_first(char_poly_bruteforce(ctx, roots))


def test_root_factor_kernels_of_the_empty_product():
    for ctx in _ROOT_FIELDS:
        assert g.UniPoly.from_roots(ctx, []).coeffs == char_poly_bruteforce(ctx, []).coeffs
        assert g.UniPoly.from_roots(ctx, []).coeffs == (ctx.one,)


_KERNELS = (
    "_vadd", "_vmul", "_vneg", "_vinv", "_vpow", "_outer", "_vsum", "_dot", "_mul_root", "_wrap",
)


@pytest.mark.parametrize("ctx", [*_ROOT_FIELDS, F4], ids=str)
def test_every_named_kernel_is_callable_on_every_kind(ctx):
    """FieldCtx supplies only the generic list kernels, so each kind must set
    the scalar value kernels; without this a missing one fails only when an
    engine needs it.  The element operators call the value kernels, and no
    element kernel stands beside them."""
    assert set(re.findall(r"\b_[a-z_]+", g.FieldCtx.__doc__)) == set(_KERNELS)
    elem = ctx.generator if ctx.kind == "extension" else ctx.element(2)  # neither 0 nor 1
    x = elem.value
    for y in (elem + elem, elem * elem, -elem, elem.inv(), elem**3):
        assert y.ctx is ctx
    assert ctx._wrap(ctx._vadd(x, x)) == elem + elem
    assert ctx._wrap(ctx._vmul(x, x)) == elem * elem
    assert ctx._wrap(ctx._vneg(x)) == -elem
    assert ctx._wrap(ctx._vinv(x)) == elem.inv()
    assert ctx._wrap(ctx._vpow(x, 3)) == elem**3
    assert ctx._outer([x], [x]) == ctx._vsum([0], [ctx._vmul(x, x)])
    assert ctx._wrap(ctx._dot([x], [x])) == elem * elem
    assert ctx._mul_root([ctx.one.value], x) == [ctx.one.value, ctx._vneg(x)]
    assert [k for k in ("_add", "_mul", "_neg", "_inv", "_pow") if hasattr(ctx, k)] == []


def _primitive_reference(ctx):
    """The first unit, in enumeration order, whose powers are all the units,
    by element operators."""
    n = ctx.cardinality - 1
    rs = _prime_factors(n)
    units = (g.FieldElement(ctx, v) for v in range(1, ctx.cardinality))
    return next(x for x in units if all(x ** (n // r) != ctx.one for r in rs))


@pytest.mark.parametrize("ctx", [*_FIELDS, F13, g.parse_field("F43^2")], ids=str)
def test_unit_of_order_of_the_unit_group_order_is_its_first_generator(ctx):
    assert ctx._wrap(_unit_of_order(ctx, ctx.cardinality - 1)) == _primitive_reference(ctx)


@pytest.mark.parametrize(
    "ctx", [F7, F13, F4, F9, F27, _TABLE_FIELDS[5], _ABOVE_CAP[1], _ABOVE_CAP[3]], ids=str
)
def test_unit_of_order_has_order_exactly_d(ctx):
    n = ctx.cardinality - 1
    for d in (d for d in range(1, n + 1) if n % d == 0):
        powers = list(accumulate(repeat(ctx._wrap(_unit_of_order(ctx, d)), d), mul))
        assert powers[-1] == ctx.one and ctx.one not in powers[:-1]


@pytest.mark.parametrize("ctx", [F9, g.parse_field("F5^2"), F27], ids=str)
def test_odd_p_table_sums_pass_through_zero(ctx):
    """Odd-p tables add by Zech logs inline in _vsum and _dot; a sum that
    reaches 0 (log 2n) and the zero operand take their own branches."""
    zero, one = ctx.zero, ctx.one
    units = ctx.elements()[1:]
    xs, negs = [a.value for a in units], [(-a).value for a in units]
    assert ctx._vsum(xs, negs) == [(a + -a).value for a in units] == [0] * len(units)
    assert ctx._vsum([0, 0], [0, 0]) == [(zero + zero).value] * 2 == [0, 0]
    assert ctx._vsum([0, *xs], [xs[0], *[0] * len(xs)]) == [xs[0], *xs]
    for a, b, c in zip(units, units[3:], units[7:]):
        # a*1 + (-a)*1 returns to 0 midway, then b*c and a zero product follow
        left, right = [a, -a, b, zero, a], [one, one, c, b, zero]
        midway = ctx._dot([x.value for x in left], [y.value for y in right])
        assert midway == sum((x * y for x, y in zip(left, right)), zero).value == (b * c).value
        # a*b + c*1 + (-(a*b + c))*1 ends at 0
        left, right = [a, c, -(a * b + c)], [b, one, one]
        ending = ctx._dot([x.value for x in left], [y.value for y in right])
        assert ending == sum((x * y for x, y in zip(left, right)), zero).value == 0


@pytest.mark.parametrize("ctx", [F9, g.ExtensionField(2, 4), F27], ids=str)
def test_table_fields_keep_no_digit_kernel(ctx):
    """A table field finds its primitive element on the digit kernels, then
    replaces every one of them.  A kernel's closure is searched too, so a
    kernel that wraps a digit kernel is found."""

    def digit_closures(c):
        found = []
        for k in _KERNELS:  # getattr, since vars(c) would slow every later read on c
            v = getattr(c, k)
            cells = getattr(v, "__closure__", None) or ()
            kernels = (v, *(cell.cell_contents for cell in cells))
            if any("_digit_kernels" in getattr(f, "__qualname__", "") for f in kernels):
                found.append(k)
        return found

    assert digit_closures(ctx) == []
    assert digit_closures(_ABOVE_CAP[1]) != []


def test_contexts_are_interned():
    assert g.PrimeField(7) is g.PrimeField(7) is F7
    assert g.ExtensionField(3, 2, [1, 0, 1]) is g.ExtensionField(3, 2) is F9
    assert g.parse_field("F2^2/1,1,1") is F4
    assert g.Rationals() is g.Rationals()
    assert copy.deepcopy(F27.generator) == F27.generator
    assert copy.deepcopy(F27) is F27
    assert pickle.loads(pickle.dumps(F9.generator)) == F9.generator
    with pytest.raises(g.MixedFields):
        F7.one + g.PrimeField(5).one


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    # each is a strong pseudoprime to every prime base up to the one named
    strong = {
        2047: 2,
        1373653: 3,
        25326001: 5,
        3215031751: 7,
        2152302898747: 11,
        3474749660383: 13,
        341550071728321: 17,
        3825123056546413051: 23,
        318665857834031151167461: 37,
    }
    for n in carmichael + list(strong):
        assert not _is_prime(n), n
    assert _is_prime(2**61 - 1) and _is_prime(10**18 + 3)
    assert not _is_prime((2**31 - 1) ** 2)


def test_is_prime_refuses_numbers_past_its_bound():
    assert not _is_prime(_PRIME_BOUND - 1)  # even
    with pytest.raises(g.GridNullError, match=str(_PRIME_BOUND)):
        _is_prime(_PRIME_BOUND)
    with pytest.raises(g.GridNullError, match=str(_PRIME_BOUND)):
        g.parse_field(f"F{2**89 - 1}")
    assert g.parse_field(f"F{10**18 + 3}").cardinality == 10**18 + 3
