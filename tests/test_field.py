"""Field construction, arithmetic, traces, and the field-spec grammar."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gridnull as g
from gridnull.field import FiniteField, _default_modulus, _px_is_irreducible
from gridnull.oracle import plane_count_bruteforce
from support import F4, F7, F8, F9, F27, Q


def test_prime_field_rejects_composite_order():
    with pytest.raises(g.NonPrimeModulus):
        g.PrimeField(6)
    with pytest.raises(g.NonPrimeModulus):
        g.PrimeField(1)


def test_extension_rejects_reducible_modulus():
    with pytest.raises(g.ReducibleModulus):
        g.ExtensionField(2, 2, [1, 0, 1])  # (X+1)^2
    with pytest.raises(g.ReducibleModulus):
        g.ExtensionField(3, 2, [2, 0, 1])  # X^2 - 1


def test_extension_default_modulus_requires_small_degree():
    with pytest.raises(g.UnsupportedDegree):
        g.ExtensionField(2, 5)
    # an explicit irreducible quintic is accepted
    F32 = g.ExtensionField(2, 5, [1, 0, 1, 0, 0, 1])
    assert F32.cardinality == 32
    x = F32.generator
    assert (x ** 31) == F32.one


def test_default_moduli_are_first_in_coefficient_order():
    assert F4.modulus == (1, 1, 1)  # X^2 + X + 1
    assert F8.modulus == (1, 1, 0, 1)  # X^3 + X + 1
    assert F9.modulus == (1, 0, 1)  # X^2 + 1
    assert F27.modulus == (1, 2, 0, 1)  # X^3 + 2X + 1


def _first_irreducible(p, e):
    """The first monic irreducible in coefficient order, binomials included."""
    for k in range(p**e):
        m = [(k // p**j) % p for j in range(e)] + [1]
        if _px_is_irreducible(m, p):
            return tuple(m)


def test_default_modulus_skips_only_reducible_binomials():
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    assert [
        (p, e)
        for p in primes
        for e in (2, 3, 4)
        if _default_modulus(p, e) != _first_irreducible(p, e)
    ] == []


@pytest.mark.parametrize("spec", ["F1000003^4", "F1000000007^3"])
def test_default_modulus_of_a_large_prime_takes_no_walk_over_p(spec):
    start = time.perf_counter()
    ctx = g.parse_field(spec)
    assert time.perf_counter() - start < 1
    assert ctx.spec_string() == spec


def test_element_enumeration_order_and_display():
    names = [str(x) for x in F9.elements()]
    assert names == ["0", "1", "2", "t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2"]
    assert [str(x) for x in g.PrimeField(5).elements()] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("p", [2, 13, 2053])
def test_prime_field_elements_print_as_on_the_digit_path(p):
    """A prime field prints a residue by str; the digit path, which extension
    fields keep, prints each element alike (2053 is above the table cap)."""
    ctx = g.PrimeField(p)
    assert ctx._fmt is str
    assert [str(x) for x in ctx.elements()] == [
        FiniteField._fmt(ctx, x.value) for x in ctx.elements()
    ]


@pytest.mark.parametrize("ctx", [F7, F8, F9, F27])
def test_units_have_inverses_and_group_order(ctx):
    one = ctx.one
    q = ctx.cardinality
    for x in ctx.elements():
        if x.is_zero:
            with pytest.raises(g.DivisionByZero):
                x.inv()
            continue
        assert x * x.inv() == one
        assert x ** (q - 1) == one
        assert x ** (-1) == x.inv()


def test_pow_conventions():
    zero = F7.zero
    assert zero ** 0 == F7.one
    assert zero ** 3 == zero
    assert F9.generator ** 0 == F9.one


def test_rationals_arithmetic_and_coercion():
    a = Q.element(Fraction(1, 2))
    b = Q.element(3)
    assert a + b == Fraction(7, 2)
    assert (a / b) == Fraction(1, 6)
    assert str(a) == "1/2"
    with pytest.raises(g.InfiniteField):
        Q.elements()


def test_int_equality_only_in_prime_subfield_range():
    assert F7.element(3) == 3 and F7.element(3) != 10
    assert F7.element(6) != -1 and F7.element(6) == F7.element(-1)
    assert F9.generator != 3 and F9.element(2) == 2
    assert Q.element(-1) == -1 and Q.element(Fraction(1, 2)) == Fraction(1, 2)
    assert F7.element(3) != Fraction(3)
    # arithmetic and membership still reduce ints mod p
    assert F7.element(3) + 10 == 6 and 10 * F7.element(1) == 3
    assert 9 in g.FiniteSet(F7, [1, 2])


@pytest.mark.parametrize("ctx", [F7, F9, Q])
def test_equal_elements_and_ints_hash_alike(ctx):
    elements = [ctx.element(n) for n in range(-20, 21)]
    elements += list(ctx.elements()) if ctx.cardinality else []
    for x in elements:
        for n in range(-20, 21):
            if x == n:
                assert hash(x) == hash(n)
    table = {n: n for n in range(-20, 21)}
    for x in elements:
        assert (x in table) == any(x == n for n in table)


@pytest.mark.parametrize(
    "ctx", [Q, F7, F27, g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1")], ids=str
)
def test_int_and_fraction_on_the_left_of_minus_and_divide(ctx):
    """3 - x and 1 / x reach FieldElement.__rsub__ and __rtruediv__, which
    coerce the left operand by FieldCtx.element."""
    x = ctx.generator if ctx.kind == "extension" else ctx.element(5)
    three = ctx.element(3)
    assert 3 - x == three - x and (3 - x) + x == three
    assert 1 / x == x.inv() and (1 / x) * x == ctx.one
    assert 3 / x == three * x.inv()
    with pytest.raises(g.DivisionByZero):
        1 / ctx.zero
    if ctx.kind == "rationals":
        assert Fraction(1, 2) - x == Fraction(-9, 2) and Fraction(3) - x == -2
        assert Fraction(1, 2) / x == Fraction(1, 10)
        return
    # over a finite field a Fraction is no element, even an integral one
    for left in (Fraction(3), Fraction(1, 2)):
        with pytest.raises(TypeError, match="cannot build"):
            left - x
        with pytest.raises(TypeError, match="cannot build"):
            left / x


def test_mixed_fields_rejected():
    with pytest.raises(g.MixedFields):
        F7.element(1) + g.PrimeField(5).element(1)
    # same parameters produce interoperable contexts
    other = g.PrimeField(7)
    assert other == F7
    assert other.element(3) + F7.element(5) == F7.element(1)


_F7_GRID = g.grid_make([g.FiniteSet(F7, [1, 2]), g.FiniteSet(F7, [3, 5])])
_FOREIGN_INPUTS = {
    "FieldElement operators": lambda x: F7.one + x,
    "FiniteSet": lambda x: g.FiniteSet(F7, [1, x]),
    "UniPoly": lambda x: g.UniPoly(F7, [1, x]),
    "MultiPoly": lambda x: g.MultiPoly(F7, 1, {(1,): x}),
    "MultiPoly.evaluate": lambda x: g.parse_poly("x1 + x2", 2, F7).evaluate((1, x)),
    "multiplicative_coset shift": lambda x: g.multiplicative_coset(F7, 3, x),
    "additive_coset shift": lambda x: g.additive_coset(F7, [1], x),
    "additive_coset generators": lambda x: g.additive_coset(F7, [x]),
    "plane_grid_count": lambda x: g.plane_grid_count((1, x), _F7_GRID),
    "interpolate": lambda x: g.interpolate(
        _F7_GRID, {a: x for a in _F7_GRID.points()}, 0
    ),
    "ore_form_check": lambda x: g.ore_form_check(F7, [1], x),
    "plane_count_bruteforce": lambda x: plane_count_bruteforce((1, x), _F7_GRID),
}


@pytest.mark.parametrize("site", sorted(_FOREIGN_INPUTS))
def test_foreign_elements_rejected_with_one_message(site):
    with pytest.raises(g.MixedFields, match=r"^cannot combine elements of F3\^2 and F7$"):
        _FOREIGN_INPUTS[site](F9.generator)


def test_trace_lands_in_prime_subfield_and_is_additive():
    for x in F9.elements():
        assert g.trace(x).in_prime_subfield
    for x in F8.elements():
        assert g.trace(x).in_prime_subfield
    xs = F9.elements()
    for x in xs[:4]:
        for y in xs[:4]:
            assert g.trace(x + y) == g.trace(x) + g.trace(y)
    with pytest.raises(g.NotExtensionField):
        g.trace(F7.element(1))


def test_frobenius_fixes_prime_subfield():
    p = F9.characteristic
    for k in range(p):
        x = F9.element(k)
        assert x ** p == x
        assert x.in_prime_subfield


def test_parse_field_grammar():
    assert g.parse_field("Q") == Q
    assert g.parse_field("F7") == F7
    assert g.parse_field("F2^3") == F8
    assert g.parse_field("F3^2/1,0,1") == F9
    assert g.parse_field("F3^2").spec_string() == "F3^2"
    with pytest.raises(g.ParseError):
        g.parse_field("F7/1,1")
    with pytest.raises(g.ParseError):
        g.parse_field("Z12")
    with pytest.raises(g.NonPrimeModulus):
        g.parse_field("F6")


def test_spec_string_round_trip():
    for ctx in [Q, F7, F8, F9, F27, g.ExtensionField(2, 2, [1, 1, 1])]:
        assert g.parse_field(ctx.spec_string()) == ctx


_f9_idx = st.integers(min_value=0, max_value=8)


@settings(max_examples=60, deadline=None)
@given(_f9_idx, _f9_idx, _f9_idx)
def test_extension_field_axioms(i, j, k):
    xs = F9.elements()
    a, b, c = xs[i], xs[j], xs[k]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    if not b.is_zero:
        assert (a / b) * b == a
