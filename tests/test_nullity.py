"""Moment tables, nullity, Vandermonde degree, weights, and Sylvester sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gridnull as g
from gridnull.nullity import weight
from support import F5, F7, F9, F13, F27, Q, make_rng, random_rational_set, random_set


def _sized(rng, ctx, hi=7):
    if ctx.kind == "rationals":
        return random_rational_set(rng, rng.randint(1, hi))
    return random_set(rng, ctx, rng.randint(1, min(hi, len(ctx.elements()))))


def test_moments_of_cube_roots_of_unity():
    a = g.FiniteSet(F7, [1, 2, 4])
    table = a.moments(3)
    assert [str(v) for v in table.e] == ["1", "0", "0", "1"]
    assert [str(v) for v in table.h] == ["1", "0", "0", "1"]
    assert [str(v) for v in table.p] == ["3", "0", "0", "3"]
    assert table.order == 3


def test_moments_of_symmetric_rational_set():
    a = g.FiniteSet(Q, [-1, 0, 1])
    table = a.moments(4)
    assert table.e == (Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0))
    assert table.h == (Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1))
    assert table.p == (Fraction(3), Fraction(0), Fraction(2), Fraction(0), Fraction(2))


def test_moment_functions_match_table():
    a = g.FiniteSet(F7, [1, 2, 3])
    table = a.moments(5)
    assert tuple(g.elementary_moments(a, 5)) == table.e
    assert tuple(g.complete_moments(a, 5)) == table.h
    assert tuple(g.power_sums(a, 5)) == table.p


def test_moment_functions_build_only_their_own_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("table not asked for")

    monkeypatch.setattr(g.UniPoly, "from_roots", classmethod(refuse))
    assert [str(v) for v in g.power_sums(g.FiniteSet(F7, [1, 2, 4]), 3)] == ["3", "0", "0", "3"]
    monkeypatch.undo()
    monkeypatch.setattr(g.FiniteSet, "_ensure_h", refuse)
    monkeypatch.setattr(g.FiniteSet, "_ensure_p", refuse)
    assert [str(v) for v in g.elementary_moments(g.FiniteSet(F7, [1, 2, 4]), 4)] == [
        "1", "0", "0", "1", "0"
    ]
    monkeypatch.undo()
    monkeypatch.setattr(g.FiniteSet, "_ensure_p", refuse)
    assert [str(v) for v in g.complete_moments(g.FiniteSet(F7, [1, 2, 4]), 3)] == ["1", "0", "0", "1"]
    monkeypatch.undo()
    for moments in (g.elementary_moments, g.complete_moments, g.power_sums):
        with pytest.raises(g.PreconditionViolated):
            moments(g.FiniteSet(F7, [1, 2]), -1)


def test_moments_reject_negative_order():
    a = g.FiniteSet(F7, [1, 2])
    with pytest.raises(g.PreconditionViolated):
        a.moments(-1)


def test_nullity_ground_cases():
    assert g.FiniteSet(F5, [0, 1, 2, 3, 4]).nullity == 3
    assert g.FiniteSet(F5, [0]).nullity == 1
    assert g.FiniteSet(F5, [2]).nullity == 0
    assert g.FiniteSet(Q, [0]).nullity == 1
    assert g.FiniteSet(F7, [1, 2, 4]).nullity == 2
    assert g.FiniteSet(F7, [1, 2, 3, 4, 5, 6]).nullity == 5


def test_vandermonde_degree_cases():
    t = F9.generator
    assert g.FiniteSet(F9, [F9.zero, t, t + t]).vandermonde_degree == 1
    assert g.FiniteSet(Q, [-1, 1]).vandermonde_degree == 1
    assert g.FiniteSet(F7, [1, 2, 3, 4, 5, 6]).vandermonde_degree == 5
    assert g.FiniteSet(Q, [0]).vandermonde_degree == 1
    assert g.FiniteSet(Q, [3]).vandermonde_degree == 0


def test_weights_over_full_prime_field():
    a = g.FiniteSet(F5, [0, 1, 2, 3, 4])
    for v in a:
        assert a.weight_at(v) == F5.element(4)


def test_weight_of_cube_roots():
    a = g.FiniteSet(F7, [1, 2, 4])
    assert a.weight_at(F7.one) == F7.element(5)
    with pytest.raises(g.PointNotOnGrid):
        a.weight_at(F7.element(3))


def test_weights_reject_foreign_elements():
    a = g.FiniteSet(F7, [1, 2])
    grid = g.grid_make([a])
    t = F9.generator
    for call in (lambda: a.weight_at(t), lambda: grid.weight((t,)), lambda: weight(grid, (t,))):
        with pytest.raises(g.MixedFields, match=r"cannot combine elements of F3\^2 and F7"):
            call()
    with pytest.raises(g.PointNotOnGrid, match="3 is not in the set"):
        weight(grid, (F7.element(3),))


def test_sylvester_sum_three_regimes():
    a = g.FiniteSet(Q, [1, 2, 3])
    assert a.sylvester_sum(0) == Fraction(0)
    assert a.sylvester_sum(1) == Fraction(0)
    assert a.sylvester_sum(2) == Fraction(1)
    assert a.sylvester_sum(3) == Fraction(6)
    with pytest.raises(g.PreconditionViolated):
        a.sylvester_sum(-1)


def test_sylvester_sum_singleton():
    a = g.FiniteSet(Q, [5])
    assert a.sylvester_sum(0) == Fraction(1)
    assert a.sylvester_sum(1) == Fraction(5)
    assert a.sylvester_sum(2) == Fraction(25)


def test_weighted_column_sum_below_the_top_builds_no_weights(monkeypatch):
    """column_sum(k, weighted=True) is sylvester_sum(k), which gives 0 or 1
    below |A| at once; the weight table costs O(|A|^2) to build."""

    def refuse(self):
        raise AssertionError("the weights were built")

    a = g.FiniteSet(F7, [1, 2, 4])
    monkeypatch.setattr(g.FiniteSet, "_weight_table", refuse)
    assert a.column_sum(0, weighted=True) == F7.zero
    assert a.column_sum(1, weighted=True) == F7.zero
    assert a.column_sum(2, weighted=True) == F7.one
    with pytest.raises(AssertionError, match="weights"):
        a.column_sum(3, weighted=True)


def test_finite_set_dedup_and_equality():
    a = g.FiniteSet(F7, [1, 2, 1, 4])
    assert len(a) == 3
    assert a == g.FiniteSet(F7, [4, 2, 1])
    assert F7.element(2) in a
    assert 2 in a
    assert 9 in a
    assert F7.element(3) not in a
    assert "cow" not in a
    assert F5.one not in a
    assert repr(g.FiniteSet(F7, [1, 2, 4])) == "{1, 2, 4}"


def test_finite_set_membership_does_not_hide_faults(monkeypatch):
    a = g.FiniteSet(F7, [1, 2, 4])

    def broken(v):
        raise ZeroDivisionError("fault in the field kernel")

    monkeypatch.setattr(F7, "_canon", broken)
    with pytest.raises(ZeroDivisionError):
        2 in a


def test_finite_set_membership_of_ill_formed_coefficients():
    a = g.FiniteSet(F9, [[0, 1], [1, 1]])
    assert [0, 1] in a
    assert ["a"] not in a
    assert [None] not in a
    assert [1, 0] not in a


def test_finite_set_rejects_empty_and_mixed():
    with pytest.raises(g.EmptySet):
        g.FiniteSet(F7, [])
    with pytest.raises(g.MixedFields):
        g.FiniteSet(F7, [F7.one, F5.one])


def test_parse_set_round_trip():
    a = g.parse_set("{1, 2, 4}", F7)
    assert a == g.FiniteSet(F7, [1, 2, 4])
    assert g.parse_set("{-1/2, 1/2}", Q) == g.FiniteSet(Q, [Fraction(-1, 2), Fraction(1, 2)])
    assert g.parse_set("{t, t+1}", F9) == g.FiniteSet(F9, [F9.generator, F9.generator + 1])
    assert len(g.parse_set("{1, 1, 2}", F7)) == 2
    with pytest.raises(g.EmptySet):
        g.parse_set("{}", F7)
    with pytest.raises(g.ParseError):
        g.parse_set("1, 2", F7)


_FIELDS = [Q, F5, F7, F9]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**9))
def test_entwine_identity(fidx, seed):
    ctx = _FIELDS[fidx]
    a = _sized(make_rng(seed), ctx)
    table = a.moments(2 * len(a))
    for r in range(1, table.order + 1):
        acc = ctx.zero
        for i in range(r + 1):
            term = table.e[r - i] * table.h[i]
            acc = acc + (term if i % 2 == 0 else -term)
        assert acc == ctx.zero


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**9))
def test_newton_identity(fidx, seed):
    ctx = _FIELDS[fidx]
    a = _sized(make_rng(seed), ctx)
    table = a.moments(len(a))
    for r in range(1, len(a) + 1):
        acc = ctx.element(r) * table.e[r]
        for i in range(1, r + 1):
            term = table.e[r - i] * table.p[i]
            acc = acc + (-term if i % 2 else term)
        assert acc == ctx.zero


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**9))
def test_nullity_scaling_and_zero_toggle(fidx, seed):
    ctx = _FIELDS[fidx]
    rng = make_rng(seed)
    a = _sized(rng, ctx, hi=6)
    c = ctx.zero
    while c == ctx.zero:
        c = rng.choice(list(ctx.elements()))
    scaled = g.FiniteSet(ctx, [c * v for v in a])
    assert scaled.nullity == a.nullity
    nonzero = [v for v in a if v != ctx.zero]
    if nonzero:
        with_zero = g.FiniteSet(ctx, nonzero + [ctx.zero])
        without = g.FiniteSet(ctx, nonzero)
        assert with_zero.nullity == without.nullity


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**9))
def test_nullity_superadditive_on_disjoint_union(fidx, seed):
    ctx = _FIELDS[fidx]
    rng = make_rng(seed)
    pool = list(ctx.elements())
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1)
    left = g.FiniteSet(ctx, pool[: rng.randint(1, cut)])
    right_pool = [v for v in pool if v not in left]
    right = g.FiniteSet(ctx, right_pool[: rng.randint(1, len(right_pool))])
    union = g.FiniteSet(ctx, list(left) + list(right))
    assert union.nullity >= min(left.nullity, right.nullity)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**9))
def test_nullity_versus_vandermonde_degree(fidx, seed):
    ctx = _FIELDS[fidx]
    a = _sized(make_rng(seed), ctx)
    lam = a.nullity
    vd = a.vandermonde_degree
    assert lam <= vd
    if ctx.kind == "rationals":
        if not (len(a) == 1 and ctx.zero in a):
            assert vd <= 1
    elif vd < ctx.characteristic:
        assert lam == vd


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_weight_sum_vanishes(seed):
    # degree-0 case of the rational vanishing sum, so needs |A| >= 2
    rng = make_rng(seed)
    a = random_set(rng, F7, rng.randint(2, 6))
    total = F7.zero
    for v in a:
        total = total + a.weight_at(v)
    assert total == F7.zero


_MEMO_FIELDS = [F7, F13, F9, F27, g.ExtensionField(2, 4), Q]


def _derivative_at(a, x):
    """P'(x) for x in a, as the product of x - y over the other elements y."""
    acc = a.ctx.one
    for y in a:
        if y != x:
            acc = acc * (x - y)
    return acc


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=10**9))
def test_columns_and_sums_match_per_element_references(fidx, seed):
    """Each value is asked for twice, so the second answer comes from the cache."""
    ctx = _MEMO_FIELDS[fidx]
    a = _sized(make_rng(seed), ctx, hi=6)
    for d in range(len(a) + 5):
        powers = tuple(x**d for x in a)
        weighted = tuple(x**d / _derivative_at(a, x) for x in a)
        sylvester = g.sylvester_sum_bruteforce(a, d)
        assert sylvester == g.sylvester_rhs_bruteforce(a, d)
        for _ in range(2):
            assert a.column(d) == powers
            assert a.column(d, weighted=True) == weighted
            assert a.column_sum(d) == sum(powers, ctx.zero)
            assert a.column_sum(d, weighted=True) == sylvester
            assert a.sylvester_sum(d) == sylvester
    assert tuple(g.power_sums(a, len(a) + 4)) == tuple(a.column_sum(d) for d in range(len(a) + 5))


def test_power_sums_grow_from_the_cached_column():
    a = g.FiniteSet(F7, [1, 2, 3])
    assert [str(v) for v in g.power_sums(a, 2)] == ["3", "6", "0"]
    assert a.column(2) == (F7.one, F7.element(4), F7.element(2))
    assert [str(v) for v in g.power_sums(a, 4)] == ["3", "6", "0", "1", "0"]


_ABOVE_CAP = [g.PrimeField(65537), g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1")]


@pytest.mark.parametrize("ctx", _MEMO_FIELDS + _ABOVE_CAP, ids=str)
def test_power_sums_across_blocks_match_element_sums(ctx):
    """Orders up to 100 cross several 32-column blocks and, in characteristic
    c, the p_(ck) = p_k^c step; the table also grows from mid-block."""
    rng = make_rng(len(str(ctx)))
    for size in (1, 2, 5):
        a = random_set(rng, ctx, size)
        want = [sum((x**r for x in a), ctx.zero) for r in range(101)]
        assert g.power_sums(a, 45) == want[:46]
        assert g.power_sums(a, 100) == want
        assert g.power_sums(g.FiniteSet(ctx, a), 100) == want


_F2_12 = g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1")  # above the table cap: digit kernels


@pytest.mark.parametrize("k", [-1, 1.5])
@pytest.mark.parametrize(
    "ctx, elements",
    [
        (Q, [2, 3]),  # a^-1 was a float
        (Q, [0, 2, 3]),
        (F7, [0, 1, 3]),  # pow(0, -1, 7) was a bare ValueError
        (F9, [0, 1, F9.generator]),  # 0^-1 was 0
        (_F2_12, [0, 1, _F2_12.generator]),  # _px_powmod never returned
    ],
    ids=str,
)
def test_set_columns_refuse_negative_and_non_integer_exponents(ctx, elements, k):
    """Every column read refuses k < 0 and a non-integer k with a GridNullError,
    and leaves nothing in the column memo."""
    A = g.FiniteSet(ctx, elements)
    reads = [
        lambda: A.column(k),
        lambda: A.column(k, weighted=True),
        lambda: A.column_sum(k),
        lambda: A.column_sum(k, weighted=True),
    ]
    for read in reads:
        with pytest.raises(g.GridNullError):
            read()
    assert list(A._cols) == [(0, False)] and A._sums == {}
    assert A.column(1) == A.elements
    assert A.column_sum(1) == sum(A.elements, ctx.zero)


@pytest.mark.parametrize("k", [0.0, 2.0])
@pytest.mark.parametrize("ctx, elements", [(Q, [2, 3]), (F7, [0, 1, 3])], ids=str)
def test_integral_float_exponents_are_refused_after_the_column_is_built(ctx, elements, k):
    """2.0 and 2 are one memo key, so a column or sum already built at the int
    must not let the float through: the refusal does not depend on earlier reads."""
    A = g.FiniteSet(ctx, elements)
    for built in range(3):
        A.column(built), A.column(built, weighted=True)
        A.column_sum(built), A.column_sum(built, weighted=True)
    reads = [
        lambda: A.column(k),
        lambda: A.column(k, weighted=True),
        lambda: A.column_sum(k),
        lambda: A.column_sum(k, weighted=True),
        lambda: A.sylvester_sum(k),
    ]
    for read in reads:
        with pytest.raises(g.ExponentOutOfRange):
            read()
