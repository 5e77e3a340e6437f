"""Grids, coset factories, trace-zero kernels, and the grid grammar."""

import time

import pytest

import gridnull as g
from gridnull.oracle import multiplicative_subgroup_bruteforce
from gridnull.grids import _rank
from support import F4, F5, F7, F8, F9, F27, Q, make_rng, random_element


def _support(u):
    return {k for k in range(u.degree + 1) if not u.coefficient(k).is_zero}


def test_grid_make_basic():
    mu3 = g.multiplicative_coset(F7, 3)
    grid = g.grid_make([mu3, mu3])
    assert grid.n == 2
    assert grid.sizes == (3, 3)
    assert grid.size == 9
    assert grid.joint_nullity == 2
    assert grid.joint_vandermonde == 2
    assert not grid.has_singleton


def test_engines_fill_no_power_sums(monkeypatch):
    """Only joint_vandermonde reads power sums: parsing a grid and running the
    engines on it fills no power-sum table."""

    def refuse(*args):
        raise AssertionError("power sums filled")

    monkeypatch.setattr(g.FiniteSet, "_ensure_p", refuse)
    grid = g.parse_grid("mul(13) x add(1;t)", F27)
    assert grid.joint_nullity >= 4
    f = g.parse_poly("x1^2*x2^2 + t*x1*x2 + 1", 2, F27)
    assert g.gcn_check(f, grid).hypothesis_ok
    assert g.grid_sum(f, grid) == F27.zero
    assert g.grid_sum(f, grid, "weighted") == g.cct_coefficient(f, grid).weighted_sum
    values = {a: f.evaluate(a) for a in grid.points()}
    assert g.interpolate(grid, values, 4) == f
    assert g.plane_grid_count([1, 1], grid).details["count"] >= 1
    assert g.plane_scan(grid).instances == 28
    with pytest.raises(AssertionError, match="power sums"):
        grid.joint_vandermonde


def test_grid_with_singleton_factor():
    full = g.FiniteSet(F5, [0, 1, 2, 3, 4])
    grid = g.grid_make([full, g.FiniteSet(F5, [0])])
    assert grid.sizes == (5, 1)
    assert grid.joint_nullity == 1
    assert grid.has_singleton


def test_grid_points_product_order():
    a = g.FiniteSet(F5, [0, 1])
    pts = list(g.grid_make([a, a]).points())
    want = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert pts == [tuple(F5.element(v) for v in w) for w in want]


def test_grid_weight_and_membership():
    mu3 = g.multiplicative_coset(F7, 3)
    grid = g.grid_make([mu3, mu3])
    assert grid.weight((F7.one, F7.one)) == F7.element(4)
    assert (F7.one, F7.element(2)) in grid
    assert (F7.one, F7.element(3)) not in grid
    assert (F7.one,) not in grid
    with pytest.raises(g.PointNotOnGrid):
        grid.weight((F7.one, F7.element(3)))


def test_grid_equality_and_repr():
    mu3 = g.multiplicative_coset(F7, 3)
    mu2 = g.multiplicative_coset(F7, 2)
    assert g.grid_make([mu3, mu2]) == g.grid_make([mu3, mu2])
    assert g.grid_make([mu3, mu2]) != g.grid_make([mu2, mu3])
    assert repr(g.grid_make([mu3, mu2])) == "{1, 2, 4} x {1, 6}"


def test_equal_sets_and_grids_hash_alike():
    a, b = g.FiniteSet(F7, [1, 2, 4]), g.FiniteSet(F7, [4, 2, 1, 2])
    assert a == b and hash(a) == hash(b)
    grid = g.grid_make([a, g.FiniteSet(F7, [0, 6])])
    same = g.parse_grid("mul(3) x {6, 0}", F7)
    assert grid == same and grid is not same and hash(grid) == hash(same)
    table = {a: "set", grid: "grid"}
    assert table[b] == "set" and table[same] == "grid"
    assert len({a, b, g.FiniteSet(F7, [1, 2]), g.FiniteSet(F5, [1, 2, 4])}) == 3


def test_grid_rejects_empty_and_mixed():
    with pytest.raises(g.EmptyFactorList):
        g.grid_make([])
    with pytest.raises(g.MixedFields):
        g.grid_make([g.FiniteSet(F5, [1]), g.FiniteSet(F7, [1])])


def test_multiplicative_coset_values():
    assert list(g.multiplicative_coset(F7, 3)) == [F7.one, F7.element(2), F7.element(4)]
    shifted = g.multiplicative_coset(F7, 3, shift=3)
    assert shifted == g.FiniteSet(F7, [3, 6, 5])
    assert str(shifted.char_poly) == "X^3 + 1"
    assert shifted.nullity == 2


def test_multiplicative_coset_nullity_is_order_minus_one():
    for ctx in (F7, F9, g.PrimeField(11)):
        q = len(ctx.elements())
        for d in range(1, q):
            if (q - 1) % d:
                continue
            assert g.multiplicative_coset(ctx, d).nullity == d - 1
            assert g.multiplicative_coset(ctx, d, shift=ctx.elements()[2]).nullity == d - 1


@pytest.mark.parametrize(
    "spec, orders",
    [
        *((spec, None) for spec in ("F2", "F3", "F7", "F13", "F2^2", "F3^2", "F2^4", "F3^3")),
        ("F2^8/1,0,1,1,1,0,0,0,1", None),
        ("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1", (1, 3, 91)),
        ("F65537", (2, 256, 65536)),
    ],
)
def test_multiplicative_coset_is_the_shifted_subgroup_reference(spec, orders):
    """Every d | q - 1 below the table cap, a few above it, with and without
    a shift, element by element and in order."""
    ctx = g.parse_field(spec)
    n = ctx.cardinality - 1
    shift = g.FieldElement(ctx, n)  # the last element, a unit
    for d in orders or [d for d in range(1, n + 1) if n % d == 0]:
        subgroup = multiplicative_subgroup_bruteforce(ctx, d)
        assert list(g.multiplicative_coset(ctx, d)) == subgroup
        assert list(g.multiplicative_coset(ctx, d, shift)) == [shift * x for x in subgroup]


def test_multiplicative_coset_rejections():
    with pytest.raises(g.OrderDoesNotDivide):
        g.multiplicative_coset(F7, 4)
    with pytest.raises(g.OrderDoesNotDivide):
        g.multiplicative_coset(F7, 0)
    with pytest.raises(g.ZeroShift):
        g.multiplicative_coset(F7, 3, shift=0)
    with pytest.raises(g.InfiniteField):
        g.multiplicative_coset(Q, 3)


def test_additive_coset_span_and_shift():
    t = F9.generator
    h = g.additive_coset(F9, [t])
    assert list(h) == [F9.zero, t, t + t]
    assert str(h.char_poly) == "X^3 + X"
    moved = g.additive_coset(F9, [t], shift=F9.one)
    assert moved == g.FiniteSet(F9, [F9.one, t + 1, t + t + 1])
    assert str(moved.char_poly) == "X^3 + X + 1"
    assert len(g.additive_coset(F9, [F9.one, t])) == 9
    assert g.additive_coset(F9, [t, t + t]) == h
    assert g.additive_coset(F5, [1]) == g.FiniteSet(F5, [0, 1, 2, 3, 4])
    assert g.additive_coset(F5, [], shift=2) == g.FiniteSet(F5, [2])
    with pytest.raises(g.CharacteristicZero):
        g.additive_coset(Q, [1])


def test_trace_zero_sets():
    cases = [
        (F4, 2, 0, "X^2 + X"),
        (F8, 4, 1, "X^4 + X^2 + X"),
        (F9, 3, 1, "X^3 + X"),
        (F27, 9, 5, "X^9 + X^3 + X"),
    ]
    for ctx, size, lam, char_str in cases:
        T = g.trace_zero_set(ctx)
        assert len(T) == size
        assert T.nullity == lam
        assert str(T.char_poly) == char_str
        p = ctx.characteristic
        assert lam == (size - size // p) - 1
    with pytest.raises(g.NotExtensionField):
        g.trace_zero_set(F7)
    with pytest.raises(g.NotExtensionField):
        g.trace_zero_set(Q)


def test_additive_subgroup_nullity_bound():
    # rank-2 subgroup of F8 attains the generic value; the full field F4 is
    # a subgroup whose nullity exceeds it
    h = g.additive_coset(F8, [F8.one, F8.generator])
    assert h.nullity == 1
    full = g.additive_coset(F4, [F4.one, F4.generator])
    assert len(full) == 4
    assert full.nullity == 2
    assert full.nullity > (4 - 4 // 2) - 1


def test_additive_coset_char_poly_shape():
    t = F8.generator
    h = g.additive_coset(F8, [F8.one, t])
    assert _support(h.char_poly) == {1, 2, 4}
    prod = F8.one
    for v in h:
        if not v.is_zero:
            prod = prod * v
    assert h.char_poly.coefficient(1) == prod
    shifted = g.additive_coset(F8, [F8.one, t], shift=t * t)
    base = h.moments(len(h)).e
    moved = shifted.moments(len(h)).e
    assert moved[: len(h)] == base[: len(h)]
    assert not shifted.char_poly.coefficient(0).is_zero
    inside = g.additive_coset(F8, [F8.one, t], shift=t + 1)
    assert inside.char_poly.coefficient(0).is_zero


def test_additive_coset_drops_repeated_generators_as_it_spans():
    # without dropping duplicates after each generator the span would hold 2^64 values
    assert g.additive_coset(F4, [F4.one] * 64) == g.FiniteSet(F4, [0, 1])
    t = F9.generator
    assert g.additive_coset(F9, [t, t + t, t, F9.one, t + 1]) == g.additive_coset(F9, [t, 1])


@pytest.mark.parametrize("ctx", [F5, F4, F8, F9, F27, g.parse_field("F13^2")])
def test_additive_coset_size_is_p_to_the_rank_of_its_generators(ctx):
    """The rank that refuses an add(...) before it is spanned counts the span:
    one generator in three repeats or sums earlier ones."""
    rng = make_rng(ctx.cardinality)
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(0, 4)):
            if gens and rng.random() < 1 / 3:
                gens.append(rng.choice(gens) + rng.choice(gens))
            else:
                gens.append(random_element(rng, ctx))
        rank = _rank(ctx, [x.value for x in gens])
        assert len(g.additive_coset(ctx, gens)) == ctx.characteristic**rank


_BIG_PRIME = g.parse_field("F1000000000000000003")
_BIG_BINARY = g.parse_field("F2^22/1,1," + "0," * 20 + "1")


@pytest.mark.parametrize(
    "text, ctx, size",
    [
        ("mul(500000000000000001)", _BIG_PRIME, 500000000000000001),
        ("all", _BIG_PRIME, 1000000000000000003),
        ("units", _BIG_PRIME, 1000000000000000002),
        ("tracezero", _BIG_BINARY, 2**21),
        ("add(" + ";".join(f"t^{k}" for k in range(21)) + ")", _BIG_BINARY, 2**21),
    ],
)
def test_structured_factor_refused_by_its_size_before_it_is_built(text, ctx, size):
    start = time.perf_counter()
    with pytest.raises(g.SizeBoundExceeded, match=f"of {size} elements exceeds the set bound"):
        g.parse_factor(text, ctx)
    assert time.perf_counter() - start < 1


def test_set_bound_is_one_past_two_to_the_twentieth():
    F = g.PrimeField(8 * (2**20 + 1) + 1)
    with pytest.raises(g.SizeBoundExceeded, match=f"of {2**20 + 1} elements"):
        g.multiplicative_coset(F, 2**20 + 1)
    assert len(g.multiplicative_coset(F, 8)) == 8


def test_parse_factor_forms():
    assert g.parse_factor("mul(3)", F7) == g.multiplicative_coset(F7, 3)
    assert g.parse_factor("mul(3, 3)", F7) == g.FiniteSet(F7, [3, 6, 5])
    assert g.parse_factor("{1, 2, 4}", F7) == g.FiniteSet(F7, [1, 2, 4])
    assert g.parse_factor("all", F5) == g.FiniteSet(F5, [0, 1, 2, 3, 4])
    assert len(g.parse_factor("units", F7)) == 6
    assert g.parse_factor("tracezero", F9) == g.trace_zero_set(F9)
    t = F9.generator
    assert g.parse_factor("add(t, 1)", F9) == g.additive_coset(F9, [t], shift=F9.one)
    assert len(g.parse_factor("add(1; t)", F9)) == 9


def test_parse_factor_rejections():
    with pytest.raises(g.OrderDoesNotDivide):
        g.parse_factor("mul(4)", F7)
    with pytest.raises(g.ZeroShift):
        g.parse_factor("mul(3, 0)", F7)
    with pytest.raises(g.ParseError):
        g.parse_factor("mul()", F7)
    with pytest.raises(g.ParseError):
        g.parse_factor("frob(2)", F7)
    with pytest.raises(g.InfiniteField):
        g.parse_factor("all", Q)
    with pytest.raises(g.InfiniteField):
        g.parse_factor("units", Q)
    with pytest.raises(g.CharacteristicZero):
        g.parse_factor("add(1)", Q)
    with pytest.raises(g.NotExtensionField):
        g.parse_factor("tracezero", F7)


def test_parse_grid():
    grid = g.parse_grid("mul(3) x {0} x units", F7)
    assert grid.n == 3
    assert grid.sizes == (3, 1, 6)
    assert grid.has_singleton
    assert g.parse_grid("{1,2,4}", F7).n == 1
    with pytest.raises(g.EmptyFactorList):
        g.parse_grid("", F7)
    with pytest.raises(g.EmptyFactorList):
        g.parse_grid("  ", F7)
    with pytest.raises(g.ParseError):
        g.parse_grid("mul(3", F7)
    with pytest.raises(g.ParseError):
        g.parse_grid("mul(3) x {1,2))", F7)


def test_grid_points_matches_iterator():
    grid = g.parse_grid("mul(2) x mul(3)", F7)
    pts = list(grid.points())
    assert len(pts) == len(set(pts)) == grid.size
    assert all(a in grid for a in pts)
