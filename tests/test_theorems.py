"""Witness search, coefficient extraction, interpolation, grid sums, planes."""

import pytest
from hypothesis import given, settings, strategies as st

import gridnull as g
from gridnull.oracle import grid_sum_bruteforce
from gridnull.theorems import _fold, _grid_values
from support import (
    F5,
    F7,
    F9,
    F13,
    F27,
    Q,
    make_rng,
    random_cct_instance,
    random_cct_overflow_instance,
    random_element,
    random_gcn_instance,
    random_mul_grid,
    random_set,
)


def _mu3():
    return g.multiplicative_coset(F7, 3)


def _points_values(f, grid):
    return {a: f.evaluate(a) for a in grid.points()}


def test_gcn_cross_term_beats_pure_cube():
    f = g.parse_poly("x1*x2 - x1^3", 2, Q)
    a = g.FiniteSet(Q, [-1, 0, 1])
    report = g.gcn_check(f, g.grid_make([a, a]))
    assert report.hypothesis_ok
    assert report.qualifying_monomials == ((1, 1),)
    assert report.witness == (Q.element(-1), Q.element(-1))
    assert report.nonzero_count == 4
    assert report.zero_count == 5
    assert report.total_degree == 3
    assert report.joint_nullity == 1
    assert report.grid_sizes == (3, 3)
    assert not report.singleton_warning


def test_gcn_classical_product_monomial():
    f = g.parse_poly("x1*x2", 2, F5)
    a = g.FiniteSet(F5, [0, 1])
    report = g.gcn_check(f, g.grid_make([a, a]))
    assert report.hypothesis_ok
    assert report.qualifying_monomials == ((1, 1),)
    assert report.witness == (F5.one, F5.one)
    assert report.zero_count == 3


def test_gcn_zero_polynomial():
    f = g.MultiPoly.zero(F5, 2)
    a = g.FiniteSet(F5, [0, 1])
    report = g.gcn_check(f, g.grid_make([a, a]))
    assert not report.hypothesis_ok
    assert report.qualifying_monomials == ()
    assert report.witness is None
    assert report.zero_count == 4
    assert report.total_degree is g.MINUS_INFINITY


def test_gcn_exponent_cap_disqualifies():
    f = g.parse_poly("x1^2", 2, F5)
    a = g.FiniteSet(F5, [0, 1])
    report = g.gcn_check(f, g.grid_make([a, a]))
    assert not report.hypothesis_ok
    assert report.witness is not None


def test_gcn_shape_errors():
    f = g.parse_poly("x1", 1, F5)
    with pytest.raises(g.DimensionMismatch):
        g.gcn_check(f, g.grid_make([g.FiniteSet(F5, [0, 1])] * 2))
    with pytest.raises(g.MixedFields):
        g.gcn_check(f, g.grid_make([g.FiniteSet(F7, [0, 1])]))


def test_gcn_random_instances_always_find_witness():
    rng = make_rng(20260817)
    for _ in range(60):
        f, grid, k = random_gcn_instance(rng)
        report = g.gcn_check(f, grid)
        assert report.hypothesis_ok
        assert k in report.qualifying_monomials
        assert report.witness is not None
        assert not f.evaluate(report.witness).is_zero


def test_cct_square_over_cube_roots():
    f = g.parse_poly("x1^2", 1, F7)
    report = g.cct_coefficient(f, g.grid_make([_mu3()]))
    assert report.target == (2,)
    assert report.weighted_sum == F7.one
    assert report.direct_coefficient == F7.one
    assert report.degree_bound_ok
    assert report.degree_bound == 4
    assert report.joint_nullity == 2


def test_cct_constant_over_full_field():
    f = g.MultiPoly.constant(F5, 1, F5.element(2))
    grid = g.grid_make([g.FiniteSet(F5, [0, 1, 2, 3, 4])])
    report = g.cct_coefficient(f, grid)
    assert report.target == (4,)
    assert report.weighted_sum == F5.zero
    assert report.direct_coefficient == F5.zero
    assert report.degree_bound_ok


def test_cct_flags_degree_overflow():
    f = g.parse_poly("x1^6", 1, F7)
    report = g.cct_coefficient(f, g.grid_make([_mu3()]))
    assert not report.degree_bound_ok
    assert report.total_degree == 6
    assert report.degree_bound == 4


def test_cct_random_instances_match_direct_coefficient():
    rng = make_rng(77)
    for _ in range(60):
        f, grid = random_cct_instance(rng)
        report = g.cct_coefficient(f, grid)
        assert report.degree_bound_ok
        assert report.weighted_sum == report.direct_coefficient


def test_extract_coefficient_values():
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    grid = g.grid_make([_mu3(), _mu3()])
    assert g.extract_coefficient(f, grid, (1, 1)) == F7.element(2)
    assert g.extract_coefficient(f, grid, (0, 0)) == F7.element(3)
    assert g.extract_coefficient(f, grid, (2, 2)) == F7.zero


def test_extract_coefficient_errors():
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    grid = g.grid_make([_mu3(), _mu3()])
    with pytest.raises(g.DimensionMismatch, match="^target monomial has wrong arity$"):
        g.extract_coefficient(f, grid, (1,))
    with pytest.raises(g.ExponentOutOfRange, match=r"^exponent 3 outside 0\.\.2$"):
        g.extract_coefficient(f, grid, (3, 0))
    with pytest.raises(g.ExponentOutOfRange, match=r"^exponent -1 outside 0\.\.2$"):
        g.extract_coefficient(f, grid, (-1, 0))
    quartic = g.parse_poly("x1^2*x2^2 + x1*x2", 2, F7)
    with pytest.raises(g.DegreeBoundViolated, match=r"^degree 4 exceeds 0 \+ 2$"):
        g.extract_coefficient(quartic, grid, (0, 0))
    # (-1, 0) breaks both the range and the degree bound (4 > -1 + 2): the range wins
    with pytest.raises(g.ExponentOutOfRange, match=r"^exponent -1 outside 0\.\.2$"):
        g.extract_coefficient(quartic, grid, (-1, 0))


def test_extract_coefficient_refuses_non_integer_exponents():
    """(1.9, 1) is not read as (1, 1): the exponent is named, not truncated."""
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    grid = g.grid_make([_mu3(), _mu3()])
    for k, bad in (((1.9, 1), "1.9"), ((1, 1.0), "1.0"), (("1", 1), "'1'")):
        with pytest.raises(g.ExponentOutOfRange, match=f"exponent {bad} is not an integer"):
            g.extract_coefficient(f, grid, k)
    assert g.extract_coefficient(f, grid, (True, 1)) == F7.element(2)


def test_interpolate_round_trip():
    grid = g.grid_make([_mu3(), _mu3()])
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    rebuilt = g.interpolate(grid, _points_values(f, grid), 2)
    assert rebuilt == f


def test_interpolate_constant():
    grid = g.grid_make([_mu3()])
    f = g.MultiPoly.constant(F7, 1, F7.element(5))
    assert g.interpolate(grid, _points_values(f, grid), 0) == f


def test_interpolate_aliasing_detected_by_reevaluation():
    grid = g.grid_make([_mu3()])
    f = g.parse_poly("x1^3", 1, F7)
    rebuilt = g.interpolate(grid, _points_values(f, grid), 2)
    assert rebuilt != f
    assert rebuilt == g.MultiPoly.constant(F7, 1, F7.one)
    for a in grid.points():
        assert rebuilt.evaluate(a) == f.evaluate(a)


def test_interpolate_errors():
    grid = g.grid_make([_mu3(), _mu3()])
    f = g.parse_poly("x1", 2, F7)
    values = _points_values(f, grid)
    with pytest.raises(g.SingletonFactor):
        g.interpolate(g.grid_make([g.FiniteSet(F7, [0]), _mu3()]), {}, 0)
    with pytest.raises(g.PreconditionViolated):
        g.interpolate(grid, values, -1)
    with pytest.raises(g.LambdaExceedsNullity):
        g.interpolate(grid, values, 3)
    partial = dict(values)
    del partial[(F7.one, F7.one)]
    with pytest.raises(g.MissingValue):
        g.interpolate(grid, partial, 2)
    # values are read in point order: a foreign value before a missing point
    # is reported first
    foreign = dict(values)
    foreign[(F7.one, F7.one)] = F9.one
    del foreign[(F7.element(4), F7.element(4))]
    with pytest.raises(g.MixedFields, match="cannot combine elements of F3\\^2 and F7"):
        g.interpolate(grid, foreign, 2)


def test_grid_sum_vandermonde_factorization():
    # one lambda-null factor with per-variable degree <= lambda: the sum
    # collapses to the value at zero times the grid size
    a = g.FiniteSet(Q, [-1, 1])
    grid = g.grid_make([a])
    f = g.parse_poly("3*x1 + 5", 1, Q)
    assert g.grid_sum(f, grid) == Q.element(10)
    two = g.grid_make([a, a])
    h = g.parse_poly("x1*x2 + 2*x1 + 7", 2, Q)
    assert g.grid_sum(h, two) == Q.element(28)


def test_grid_sum_char_divides_sizes():
    grid = g.parse_grid("all x all", F9)
    f = g.parse_poly("x1^2*x2 + 2*x1", 2, F9)
    assert g.grid_sum(f, grid) == F9.zero


def test_grid_sum_modes():
    grid = g.grid_make([_mu3()])
    f = g.parse_poly("x1^2", 1, F7)
    assert g.grid_sum(f, grid, mode="weighted") == F7.one
    assert g.grid_sum(g.MultiPoly.zero(F7, 1), grid) == F7.zero
    with pytest.raises(ValueError) as info:
        g.grid_sum(f, grid, mode="twisted")
    assert isinstance(info.value, g.GridNullError)


_SUM_FIELDS = [
    Q, F7, F13, F9, g.ExtensionField(2, 4), F27, g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1"),
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_SUM_FIELDS),
    st.integers(1, 3),
    st.sampled_from(["zero", "constant", "terms"]),
    st.integers(0, 10**9),
)
def test_grid_sum_matches_the_fold_of_one_entry_columns(ctx, n, shape, seed):
    """The direct sum against the trie fold it replaced, and against one
    evaluation per point: each axis draws its exponents from a pool of two,
    so terms repeat them, and a pool may pass q."""
    rng = make_rng(seed)
    grid = g.grid_make([random_set(rng, ctx, rng.randint(1, 4)) for _ in range(n)])
    top = 12 if ctx.kind == "rationals" else 2 * ctx.cardinality + 2
    pools = [[rng.randint(0, 4), rng.randint(0, top)] for _ in range(n)]
    if shape == "zero":
        f = g.MultiPoly.zero(ctx, n)
    elif shape == "constant":
        f = g.MultiPoly(ctx, n, [((0,) * n, random_element(rng, ctx))])
    else:
        terms = [(tuple(map(rng.choice, pools)), random_element(rng, ctx)) for _ in range(5)]
        f = g.MultiPoly(ctx, n, terms)
    sums = {"plain": g.FiniteSet.column_sum, "weighted": g.FiniteSet.sylvester_sum}
    for mode, column in sums.items():
        folded = next(_fold(f, grid, lambda A, k: [column(A, k).value]))[0]
        assert g.grid_sum(f, grid, mode) == ctx._wrap(folded)
        if grid.size <= 16:
            assert g.grid_sum(f, grid, mode) == grid_sum_bruteforce(f, grid, mode)


def test_grid_values_stream_one_row_per_first_axis_entry():
    f = g.parse_poly("x1^2*x2 + x2 + 3", 2, F7)
    A, B = _mu3(), g.FiniteSet(F7, [0, 1, 2, 5])
    grid = g.grid_make([A, B])
    values = _grid_values(f, grid)
    assert iter(values) is values
    assert list(values) == [f.evaluate(a) for a in grid.points()]
    rows = _fold(f, grid, lambda S, k: [(a**k).value for a in S])
    assert [len(row) for row in rows] == [len(B)] * len(A)


def test_fold_builds_each_column_once(monkeypatch):
    """One column per (axis, exponent): x2^2 sits under three exponents of x1.

    A power column is built by one value-kernel power per element, so the
    count of F7._vpow calls pins the builds."""
    f = g.parse_poly("x1*x2^2 + x1^2*x2^2 + x1^3*x2^2", 2, F7)
    A, B = _mu3(), g.FiniteSet(F7, [0, 1, 2, 5])
    grid = g.grid_make([A, B])
    counts = {"pow": 0, "sum": 0}
    pow_, sum_ = F7._vpow, g.FiniteSet._sum

    def counted_pow(x, k):
        counts["pow"] += 1
        return pow_(x, k)

    def counted_sum(self, k, weighted):
        counts["sum"] += 1
        return sum_(self, k, weighted)

    monkeypatch.setattr(F7, "_vpow", counted_pow)
    monkeypatch.setattr(g.FiniteSet, "_sum", counted_sum)
    values = list(_grid_values(f, grid))
    assert counts["pow"] == 3 * len(A) + len(B)
    assert values == [f.evaluate(a) for a in grid.points()]
    assert g.grid_sum(f, grid, "weighted") == grid_sum_bruteforce(f, grid, "weighted")
    assert counts["sum"] == 4


def test_plain_grid_sum_asks_each_column_sum_once(monkeypatch):
    """The plain twin of the count above: four (axis, exponent) pairs, four asks."""
    f = g.parse_poly("x1*x2^2 + x1^2*x2^2 + x1^3*x2^2", 2, F7)
    grid = g.grid_make([_mu3(), g.FiniteSet(F7, [0, 1, 2, 5])])
    asked, sum_ = [], g.FiniteSet._sum

    def counted_sum(self, k, weighted):
        asked.append(k)
        return sum_(self, k, weighted)

    monkeypatch.setattr(g.FiniteSet, "_sum", counted_sum)
    assert g.grid_sum(f, grid) == grid_sum_bruteforce(f, grid)
    assert sorted(asked) == [1, 2, 2, 3]


def test_repeated_engine_calls_reuse_the_set_caches(monkeypatch):
    """A second call on the same grid reads every column and sum from its sets."""
    grid = g.grid_make([_mu3(), g.multiplicative_coset(F7, 3, 3)])
    f = g.parse_poly("x1^5*x2^4 + 3*x1^2*x2^2 + x2^7 + 2*x1 + 1", 2, F7)
    low = g.parse_poly("x1^2 + 3*x1*x2 + 5", 2, F7)
    values = _points_values(low, grid)
    counts = {"pow": 0, "weight_at": 0}
    pow_, weight_at = F7._vpow, g.FiniteSet.weight_at

    def counted_pow(x, k):
        counts["pow"] += 1
        return pow_(x, k)

    def counted_weight_at(self, a):
        counts["weight_at"] += 1
        return weight_at(self, a)

    monkeypatch.setattr(F7, "_vpow", counted_pow)
    monkeypatch.setattr(g.FiniteSet, "weight_at", counted_weight_at)
    calls = (
        lambda: g.grid_sum(f, grid, "weighted"),
        lambda: g.cct_coefficient(f, grid),
        lambda: g.interpolate(grid, values, 2),
    )
    first = [call() for call in calls]
    assert counts["pow"] > 0
    counts.update(pow=0, weight_at=0)
    assert [call() for call in calls] == first
    assert counts == {"pow": 0, "weight_at": 0}
    monkeypatch.undo()
    assert first[0] == grid_sum_bruteforce(f, grid, "weighted")
    assert first[2] == low


def test_punctured_check_on_cube_root_grid():
    grid = g.grid_make([_mu3(), _mu3()])
    report = g.punctured_check(g.parse_poly("x1 + x2", 2, F7), grid)
    assert report.verdict
    assert report.details["nonzero_count"] == 9
    report = g.punctured_check(g.MultiPoly.constant(F7, 2, F7.one), grid)
    assert report.verdict
    assert report.counterexamples == ()


def test_punctured_check_preconditions():
    grid = g.grid_make([_mu3(), _mu3()])
    with pytest.raises(g.PreconditionViolated):
        g.punctured_check(g.parse_poly("x1^2*x2^2", 2, F7), grid)
    with pytest.raises(g.PreconditionViolated):
        g.punctured_check(g.parse_poly("x1^4*x2^3", 2, F7), grid)


def test_cauchy_davenport_examples():
    mu3 = _mu3()
    report = g.cauchy_davenport(mu3, mu3)
    assert report.verdict
    assert report.details["size_sum"] == 6
    assert report.details["lambda_sum"] == 5
    assert report.details["structured"]
    assert not report.details["large"]
    assert report.details["sumset"] == "{1, 2, 3, 4, 5, 6}"
    zero = g.FiniteSet(F7, [0])
    assert g.cauchy_davenport(zero, zero).verdict
    small = g.cauchy_davenport(g.FiniteSet(F7, [0, 1]), g.FiniteSet(F7, [0, 3]))
    assert small.verdict
    assert small.details["large"]


def test_cauchy_davenport_errors():
    with pytest.raises(g.NotPrimeField):
        g.cauchy_davenport(g.FiniteSet(F9, [0, 1]), g.FiniteSet(F9, [0, 1]))
    with pytest.raises(g.MixedFields):
        g.cauchy_davenport(g.FiniteSet(F5, [0, 1]), g.FiniteSet(F7, [0, 1]))


def test_cauchy_davenport_random_instances():
    rng = make_rng(5)
    pool5 = list(F5.elements())
    pool7 = list(F7.elements())
    for _ in range(100):
        ctx, pool = rng.choice([(F5, pool5), (F7, pool7)])
        A = g.FiniteSet(ctx, rng.sample(pool, rng.randint(1, len(pool))))
        B = g.FiniteSet(ctx, rng.sample(pool, rng.randint(1, len(pool))))
        assert g.cauchy_davenport(A, B).verdict


def test_plane_grid_count():
    grid = g.parse_grid("mul(3) x mul(3) x mul(2)", F7)
    report = g.plane_grid_count((1, 0, 0), grid)
    assert report.verdict
    assert report.details["count"] == 0
    assert report.details["pp"]
    assert report.details["ppp"]
    assert report.details["plane"] == ["1", "0", "0"]
    diag = g.plane_grid_count((1, 6, 0), grid)
    assert diag.details["count"] == 6
    assert diag.details["pp"]
    assert not diag.details["ppp"]


def test_plane_grid_count_errors():
    grid = g.parse_grid("mul(3) x mul(3)", F7)
    with pytest.raises(g.ZeroVector):
        g.plane_grid_count((0, 0), grid)
    with pytest.raises(g.DimensionMismatch):
        g.plane_grid_count((1,), grid)
    rational = g.grid_make([g.FiniteSet(Q, [0, 1])])
    with pytest.raises(g.InfiniteField):
        g.plane_grid_count((1,), rational)


def test_plane_scan_structured_grid_passes():
    grid = g.parse_grid("mul(3) x mul(3) x mul(2)", F7)
    report = g.plane_scan(grid, mode="pp")
    assert report.verdict
    assert report.instances == 57
    assert report.details["pp_structured"]
    assert report.counterexamples == ()


def test_plane_scan_unstructured_grid_fails():
    grid = g.grid_make([g.FiniteSet(F7, [1, 2])] * 2)
    report = g.plane_scan(grid, mode="pp")
    assert not report.verdict
    assert report.instances == 8
    assert {"plane": ["1", "3"], "count": 1} in report.counterexamples
    assert not report.details["pp_large"]
    assert not report.details["pp_structured"]


def test_plane_scan_mode_validation():
    grid = g.grid_make([g.FiniteSet(F7, [1, 2])] * 2)
    with pytest.raises(ValueError) as info:
        g.plane_scan(grid, mode="qq")
    assert isinstance(info.value, g.GridNullError)


def test_weighted_sum_matches_cct_on_random_mul_grids():
    rng = make_rng(11)
    for _ in range(40):
        grid = random_mul_grid(rng, F7)
        f, _ = random_cct_instance(rng)
        if f.n != grid.n or f.ctx != F7:
            continue
        assert g.grid_sum(f, grid, mode="weighted") == g.cct_coefficient(f, grid).weighted_sum


def test_cct_overflow_instances_expose_mismatch():
    rng = make_rng(99)
    mismatches = 0
    for _ in range(80):
        f, grid = random_cct_overflow_instance(rng)
        report = g.cct_coefficient(f, grid)
        assert not report.degree_bound_ok
        if report.weighted_sum != report.direct_coefficient:
            mismatches += 1
    assert mismatches > 0
