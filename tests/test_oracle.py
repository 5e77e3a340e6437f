"""Brute-force cross-checks and exhaustive small scans."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import gridnull as g
from gridnull import scans
from gridnull.field import _TABLE_CAP, FiniteField, _unit_of_order
from gridnull.oracle import (
    additive_subgroups_bruteforce,
    char_poly_bruteforce,
    grid_sum_bruteforce,
    grid_values_bruteforce,
    interpolate_bruteforce,
    plane_count_bruteforce,
)
from gridnull import theorems
from gridnull.scans import _field_for_order, _mask_set, _rotation_sumset, _subset_nullities
from gridnull.theorems import _canonical_planes, _grid_values, _zero_scan
from support import (
    F4,
    F5,
    F7,
    F8,
    F9,
    F27,
    Q,
    make_rng,
    nonzero_element,
    random_element,
    random_multipoly,
    random_rational_set,
    random_set,
    random_structured_factor,
    zero_sum_rational_set,
)


def test_moments_bruteforce_values():
    a = g.FiniteSet(Q, [1, 2, 3])
    table = g.moments_bruteforce(a, 4)
    assert table.e == (Fraction(1), Fraction(6), Fraction(11), Fraction(6), Fraction(0))
    assert table.h == (Fraction(1), Fraction(6), Fraction(25), Fraction(90), Fraction(301))
    assert table.p == (Fraction(3), Fraction(6), Fraction(14), Fraction(36), Fraction(98))


def test_moments_bruteforce_matches_fast_path():
    rng = make_rng(3)
    for _ in range(25):
        ctx = rng.choice([Q, F7, F9])
        size = rng.randint(1, 6)
        a = random_rational_set(rng, size) if ctx.kind == "rationals" else random_set(rng, ctx, size)
        R = rng.randint(0, 2 * size)
        assert g.moments_bruteforce(a, R) == a.moments(R)


def test_moments_bruteforce_size_bounds():
    big = g.FiniteSet(Q, list(range(9)))
    with pytest.raises(g.SizeBoundExceeded):
        g.moments_bruteforce(big, 2)
    small = g.FiniteSet(Q, [1, 2])
    with pytest.raises(g.SizeBoundExceeded):
        g.moments_bruteforce(small, 17)
    tight = g.OracleConfig(max_set_size=1)
    with pytest.raises(g.SizeBoundExceeded):
        g.moments_bruteforce(small, 2, tight)


def test_sylvester_rhs_bruteforce_values():
    a = g.FiniteSet(Q, [1, 2, 3])
    assert g.sylvester_rhs_bruteforce(a, 0) == Fraction(0)
    assert g.sylvester_rhs_bruteforce(a, 2) == Fraction(1)
    assert g.sylvester_rhs_bruteforce(a, 3) == Fraction(6)


def test_sylvester_rhs_matches_direct_sum():
    rng = make_rng(8)
    for _ in range(30):
        ctx = rng.choice([Q, F7])
        size = rng.randint(1, 6)
        a = random_rational_set(rng, size) if ctx.kind == "rationals" else random_set(rng, ctx, size)
        for d in range(0, 2 * size + 1):
            assert a.sylvester_sum(d) == g.sylvester_rhs_bruteforce(a, d)


def test_exp_series_check():
    assert g.exp_series_check(g.FiniteSet(Q, [1, 2, 3]), 8)
    assert g.exp_series_check(g.FiniteSet(Q, [0, 1]), 6)
    with pytest.raises(g.FieldNotRationals):
        g.exp_series_check(g.FiniteSet(F7, [1, 2]), 4)
    with pytest.raises(g.PreconditionViolated):
        g.exp_series_check(g.FiniteSet(Q, [5]), 4)
    with pytest.raises(g.SizeBoundExceeded):
        g.exp_series_check(g.FiniteSet(Q, [1, 2]), 13)


def test_redei_scan_small_field():
    report = g.redei_scan(5)
    assert report.verdict
    assert report.instances == 31
    assert report.details["lambda"] == 2
    assert report.details["qualifying"] == ["{1, 2, 3, 4}", "{0, 1, 2, 3, 4}"]
    assert report.counterexamples == ()


def test_redei_scan_prime_power():
    report = g.redei_scan(9)
    assert report.verdict
    assert report.instances == 511
    units = "1, 2, t, t+1, t+2, 2*t, 2*t+1, 2*t+2"
    assert report.details["qualifying"] == ["{" + units + "}", "{0, " + units + "}"]


def test_redei_scan_q7_qualifying_order():
    report = g.redei_scan(7)
    assert report.instances == 127
    assert report.details["qualifying"] == [
        "{1, 2, 3, 4, 5, 6}",
        "{0, 1, 2, 3, 4, 5, 6}",
    ]


def test_redei_scan_rejections():
    with pytest.raises(g.EvenQ):
        g.redei_scan(4)
    with pytest.raises(g.PreconditionViolated):
        g.redei_scan(3)
    with pytest.raises(g.ScanTooLarge):
        g.redei_scan(15)
    # 15 is no field order; 17 pins the cap on a scan a config could run
    with pytest.raises(g.ScanTooLarge):
        g.redei_scan(17)


def test_scd_scan():
    assert g.scd_scan(2).instances == 9
    report = g.scd_scan(3)
    assert report.verdict
    assert report.instances == 49
    assert report.details["pairs"] == 49
    with pytest.raises(g.NotPrimeField):
        g.scd_scan(4)
    with pytest.raises(g.ScanTooLarge, match="4190209 subset pairs"):
        g.scd_scan(11)
    # the pair count is weighed against 2^(max_subset_scan_q + 1)
    with pytest.raises(g.ScanTooLarge, match="16129 subset pairs exceed the scan bound 2"):
        g.scd_scan(7, g.OracleConfig(max_subset_scan_q=12))
    assert g.scd_scan(5, g.OracleConfig(max_subset_scan_q=9)).instances == 961
    # the cap is read before anything 2^p-sized is built
    with pytest.raises(g.ScanTooLarge, match=r"\(2\^1000000007 - 1\)\^2 subset pairs"):
        g.scd_scan(1000000007)


def _necklace_walk(ctx):
    """{mask: nullity} for the nonempty subsets of F_q, one nullity per necklace.

    With units[i] = g^i for a primitive g, dilation by g rotates a word over
    the units and keeps the nullity, as e_r(cA) = c^r e_r(A).  So each
    necklace's least rotation is rebuilt from its roots, with and without 0,
    and its nullity stands for every rotation.
    """
    gen = ctx._wrap(_unit_of_order(ctx, ctx.cardinality - 1))
    units = [gen**i for i in range(ctx.cardinality - 1)]
    assert len(set(units)) == len(units) and ctx.zero not in units
    n, full, zero = len(units), (1 << len(units)) - 1, 1 << ctx.zero.value
    walk = {}
    for word in range(1 << n):
        rotations = {(word << s | word >> n - s) & full for s in range(n)}
        if word != min(rotations):
            continue
        masks = [sum(1 << x.value for i, x in enumerate(units) if w >> i & 1) for w in rotations]
        for extra in (0, zero) if word else (zero,):
            null = _mask_set(ctx, masks[0] | extra).nullity
            walk.update((mask | extra, null) for mask in masks)
    assert len(walk) == 2 ** ctx.cardinality - 1
    return walk


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_necklace_walk_matches_subset_walk(q):
    ctx = _field_for_order(q)
    assert _necklace_walk(ctx) == dict(_subset_nullities(ctx, ctx.elements()))


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19])
def test_kernel_route_matches_necklace_walk(q):
    ctx, lam = _field_for_order(q), (q - 1) // 2
    masks = scans._kernel_masks(ctx, lam)
    walk = _necklace_walk(ctx)
    assert sorted(masks) == sorted(mask for mask, null in walk.items() if null >= lam)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17])
def test_kernel_route_matches_subset_walk(q):
    ctx, lam = _field_for_order(q), (q - 1) // 2
    masks = scans._kernel_masks(ctx, lam)
    assert len(set(masks)) == len(masks)
    walk = _subset_nullities(ctx, ctx.elements())
    assert sorted(masks) == sorted(mask for mask, null in walk if null >= lam)


def _leading_zero_power_sums(F, subset, top):
    """How many of p_1, ..., p_top vanish on the subset before the first that does not."""
    k = 1
    while k <= top and sum((x**k for x in subset), F.zero).is_zero:
        k += 1
    return k - 1


# r runs to q - 1, past p over F4, F8, F9 and F16; the reference's walk over
# the 2^15 unit subsets of F16 costs under a second, and the kernel far less
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_power_sum_kernel_is_every_subset_with_vanishing_power_sums(q):
    F = _field_for_order(q)
    units = [x for x in F.elements() if not x.is_zero]
    lead = {}
    for size in range(q):
        for subset in itertools.combinations(units, size):
            lead[sum(1 << x.value for x in subset)] = _leading_zero_power_sums(F, subset, q - 1)
    assert len(lead) == 2 ** (q - 1)
    for r in range(1, q):
        kernel = list(scans._power_sum_kernel(F, r))
        assert len(set(kernel)) == len(kernel)
        assert sorted(kernel) == sorted(mask for mask, k in lead.items() if k >= r)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_redei_scan_confirms_kernel_sets_from_roots(monkeypatch, q):
    # {1, 2} has nullity 0, or 1 over F9: a kernel that also yields it must
    # not be trusted
    kernel = scans._power_sum_kernel
    expected = g.redei_scan(q)
    monkeypatch.setattr(scans, "_power_sum_kernel", lambda ctx, r: [*kernel(ctx, r), 0b110])
    assert g.redei_scan(q) == expected
    ctx = _field_for_order(q)
    units = [x for x in ctx.elements() if not x.is_zero]
    assert expected.details["qualifying"] == [
        repr(g.FiniteSet(ctx, units)),
        repr(g.FiniteSet(ctx, ctx.elements())),
    ]


@pytest.mark.parametrize("q", [7, 9])
def test_redei_scan_reports_what_a_wrong_kernel_loses(monkeypatch, q):
    # a kernel of the empty set alone loses F_q^* and F_q, and adds nothing
    monkeypatch.setattr(scans, "_power_sum_kernel", lambda ctx, r: [0])
    report = g.redei_scan(q)
    assert not report.verdict
    assert report.details["qualifying"] == []
    ctx = _field_for_order(q)
    units = [x for x in ctx.elements() if not x.is_zero]
    assert report.counterexamples == (
        {"set": repr(g.FiniteSet(ctx, ctx.elements())), "problem": "missing"},
        {"set": repr(g.FiniteSet(ctx, units)), "problem": "missing"},
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rotation_sumset_is_the_sumset(p):
    full = (1 << p) - 1
    for a_mask in range(1, full + 1):
        a = [x for x in range(p) if a_mask >> x & 1]
        for b_mask in range(1, full + 1):
            c_mask = sum({1 << (x + y) % p for x in a for y in range(p) if b_mask >> y & 1})
            assert _rotation_sumset(p, a_mask, b_mask) == c_mask


def _only_trivial(null_of, a_mask, b_mask, c_mask):
    return min(null_of[a_mask], null_of[b_mask]) == 0


def _trivial_or_odd_sumset(null_of, a_mask, b_mask, c_mask):
    return _only_trivial(null_of, a_mask, b_mask, c_mask) or c_mask.bit_count() % 2 == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("holds", [scans._dichotomy_holds, _only_trivial, _trivial_or_odd_sumset])
def test_scd_prune_matches_the_full_loop(monkeypatch, p, holds):
    # each predicate holds when min(N(A), N(B)) = 0, as the dichotomy does, so
    # the scan over masks of positive nullity must list what the loop over all
    # pairs lists, in order; under _only_trivial that is every pair it checks
    full = (1 << p) - 1
    null_of = dict(_subset_nullities(g.PrimeField(p), g.PrimeField(p).elements()))
    loop = []
    for a_mask in range(1, full + 1):
        for b_mask in range(1, full + 1):
            c_mask = _rotation_sumset(p, a_mask, b_mask)
            if _only_trivial(null_of, a_mask, b_mask, c_mask):
                assert scans._dichotomy_holds(null_of, a_mask, b_mask, c_mask)
            if not holds(null_of, a_mask, b_mask, c_mask):
                loop.append({"a_mask": a_mask, "b_mask": b_mask, "sum_mask": c_mask})
    monkeypatch.setattr(scans, "_dichotomy_holds", holds)
    report = g.scd_scan(p)
    assert report.instances == full * full
    assert list(report.counterexamples) == loop
    assert report.verdict == (not loop)


def test_ore_form_check():
    t = F9.generator
    assert g.ore_form_check(F9, [t])
    assert g.ore_form_check(F9, [t], shift=F9.one)
    assert g.ore_form_check(F8, [F8.one, F8.generator])
    with pytest.raises(g.CharacteristicZero):
        g.ore_form_check(Q, [1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_power_degrees_are_the_binomial_zeros(p):
    """Lucas' theorem, which lets ore_form_check's support test stand for the
    binomial relations C(n-r, k-r) e_r = 0 on the elementary moments: a
    degree k is 0 or a power of p exactly when p divides C(k, j) for every
    0 < j < k.  k <= 256 covers every |V| the scans and the tests reach."""
    powers = {p**i for i in range(9)}
    for k in range(257):
        binomial_zero = all(math.comb(k, j) % p == 0 for j in range(1, k))
        assert (k == 0 or k in powers) == binomial_zero, k


def test_enumerate_additive_subgroups():
    F4 = g.parse_field("F2^2")
    t = F4.generator
    assert g.enumerate_additive_subgroups(F4) == [
        (),
        (F4.one,),
        (t,),
        (t + 1,),
        (F4.one, t),
    ]
    assert len(g.enumerate_additive_subgroups(F9)) == 6
    with pytest.raises(g.CharacteristicZero):
        g.enumerate_additive_subgroups(Q)


def test_enumerate_additive_subgroups_is_bounded_before_it_starts(monkeypatch):
    # 2,451 elements over all subgroups: inside the default 2^13; the list
    # itself is checked in test_subgroup_enumeration_beyond_the_default_budget
    f32 = g.parse_field("F2^5/1,0,1,0,0,1")
    assert len(g.enumerate_additive_subgroups(f32)) == 374
    f64 = g.parse_field("F2^6/1,1,0,0,0,0,1")
    refusal = r"^26387 elements over all subgroups exceed the scan bound 2\^13$"
    with pytest.raises(g.ScanTooLarge, match=refusal):
        g.enumerate_additive_subgroups(f64)
    f16 = g.parse_field("F2^4")
    assert len(g.enumerate_additive_subgroups(f16)) == 67
    refusal = r"^307 elements over all subgroups exceed the scan bound 2\^8$"
    with pytest.raises(g.ScanTooLarge, match=refusal):
        g.enumerate_additive_subgroups(f16, g.OracleConfig(max_subset_scan_q=8))
    f8179 = g.parse_field("F8179^2")

    def elements_built(self):
        raise AssertionError("the subgroup scan built the field's elements")

    monkeypatch.setattr(FiniteField, "elements", elements_built)
    with pytest.raises(g.ScanTooLarge, match="^133800262 elements over all subgroups"):
        g.enumerate_additive_subgroups(f8179)


@pytest.mark.parametrize(
    "spec",
    ["F2", "F3", "F7", "F2^2", "F2^3", "F3^2", "F2^4", "F2^4/1,1,0,0,1", "F5^2", "F3^3"],
)
def test_subgroup_enumeration_matches_subset_scan(spec):
    ctx = g.parse_field(spec)
    assert g.enumerate_additive_subgroups(ctx) == additive_subgroups_bruteforce(ctx)


def _span(ctx, gens):
    span = [ctx.zero]
    for gen in gens:
        span = [s + ctx.element(c) * gen for c in range(ctx.characteristic) for s in span]
    return span


def _greedy_basis(ctx, members):
    """Each next generator is the smallest element not yet in the span."""
    basis, inside = [], {ctx.zero}
    for x in sorted(members, key=lambda x: x.value):
        if x not in inside:
            basis.append(x)
            inside = set(_span(ctx, basis))
    return tuple(basis)


def _gaussian_binomial(e, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (e - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "spec, count",
    [("F7^2", 10), ("F3^4", 212), ("F2^5/1,0,1,0,0,1", 374), ("F2^6/1,1,0,0,0,0,1", 2825)],
)
def test_subgroup_enumeration_beyond_the_default_budget(spec, count):
    ctx = g.parse_field(spec)
    groups = g.enumerate_additive_subgroups(ctx, g.OracleConfig(max_subset_scan_q=27))
    p, e = ctx.characteristic, ctx.e
    assert len(groups) == count == sum(_gaussian_binomial(e, k, p) for k in range(e + 1))
    # in the order of additive_subgroups_bruteforce: by size, then by indices
    assert groups == sorted(groups, key=lambda gens: (len(gens), [x.value for x in gens]))
    # the budget counts the elements of the subgroups it returns
    with pytest.raises(g.ScanTooLarge) as refused:
        g.enumerate_additive_subgroups(ctx, g.OracleConfig(max_subset_scan_q=1))
    estimate = int(str(refused.value).split()[0])
    assert estimate == sum(p ** len(gens) for gens in groups)
    # the reference spans every generator subset: 206,368 on F2^5, 1.6M on F3^4
    if ctx.cardinality <= 49:
        assert groups == additive_subgroups_bruteforce(ctx)
    spans = set()
    for gens in groups:
        span = frozenset(_span(ctx, gens))
        assert len(span) == p ** len(gens)
        assert _greedy_basis(ctx, span) == gens
        spans.add(span)
    assert len(spans) == count


def _bruteforce_nullity(ctx, subset):
    """Zero coefficients just below the top of prod (X - a) by element operators."""
    top_first = char_poly_bruteforce(ctx, subset).coeffs[::-1]
    return next((r for r in range(1, len(top_first)) if not top_first[r].is_zero), len(top_first)) - 1


def _check_walk(ctx, elements):
    # for each bound, the walk gives every subset of at most that many
    # elements once, in lexicographic order of the index sequences; the walk
    # and FiniteSet share the root-factor kernel, so the expected nullity
    # comes from the element-operator reference
    n, null_of = len(elements), {}
    for most in range(n + 2):
        walk = list(_subset_nullities(ctx, elements, most))
        sequences = [tuple(i for i in range(n) if mask >> i & 1) for mask, _ in walk]
        sizes = range(1, most + 1)
        assert sequences == sorted(c for k in sizes for c in itertools.combinations(range(n), k))
        for mask, null in walk:
            if mask not in null_of:
                subset = [x for i, x in enumerate(elements) if mask >> i & 1]
                null_of[mask] = _bruteforce_nullity(ctx, subset)
            assert null == null_of[mask]
    assert list(_subset_nullities(ctx, elements)) == walk


@pytest.mark.parametrize("ctx", [F4, F5, F7, F8, F9])
def test_subset_walk_matches_set_nullity(ctx):
    _check_walk(ctx, ctx.elements())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F4, F5, F7, F8, F9]).flatmap(
    lambda ctx: st.tuples(st.just(ctx), st.permutations(ctx.elements()), st.integers(1, 9))
))
def test_subset_walk_in_any_element_order(case):
    ctx, order, size = case
    _check_walk(ctx, order[:size])


def test_bounded_walk_holds_only_its_path():
    # a level-by-level walk would hold all 41,664 3-subsets of the 64
    # elements at once, about 8 MB; the depth-first walk holds one path
    ctx = g.parse_field("F2^6/1,1,0,0,0,0,1")
    elements = ctx.elements()
    tracemalloc.start()
    try:
        count = sum(1 for _ in _subset_nullities(ctx, elements, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 64 + 2016 + 41664
    assert peak < 1 << 20


def test_ore_form_holds_for_every_subgroup_of_f9():
    for gens in g.enumerate_additive_subgroups(F9):
        assert g.ore_form_check(F9, gens)
        assert g.ore_form_check(F9, gens, shift=F9.generator)


def _ore_shifts(ctx, V):
    """None, a shift inside V and, unless V is the field, one outside it."""
    inside = next((x for x in V if not x.is_zero), ctx.zero)
    outside = [x for x in ctx.elements() if x not in V][:1]
    return [None, inside, *outside]


@pytest.mark.parametrize("spec", ["F2^2", "F2^3", "F3^2", "F2^4", "F5^2", "F3^3"])
def test_ore_form_check_against_every_translate(spec):
    """Reference: every c in V fixes the char poly of c + A, and every c in the
    field, not only the one translate checked, keeps its coefficients of X ... X^n."""
    ctx = g.parse_field(spec)
    for gens in g.enumerate_additive_subgroups(ctx):
        V = g.additive_coset(ctx, gens)
        for shift in _ore_shifts(ctx, V):
            A = g.additive_coset(ctx, gens, shift)
            for c in ctx.elements():
                translated = g.FiniteSet(ctx, [c + a for a in A]).char_poly
                if c in V:
                    assert translated == A.char_poly
                assert translated.coeffs[1:] == A.char_poly.coeffs[1:]
            assert g.ore_form_check(ctx, list(gens), shift)


def test_ore_form_check_builds_one_translate_outside_v(monkeypatch):
    calls = []
    root_values = scans._root_values

    def counted(ctx, roots):
        calls.append(list(roots))
        return root_values(ctx, roots)

    monkeypatch.setattr(scans, "_root_values", counted)
    subgroups = g.enumerate_additive_subgroups(F27)
    for gens, size in ((subgroups[-1], 27), (subgroups[-2], 9)):  # F27 and a plane
        V = g.additive_coset(F27, gens)
        shifts = _ore_shifts(F27, V)
        assert len(shifts) == (2 if size == 27 else 3)
        for shift in shifts:
            calls.clear()
            assert g.ore_form_check(F27, list(gens), shift)
            # A, and one translate by an element outside V unless V is the field
            assert len(calls) == (1 if size == 27 else 2)
            assert calls[0] == [x.value for x in g.additive_coset(F27, gens, shift)]
            assert all(len(set(roots)) == len(roots) == size for roots in calls)
            assert set(calls[-1]) != set(calls[0]) or size == 27


def _ore_by_elements(ctx, gens, shift):
    """ore_form_check rebuilt on element operators: the span in product order
    by c * g, each char poly by char_poly_bruteforce, the basis as powers of
    the generator and the product of the units by math.prod.  Returns the
    coset's elements and the verdict."""
    p = ctx.characteristic
    A = [ctx.zero if shift is None else ctx.element(shift)]
    for gen in gens:
        A = list(dict.fromkeys(s + ctx.element(c) * gen for s in A for c in range(p)))
    n, cp = len(A), char_poly_bruteforce(ctx, A).coeffs
    support = {k for k, c in enumerate(cp) if not c.is_zero}
    if not support <= {0} | {p**i for i in range(n.bit_length())}:
        return A, False
    basis = [ctx.generator**i for i in range(ctx.e)]
    c = next((b for b in basis if b + A[0] not in A), None)
    if c is not None and char_poly_bruteforce(ctx, [c + a for a in A]).coeffs[1:] != cp[1:]:
        return A, False
    units = [a for a in A if not a.is_zero]
    return A, len(units) == n or cp[1] == math.prod(units, start=ctx.one)


_ORE_FIELDS = [F4, F8, F9, g.parse_field("F2^4"), g.parse_field("F5^2"), F27]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ORE_FIELDS), st.data())
def test_ore_form_check_matches_element_rebuild(ctx, data):
    """Random generator lists with repeats and sums of other generators, and
    shifts inside and outside the span."""
    element = st.integers(min_value=0, max_value=ctx.cardinality - 1).map(ctx.element)
    gens = data.draw(st.lists(element, max_size=3))
    if gens and data.draw(st.booleans()):
        gens.append(data.draw(st.sampled_from(gens)))
    if len(gens) >= 2 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(len(gens))))[:2]
        gens.insert(data.draw(st.integers(0, len(gens))), gens[i] + gens[j])
    V, _ = _ore_by_elements(ctx, gens, None)
    outside = [x for x in ctx.elements() if x not in V]
    where = data.draw(st.sampled_from(["none", "inside", "outside"]))
    if where == "inside" or not outside:
        shift = data.draw(st.sampled_from(V))
    else:
        shift = None if where == "none" else data.draw(st.sampled_from(outside))
    A, verdict = _ore_by_elements(ctx, gens, shift)
    assert [x.value for x in A] == scans._span_values(ctx, gens, shift)
    assert g.ore_form_check(ctx, gens, shift) == verdict


_ARITHMETIC_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "__pow__", "inv",
)
_ELEMENT_OPERATORS = (*_ARITHMETIC_OPERATORS, "__hash__")


@pytest.mark.parametrize("spec", ["F2^4", "F3^3"])
def test_ore_form_check_reaches_no_element_operator(monkeypatch, spec):
    """Every subgroup, as is and shifted inside and outside itself, checked
    with the element operators, element hashing, FiniteSet and UniPoly
    refused: the check spans, tests membership and multiplies on raw values."""
    ctx = g.parse_field(spec)
    cases = []
    for gens in g.enumerate_additive_subgroups(ctx):
        V = g.additive_coset(ctx, gens)
        cases += [(list(gens), shift) for shift in _ore_shifts(ctx, V)]

    def refuse(*args):
        raise AssertionError("an element operator was reached")

    for name in _ELEMENT_OPERATORS:
        monkeypatch.setattr(g.FieldElement, name, refuse)
    monkeypatch.setattr(g.FiniteSet, "__init__", refuse)
    monkeypatch.setattr(g.UniPoly, "from_roots", refuse)
    with pytest.raises(AssertionError, match="element operator"):
        ctx.one + ctx.one
    assert all(g.ore_form_check(ctx, gens, shift) for gens, shift in cases)


def test_coefficient_oracle_matches_accessor():
    rng = make_rng(21)
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    assert g.coefficient_oracle(f, (1, 1)) == F7.element(2)
    assert g.coefficient_oracle(f, (0, 0)) == F7.element(3)
    assert g.coefficient_oracle(f, (2, 2)) == F7.zero
    from support import random_multipoly

    for _ in range(40):
        h = random_multipoly(rng, F7, rng.randint(1, 3), 5)
        for m in list(h.terms)[:3]:
            assert g.coefficient_oracle(h, m) == h.coefficient(m)


def test_oracle_config_validation():
    with pytest.raises(g.PreconditionViolated):
        g.OracleConfig(max_set_size=0)
    with pytest.raises(g.PreconditionViolated):
        g.OracleConfig(max_degree=-3)
    cfg = g.OracleConfig()
    assert cfg.max_set_size == 8
    with pytest.raises(AttributeError):
        cfg.max_set_size = 3
    with pytest.raises(g.PreconditionViolated):
        cfg._replace(max_degree=0)


# One field or more per value-kernel kind: Fractions (Q), residues (F7, and
# F65537 above the table cap), odd-p tables (F9, F27), p = 2 tables (F16) and
# the fallback on the scalar kernels above the cap (F2^12).  Above the cap
# factors are small explicit sets, drawn without enumerating the field.
_KERNEL_FIELDS = [
    Q,
    F7,
    F9,
    F27,
    g.parse_field("F2^4"),
    g.PrimeField(65537),
    g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1"),
]
_FINITE_KERNEL_FIELDS = _KERNEL_FIELDS[1:]


def _kernel_instance(rng, ctx):
    """A grid of 1 to 3 factors of size 1 to 4 and a polynomial with 0 to 5
    terms whose exponents reach past the factor sizes."""
    grid = g.grid_make(
        [random_set(rng, ctx, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    )
    terms = [
        (
            tuple(rng.choice([0, 0, rng.randint(1, s + 2), 2 * s + 3]) for s in grid.sizes),
            random_element(rng, ctx),
        )
        for _ in range(rng.randint(0, 5))
    ]
    if rng.random() < 0.3:
        terms.append(((0,) * grid.n, nonzero_element(rng, ctx)))
    return g.MultiPoly(ctx, grid.n, terms), grid


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_KERNEL_FIELDS), st.integers(min_value=0, max_value=10**9))
def test_grid_engines_match_pointwise_evaluation(ctx, seed):
    f, grid = _kernel_instance(make_rng(seed), ctx)
    values = grid_values_bruteforce(f, grid)
    assert list(_grid_values(f, grid)) == values
    points = list(grid.points())
    nonzero = [a for a, v in zip(points, values) if not v.is_zero]
    report = g.gcn_check(f, grid)
    assert report.zero_count == grid.size - len(nonzero)
    assert report.witness == (nonzero[0] if nonzero else None)
    plain = grid_sum_bruteforce(f, grid)
    weighted = grid_sum_bruteforce(f, grid, "weighted")
    assert plain == sum(values, ctx.zero)
    assert g.grid_sum(f, grid) == plain
    assert g.grid_sum(f, grid, "weighted") == weighted
    assert g.cct_coefficient(f, grid).weighted_sum == weighted


# An integral rational is held as a plain int and any other as a Fraction, so
# integer points run the engines on ints and fractional points on both forms.
_Q_POINTS = [[-2, -1, 0, 1, 2], [Fraction(1, 2), Fraction(-1, 3), 3]]


def _fraction_value(f, point) -> Fraction:
    """f at a point by plain Fraction arithmetic on the coefficient values."""
    return sum(
        Fraction(c.value) * math.prod(Fraction(x.value) ** k for x, k in zip(point, m))
        for m, c in f.terms.items()
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_Q_POINTS), st.data())
def test_q_engines_match_references_on_integer_and_fractional_points(pool, data):
    factor = st.lists(st.sampled_from(pool), min_size=2, max_size=len(pool), unique=True)
    factors = data.draw(st.lists(factor, min_size=1, max_size=3))
    grid = g.grid_make([g.FiniteSet(Q, s) for s in factors])
    monomial = st.tuples(*(st.integers(0, s + 1) for s in grid.sizes))
    coeff = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=3)
    f = g.MultiPoly(Q, grid.n, data.draw(st.lists(st.tuples(monomial, coeff), max_size=5)))
    points = list(grid.points())
    values = grid_values_bruteforce(f, grid)
    assert values == [_fraction_value(f, a) for a in points]
    nonzero = [a for a, v in zip(points, values) if not v.is_zero]
    report = g.gcn_check(f, grid)
    assert report.witness == (nonzero[0] if nonzero else None)
    assert report.zero_count == grid.size - len(nonzero)
    plain = sum(Fraction(v.value) for v in values)
    assert g.grid_sum(f, grid) == grid_sum_bruteforce(f, grid) == plain
    assert g.grid_sum(f, grid, "weighted") == grid_sum_bruteforce(f, grid, "weighted")
    k = data.draw(st.tuples(*(st.integers(0, s - 1) for s in grid.sizes)))
    bound = sum(k) + grid.joint_nullity
    h = g.MultiPoly(Q, grid.n, {m: c for m, c in f.terms.items() if sum(m) <= bound})
    assert g.extract_coefficient(h, grid, k) == g.coefficient_oracle(h, k)
    table = dict(zip(points, values))
    for lam in range(grid.joint_nullity + 1):
        assert g.interpolate(grid, table, lam) == interpolate_bruteforce(grid, table, lam)


# Coefficients whose denominators have lcm 2 * 3 * 7 * 13 = 546, and Fraction
# elements: integral ones, which the set holds as ints, and two that are not.
_LCM_COEFFS = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(11, 13)]
_Q_FRACTIONS = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]


def _integral_q_grid(*factors):
    return g.grid_make([g.FiniteSet(Q, [Fraction(v) for v in A]) for A in factors])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([_Q_FRACTIONS[:5], _Q_FRACTIONS]), st.data())
def test_q_folds_over_one_denominator_match_pointwise_evaluation(pool, data):
    """The engines fold D f, D the lcm of the coefficients' denominators, and
    divide by D at the end.  A pair c x^m - c x^m' of equal coefficients
    cancels to exactly 0 wherever the two monomials agree, e.g. x^k and
    x^(k+2) at -1, 0 and 1."""
    factor = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    grid = g.grid_make([g.FiniteSet(Q, s) for s in data.draw(st.lists(factor, min_size=1, max_size=3))])
    monomial = st.tuples(*(st.integers(0, s + 1) for s in grid.sizes))
    coeff = st.builds(mul, st.sampled_from(_LCM_COEFFS), st.sampled_from([1, -1, 3, -4]))
    terms = data.draw(st.lists(st.tuples(monomial, coeff), max_size=5))
    for m, c in data.draw(st.lists(st.tuples(monomial, coeff), max_size=2)):
        i = data.draw(st.integers(0, grid.n - 1))
        terms += [(m, c), (m[:i] + (m[i] + 2,) + m[i + 1 :], -c)]
    f = g.MultiPoly(Q, grid.n, terms)
    points, values = list(grid.points()), grid_values_bruteforce(f, grid)
    fast = list(_grid_values(f, grid))
    assert fast == values
    if pool is not _Q_FRACTIONS:  # integral: ints, or Fractions that are not
        assert all(type(v.value) is int or v.value.denominator != 1 for v in fast)
    nonzero = [a for a, v in zip(points, values) if not v.is_zero]
    report = g.gcn_check(f, grid)
    assert report.zero_count == grid.size - len(nonzero)
    assert report.witness == (nonzero[0] if nonzero else None)
    top = tuple(s - 1 for s in grid.sizes)
    bound = sum(top) + grid.joint_nullity
    h = g.MultiPoly(Q, grid.n, {m: c for m, c in f.terms.items() if m != top and sum(m) <= bound})
    punctured = g.punctured_check(h, grid).details
    assert punctured["nonzero_count"] == sum(not v.is_zero for v in grid_values_bruteforce(h, grid))


def test_q_fold_cancels_to_exact_zeros():
    """(1/2)(x1^3 - x1) + (2/3)(x2^2 - x2) - (5/7)(x1^2 - x1^4) vanishes on
    {-1, 0, 1} x {0, 1}, and is 3 + 60/7 = 81/7 wherever x1 = 2."""
    f = g.parse_poly("1/2*x1^3 - 1/2*x1 + 2/3*x2^2 - 2/3*x2 - 5/7*x1^2 + 5/7*x1^4", 2, Q)
    grid = _integral_q_grid([-1, 0, 1], [0, 1])
    assert list(_grid_values(f, grid)) == grid_values_bruteforce(f, grid) == [0] * 6
    assert _zero_scan(f, grid) == (6, None)
    wide = _integral_q_grid([-1, 0, 1, 2], [0, 1])
    values = list(_grid_values(f, wide))
    assert values == grid_values_bruteforce(f, wide)
    assert values == [0] * 6 + [Fraction(81, 7)] * 2
    assert _zero_scan(f, wide) == (6, (Q.element(2), Q.element(0)))


def test_integral_q_grid_rows_hold_only_ints(monkeypatch):
    """On an integral Q grid the rows _zero_scan reads are ints alone, though
    every coefficient is a Fraction, one of them the integral 1/2 + 1/2."""
    f = g.parse_poly("1/2*x1^2*x2 - 2/3*x2^3 + 5/7*x1 + 11/13 + 1/2*x2 + 1/2*x2", 2, Q)
    grid = _integral_q_grid([-2, -1, 0, 1, 2], [-1, 0, 1])
    rows, fold = [], theorems._fold

    def recorded(*args):
        for row in fold(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(theorems, "_fold", recorded)
    report = g.gcn_check(f, grid)
    assert len(rows) == 5 and all(type(v) is int for row in rows for v in row)
    values = grid_values_bruteforce(f, grid)
    assert report.zero_count == values.count(Q.zero)


def _zero_scan_bruteforce(f, grid):
    """(zeros, first non-vanishing point) by a walk of grid.points()."""
    zeros, first = 0, None
    for a, v in zip(grid.points(), grid_values_bruteforce(f, grid)):
        if v.is_zero:
            zeros += 1
        elif first is None:
            first = a
    return zeros, first


def _vanishing_but_at(grid, point):
    """prod_i prod_(b in A_i, b != point_i) (x_i - b): nonzero at the point alone."""
    ctx, n = grid.ctx, grid.n
    f = g.MultiPoly.constant(ctx, n, 1)
    for i, (A, x) in enumerate(zip(grid.factors, point)):
        for b in A:
            if b != x:
                f = f * (g.MultiPoly.variable(ctx, n, i + 1) - b)
    return f


@pytest.mark.parametrize("ctx", _KERNEL_FIELDS, ids=str)
def test_zero_scan_by_rows_matches_a_walk_of_the_points(ctx):
    """Zeros counted per row and one witness from the flat index of the first
    nonzero entry give the walk's counts and its first nonzero point, in
    row-major order."""
    rng = make_rng(sum(map(ord, str(ctx))))
    cases = [_kernel_instance(rng, ctx) for _ in range(12)]
    one = g.grid_make([random_set(rng, ctx, 4)])
    cases += [(random_multipoly(rng, ctx, 1, 6), one) for _ in range(3)]
    grid = g.grid_make([random_set(rng, ctx, s) for s in (3, 2, 4)])
    points = list(grid.points())
    cases += [(g.MultiPoly.zero(ctx, 3), grid), (g.MultiPoly.zero(ctx, 1), one)]
    for point in (points[-1], points[0]):
        cases.append((_vanishing_but_at(grid, point), grid))
    for f, grid in cases:
        assert _zero_scan(f, grid) == _zero_scan_bruteforce(f, grid)
    assert _zero_scan(cases[-2][0], grid) == (grid.size - 1, points[-1])
    assert _zero_scan(cases[-1][0], grid) == (grid.size - 1, points[0])
    assert _zero_scan(g.MultiPoly.zero(ctx, 3), grid) == (grid.size, None)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True), st.integers(0, 12))
def test_q_oracles_take_int_values(elements, D):
    A = g.FiniteSet(Q, elements)
    assert all(type(a.value) is int for a in A)
    assert g.exp_series_check(A, D)
    assert g.moments_bruteforce(A, D) == A.moments(D)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KERNEL_FIELDS), st.integers(min_value=0, max_value=10**9))
def test_punctured_count_matches_pointwise_evaluation(ctx, seed):
    f, grid = _kernel_instance(make_rng(seed), ctx)
    top = tuple(s - 1 for s in grid.sizes)
    bound = sum(top) + grid.joint_nullity
    h = g.MultiPoly(
        ctx, grid.n, {m: c for m, c in f.terms.items() if m != top and sum(m) <= bound}
    )
    nonzero = sum(not v.is_zero for v in grid_values_bruteforce(h, grid))
    details = g.punctured_check(h, grid).details
    assert details["nonzero_count"] == nonzero
    assert details["zero_count"] == grid.size - nonzero


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_FINITE_KERNEL_FIELDS),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(["pp", "ppp"]),
)
def test_plane_counts_match_dot_products(ctx, seed, mode):
    rng = make_rng(seed)
    n = rng.randint(1, 3)
    grid = g.grid_make([random_set(rng, ctx, rng.randint(1, 4)) for _ in range(n)])
    c = [random_element(rng, ctx) for _ in range(n)]
    c[rng.randrange(n)] = nonzero_element(rng, ctx)
    if n > 1 and rng.random() < 0.5:  # zero first or last coordinate
        end = rng.choice([0, -1])
        c[end] = ctx.zero
        c[-1 - end] = nonzero_element(rng, ctx)
    count = plane_count_bruteforce(c, grid)
    assert g.plane_grid_count(c, grid).details["count"] == count
    if ctx.cardinality ** (n - 1) <= 81:
        p = ctx.characteristic
        bad = []
        for cv in _canonical_planes(ctx, n):
            k = plane_count_bruteforce(cv, grid)
            if not (k != 1 if mode == "pp" else k % p == 0):
                bad.append({"plane": [str(x) for x in cv], "count": k})
        report = g.plane_scan(grid, mode)
        assert report.counterexamples == tuple(bad)
        assert report.instances == (ctx.cardinality**n - 1) // (ctx.cardinality - 1)


def _interpolation_factor(rng, ctx):
    """A factor of size 2 to 4, often one with positive nullity."""
    size = rng.randint(2, 4)
    if ctx.kind == "rationals":
        return rng.choice([random_rational_set, zero_sum_rational_set])(rng, size)
    if ctx.kind == "extension" and rng.random() < 0.3:
        gens = [nonzero_element(rng, ctx) for _ in range(rng.randint(1, 2))]
        return g.additive_coset(ctx, gens, random_element(rng, ctx))
    if ctx.cardinality > _TABLE_CAP:
        if ctx.kind == "prime" and rng.random() < 0.4:  # {a, -a}: nullity 1
            a = nonzero_element(rng, ctx)
            return g.FiniteSet(ctx, [a, -a])
        return random_set(rng, ctx, size)
    return random_structured_factor(rng, ctx, 4)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_KERNEL_FIELDS),
    st.integers(min_value=0, max_value=10**9),
    st.booleans(),
)
def test_interpolate_matches_pointwise_sums(ctx, seed, as_ints):
    rng = make_rng(seed)
    grid = g.grid_make([_interpolation_factor(rng, ctx) for _ in range(rng.randint(1, 3))])
    points = list(grid.points())
    if as_ints:
        values = {a: rng.randint(-20, 20) for a in points}
    else:
        values = {a: random_element(rng, ctx) for a in points}
    for lam in range(grid.joint_nullity + 1):
        fast = g.interpolate(grid, values, lam)
        slow = interpolate_bruteforce(grid, values, lam)
        assert fast == slow
        assert list(fast.terms) == list(slow.terms)
    gone = rng.sample(range(len(points)), rng.randint(1, 2))
    for i in gone:
        del values[points[i]]
    lam = rng.randint(0, grid.joint_nullity)
    with pytest.raises(g.MissingValue) as fast_error:
        g.interpolate(grid, values, lam)
    with pytest.raises(g.MissingValue) as slow_error:
        interpolate_bruteforce(grid, values, lam)
    expected = f"no value supplied for grid point {points[min(gone)]}"
    assert str(fast_error.value) == str(slow_error.value) == expected


# The list kernels only: the references compute with element operators, which
# call the scalar value kernels, checked on their own against
# field_op_bruteforce in tests/test_field_kernel.py.
_VALUE_KERNELS = ("_outer", "_vsum", "_dot", "_mul_root")


@pytest.mark.parametrize("ctx", _KERNEL_FIELDS, ids=str)
def test_engine_references_reach_no_value_kernel(monkeypatch, ctx):
    """The engines, MultiPoly.evaluate and the set weights run on the list
    value kernels; the references they are checked against must not, or each
    comparison would test a kernel against itself."""
    rng = make_rng(sum(map(ord, str(ctx))))
    f, grid = _kernel_instance(rng, ctx)
    igrid = g.grid_make([_interpolation_factor(rng, ctx) for _ in range(2)])
    ivalues = {a: random_element(rng, ctx) for a in igrid.points()}
    lam = igrid.joint_nullity
    values = list(_grid_values(f, grid))
    plain, weighted = g.grid_sum(f, grid), g.grid_sum(f, grid, "weighted")
    rebuilt = g.interpolate(igrid, ivalues, lam)

    def refuse(*args):
        raise AssertionError("a value kernel was reached")

    for name in _VALUE_KERNELS:
        monkeypatch.setattr(ctx, name, refuse)
    with pytest.raises(AssertionError, match="value kernel"):
        f.evaluate(next(grid.points()))
    assert grid_values_bruteforce(f, grid) == values
    assert grid_sum_bruteforce(f, grid) == plain
    assert grid_sum_bruteforce(f, grid, "weighted") == weighted
    assert interpolate_bruteforce(igrid, ivalues, lam) == rebuilt


# Per field: grids from every factor kind the field has, and polynomials in two
# variables.  Above the table cap, tracezero and all (2,048 and 4,096 elements)
# would take seconds on the digit kernels, so that field has the other kinds,
# and only its first grid is plane-scanned (4,097 planes a scan).
_ELEMENT_KERNEL_JOBS = {
    "Q": (
        ["{-2, -1, 0, 1, 2} x {1/2, -1/3, 3}", "{0, 1, -1} x {2, 5}"],
        ["1/2*x1^2*x2 - 3*x2 + 2/3", "(x1 - 1/2)^3*x2 + x1*x2^2"],
    ),
    "F7": (
        ["mul(3, 2) x {0, 3, 5}", "add(1) x mul(2)", "all x {1, 4}"],
        ["x1^3*x2 - 2*x1*x2^2 + 3", "(x1 + 2*x2)^4 - x2^5"],
    ),
    "F13": (
        ["mul(4, 5) x {0, 1, 2}", "add(1, 3) x mul(3)", "all x {2, 7}"],
        ["x1^5*x2^2 - 4*x2 + 1", "(x1 - x2)^3*x1 + 6"],
    ),
    "F2^4": (
        ["mul(5, t) x add(1;t)", "tracezero x {0, t}", "all x {1, t^2}"],
        ["t*x1^2*x2 + (x1 + t)^3", "x1^4*x2 + t^3*x2^2 + 1"],
    ),
    "F3^3": (
        ["mul(13, t) x add(t;2, 1)", "tracezero x {1, t}", "all x {0, 2*t}"],
        ["t*x1^2 + (x1 - t)^2*x2 + 1", "x1^3*x2^2 - t^2*x2"],
    ),
    "F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1": (
        ["mul(5, t) x add(t;t^3, 1)", "{0, 1, t, t^5} x mul(3)"],
        ["t*x1^2*x2 + (x1 + t)^3", "x1^4*x2 + t^7*x2^2 + 1"],
    ),
}


def _parse_jobs(ctx, grid_texts, poly_texts):
    """Each grid with the polynomials parsed in its variables."""
    grids = [g.parse_grid(text, ctx) for text in grid_texts]
    return [(grid, [g.parse_poly(p, grid.n, ctx) for p in poly_texts]) for grid in grids]


def _every_engine(ctx, jobs):
    """Every engine run on each grid and its polynomials; the reports and
    moments as strings."""
    out = []
    for i, (grid, polys) in enumerate(jobs):
        top = tuple(s - 1 for s in grid.sizes)
        bound = sum(top) + grid.joint_nullity
        points = list(grid.points())
        for f in polys:
            kept = {m: c for m, c in f.terms.items() if m != top and sum(m) <= bound}
            h = g.MultiPoly(ctx, grid.n, kept)
            out += [
                g.grid_sum(f, grid), g.grid_sum(f, grid, "weighted"), g.gcn_check(f, grid),
                g.cct_coefficient(f, grid), g.extract_coefficient(h, grid, top),
                g.punctured_check(h, grid),
            ]
        values = {a: k for k, a in enumerate(points)}
        out.append(g.interpolate(grid, values, grid.joint_nullity))
        if ctx.kind != "rationals":
            out.append(g.plane_grid_count([1] * grid.n, grid))
        if ctx.kind != "rationals" and (ctx.cardinality <= _TABLE_CAP or i == 0):
            out += [g.plane_scan(grid), g.plane_scan(grid, "ppp")]
        if ctx.kind == "prime":
            out.append(g.cauchy_davenport(*grid.factors))
        out += [(A.moments(len(A)), A.vandermonde_degree) for A in grid.factors]
    return [str(x) for x in out]


@pytest.mark.parametrize("spec", list(_ELEMENT_KERNEL_JOBS))
def test_library_reaches_no_element_kernel(monkeypatch, spec):
    """Grids, polynomials, engines and moments compute on the value kernels.
    Elements are made only where values leave the library, by _wrap, so with
    every element arithmetic operator refused each job still gives the same
    answer."""
    ctx = g.parse_field(spec)
    expected = _every_engine(ctx, _parse_jobs(ctx, *_ELEMENT_KERNEL_JOBS[spec]))
    kernels = {name: g.FieldElement.__dict__[name] for name in _ARITHMETIC_OPERATORS}

    def refuse(*args):
        raise AssertionError("an element operator was reached")

    def refusing(on):
        for name, kernel in kernels.items():
            monkeypatch.setattr(g.FieldElement, name, refuse if on else kernel)

    refusing(True)
    with pytest.raises(AssertionError, match="element operator"):
        ctx.one + ctx.one
    jobs = _parse_jobs(ctx, *_ELEMENT_KERNEL_JOBS[spec])
    # The one exception: the weights take P' from UniPoly.derivative, which
    # multiplies elements.  It stays there while the benchmark's tracer counts
    # field work by FieldElement operators only (ROADMAP item 1b), so the
    # factors' weights are built with the operators in place.
    refusing(False)
    for grid, _ in jobs:
        for A in grid.factors:
            A._weight_table()
    refusing(True)
    assert _every_engine(ctx, jobs) == expected
