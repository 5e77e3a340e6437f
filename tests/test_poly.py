"""Polynomial types, parsing, formatting, and the degree-raising shift."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import gridnull as g
import gridnull.poly as poly
from gridnull.oracle import moments_bruteforce
from support import (
    F7, F9, F13, F27, Q, legacy_parse, make_rng, random_multipoly, random_set,
    reference_parse,
)


def test_minus_infinity_ordering():
    mi = g.MINUS_INFINITY
    assert mi < 0 and mi < -100 and mi <= mi
    assert not (mi > 5) and not (mi >= 0)
    assert mi + 7 is mi and 7 + mi is mi
    assert repr(mi) == "-inf"


def test_unipoly_basics():
    f = g.UniPoly(Q, [0, -1, 0, 1])  # X^3 - X
    assert f.degree == 3
    assert f(2) == 6
    assert f.derivative().coeffs == (Q.element(-1), Q.zero, Q.element(3))
    zero = g.UniPoly(Q, [])
    assert zero.degree is g.MINUS_INFINITY
    assert (f - f).degree is g.MINUS_INFINITY
    assert str(f) == "X^3 - X"


def test_unipoly_from_roots_matches_char_poly():
    A = g.FiniteSet(F7, [1, 2, 4])
    assert str(A.char_poly) == "X^3 + 6"
    B = g.FiniteSet(Q, [-1, 0, 1])
    assert [str(c) for c in B.char_poly.coeffs] == ["0", "-1", "0", "1"]
    for a in B:
        assert B.char_poly(a).is_zero


# F2^12 lies above the table cap: its products run on the digit kernels
_ROOT_FIELDS = [Q, F7, F9, F27, g.parse_field("F2^12/1,0,0,1,0,0,0,0,0,0,0,0,1")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_ROOT_FIELDS), st.integers(min_value=0, max_value=10**9))
def test_from_roots_matches_bruteforce_elementary_moments(ctx, seed):
    rng = make_rng(seed)
    size = rng.randint(0, 5)
    if size == 0:
        assert g.UniPoly.from_roots(ctx, []).coeffs == (ctx.one,)
        return
    A = random_set(rng, ctx, size)
    # prime-subfield roots go in as ints about half the time
    roots = [
        int(x.value) if x.in_prime_subfield and x.value == int(x.value) and rng.random() < 0.5
        else x
        for x in A
    ]
    e = moments_bruteforce(A, size).e
    signed = [-c if r % 2 else c for r, c in enumerate(e)]
    poly = g.UniPoly.from_roots(ctx, roots)
    assert poly.coeffs == tuple(reversed(signed))
    assert poly == g.UniPoly.from_roots(ctx, list(A))


def test_char_poly_rejects_duplicates_and_empty():
    with pytest.raises(ValueError) as info:
        g.char_poly([Q.element(1), Q.element(1)])
    assert isinstance(info.value, g.GridNullError)
    with pytest.raises(g.EmptySet):
        g.char_poly([])


def test_multipoly_arithmetic_and_pow():
    x1 = g.MultiPoly.variable(Q, 2, 1)
    x2 = g.MultiPoly.variable(Q, 2, 2)
    f = (x1 + x2) ** 2
    assert f.coefficient((2, 0)) == 1
    assert f.coefficient((1, 1)) == 2
    assert f.coefficient((0, 2)) == 1
    assert f.total_degree == 2
    assert ((x1 - x1) * x2).total_degree is g.MINUS_INFINITY
    assert (f - f) == g.MultiPoly.zero(Q, 2)


def _merged(ctx, pairs):
    """Reference merger: a plain dict, term by term, a cancelled term deleted."""
    out = {}
    for m, c in pairs:
        s = out.get(m, ctx.zero) + c
        if s.is_zero:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _product(ctx, f, h):
    pairs = [
        (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        for m1, c1 in f.items()
        for m2, c2 in h.items()
    ]
    return _merged(ctx, pairs)


def _power(ctx, f, k, n):
    """By the same square-and-multiply ladder as MultiPoly.__pow__, so that
    the term order is comparable."""
    result, base = {(0,) * n: ctx.one}, f
    while k:
        if k & 1:
            result = _product(ctx, result, base)
        k >>= 1
        if k:
            base = _product(ctx, base, base)
    return result


def _pool_terms(ctx):
    """(monomial, coefficient) lists from a small pool of both, so that
    monomials repeat and coefficients cancel (c and -c, and zero)."""
    if ctx.kind == "rationals":
        coeffs = [Fraction(1), Fraction(1, 2), Fraction(3)]
    elif ctx.kind == "extension":
        coeffs = [ctx.one, ctx.generator, ctx.generator + 1]
    else:
        coeffs = [ctx.one, ctx.element(3)]
    coeffs = [ctx.element(c) for c in coeffs]
    coeffs += [-c for c in coeffs] + [ctx.zero]
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    return st.lists(st.tuples(st.sampled_from(monomials), st.sampled_from(coeffs)), max_size=7)


def _items(f):
    return list(f.terms.items())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Q, F7, F9]), st.data())
def test_multipoly_arithmetic_merges_like_a_plain_dict(ctx, data):
    """+, -, * and ** against the reference merger: the same coefficients
    and the same term order, where a term that cancels and comes back goes
    to the end."""
    fs, hs = data.draw(_pool_terms(ctx)), data.draw(_pool_terms(ctx))
    f, h = g.MultiPoly(ctx, 2, fs), g.MultiPoly(ctx, 2, hs)
    rf, rh = _merged(ctx, fs), _merged(ctx, hs)
    assert _items(f) == list(rf.items()) and _items(h) == list(rh.items())
    assert _items(f + h) == list(_merged(ctx, [*rf.items(), *rh.items()]).items())
    negated = [(m, -c) for m, c in rh.items()]
    assert _items(f - h) == list(_merged(ctx, [*rf.items(), *negated]).items())
    assert _items(f * h) == list(_product(ctx, rf, rh).items())
    k = data.draw(st.integers(min_value=0, max_value=3))
    assert _items(f**k) == list(_power(ctx, rf, k, 2).items())


def test_multipoly_cancelled_term_comes_back_last():
    x1, x2 = g.MultiPoly.variable(F7, 2, 1), g.MultiPoly.variable(F7, 2, 2)
    f = x1 + x2 - x1
    assert _items(f) == [((0, 1), F7.one)]
    assert _items(f + x1) == [((0, 1), F7.one), ((1, 0), F7.one)]
    assert _items(g.MultiPoly(F7, 2, [((1, 0), 1), ((0, 1), 2), ((1, 0), 6), ((1, 0), 3)])) == [
        ((0, 1), F7.element(2)),
        ((1, 0), F7.element(3)),
    ]


def test_multipoly_evaluate_zero_to_the_zero():
    f = g.parse_poly("x1^2 + 1", 2, F7)
    assert f.evaluate((F7.zero, F7.zero)) == 1
    c = g.MultiPoly.constant(F7, 2, 4)
    assert c.evaluate((F7.zero, F7.zero)) == 4
    assert f.evaluate((0, 0)) == 1


def test_multipoly_dimension_checks():
    f = g.parse_poly("x1^3*x2 + x2^2", 2, Q)
    assert f.total_degree == 4
    with pytest.raises(g.DimensionMismatch):
        f.evaluate((Q.one,))
    with pytest.raises(g.DimensionMismatch):
        f.coefficient((1,))


def test_parse_poly_grammar_and_errors():
    f = g.parse_poly("-x1^3 + x1*x2", 2, Q)
    assert f.coefficient((3, 0)) == -1
    assert f.coefficient((1, 1)) == 1
    half = g.parse_poly("1/2*x1 - 3/2", 1, Q)
    assert half.coefficient((1,)) == Fraction(1, 2)
    assert half.coefficient((0,)) == Fraction(-3, 2)
    tpoly = g.parse_poly("(t+1)*x1 + t^2", 1, F9)
    assert str(tpoly.coefficient((1,))) == "t+1"
    assert tpoly.coefficient((0,)) == F9.generator ** 2

    with pytest.raises(g.UnknownVariable):
        g.parse_poly("x3", 2, Q)
    with pytest.raises(g.UnknownVariable):
        g.parse_poly("t", 1, Q)
    with pytest.raises(g.ParseError):
        g.parse_poly("1/2", 1, F7)
    with pytest.raises(g.ParseError):
        g.parse_poly("1/0", 1, Q)
    with pytest.raises(g.ParseError):
        g.parse_poly("x1 +", 1, Q)
    with pytest.raises(g.ParseError):
        g.parse_poly("(x1", 1, Q)
    with pytest.raises(g.ParseError):
        g.parse_poly("x1 $ 2", 1, Q)


def test_parse_error_reports_position():
    try:
        g.parse_poly("x1 $ 2", 1, Q)
    except g.ParseError as exc:
        assert exc.position == 3
        assert "position 3" in str(exc)
    else:
        raise AssertionError("expected a parse error")


def test_parse_element_uses_poly_grammar():
    assert g.parse_element("2^3", F7) == 1
    assert g.parse_element("-1/3", Q) == Fraction(-1, 3)
    assert str(g.parse_element("t*(t+1)", F9)) == str(F9.generator ** 2 + F9.generator)


def test_format_poly_ordering_and_signs():
    f = g.parse_poly("x1*x2 - x1^3", 2, Q)
    assert str(f) == "-x1^3 + x1*x2"
    assert str(g.MultiPoly.zero(Q, 2)) == "0"
    assert str(g.parse_poly("x1^2 + x1*x2", 2, Q)) == "x1^2 + x1*x2"
    wrapped = g.parse_poly("(2*t+1)*x1^2", 1, F9)
    assert str(wrapped) == "(2*t+1)*x1^2"


def test_raise_degree_shifts_onto_top_monomial():
    f = g.parse_poly("2*x1*x2 + 3", 2, F7)
    grid = g.grid_make([g.FiniteSet(F7, [0, 1, 2]), g.FiniteSet(F7, [0, 1, 2])])
    lifted = g.raise_degree(f, grid, (1, 1))
    assert lifted.terms == {(2, 2): 2, (1, 1): 3}
    with pytest.raises(g.ExponentOutOfRange):
        g.raise_degree(f, grid, (3, 0))
    with pytest.raises(g.DimensionMismatch):
        g.raise_degree(f, g.grid_make(grid.factors[:1]), (1,))


def test_multipoly_refuses_non_integer_exponents():
    """{(1.7,): 1} is not read as x1: the exponent is named, not truncated."""
    for m, bad in (((1.7,), "1.7"), ((2.0,), "2.0"), ((Fraction(3),), "Fraction(3, 1)")):
        message = re.escape(f"exponent {bad} is not an integer")
        with pytest.raises(g.ExponentOutOfRange, match=message):
            g.MultiPoly(F7, 1, {m: 1})
    with pytest.raises(g.ExponentOutOfRange, match="exponent 0.5 is not an integer"):
        g.MultiPoly.monomial(Q, 2, (1, 0.5))
    assert g.MultiPoly(F7, 1, {(True,): 1}) == g.MultiPoly.variable(F7, 1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_parse_format_round_trip(seed):
    rng = make_rng(seed)
    ctx = rng.choice([Q, F7, F9])
    n = rng.randint(1, 3)
    f = random_multipoly(rng, ctx, n, total_bound=5, max_terms=5)
    assert g.parse_poly(str(f), n, ctx) == f


def test_multipoly_coefficient_reads_stored_terms():
    f = g.parse_poly("x1^2*x2 + 4", 2, F7)
    assert f.coefficient((2, 1)) == 1
    assert f.coefficient((0, 0)) == 4
    assert f.coefficient((5, 5)) == 0


F16 = g.ExtensionField(2, 4)


def _term_lists(ctx, n):
    """Term lists over the monomials with exponents 0..2, so that terms
    repeat and cancel; fractions over Q, any element (t-polynomials over an
    extension field) otherwise."""
    if ctx.kind == "rationals":
        fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
        coeffs = fractions.map(ctx.element)
    else:
        coeffs = st.sampled_from(ctx.elements())
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    return st.lists(st.tuples(monomials, coeffs), max_size=4)


def _sum_text(ctx, n, terms):
    """The terms one at a time through format_poly, each in parentheses."""
    pieces = [f"({g.format_poly(g.MultiPoly(ctx, n, [t]))})" for t in terms]
    return " + ".join(pieces) or "0"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Q, F7, F13, F9, F27, F16]), st.integers(1, 3), st.data())
def test_parse_poly_merges_like_the_reference(ctx, n, data):
    """Signed sums of single terms, of parenthesised sums to a power and of
    products whose terms cancel, as format_poly writes them: the parsed terms
    and their order are the reference merger's."""
    pieces, pairs = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        ts = data.draw(_term_lists(ctx, n))
        text, ref = _sum_text(ctx, n, ts), _merged(ctx, ts)
        shape = data.draw(st.sampled_from(["sum", "power", "product"]))
        if shape == "sum":
            text = f"({text})"
        elif shape == "power":
            k = data.draw(st.integers(0, 3))
            text, ref = f"({text})^{k}", _power(ctx, ref, k, n)
        elif shape == "product":
            # the same terms with some signs flipped, as in (x1 + x2)*(x1 - x2)
            flips = data.draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts)))
            us = [(m, -c if flip else c) for (m, c), flip in zip(ts, flips)]
            text = f"({text})*({_sum_text(ctx, n, us)})"
            ref = _product(ctx, ref, _merged(ctx, us))
        sign = data.draw(st.sampled_from("+-"))
        pieces.append(f"{sign} {text}")
        pairs += [(m, c if sign == "+" else -c) for m, c in ref.items()]
    f = g.parse_poly(" ".join(pieces), n, ctx)
    assert _items(f) == list(_merged(ctx, pairs).items())


def _spaced(op):
    return st.sampled_from([op, f" {op}", f"{op} ", f" {op} "])


def _parser_text(data, ctx, n, depth=0):
    """A signed sum of products of powers: literals that are zero in ctx
    among them (0, and p over a finite field), variables, t over an
    extension field and parenthesised sums, two deep at most.  Spaces may
    stand around ^ and *, so x<i>^k and t^k come as one power token or as
    three; atoms take exponents up to 12, sums up to 3, which keeps their
    expansions small."""
    if ctx.kind == "rationals":
        atoms = ["0", "1", "2", "1/2", "3/4"]
    else:
        atoms = ["0", "1", "2", str(ctx.characteristic)] + ["t"] * (ctx.kind == "extension")
    atoms += [f"x{i}" for i in range(1, n + 1)]

    def factor():
        if depth < 2 and data.draw(st.integers(0, 4)) == 0:
            text, top = f"({_parser_text(data, ctx, n, depth + 1)})", 3
        else:
            text, top = data.draw(st.sampled_from(atoms)), 12
        if data.draw(st.booleans()):
            text += f"{data.draw(_spaced('^'))}{data.draw(st.integers(0, top))}"
        return text

    terms = []
    for i in range(data.draw(st.integers(1, 4))):
        sign = data.draw(st.sampled_from(["", "+ ", "- "] if i == 0 else ["+ ", "- "]))
        times = data.draw(_spaced("*"))
        terms.append(sign + times.join(factor() for _ in range(data.draw(st.integers(1, 4)))))
    return " ".join(terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Q, F7, F13, F9, F27, F16]), st.integers(1, 3), st.data())
def test_parse_poly_matches_the_multipoly_reference(ctx, n, data):
    """Any text against the parser of MultiPoly arithmetic alone: the same
    terms in the same order, through zero literals in products (0*x1, 13*x1
    over F13, 3*t*x1 over F27), zero atoms to the power 0, a leading - before
    a product, and products that mix single terms and sums."""
    text = _parser_text(data, ctx, n)
    assert _items(g.parse_poly(text, n, ctx)) == _items(reference_parse(text, n, ctx))


def _outcome(parse, text, n, ctx):
    try:
        return _items(parse(text, n, ctx))
    except g.GridNullError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([Q, F7, F9]),
    st.integers(1, 2),
    st.lists(st.sampled_from(["x1", "x2", "t", *"0123456789+-*^()/$", " "]), max_size=24),
)
def test_parse_poly_matches_the_legacy_parser(ctx, n, pieces):
    """Random strings of the grammar's tokens, $ and spaces: parse_poly gives
    the legacy parser's terms in their order, or its error's class, message
    and position.  Exponents of three digits or more are left out, since both
    parsers compute such powers of literals in full over Q."""
    text = "".join(pieces)
    assume(not re.search(r"\^\s*\d{3}", text))
    assert _outcome(g.parse_poly, text, n, ctx) == _outcome(legacy_parse, text, n, ctx)


@pytest.mark.parametrize(
    "ctx, text, n",
    [
        (F13, "0*x1 + 13*x1*x2 - 2*x1*(x1 + x2)*x2^2 + x2", 2),
        (F7, "x1 + (-x1 + x2 + x1) + 7*x2*x1", 2),  # the group merges on its own
        (F27, "- 3*t*x1 + t*x1 - 0^0*x1 + (x1 - x1)^0 + 0^2", 1),
        (Q, "-1/2*x1*x2^0 - (x1 + 1/3)*(x1 - 1/3)*x2 + 0^0", 2),
    ],
    ids=["F13", "F7-group", "F27", "Q"],
)
def test_parse_poly_matches_the_reference_on_chosen_texts(ctx, text, n):
    assert _items(g.parse_poly(text, n, ctx)) == _items(reference_parse(text, n, ctx))


def _counting_merges(monkeypatch):
    calls = []
    merge = poly._merge

    def counted(ctx, pairs):
        calls.append(1)
        return merge(ctx, pairs)

    monkeypatch.setattr(poly, "_merge", counted)
    return calls


def test_a_sum_merges_once_and_each_group_once(monkeypatch):
    """A sum of T terms costs one merge, not one per +: a 2,000-term sum of
    products merges once, and each parenthesised group adds one."""
    rng = make_rng(26)
    terms = [
        ((rng.randint(0, 9), rng.randint(0, 9)), F13.element(rng.randint(-12, 12)))
        for _ in range(2000)
    ]
    text = " + ".join(f"{c.value}*x1^{a}*x2^{b}" for (a, b), c in terms)
    calls = _counting_merges(monkeypatch)
    f = g.parse_poly(text, 2, F13)
    assert len(calls) == 1
    assert _items(f) == list(_merged(F13, terms).items())
    for k in range(4):
        text = "x1 - 3*x2^2" + " - (x1 + 2*x2)" * k + " + 5"
        calls.clear()
        f = g.parse_poly(text, 2, F13)
        assert len(calls) == k + 1
        assert _items(f) == _items(reference_parse(text, 2, F13))


def test_parser_stays_off_the_validating_path(monkeypatch):
    """The parser builds on terms it knows to be valid: an engines-shaped
    polynomial (4 terms, 3 variables, t coefficients over F27) reaches
    neither the exponent check nor the public constructor."""
    text = "(t+1)*x1^4*x2^3*x3^4 + (t^2+t)*x1^7*x2*x3^3 - (t^2+1)*x1^3*x2^4*x3^4 + 2*x2^2"
    expected = _items(g.parse_poly(text, 3, F27))
    grid = g.grid_make([g.FiniteSet(F27, [0, 1])] * 3)

    def refuse(*args):
        raise AssertionError("the validating path was reached")

    monkeypatch.setattr(poly, "_exponent", refuse)
    monkeypatch.setattr(g.MultiPoly, "__init__", refuse)
    f = g.parse_poly(text, 3, F27)
    assert _items(f) == expected and len(expected) == 4
    with pytest.raises(AssertionError, match="validating path"):
        g.MultiPoly(F27, 3, {(1, 0, 0): 1})
    with pytest.raises(AssertionError, match="validating path"):
        g.raise_degree(f, grid, (0, 0, 0))


@pytest.mark.parametrize(
    "ctx, text, n",
    [(F7, "3*x1^2*x2", 2), (F27, "t", 1), (Q, "1/2*x1*x2^3", 2)],
    ids=["F7", "F27", "Q"],
)
def test_single_term_power_matches_repeated_multiplication(ctx, text, n):
    base = g.parse_poly(text, n, ctx)
    ref = {(0,) * n: ctx.one}
    for k in range(41):
        assert _items(base**k) == list(ref.items())
        assert _items(g.parse_poly(f"({text})^{k}", n, ctx)) == list(ref.items())
        ref = _product(ctx, ref, base.terms)


@pytest.mark.parametrize("text", ["0^0", "(x1 - x1)^0", "x1^0"])
def test_zeroth_powers_are_one(text):
    for ctx in (Q, F7, F27):
        assert g.parse_poly(text, 1, ctx) == g.MultiPoly.constant(ctx, 1, 1)


def test_products_are_bounded_by_their_term_pairs(monkeypatch):
    """A product may multiply _MAX_TERM_PAIRS term pairs and no more; a
    power's ladder meets the bound at each step."""
    monkeypatch.setattr(poly, "_MAX_TERM_PAIRS", 6)
    f, h = g.parse_poly("x1 + 1", 2, F7), g.parse_poly("x1 + x2 + 1", 2, F7)
    assert str(f * h) == "x1^2 + x1*x2 + 2*x1 + x2 + 1"
    message = "polynomials with 2 and 4 terms makes 8 term pairs, above the bound of 6"
    with pytest.raises(g.SizeBoundExceeded, match=message):
        f * (h + g.parse_poly("x2^2", 2, F7))
    assert str(f**2) == "x1^2 + 2*x1 + 1"  # 4 pairs
    with pytest.raises(g.SizeBoundExceeded, match="3 and 3 terms makes 9 term pairs"):
        g.parse_poly("(x1 + x2 + 1)^2", 2, F7)
    assert str(3 * h) == "3*x1 + 3*x2 + 3"  # a scalar times any polynomial is not bounded


@pytest.mark.parametrize(
    "ctx, text, expected",
    [
        (F7, "x1^2 + 3*x1*x2 - 1", "6*x1^2 + 4*x1*x2 + 4"),
        (Q, "1/2*x1 - x2^2 + 3", "x2^2 - 1/2*x1"),
        (F27, "t*x1 + x2 + 1", "(2*t)*x1 + 2*x2 + 2"),  # 3 is 0 in F27
    ],
    ids=["F7", "Q", "F27"],
)
def test_int_minus_a_polynomial(ctx, text, expected):
    f = g.parse_poly(text, 2, ctx)
    assert str(3 - f) == expected
    assert 3 - f == g.MultiPoly.constant(ctx, 2, 3) - f
    assert (3 - f) + f == g.MultiPoly.constant(ctx, 2, 3)


def test_char_polys_of_one_set_hash_alike():
    a, b = g.FiniteSet(F7, [1, 2, 4]), g.FiniteSet(F7, [4, 1, 2])
    assert a.char_poly == b.char_poly and a.char_poly is not b.char_poly
    assert hash(a.char_poly) == hash(b.char_poly)
    assert {a.char_poly: "mul(3)"}[b.char_poly] == "mul(3)"
    assert len({a.char_poly, b.char_poly, g.FiniteSet(F7, [1, 2]).char_poly}) == 2
