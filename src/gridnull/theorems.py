"""Theorem engines over structured grids.

Each engine computes both sides of a claim and reports hypothesis flags
rather than refusing out-of-bound inputs: probing instances that break a
bound by one is a supported use, and the test suite leans on it.  The
recurring bound is total degree at most sum of (factor size - 1) plus the
joint nullity of the grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import (
    DegreeBoundViolated,
    DimensionMismatch,
    InfiniteField,
    LambdaExceedsNullity,
    MissingValue,
    MixedFields,
    NotPrimeField,
    PreconditionViolated,
    SingletonFactor,
    ZeroVector,
)
from .field import FieldElement
from .grids import Grid
from .nullity import FiniteSet
from .poly import MultiPoly, _exponent, raise_degree
from .reports import CoefficientReport, ScanReport, WitnessReport


def _check_shape(f: MultiPoly, grid: Grid) -> None:
    if f.ctx is not grid.ctx:
        raise MixedFields("polynomial and grid live over different fields")
    if f.n != grid.n:
        raise DimensionMismatch(
            f"polynomial has {f.n} variables, grid has {grid.n} factors"
        )


def _fold(f: MultiPoly, grid: Grid, column):
    """sum_m c_m C_1(m_1) (x) ... (x) C_n(m_n) over f's terms, in product
    order, last axis fastest, where C_j(k) = column(A_j, k); yielded one row
    per entry of C_1.  Columns, folds and rows are lists of raw values,
    combined by the context's _outer and _vsum kernels, so over Q a scaled f
    (see _scaled) on integral factors folds on ints alone.

    Each column is built once per (axis, exponent).  The terms sit in a trie
    keyed by their exponents axis by axis; the subtree under exponent k on
    axis j is folded over the later axes once, and C_j(k) is spread over
    that fold.  The first axis is streamed: row i is sum_k C_1(k)[i] F_k over
    the trie's keys k, where F_k is the fold under k, so only the F_k are
    held.  With the columns [a^k for a in A_j] the rows are f's grid values.
    """
    n, outer, vsum = grid.n, grid.ctx._outer, grid.ctx._vsum
    trie = {}  # exponents m_1, ..., m_(n-1) lead to {m_n: [c_m]}
    for m, c in (f.terms or {(0,) * n: grid.ctx.zero}).items():
        node = trie
        for k in m[:-1]:
            node = node.setdefault(k, {})
        node[m[-1]] = [c.value]
    columns = {}

    def fold(node, j):
        acc = None
        for k, inner in node.items():
            if j < n - 1:
                inner = fold(inner, j + 1)
            if (j, k) not in columns:
                columns[j, k] = column(grid.factors[j], k)
            part = outer(columns[j, k], inner)
            acc = part if acc is None else vsum(acc, part)
        return acc

    A = grid.factors[0]
    (c1, first), *rest = [
        (column(A, k), fold(inner, 1) if n > 1 else inner) for k, inner in trie.items()
    ]
    for i, x in enumerate(c1):
        row = outer((x,), first)
        for c, fk in rest:
            row = vsum(row, outer((c[i],), fk))
        yield row


def _scaled(f: MultiPoly):
    """(D f, D) for D the lcm of the coefficients' denominators, D f with int
    coefficients over Q; (f, 1) when they are ints already, as over a finite field."""
    if f.ctx.kind != "rationals" or all(type(c.value) is int for c in f.terms.values()):
        return f, 1
    D = lcm(*(c.value.denominator for c in f.terms.values()))
    pairs = [(m, c.value.numerator * (D // c.value.denominator)) for m, c in f.terms.items()]
    return MultiPoly._of_values(f.ctx, f.n, pairs), D


def _grid_values(f: MultiPoly, grid: Grid):
    """f at each grid point as elements, in ``grid.points()`` order: D f folded, then / D."""
    f, D = _scaled(f)
    values = itertools.chain.from_iterable(_fold(f, grid, FiniteSet._column))
    if D != 1:
        values = (grid.ctx._canon(Fraction(v, D)) for v in values)
    return map(grid.ctx._wrap, values)


def _zero_scan(f: MultiPoly, grid: Grid):
    """(number of grid zeros of f, first non-vanishing point or None), from the
    rows of D f (see _scaled) as they are: zeros by row.count(0), and the point
    once, from ``grid.points()`` at the flat index of the first nonzero entry."""
    zeros, first = 0, None
    for r, row in enumerate(_fold(_scaled(f)[0], grid, FiniteSet._column)):
        z = row.count(0)
        if first is None and z < len(row):  # rows are all of one length
            flat = r * len(row) + next(i for i, v in enumerate(row) if v)
            first = next(itertools.islice(grid.points(), flat, None))
        zeros += z
    return zeros, first


def gcn_check(f: MultiPoly, grid: Grid) -> WitnessReport:
    """Witness search: a qualifying monomial forces a non-vanishing point.

    A monomial qualifies when its coefficient is nonzero, each exponent is
    below the matching factor size, and the total degree of f is at most the
    monomial's degree plus the grid's joint nullity.  The witness is the
    first non-vanishing point in ``grid.points()`` order: each factor in its
    insertion order, last coordinate fastest.  It is None only when f
    vanishes on the whole grid.  Counts always come from full enumeration.
    """
    _check_shape(f, grid)
    lam = grid.joint_nullity
    deg = f.total_degree
    qualifying = tuple(
        sorted(
            (
                m
                for m in f.terms
                if all(k < s for k, s in zip(m, grid.sizes))
                and deg <= sum(m) + lam
            ),
            key=lambda m: (sum(m), m),
        )
    )
    zero_count, witness = _zero_scan(f, grid)
    return WitnessReport(
        hypothesis_ok=bool(qualifying),
        qualifying_monomials=qualifying,
        witness=witness,
        zero_count=zero_count,
        nonzero_count=grid.size - zero_count,
        total_degree=deg,
        joint_nullity=lam,
        grid_sizes=grid.sizes,
        singleton_warning=grid.has_singleton,
    )


def cct_coefficient(f: MultiPoly, grid: Grid) -> CoefficientReport:
    """Weighted grid sum against the stored top-monomial coefficient."""
    _check_shape(f, grid)
    lam = grid.joint_nullity
    top = tuple(s - 1 for s in grid.sizes)
    bound = sum(top) + lam
    return CoefficientReport(
        target=top,
        weighted_sum=grid_sum(f, grid, "weighted"),
        direct_coefficient=f.coefficient(top),
        degree_bound_ok=f.total_degree <= bound,
        total_degree=f.total_degree,
        degree_bound=bound,
        joint_nullity=lam,
        singleton_warning=grid.has_singleton,
    )


def extract_coefficient(f: MultiPoly, grid: Grid, k) -> FieldElement:
    """Coefficient of the monomial k via degree raising and the weighted sum."""
    _check_shape(f, grid)
    k = tuple(map(_exponent, k))
    if len(k) != grid.n:
        raise DimensionMismatch("target monomial has wrong arity")
    raised = raise_degree(f, grid, k)  # checks 0 <= k_i <= s_i - 1 first
    if not f.total_degree <= sum(k) + grid.joint_nullity:
        raise DegreeBoundViolated(
            f"degree {f.total_degree} exceeds {sum(k)} + {grid.joint_nullity}"
        )
    return grid_sum(raised, grid, "weighted")


def interpolate(grid: Grid, values, lam: int) -> MultiPoly:
    """Rebuild the polynomial of degree <= lam from its values on the grid.

    The coefficient of x^k, |k| <= lam, is sum_a v(a) prod_i w_i(a_i)
    a_i^(s_i-1-k_i) with w_i = 1/P_i'.  The kernel separates, so the values
    are contracted one axis at a time against the matrix w_i(a) a^(s_i-1-k),
    dropping every prefix k_1..k_i whose degree passes lam.  Values and
    matrix rows are raw values, contracted by the context's _dot kernel.
    """
    lam = _exponent(lam, "lambda")
    if grid.has_singleton:
        raise SingletonFactor("interpolation needs every factor of size > 1")
    if lam < 0:
        raise PreconditionViolated("lambda must be non-negative")
    if lam > grid.joint_nullity:
        raise LambdaExceedsNullity(
            f"lambda {lam} exceeds the grid's joint nullity {grid.joint_nullity}"
        )
    ctx = grid.ctx
    flat = []
    for a in grid.points():
        try:
            v = values[a]
        except KeyError:
            raise MissingValue(f"no value supplied for grid point {a}") from None
        flat.append(ctx.element(v).value)
    layer = {(): flat}
    rest = grid.size
    for A, s in zip(grid.factors, grid.sizes):
        rest //= s
        matrix = [A._column(s - 1 - k, weighted=True) for k in range(min(lam, s - 1) + 1)]
        nxt = {}
        for prefix, t in layer.items():
            lines = [t[r::rest] for r in range(rest)]
            for k in range(min(lam - sum(prefix), s - 1) + 1):
                nxt[prefix + (k,)] = [ctx._dot(v, matrix[k]) for v in lines]
        layer = nxt
    return MultiPoly._of_values(ctx, grid.n, [(k, t[0]) for k, t in layer.items()])


def grid_sum(f: MultiPoly, grid: Grid, mode: str = "plain") -> FieldElement:
    """Sum of f over the grid, plain or against the derivative weights.

    Both sums separate over the axes, so no point is enumerated: the sum is
    sum_m c_m prod_i S_i(m_i), where S_i(k) adds a^k over the factor A_i,
    times w_i(a) = 1/P_i'(a) when weighted (the Sylvester sum of A_i).  Each
    S_i(k) is asked for once; one _dot weighs the products by the c_m.
    """
    _check_shape(f, grid)
    if mode not in ("plain", "weighted"):
        raise PreconditionViolated(f"mode must be 'plain' or 'weighted', got {mode!r}")
    ctx, sums, products = grid.ctx, [{} for _ in grid.factors], []  # sums: k -> S_i(k) per axis
    for m in f.terms:
        p = None
        for S, A, k in zip(sums, grid.factors, m):
            if k not in S:
                S[k] = A._sum(k, mode == "weighted")
            p = S[k] if p is None else ctx._vmul(p, S[k])
        products.append(p)
    return ctx._wrap(ctx._dot([c.value for c in f.terms.values()], products))


def punctured_check(f: MultiPoly, grid: Grid) -> ScanReport:
    """With top coefficient zero and the degree bound met, the non-vanishing
    locus cannot be a single point; verdict is nonzero_count != 1."""
    _check_shape(f, grid)
    top = tuple(s - 1 for s in grid.sizes)
    bound = sum(top) + grid.joint_nullity
    if not f.total_degree <= bound:
        raise PreconditionViolated(
            f"degree {f.total_degree} exceeds the bound {bound}"
        )
    if not f.coefficient(top).is_zero:
        raise PreconditionViolated("top-monomial coefficient must be zero")
    zeros, lone = _zero_scan(f, grid)
    nonzero = grid.size - zeros
    verdict = nonzero != 1
    counterexamples = ()
    if not verdict:
        counterexamples = ({"point": [str(x) for x in lone]},)
    return ScanReport(
        name="punctured",
        instances=1,
        verdict=verdict,
        details={
            "nonzero_count": nonzero,
            "zero_count": zeros,
            "degree_bound": bound,
            "joint_nullity": grid.joint_nullity,
        },
        counterexamples=counterexamples,
    )


def cauchy_davenport(A: FiniteSet, B: FiniteSet) -> ScanReport:
    """Sumset dichotomy over a prime field: the sumset is at least as
    structured as the summands, or not too small."""
    if A.ctx is not B.ctx:
        raise MixedFields("summands live over different fields")
    ctx = A.ctx
    if ctx.kind != "prime":
        raise NotPrimeField("the sumset dichotomy is stated over prime fields")
    vadd, bs = ctx._vadd, [b.value for b in B]
    C = FiniteSet(ctx, map(ctx._wrap, sorted({vadd(a.value, b) for a in A for b in bs})))
    la, lb, lc = A.nullity, B.nullity, C.nullity
    structured = lc >= min(la, lb)
    large = len(C) >= len(A) + len(B) + lc
    verdict = structured or large
    counterexamples = ()
    if not verdict:
        counterexamples = ({"a": repr(A), "b": repr(B), "sumset": repr(C)},)
    return ScanReport(
        name="cauchy-davenport",
        instances=1,
        verdict=verdict,
        details={
            "size_a": len(A),
            "size_b": len(B),
            "size_sum": len(C),
            "lambda_a": la,
            "lambda_b": lb,
            "lambda_sum": lc,
            "structured": structured,
            "large": large,
            "sumset": repr(C),
        },
        counterexamples=counterexamples,
    )


def _plane_conditions(grid: Grid) -> dict:
    q = grid.ctx.cardinality
    p = grid.ctx.characteristic
    lam = grid.joint_nullity
    S = sum(s - 1 for s in grid.sizes)
    m = min(grid.sizes)
    return {
        "q": q,
        "p": p,
        "joint_nullity": lam,
        "degree_sum": S,
        # single-point exclusion: a large grid, or a null grid in the window
        "pp_large": S > q - 1,
        "pp_structured": q - 1 - lam <= S < q - 1,
        # count divisible by p (additive-subgroup factors assumed by caller)
        "ppp_applies": S != q - 1 and p * (q - 1) < p * S + (p - 1) * m,
    }


def _plane_counter(head, grid: Grid):
    """Grid points on the plane c.x = 0 as a function of c_n, c = head + (c_n,).

    A histogram H over (F_q, +), keyed by raw values, counts the values of
    c_1 x_1 + ... + c_(n-1) x_(n-1) on the first n-1 factors; it is built one
    axis at a time by convolving with c_i A_i, and an axis with c_i = 0 scales
    every count by |A_i|.  Given the value of c_n, the count is sum_(a in A_n) H[-c_n a].
    """
    ctx = grid.ctx
    hist, scale = {ctx.zero.value: 1}, 1
    for c, A in zip(head, grid.factors):
        if c.is_zero:
            scale *= len(A)
            continue
        shifts = ctx._outer((c.value,), A._column(1))
        nxt = {}
        for h, k in hist.items():
            for t in ctx._vsum((h,) * len(shifts), shifts):
                nxt[t] = nxt.get(t, 0) + k
        hist = nxt
    last = grid.factors[-1]._column(1)
    return lambda c: scale * sum(hist.get(x, 0) for x in ctx._outer((ctx._vneg(c),), last))


def plane_grid_count(c, grid: Grid) -> ScanReport:
    """Count grid points on the plane c.x = 0 and report both verdicts."""
    if grid.ctx.kind == "rationals":
        raise InfiniteField("plane counts need a finite field")
    ctx = grid.ctx
    cv = tuple(map(ctx.element, c))
    if len(cv) != grid.n:
        raise DimensionMismatch("coefficient vector has wrong arity")
    if all(x.is_zero for x in cv):
        raise ZeroVector("plane needs a nonzero coefficient vector")
    count = _plane_counter(cv[:-1], grid)(cv[-1].value)
    details = _plane_conditions(grid)
    details["plane"] = [str(x) for x in cv]
    details["count"] = count
    details["pp"] = count != 1
    details["ppp"] = count % ctx.characteristic == 0
    return ScanReport(
        name="plane-grid-count",
        instances=1,
        verdict=details["pp"],
        details=details,
        counterexamples=(),
    )


def _canonical_planes(ctx, n: int):
    """Nonzero vectors modulo scaling: first nonzero coordinate is one."""
    elements = ctx.elements()
    for lead in range(n):
        head = (ctx.zero,) * lead + (ctx.one,)
        for tail in itertools.product(elements, repeat=n - lead - 1):
            yield head + tail


def plane_scan(grid: Grid, mode: str = "pp") -> ScanReport:
    """Check every plane through the origin against the grid.

    mode 'pp' requires each intersection count to differ from 1; mode 'ppp'
    requires each count to be divisible by the characteristic.
    """
    if grid.ctx.kind == "rationals":
        raise InfiniteField("plane scans need a finite field")
    if mode not in ("pp", "ppp"):
        raise PreconditionViolated(f"mode must be 'pp' or 'ppp', got {mode!r}")
    ctx = grid.ctx
    p = ctx.characteristic
    instances = 0
    bad = []
    # planes sharing all but the last coordinate come together and share H
    planes = itertools.groupby(_canonical_planes(ctx, grid.n), lambda cv: cv[:-1])
    for head, group in planes:
        count_at = _plane_counter(head, grid)
        for cv in group:
            instances += 1
            count = count_at(cv[-1].value)
            ok = count != 1 if mode == "pp" else count % p == 0
            if not ok:
                bad.append({"plane": [str(x) for x in cv], "count": count})
    details = _plane_conditions(grid)
    details["mode"] = mode
    return ScanReport(
        name="plane-scan",
        instances=instances,
        verdict=not bad,
        details=details,
        counterexamples=tuple(bad),
    )
