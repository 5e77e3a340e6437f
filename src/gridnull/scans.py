"""Exhaustive scans over small finite fields, and the oracles' size caps.

The classification scans account for every subset, or every pair, but
visit only what can decide them: redei the 0/1 solutions of the power-sum
equations over F_p, each confirmed from its roots, scd the pairs of
positive nullity; each shortcut has a differential test against the full
walk.  The ore check and the additive subgroup enumeration run on raw
values.  Every scan enforces its size bounds with an error instead of
silently delegating.  The brute-force references the fast paths are tested
against live in ``gridnull.oracle``, which no import path of the library
or the CLI loads.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from .errors import CharacteristicZero, EvenQ, NotPrimeField, PreconditionViolated, ScanTooLarge
from .field import ExtensionField, FieldCtx, PrimeField
from .field import _digits, _is_prime, _prime_factors, _row_reduce
from .grids import _span_values
from .nullity import FiniteSet, _leading_zeros
from .poly import _exponent, _root_values
from .reports import ScanReport


class _Caps(NamedTuple):
    max_set_size: int = 8
    max_degree: int = 16
    max_subset_scan_q: int = 13
    series_truncation_order: int = 12


class OracleConfig(_Caps):
    """The oracles' size caps; every cap must be a positive int."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(isinstance(cap, int) and cap > 0 for cap in self):
            raise PreconditionViolated("oracle bounds must be positive ints")
        return self

    @classmethod
    def _make(cls, iterable):
        """Checked like a direct call; ``_replace`` builds through this."""
        return cls(*iterable)


_DEFAULT = OracleConfig()


def _field_for_order(q: int) -> FieldCtx:
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise PreconditionViolated(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return PrimeField(p) if e == 1 else ExtensionField(p, e)


def _subset_nullities(ctx: FieldCtx, elements, most=None):
    """(mask, nullity) for each nonempty subset of at most ``most`` of the
    elements (all by default), in lexicographic order of the index sequences.

    Bit i of mask stands for elements[i].  The walk is depth first: its stack
    holds, for each subset on the current path, the mask, prod (X - a) over
    the subset as raw values, top coefficient first, and the next index to
    add.  Each subset costs one root-factor multiplication, a list kernel call
    of O(|A|), and nothing is divided.  The nullity counts the vanishing
    coefficients just below the top, capped at |A|, as in FiniteSet.
    """
    mul_root = ctx._mul_root
    values = [x.value for x in elements]
    n = len(values)
    most = n if most is None else min(most, n)
    path = [(0, [ctx.one.value], 0)] if most > 0 else []
    while path:
        mask, coeffs, i = path.pop()
        child, grown = mask | 1 << i, mul_root(coeffs, values[i])
        yield child, _leading_zeros(grown)
        i += 1
        if i < n:
            path.append((mask, coeffs, i))
            if len(path) < most:
                path.append((child, grown, i))


def _mask_set(ctx: FieldCtx, mask: int) -> FiniteSet:
    """The set of the elements x with bit x.value of mask set."""
    return FiniteSet(ctx, [x for x in ctx.elements() if mask >> x.value & 1])


def _power_sum_kernel(ctx: FieldCtx, r: int):
    """Mask (bit a.value for a in A) of every A within F_q^* whose power sums
    p_1(A), ..., p_r(A) all vanish, each once, for a finite field and r > 0.

    p_k(A) = sum_a x_a a^k is F_p-linear in the 0/1 indicator x, so each
    k <= r gives e equations over F_p, one per base-p digit of a^k; k with
    p | k gives none new, as p_(pk) = p_k^p.  The system is row-reduced once
    by field._row_reduce.  The free columns are Gray-walked, each step adding
    or removing one column of pivot values, and an assignment is kept when
    every pivot value is 0 or 1.
    """
    p, e, vpow = ctx.characteristic, ctx.e, ctx._vpow
    n = ctx.cardinality - 1  # column j stands for the unit of value j + 1
    rows = [
        row
        for k in range(1, r + 1)
        if k % p
        for row in zip(*(_digits(vpow(a, k), p, e) for a in range(1, n + 1)))
    ]
    pivots = _row_reduce(rows, p)
    free = [j for j in range(n) if j not in pivots]
    # the pivot values are -F x_free: free column j leaving A adds F[:, j] to
    # them, entering A adds -F[:, j]
    steps = [([row[j] for row in rows], [-row[j] % p for row in rows]) for j in free]
    values, chosen = [0] * len(rows), 0
    yield 0
    for step in range(1, 1 << len(free)):
        bit = (step & -step).bit_length() - 1
        chosen ^= 1 << bit
        values = [(v + c) % p for v, c in zip(values, steps[bit][chosen >> bit & 1])]
        if max(values) < 2:
            inside = [j for i, j in enumerate(free) if chosen >> i & 1]
            inside += [j for v, j in zip(values, pivots) if v]
            yield sum(2 << j for j in inside)


def _kernel_masks(ctx: FieldCtx, lam: int) -> list:
    """Masks of the nonempty subsets of F_q of nullity >= lam: each A of
    ``_power_sum_kernel(ctx, lam)``, with and without 0 (bit 0), is rebuilt
    from its roots and kept when its nullity, capped at |A|, is >= lam."""
    return [
        mask
        for kernel in _power_sum_kernel(ctx, lam)
        for mask in (kernel, kernel | 1)
        if mask and _mask_set(ctx, mask).nullity >= lam
    ]


def redei_scan(q: int, config: OracleConfig = None) -> ScanReport:
    """All subsets of a small odd field: who reaches nullity (q-1)/2?

    The expected answer is exactly the full field and its units.  In every
    characteristic Newton's identities write p_k as a sum of e_i p_(k-i) and
    +-k e_k, so e_1 = ... = e_lam = 0 forces p_1 = ... = p_lam = 0, and
    ``_kernel_masks`` takes its candidates from the 0/1 solutions of those
    lam power-sum equations.  Only the converse, needed for the kernel to be
    exactly the qualifying sets, asks k < p: over F_(p^e), e > 1, lam >= p
    and k e_k vanishes at k = p, so the kernel may hold more sets.  Each
    candidate, with and without 0, is therefore confirmed by its nullity
    from its own roots, never read off the equations: a wrong kernel can
    lose a set but never add one.  ``instances`` counts the 2^q - 1
    nonempty subsets, and sets are built only for qualifying masks, in mask
    order.  ``_subset_nullities`` is the walk over every subset.
    """
    q, cfg = _exponent(q, "field order"), config or _DEFAULT
    if q % 2 == 0:
        raise EvenQ(f"half of {q} - 1 is not an integer")
    if q <= 3:
        raise PreconditionViolated("the classification needs q > 3")
    if q > cfg.max_subset_scan_q:
        raise ScanTooLarge(f"2^{q} subsets exceed the scan bound")
    ctx = _field_for_order(q)
    lam = (q - 1) // 2
    masks = _kernel_masks(ctx, lam)
    full = (1 << q) - 1
    qualifying = [_mask_set(ctx, mask) for mask in sorted(masks)]
    expected = [_mask_set(ctx, full), _mask_set(ctx, full - 1)]
    unexpected = [A for A in qualifying if A not in expected]
    missing = [A for A in expected if A not in qualifying]
    verdict = not unexpected and not missing
    return ScanReport(
        name="redei",
        instances=full,
        verdict=verdict,
        details={
            "q": q,
            "lambda": lam,
            "qualifying": [repr(A) for A in qualifying],
        },
        counterexamples=tuple(
            {"set": repr(A), "problem": "unexpected"} for A in unexpected
        )
        + tuple({"set": repr(A), "problem": "missing"} for A in missing),
    )


def _rotation_sumset(p: int, a_mask: int, b_mask: int) -> int:
    """Mask of A + B in F_p, the or of A rotated by each b in B."""
    full = (1 << p) - 1
    c_mask = 0
    for b in range(p):
        if b_mask >> b & 1:
            c_mask |= (a_mask << b | a_mask >> p - b) & full
    return c_mask


def _dichotomy_holds(null_of, a_mask: int, b_mask: int, c_mask: int) -> bool:
    """N(A + B) >= min(N(A), N(B)), or else |A + B| >= |A| + |B| + N(A + B)."""
    null = null_of[c_mask]
    return null >= min(null_of[a_mask], null_of[b_mask]) or (
        c_mask.bit_count() >= a_mask.bit_count() + b_mask.bit_count() + null
    )


def scd_scan(p: int, config: OracleConfig = None) -> ScanReport:
    """Sumset dichotomy over F_p for every pair of nonempty subsets.

    Subsets are bitmasks, and ``_subset_nullities`` gives each mask's nullity
    once.  A pair with min(N(A), N(B)) = 0 holds by N(A + B) >= 0, so only
    pairs of masks of positive nullity are checked, each sumset by
    ``_rotation_sumset``; counterexamples come in (a_mask, b_mask) order.  The
    (2^p - 1)^2 pairs are refused above 2^(max_subset_scan_q + 1).
    """
    p, cfg = _exponent(p, "prime"), config or _DEFAULT
    if not _is_prime(p):
        raise NotPrimeField(f"{p} is not prime")
    bound = cfg.max_subset_scan_q + 1
    # for p >= 2, (2^p - 1)^2 <= 2^bound exactly when 2p <= bound
    if 2 * p > bound:
        pairs = ((1 << p) - 1) ** 2 if p <= 64 else f"(2^{p} - 1)^2"
        raise ScanTooLarge(f"{pairs} subset pairs exceed the scan bound 2^{bound}")
    ctx = PrimeField(p)
    full = (1 << p) - 1
    null_of = [0] * (full + 1)
    for mask, null in _subset_nullities(ctx, ctx.elements()):
        null_of[mask] = null
    positive = [mask for mask in range(1, full + 1) if null_of[mask]]
    bad = []
    for a_mask in positive:
        for b_mask in positive:
            c_mask = _rotation_sumset(p, a_mask, b_mask)
            if not _dichotomy_holds(null_of, a_mask, b_mask, c_mask):
                bad.append({"a_mask": a_mask, "b_mask": b_mask, "sum_mask": c_mask})
    return ScanReport(
        name="scd",
        instances=full * full,
        verdict=not bad,
        details={"p": p, "pairs": full * full},
        counterexamples=tuple(bad),
    )


def ore_form_check(ctx: FieldCtx, generators, shift=None) -> bool:
    """Structural checks for a coset A = shift + V of an additive subgroup V.

    Verifies that the vanishing polynomial P_A is supported on p-power
    degrees (plus a constant), which by Lucas' theorem is the binomial
    relations C(n-r, k-r) e_r = 0 for r < k < n on its elementary moments
    (k is 0 or a power of p exactly when p divides every C(k, j), 0 < j < k;
    tests/test_oracle.py::test_p_power_degrees_are_the_binomial_zeros), that
    translating A by an element outside V keeps those moments, and, when A
    is V, that the coefficient of X is the product of the nonzero elements.

    P_A(X - c) - P_A(X) = -L_V(c) is constant for every c in the field, so
    a translate by c outside V (a set other than A) keeps the coefficients of
    X, ..., X^n.  One of 1, t, ..., t^(e-1), whose values are p^0, ...,
    p^(e-1), lies outside V unless V is the field; the first such is the
    translate, whose char poly is built from its own roots, never shifted
    from P_A.  Everything runs on raw values: the span by grids._span_values,
    each char poly (top coefficient first) by poly._root_values.
    """
    if ctx.kind == "rationals":
        raise CharacteristicZero("additive structure needs characteristic p > 0")
    p, vadd = ctx.characteristic, ctx._vadd
    span = _span_values(ctx, generators, shift)
    n, members = len(span), set(span)
    cp = _root_values(ctx, span)

    # p^i <= n needs i < n.bit_length(), and larger powers never meet the support
    support = {n - j for j, c in enumerate(cp) if c}
    if not support <= {0} | {p**i for i in range(n.bit_length())}:
        return False

    first = span[0]
    c = next((p**i for i in range(ctx.e) if vadd(p**i, first) not in members), None)
    if c is not None:
        translated = _root_values(ctx, [vadd(x, c) for x in span])
        # the coefficients of X, ..., X^n are +-e_(n-1), ..., e_0
        if translated[:-1] != cp[:-1]:
            return False

    # the product of the units of A is never 0, so the coefficient of X is not
    return 0 not in members or cp[n - 1] == reduce(ctx._vmul, filter(None, span), 1)


def enumerate_additive_subgroups(ctx: FieldCtx, config: OracleConfig = None) -> list:
    """Generator tuples, one per distinct additive subgroup of the field.

    Each subspace of F_p^e, on the base-p digits of element indices, is met
    once as its reduced row echelon basis, pivots on the top digits.  Its rows
    in pivot order are the greedy basis of the span (each next generator is
    the smallest index not yet in it): by the matroid greedy property, the
    lex-first generator subset ``additive_subgroups_bruteforce`` keeps, so
    sorting by (dimension, indices) gives its list; () spans {0}.  The budget
    is the number of elements over all the subgroups, the sum over k of
    [e choose k]_p * p^k, against 2^max_subset_scan_q; it is at least both
    the subgroup count and the field size, and is checked before any element
    is built.
    """
    cfg = config or _DEFAULT
    if ctx.kind == "rationals":
        raise CharacteristicZero("additive subgroups need characteristic p > 0")
    p, e = ctx.characteristic, ctx.e
    # gaussian runs through the Gaussian binomials [e choose k]_p
    elements, gaussian = 0, 1
    for k in range(e + 1):
        elements += gaussian * p**k
        gaussian = gaussian * (p ** (e - k) - 1) // (p ** (k + 1) - 1)
    if elements > 2**cfg.max_subset_scan_q:
        raise ScanTooLarge(
            f"{elements} elements over all subgroups exceed the scan bound "
            f"2^{cfg.max_subset_scan_q}"
        )
    bases = []
    for dim in range(e + 1):
        for pivots in itertools.combinations(range(e), dim):
            # row i: digit 1 at its pivot, free digits below it off the pivots
            free = [(i, p**j) for i, t in enumerate(pivots) for j in range(t) if j not in pivots]
            for digits in itertools.product(range(p), repeat=len(free)):
                rows = [p**t for t in pivots]
                for (i, weight), d in zip(free, digits):
                    rows[i] += d * weight
                bases.append(tuple(rows))
    bases.sort(key=lambda rows: (len(rows), rows))
    elems = ctx.elements()
    return [tuple(elems[v] for v in rows) for rows in bases]
