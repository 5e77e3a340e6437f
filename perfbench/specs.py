"""Seeded inputs in the library's text grammar, with their structured form.

The generators return the structured form the reference evaluates (factor
tuples, {exponents: coefficient} maps in reference values) and the spec
strings the library parses, so the library only ever sees text made from the
seed.
"""

from __future__ import annotations

import random
from fractions import Fraction


def factor_text(F, factor) -> str:
    kind = factor[0]
    if kind in ("all", "units", "tracezero"):
        return kind
    if kind == "set":
        return "{" + ", ".join(F.show(v) for v in factor[1]) + "}"
    if kind == "mul":
        _, d, shift = factor
        return f"mul({d})" if shift is None else f"mul({d}, {F.show(shift)})"
    _, gens, shift = factor
    body = ";".join(F.show(g) for g in gens)
    return f"add({body})" if shift is None else f"add({body}, {F.show(shift)})"


def grid_text(F, factors) -> str:
    return " x ".join(factor_text(F, f) for f in factors)


def _monomial_text(m) -> str:
    parts = []
    for i, k in enumerate(m):
        if k == 1:
            parts.append(f"x{i + 1}")
        elif k > 1:
            parts.append(f"x{i + 1}^{k}")
    return "*".join(parts)


def poly_text(F, terms: dict) -> str:
    """Terms {exponents: coefficient} as a sum the library's parser reads."""
    out = ""
    for m, c in terms.items():
        s = F.show(c)
        sign = "-" if s.startswith("-") else "+"
        s = s.lstrip("-")
        mono = _monomial_text(m)
        if mono:
            if s == "1":
                s = mono
            else:
                s = f"({s})*{mono}" if "+" in s else f"{s}*{mono}"
        out += (f" {sign} " if out else ("-" if sign == "-" else "")) + s
    return out or "0"


def rand_nonzero(F, rng: random.Random):
    if F.finite:
        return rng.randrange(1, F.q)
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([1, 1, 1, 2, 3]))


def monomial_of_degree(n: int, d: int, rng: random.Random) -> tuple:
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def balanced_monomial(n: int, d: int, rng: random.Random) -> tuple:
    """Degree d split as evenly as possible, the remainder on random variables."""
    exps = [d // n] * n
    for i in rng.sample(range(n), d % n):
        exps[i] += 1
    return tuple(exps)


def random_poly(F, n: int, degree: int, nterms: int, rng, must=(), avoid=()) -> dict:
    """nterms terms of total degree between degree - 2 and degree, one exactly degree.

    Monomials in must are always present; monomials in avoid never are.  The
    term of exact degree spreads it evenly over the variables, so the cost of
    evaluating the polynomial, which its largest powers dominate, varies
    little from seed to seed.
    """
    terms = {m: rand_nonzero(F, rng) for m in must}
    exact = any(sum(m) == degree for m in must)
    while not exact:
        m = balanced_monomial(n, degree, rng)
        if m not in avoid:
            terms.setdefault(m, rand_nonzero(F, rng))
            exact = True
    for _ in range(8 * nterms):  # low degrees may have fewer than nterms monomials
        if len(terms) >= nterms:
            break
        m = monomial_of_degree(n, rng.randint(max(0, degree - 2), degree), rng)
        if m not in avoid:
            terms.setdefault(m, rand_nonzero(F, rng))
    return terms


def boxed_poly(F, sizes, lam: int, nterms: int, rng) -> dict:
    """Terms with exponent i below sizes[i] and total degree at most lam."""
    terms = {}
    for _ in range(8 * nterms):
        if len(terms) == nterms:
            break
        m = monomial_of_degree(len(sizes), rng.randint(0, lam), rng)
        if all(k < s for k, s in zip(m, sizes)):
            terms.setdefault(m, rand_nonzero(F, rng))
    return terms or {(0,) * len(sizes): rand_nonzero(F, rng)}
