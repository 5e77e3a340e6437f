"""engines workload: a stream of grid-engine jobs over a shared grid pool.

Nearly all of the time goes to theorems -> MultiPoly.evaluate -> field
arithmetic; the oracle is never called.  Grids are parsed once and shared by
the jobs drawn on them, so their cached moments and weights are reused.  The
pool spans extension fields (F27, F16), prime fields (F13, F7) and Q; the Q
jobs never touch the finite-field kernel.  Polynomials are drawn per job with
total degree at the engine's bound, and one time in five one above it where
the engine reports rather than rejects that.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref
from specs import boxed_poly, grid_text, poly_text, rand_nonzero, random_poly

# (field, factors, terms per polynomial, jobs per pass by engine)
_ALL = {"gcn_check": 1, "cct_coefficient": 1, "extract_coefficient": 1, "grid_sum": 2,
        "interpolate": 1, "punctured_check": 1, "plane_grid_count": 2, "plane_scan": 1}


def _times(k, drop=()):
    return {e: n * k for e, n in _ALL.items() if e not in drop}


_Q = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
# The F27 cube (6,561 points) holds the known gcn hot spot; one gcn job a pass
# keeps that single job from setting the whole throughput.  The many small
# prime-field and Q jobs keep the median steady from seed to seed.
POOL = [
    ("F3^3", [("all",), ("all",), ("tracezero",)], 2, {"gcn_check": 1, "plane_grid_count": 2}),
    ("F3^3", [("add", [1, 3], None), ("add", [3, 9], 1)], 4, _times(3)),
    ("F3^3", [("tracezero",), ("mul", 13, None)], 3, _times(2)),
    ("F2^4", [("add", [1, 2], None), ("add", [4, 8], None), ("add", [1, 8], 2)], 4,
     {**_times(3), "plane_scan": 1}),
    ("F2^4", [("add", [1, 2, 4], None), ("add", [2, 8], None)], 4, _times(2)),
    ("F13", [("mul", 4, None), ("mul", 4, 2), ("mul", 3, None)], 4, _times(6)),
    ("F13", [("mul", 6, None), ("mul", 4, None)], 4, _times(6)),
    ("F7", [("all",), ("all",)], 4, _times(6)),
    ("F7", [("mul", 3, None), ("mul", 2, 3), ("all",)], 4, _times(4)),
    ("Q", [("set", _Q[1:4]), ("set", [_Q[0], _Q[2], _Q[4]]), ("set", [_Q[1], _Q[3]])], 4,
     _times(8, drop=("plane_grid_count", "plane_scan"))),
    ("Q", [("set", [_Q[0], _Q[1], _Q[3], _Q[4]]), ("set", _Q[1:4])], 4,
     _times(8, drop=("plane_grid_count", "plane_scan"))),
]


@dataclass
class Plan:
    fields: dict  # spec -> reference field
    grids: list  # (field spec, grid text, RefGrid)
    jobs: list


def plan(seed: int) -> Plan:
    rng = random.Random(seed)
    fields, grids, jobs = {}, [], []
    for gi, (spec, factors, nterms, mix) in enumerate(POOL):
        F = fields.setdefault(spec, ref.ref_field(spec))
        G = ref.RefGrid(F, factors)
        grids.append((spec, grid_text(F, factors), G))
        for kind, count in mix.items():
            for i in range(count):
                jobs.append(_job(F, G, gi, kind, i, nterms, rng))
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return Plan(fields, grids, jobs)


def _job(F, G, gi, kind, i, nterms, rng) -> dict:
    top = tuple(s - 1 for s in G.sizes)
    bound = sum(top) + G.joint_nullity
    job = {"kind": kind, "grid": gi, "terms": None}
    if kind in ("gcn_check", "cct_coefficient", "grid_sum"):
        degree = bound + (rng.random() < 0.2)
        must = [top] if rng.random() < 0.7 else []
        job["terms"] = random_poly(F, G.n, degree, nterms, rng, must=must)
        if kind == "grid_sum":
            job["mode"] = ("plain", "weighted")[i % 2]
    elif kind == "punctured_check":
        job["terms"] = random_poly(F, G.n, bound, nterms, rng, avoid=[top])
    elif kind == "extract_coefficient":
        k = tuple(rng.randint(0, s - 1) for s in G.sizes)
        job["k"] = k
        job["terms"] = random_poly(F, G.n, sum(k) + G.joint_nullity, nterms, rng, must=[k])
    elif kind == "interpolate":
        job["lam"] = G.joint_nullity
        job["terms"] = boxed_poly(F, G.sizes, G.joint_nullity, nterms, rng)
    elif kind == "plane_grid_count":
        c = [rng.randrange(F.q) for _ in range(G.n)]
        c[rng.randrange(G.n)] = rand_nonzero(F, rng)
        job["c"] = c
        job["c_text"] = [F.show(x) for x in c]
    elif kind == "plane_scan":
        job["mode"] = rng.choice(("pp", "ppp"))
    if job["terms"] is not None:
        job["text"] = poly_text(F, job["terms"])
    return job


def build(gn, plan: Plan) -> list:
    """Parse every field, grid, polynomial and plane from its text."""
    fields = {spec: gn.parse_field(spec) for spec in plan.fields}
    grids = [gn.parse_grid(text, fields[spec]) for spec, text, _ in plan.grids]
    inputs = []
    for job in plan.jobs:
        grid = grids[job["grid"]]
        f = gn.parse_poly(job["text"], grid.n, grid.ctx) if "text" in job else None
        c = [gn.parse_element(s, grid.ctx) for s in job["c_text"]] if "c_text" in job else None
        inputs.append((grid, f, c))
    return inputs


def run_job(gn, job, inp, state):
    grid, f, c = inp
    kind = job["kind"]
    if kind == "gcn_check":
        return gn.gcn_check(f, grid)
    if kind == "cct_coefficient":
        return gn.cct_coefficient(f, grid)
    if kind == "extract_coefficient":
        return gn.extract_coefficient(f, grid, job["k"])
    if kind == "grid_sum":
        return gn.grid_sum(f, grid, job["mode"])
    if kind == "interpolate":
        values = {a: f.evaluate(a) for a in grid.points()}
        return gn.interpolate(grid, values, job["lam"])
    if kind == "punctured_check":
        return gn.punctured_check(f, grid)
    if kind == "plane_grid_count":
        return gn.plane_grid_count(c, grid)
    return gn.plane_scan(grid, job["mode"])


def canon(job, out):
    """The parts of a result the reference can check, as plain data."""
    kind = job["kind"]
    if kind == "gcn_check":
        return {
            "hyp": out.hypothesis_ok,
            "qual": [list(m) for m in out.qualifying_monomials],
            "witness": None if out.witness is None else [str(x) for x in out.witness],
            "zero": out.zero_count,
            "nonzero": out.nonzero_count,
            "lam": out.joint_nullity,
        }
    if kind == "cct_coefficient":
        return {"sum": str(out.weighted_sum), "direct": str(out.direct_coefficient),
                "bound_ok": out.degree_bound_ok, "bound": out.degree_bound}
    if kind in ("extract_coefficient", "grid_sum"):
        return str(out)
    if kind == "interpolate":
        return sorted((list(m), str(c)) for m, c in out.terms.items())
    if kind == "punctured_check":
        return {"verdict": out.verdict, "nonzero": out.details["nonzero_count"]}
    if kind == "plane_grid_count":
        return out.details["count"]
    return {"instances": out.instances, "verdict": out.verdict, "bad": len(out.counterexamples)}


def expected(plan: Plan) -> list:
    return [reference_result(plan.grids[job["grid"]][2], job) for job in plan.jobs]


def reference_result(G, job):
    """What the engine named by job["kind"] must return, as canon() gives it."""
    F, kind, terms = G.F, job["kind"], job["terms"]
    top = tuple(s - 1 for s in G.sizes)
    lam = G.joint_nullity

    def f(a):
        return ref.evaluate(F, terms, a)

    def weighted(g):
        acc = F.zero
        for a in G.points():
            acc = F.add(acc, F.mul(g(a), G.weight(a)))
        return acc

    if kind == "gcn_check":
        deg = ref.total_degree(terms)
        qual = sorted(
            (m for m in terms if all(k < s for k, s in zip(m, G.sizes)) and deg <= sum(m) + lam),
            key=lambda m: (sum(m), m),
        )
        zero, witness = 0, None
        for a in G.points():
            if f(a) == F.zero:
                zero += 1
            elif witness is None:
                witness = [F.show(x) for x in a]
        return {"hyp": bool(qual), "qual": [list(m) for m in qual], "witness": witness,
                "zero": zero, "nonzero": G.size - zero, "lam": lam}
    if kind == "cct_coefficient":
        bound = sum(top) + lam
        return {"sum": F.show(weighted(f)), "direct": F.show(terms.get(top, F.zero)),
                "bound_ok": ref.total_degree(terms) <= bound, "bound": bound}
    if kind == "extract_coefficient":
        shift = [s - k - 1 for s, k in zip(G.sizes, job["k"])]
        raised = {tuple(e + d for e, d in zip(m, shift)): c for m, c in terms.items()}
        return F.show(weighted(lambda a: ref.evaluate(F, raised, a)))
    if kind == "grid_sum":
        if job["mode"] == "weighted":
            return F.show(weighted(f))
        acc = F.zero
        for a in G.points():
            acc = F.add(acc, f(a))
        return F.show(acc)
    if kind == "interpolate":
        return sorted((list(m), F.show(c)) for m, c in terms.items())
    if kind == "punctured_check":
        nonzero = sum(f(a) != F.zero for a in G.points())
        return {"verdict": nonzero != 1, "nonzero": nonzero}
    if kind == "plane_grid_count":
        return _plane_count(F, G, job["c"])
    planes, bad = 0, 0
    for lead in range(G.n):
        for tail in itertools.product(F.elements, repeat=G.n - lead - 1):
            planes += 1
            count = _plane_count(F, G, (F.zero,) * lead + (F.one,) + tail)
            bad += not (count != 1 if job["mode"] == "pp" else count % F.p == 0)
    return {"instances": planes, "verdict": bad == 0, "bad": bad}


def _plane_count(F, G, c) -> int:
    count = 0
    for a in G.points():
        dot = F.zero
        for ci, x in zip(c, a):
            dot = F.add(dot, F.mul(ci, x))
        count += dot == F.zero
    return count
