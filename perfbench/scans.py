"""scans workload: the exhaustive oracle scans, in seeded order.

Time goes to the oracle and to the thousands of small sets and
characteristic polynomials it builds; no grid engine runs.  Each oracle call
is one job: redei_scan for q = 9, 11, 13, scd_scan for p = 5, 7, and for each
of F4, F8, F9, F16, F25, F27 enumerate_additive_subgroups followed by
ore_form_check on every subgroup, once as is and once shifted by a seeded
element.  The answers are known from the mathematics, so the reference needs
no computation beyond Gaussian binomials and element display.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref

REDEI = (9, 11, 13)
SCD = (5, 7)
ORE_FIELDS = ("F2^2", "F2^3", "F3^2", "F2^4", "F5^2", "F3^3")


def gaussian_binomial(e: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^e."""
    num = den = 1
    for i in range(k):
        num *= p ** (e - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@dataclass
class Plan:
    fields: dict  # spec -> reference field
    jobs: list


def plan(seed: int) -> Plan:
    rng = random.Random(seed)
    fields = {spec: ref.ref_field(spec) for spec in ORE_FIELDS}
    units = [[{"kind": "redei", "q": q}] for q in REDEI]
    units += [[{"kind": "scd", "p": p}] for p in SCD]
    for spec, F in fields.items():
        count = sum(gaussian_binomial(F.e, k, F.p) for k in range(F.e + 1))
        ore = []
        for i in range(count):
            ore.append({"kind": "ore", "field": spec, "subgroup": i, "shift": None})
            ore.append({"kind": "ore", "field": spec, "subgroup": i,
                        "shift": F.show(rng.randrange(1, F.q))})
        rng.shuffle(ore)
        units.append([{"kind": "subgroups", "field": spec}] + ore)
    rng.shuffle(units)
    jobs = [job for unit in units for job in unit]
    for i, job in enumerate(jobs):
        job["id"] = i
    return Plan(fields, jobs)


def build(gn, plan: Plan) -> list:
    """Parse the fields and the shift elements from their text."""
    ctxs = {spec: gn.parse_field(spec) for spec in plan.fields}
    inputs = []
    for job in plan.jobs:
        ctx = ctxs.get(job.get("field"))
        shift = job.get("shift")
        inputs.append((ctx, None if shift is None else gn.parse_element(shift, ctx)))
    return inputs


def run_job(gn, job, inp, state):
    ctx, shift = inp
    kind = job["kind"]
    if kind == "redei":
        return gn.redei_scan(job["q"])
    if kind == "scd":
        return gn.scd_scan(job["p"])
    if kind == "subgroups":
        state[job["field"]] = gn.enumerate_additive_subgroups(ctx)
        return state[job["field"]]
    gens = state[job["field"]][job["subgroup"]]
    return gn.ore_form_check(ctx, list(gens), shift)


def canon(job, out):
    kind = job["kind"]
    if kind == "redei":
        return {"verdict": out.verdict, "instances": out.instances,
                "qualifying": sorted(out.details["qualifying"])}
    if kind == "scd":
        return {"verdict": out.verdict, "instances": out.instances, "bad": len(out.counterexamples)}
    if kind == "subgroups":
        dims = {}
        for gens in out:
            dims[len(gens)] = dims.get(len(gens), 0) + 1
        return sorted(dims.items())
    return out


def expected(plan: Plan) -> list:
    out = []
    for job in plan.jobs:
        kind = job["kind"]
        if kind == "redei":
            F = ref.ref_field(f"F{job['q']}" if job["q"] in (11, 13) else "F3^2")
            show = lambda xs: "{" + ", ".join(F.show(x) for x in xs) + "}"
            out.append({"verdict": True, "instances": 2 ** job["q"] - 1,
                        "qualifying": sorted([show(F.elements), show(F.elements[1:])])})
        elif kind == "scd":
            out.append({"verdict": True, "instances": (2 ** job["p"] - 1) ** 2, "bad": 0})
        elif kind == "subgroups":
            F = plan.fields[job["field"]]
            out.append([(k, gaussian_binomial(F.e, k, F.p)) for k in range(F.e + 1)])
        else:
            out.append(True)
    return out
