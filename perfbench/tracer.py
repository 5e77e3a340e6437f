"""Tracing installed around gridnull's public functions from outside the library.

A Tracer wraps the public functions and methods of each library module and
patches every module attribute that refers to them, because the library's
modules import each other's functions by name.  Each wrapped call is a span
with a name, start, end, parent span and job id.  Calls that happen once per
grid point or per set (evaluate, weights, set construction, property reads)
update the same totals but are not kept as span records, so memory stays
bounded.  Field arithmetic gets counters only: a span per field operation
would cost more than the operation.

Self time is a span's duration minus the time its child spans cover.  Layer
busy time is the wall time during which at least one span of the layer is
open, so nested calls within a layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

ENGINES = (
    "gcn_check",
    "cct_coefficient",
    "extract_coefficient",
    "interpolate",
    "grid_sum",
    "punctured_check",
    "cauchy_davenport",
    "plane_grid_count",
    "plane_scan",
)

_MODULES = ("field", "poly", "nullity", "grids", "theorems", "oracle", "cli")

# (layer, module, attribute, kept as span records)
_FUNCTIONS = (
    [("poly", "poly", n, True) for n in ("parse_poly", "parse_element", "raise_degree", "char_poly")]
    + [("nullity", "nullity", "parse_set", True), ("nullity", "nullity", "weight", False)]
    + [
        ("grids", "grids", n, True)
        for n in ("parse_grid", "parse_factor", "grid_make", "multiplicative_coset",
                  "additive_coset", "trace_zero_set")
    ]
    + [("theorems", "theorems", n, True) for n in ENGINES]
    + [
        ("oracle", "oracle", n, True)
        for n in ("redei_scan", "scd_scan", "enumerate_additive_subgroups", "ore_form_check")
    ]
    + [("cli", "cli", n, True) for n in ("run", "emit_report")]
)

# (layer, module, class, attribute, kept as span records)
_METHODS = (
    ("poly", "poly", "MultiPoly", "evaluate", False),
    ("poly", "poly", "UniPoly", "from_roots", False),
    ("nullity", "nullity", "FiniteSet", "__init__", False),
    ("nullity", "nullity", "FiniteSet", "char_poly", False),
    ("nullity", "nullity", "FiniteSet", "nullity", False),
    ("nullity", "nullity", "FiniteSet", "moments", True),
    ("nullity", "nullity", "FiniteSet", "weight_at", False),
    ("grids", "grids", "Grid", "weight", False),
)

# FieldElement operators, counted by kind
_FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add", "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "inv": "inv", "__pow__": "pow",
}

_COSETS = ("grids.multiplicative_coset", "grids.additive_coset", "grids.trace_zero_set")
_CHAR_POLY_BUILD = "nullity.FiniteSet.char_poly>poly.UniPoly.from_roots"
_SPANS_ATTEMPTED = "oracle.enumerate_additive_subgroups>grids.additive_coset"

# Per-layer metric names and units; trace runs report exactly these.
PER_LAYER = {
    "field.mul_calls": "count", "field.add_calls": "count", "field.inv_calls": "count",
    "field.pow_calls": "count", "field.ctx_eq_calls": "count",
    "field.mul_ns.F7": "ns", "field.mul_ns.F27": "ns", "field.mul_ns.F256": "ns",
    "field.mul_ns.Q": "ns", "field.add_ns.F27": "ns", "field.inv_ns.F27": "ns",
    "poly.evaluate_calls": "count", "poly.evaluate_terms": "count",
    "poly.evaluate_self_s": "s", "poly.parse_calls": "count", "poly.parse_s": "s",
    "nullity.sets_built": "count", "nullity.set_build_s": "s",
    "nullity.char_poly_builds": "count", "nullity.char_poly_s": "s",
    "nullity.char_poly_hit_ratio": "ratio", "nullity.moments_calls": "count",
    "nullity.moments_s": "s", "nullity.weight_calls": "count",
    "grids.parse_grid_calls": "count", "grids.parse_grid_s": "s",
    "grids.points_enumerated": "count", "grids.weight_calls": "count",
    "grids.coset_builds": "count", "grids.coset_build_s": "s",
    **{f"theorems.{e}.calls": "count" for e in ENGINES},
    **{f"theorems.{e}.s": "s" for e in ENGINES},
    "theorems.points_per_s": "points/s", "theorems.errors": "count",
    "oracle.redei_scan_s": "s", "oracle.scd_scan_s": "s", "oracle.subgroups_s": "s",
    "oracle.ore_check_s": "s", "oracle.instances": "count",
    "oracle.spans_attempted": "count", "oracle.subgroup_yield": "ratio",
    "oracle.sets_per_s": "sets/s",
    "cli.bare_start_ms": "ms", "cli.import_ms": "ms", "cli.run_s": "s", "cli.emit_s": "s",
    "cli.exit_code_mismatches": "count", "cli.timeouts": "count",
    "trace_overhead_ratio": "ratio",
}

_SUMMED = ("calls", "total", "self_time", "errors", "pairs", "pair_time", "nested", "busy", "counts")


class Tracer:
    """Counters and spans for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.calls = Counter()  # span name -> calls
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus child spans
        self.errors = Counter()  # span name -> calls that raised
        self.pairs = Counter()  # "parent>child" -> calls
        self.pair_time = defaultdict(float)  # "parent>child" -> inclusive seconds
        self.nested = Counter()  # "layer>name" -> calls made while layer was open
        self.busy = defaultdict(float)  # layer -> seconds with a span of it open
        self.counts = Counter()  # field operations, points, values seen on return
        self.depth = Counter()
        self.stack = []
        self.spans = []
        self.job_id = None
        self._ids = 0
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, name, fn, record, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, depth = tracer.stack, tracer.depth
            parent = stack[-1] if stack else None
            sid = tracer._ids
            tracer._ids += 1
            for open_layer, d in depth.items():
                if d:
                    tracer.nested[f"{open_layer}>{name}"] += 1
            if on_call is not None:
                on_call(args)
            child = [0.0]
            depth[layer] += 1
            stack.append((sid, name, child))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                depth[layer] -= 1
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - child[0]
                if not depth[layer]:
                    tracer.busy[layer] += dur
                if parent is not None:
                    parent[2][0] += dur
                    key = f"{parent[1]}>{name}"
                    tracer.pairs[key] += 1
                    tracer.pair_time[key] += dur
                if record:
                    tracer.spans.append(
                        (sid, name, t0, t1, parent[0] if parent else None, tracer.job_id)
                    )
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _count_points(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def points(grid):
            for a in fn(grid):
                counts["grids.points"] += 1
                yield a

        return points

    def _set_class_attr(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        """Wrap the gridnull modules loaded in this process."""
        mods = {n: importlib.import_module(f"gridnull.{n}") for n in _MODULES}
        every = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gridnull"]

        hooks = {
            "poly.MultiPoly.evaluate": dict(
                on_call=lambda a: self._add("poly.evaluate_terms", len(a[0].terms))
            ),
            "oracle.redei_scan": dict(on_return=lambda r: self._add("oracle.instances", r.instances)),
            "oracle.scd_scan": dict(on_return=lambda r: self._add("oracle.instances", r.instances)),
            "oracle.enumerate_additive_subgroups": dict(
                on_return=lambda r: self._add("oracle.subgroups_found", len(r))
            ),
        }
        for layer, modname, attr, record in _FUNCTIONS:
            original = getattr(mods[modname], attr)
            name = f"{layer}.{attr}"
            wrapped = self._span(layer, name, original, record, **hooks.get(name, {}))
            for m in every:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)
        for layer, modname, clsname, attr, record in _METHODS:
            cls = getattr(mods[modname], clsname)
            raw = cls.__dict__[attr]
            name = f"{layer}.{clsname}.{attr}"
            hook = hooks.get(name, {})
            if isinstance(raw, property):
                value = property(self._span(layer, name, raw.fget, record, **hook))
            elif isinstance(raw, classmethod):
                value = classmethod(self._span(layer, name, raw.__func__, record, **hook))
            else:
                value = self._span(layer, name, raw, record, **hook)
            self._set_class_attr(cls, attr, value)
        grid_cls = mods["grids"].Grid
        self._set_class_attr(grid_cls, "points", self._count_points(grid_cls.__dict__["points"]))
        elem = mods["field"].FieldElement
        for attr, kind in _FIELD_OPS.items():
            self._set_class_attr(elem, attr, self._counting(f"field.{kind}", elem.__dict__[attr]))
        ctx = mods["field"].FieldCtx
        self._set_class_attr(ctx, "__eq__", self._counting("field.ctx_eq", ctx.__dict__["__eq__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _add(self, key, n) -> None:
        self.counts[key] += n

    # -- results ---------------------------------------------------------

    def state(self) -> dict:
        """Accumulated totals as plain JSON data."""
        return {k: dict(getattr(self, k)) for k in _SUMMED}

    def merge(self, state: dict) -> None:
        """Add the totals another process recorded."""
        for k in _SUMMED:
            mine = getattr(self, k)
            for key, value in state[k].items():
                mine[key] += value

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric the trace records; layers that did not run read 0."""
        c, t, cnt = self.calls, self.total, self.counts
        points = cnt["grids.points"]
        reads = c["nullity.FiniteSet.char_poly"]
        builds = self.pairs[_CHAR_POLY_BUILD]
        attempted = self.pairs[_SPANS_ATTEMPTED]
        m = {f"field.{k}_calls": cnt[f"field.{k}"] for k in ("mul", "add", "inv", "pow")}
        m["field.ctx_eq_calls"] = cnt["field.ctx_eq"]
        m.update({
            "poly.evaluate_calls": c["poly.MultiPoly.evaluate"],
            "poly.evaluate_terms": cnt["poly.evaluate_terms"],
            "poly.evaluate_self_s": self.self_time["poly.MultiPoly.evaluate"],
            "poly.parse_calls": c["poly.parse_poly"],
            "poly.parse_s": t["poly.parse_poly"],
            "nullity.sets_built": c["nullity.FiniteSet.__init__"],
            "nullity.set_build_s": t["nullity.FiniteSet.__init__"],
            "nullity.char_poly_builds": builds,
            "nullity.char_poly_s": self.pair_time[_CHAR_POLY_BUILD],
            "nullity.char_poly_hit_ratio": 1 - builds / reads if reads else 0.0,
            "nullity.moments_calls": c["nullity.FiniteSet.moments"],
            "nullity.moments_s": t["nullity.FiniteSet.moments"],
            "nullity.weight_calls": c["nullity.FiniteSet.weight_at"],
            "grids.parse_grid_calls": c["grids.parse_grid"],
            "grids.parse_grid_s": t["grids.parse_grid"],
            "grids.points_enumerated": points,
            "grids.weight_calls": c["grids.Grid.weight"],
            "grids.coset_builds": sum(c[n] for n in _COSETS),
            "grids.coset_build_s": sum(t[n] for n in _COSETS),
        })
        for e in ENGINES:
            m[f"theorems.{e}.calls"] = c[f"theorems.{e}"]
            m[f"theorems.{e}.s"] = t[f"theorems.{e}"]
        busy = self.busy
        m["theorems.points_per_s"] = points / busy["theorems"] if busy["theorems"] else 0.0
        m["theorems.errors"] = sum(self.errors[f"theorems.{e}"] for e in ENGINES)
        m.update({
            "oracle.redei_scan_s": t["oracle.redei_scan"],
            "oracle.scd_scan_s": t["oracle.scd_scan"],
            "oracle.subgroups_s": t["oracle.enumerate_additive_subgroups"],
            "oracle.ore_check_s": t["oracle.ore_form_check"],
            "oracle.instances": cnt["oracle.instances"],
            "oracle.spans_attempted": attempted,
            "oracle.subgroup_yield": cnt["oracle.subgroups_found"] / attempted if attempted else 0.0,
            "oracle.sets_per_s": (
                self.nested["oracle>nullity.FiniteSet.__init__"] / busy["oracle"]
                if busy["oracle"] else 0.0
            ),
            "cli.run_s": t["cli.run"],
            "cli.emit_s": t["cli.emit_report"],
        })
        return m


def field_microtiming(gn, seed: int, clock, ops: int = 1024, repeats: int = 7) -> dict:
    """ns per public operator call on seeded operands, tracing off.

    Times are scaled by the benchmark's host clock; the figure includes the
    loop's own cost of a few tens of ns.
    """
    rng = random.Random(seed)

    def operands(ctx, nonzero=False):
        if ctx.kind == "rationals":
            pick = lambda: ctx.element(Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99)))
        else:
            elems = ctx.elements()
            pick = lambda: elems[rng.randrange(1 if nonzero else 0, len(elems))]
        return [(pick(), pick()) for _ in range(ops)]

    def loop(pairs, op):
        if op == "mul":
            for a, b in pairs:
                a * b
        elif op == "add":
            for a, b in pairs:
                a + b
        else:
            for a, _b in pairs:
                a.inv()

    def ns_per_op(pairs, op):
        samples = [clock.time(loop, pairs, op)[1] for _ in range(repeats)]
        return statistics.median(samples) / len(pairs) * 1e9

    fields = {
        "F7": gn.parse_field("F7"),
        "F27": gn.parse_field("F3^3"),
        "F256": gn.parse_field("F2^8/1,0,1,1,1,0,0,0,1"),
        "Q": gn.parse_field("Q"),
    }
    out = {f"field.mul_ns.{k}": ns_per_op(operands(ctx), "mul") for k, ctx in fields.items()}
    f27 = fields["F27"]
    out["field.add_ns.F27"] = ns_per_op(operands(f27), "add")
    out["field.inv_ns.F27"] = ns_per_op(operands(f27, nonzero=True), "inv")
    return out
