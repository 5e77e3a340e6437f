"""cli workload: every job is a fresh `python -m gridnull.cli` process.

Nothing is shared between jobs, so interpreter start, import, field
construction, parsing and report output dominate; work moved into import or
field set-up shows here as a loss even when it wins in process.  Jobs are
drawn from all nine subcommands on small inputs, in text and JSON, a few
analyze-set jobs on 40- to 85-element sets, and malformed field, set, grid,
polynomial and monomial strings that must exit 2.  One job runs at a time.

This process does not import gridnull: on Linux a child's reported peak RSS
is at least the parent's RSS when it was spawned, so the parent stays small.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import reference as ref
from common import (END_TO_END, MIN_PASSES, OUT, ROOT, SETUP_REPEATS, HostClock, latency_metrics,
                    report_host, result)
from engines import reference_result
from scans import gaussian_binomial
from specs import boxed_poly, factor_text, grid_text, poly_text, rand_nonzero, random_poly
from tracer import PER_LAYER, Tracer, field_microtiming

JOB_LIMIT_S = 2.0  # per-job wall-clock limit; a job over it is killed and fails
HOSTILE = (  # known to run unbounded; probed in traced runs only, outside timing
    ["analyze-set", "--field", "F1000003", "--set", "units"],
    ["analyze-set", "--field", "F1000000000000000003", "--set", "{1}"],
)

_Q = ref.RationalRef()
GRIDS = {  # name -> (field, factors)
    "F7a": ("F7", [("all",), ("mul", 3, None)]),
    "F7b": ("F7", [("mul", 2, None), ("mul", 3, 2), ("mul", 6, None)]),
    "F13a": ("F13", [("mul", 4, None), ("mul", 3, 2)]),
    "F13b": ("F13", [("mul", 6, None), ("mul", 4, 3)]),
    "F9a": ("F3^2", [("add", [1], None), ("all",)]),
    "F5a": ("F5", [("all",), ("units",)]),
    "Qa": ("Q", [("set", [_Q.from_int(v) for v in (-1, 0, 1)]),
                 ("set", [_Q.from_int(v) for v in (-2, 0, 2)])]),
    "Qb": ("Q", [("set", [_Q.from_int(v) for v in (-1, 0, 1, 2)]),
                 ("set", [_Q.from_int(v) for v in (0, 3)])]),
}
PLANE_GRIDS = {
    "F7p": ("F7", [("mul", 3, None), ("mul", 3, None), ("mul", 2, None)]),
    "F5p": ("F5", [("all",), ("mul", 2, None)]),
    "F9p": ("F3^2", [("add", [1], None), ("add", [3], None)]),
}
BIG_SETS = (  # (field, set, size, nullity)
    ("F7^2", "all", 49, 47),
    ("F3^4", "mul(40)", 40, 39),
    ("F2^6/1,1,0,0,0,0,1", "all", 64, 62),
    ("F2^8/1,0,1,1,1,0,0,0,1", "mul(85)", 85, 84),
)
MALFORMED = (
    ["analyze-set", "--field", "F8", "--set", "{1, 2}"],
    ["analyze-set", "--field", "G5", "--set", "{1, 2}"],
    ["analyze-set", "--field", "F7", "--set", "{1, 2"],
    ["analyze-set", "--field", "F7", "--set", "{}"],
    ["analyze-grid", "--field", "F7", "--grid", "mul(5) x all"],
    ["analyze-grid", "--field", "F7", "--grid", "all x {1, 2"],
    ["cn-check", "--field", "F7", "--grid", "all x all", "--poly", "x1 +* x2"],
    ["cn-check", "--field", "F7", "--grid", "all x all", "--poly", "x3 + 1"],
    ["coeff", "--field", "F13", "--grid", "mul(4) x mul(4)", "--poly", "x1*x2", "--k", "1,a"],
    ["grid-sum", "--field", "Q", "--grid", "{0, 1} x {1/0}", "--poly", "x1"],
)
# jobs per pass by subcommand
MIX = {"analyze-set": 7, "analyze-grid": 8, "cn-check": 14, "coeff": 14, "interpolate": 8,
       "grid-sum": 10, "sumset-cd": 8, "plane-scan": 8, "oracle-suite": 9, "malformed": 10}


class Plan:
    """The seeded job list of one cli pass.

    Which grid, field or scan a job uses cycles through fixed lists, so every
    seed runs the same mix; the seed draws polynomials, shifts, sets, output
    format, input files and the order of the jobs.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fields = {}
        self.grids = {}
        self.jobs = []
        self.files = {}  # relative path -> contents
        for kind, count in MIX.items():
            for i in range(count):
                self.jobs.append(self._job(kind, i))
        for i in range(len(BIG_SETS)):
            self.jobs.append(self._big_set(i))
        self.rng.shuffle(self.jobs)
        for i, job in enumerate(self.jobs):
            job["id"] = i

    def field(self, spec):
        if spec not in self.fields:
            self.fields[spec] = ref.ref_field(spec)
        return self.fields[spec]

    def grid(self, name, table=GRIDS):
        if name not in self.grids:
            spec, factors = table[name]
            self.grids[name] = (spec, factors, ref.RefGrid(self.field(spec), factors))
        return self.grids[name]

    def _source(self, flag, text, key):
        """--flag text, or --flag-file naming a generated file, one time in four."""
        if self.rng.random() < 0.25:
            path = f"in-{key}-{len(self.files)}.txt"
            self.files[path] = text
            return [f"{flag}-file", path]
        return [f"{flag}={text}"]  # one word, so a leading "-" is not read as a flag

    def _job(self, kind, i) -> dict:
        rng = self.rng
        if kind == "malformed":
            return {"kind": kind, "argv": list(rng.choice(MALFORMED)), "json": False}
        job = {"kind": kind, "json": rng.random() < 0.5}
        if kind == "analyze-set":
            spec = ("F7", "F11", "F13")[i % 3]
            F = self.field(spec)
            choice = ("mul", "units", "all", "set")[i % 4]
            if choice == "mul":
                d = rng.choice([d for d in range(1, F.q) if (F.q - 1) % d == 0])
                shift = rng.choice((None, rand_nonzero(F, rng)))
                factor = ("mul", d, shift)
            elif choice == "set":
                factor = ("set", rng.sample(range(F.q), rng.randint(3, 6)))
            else:
                factor = (choice,)
            job.update(field=spec, factor=factor,
                       argv=["analyze-set", "--field", spec, "--set", factor_text(F, factor)])
        elif kind == "oracle-suite":
            scan, k = ("redei", "scd", "ore")[i % 3], i // 3
            arg = {"redei": ["--q", ("5", "7", "9")[k % 3]],
                   "scd": ["--p", ("3", "5")[k % 2]],
                   "ore": ["--field", ("F2^2", "F2^3", "F3^2")[k % 3]]}[scan]
            job.update(scan=scan, argv=["oracle-suite", "--scan", scan] + arg)
        else:
            table = PLANE_GRIDS if kind == "plane-scan" else GRIDS
            if kind == "sumset-cd":
                table = {k: v for k, v in GRIDS.items() if v[0] in ("F5", "F7", "F13")}
            name = sorted(table)[i % len(table)]
            spec, factors, G = self.grid(name, table)
            F = G.F
            job.update(grid=name, field=spec)
            if kind == "sumset-cd":
                job["argv"] = ["sumset-cd", "--field", spec]
                for factor in factors[:2]:
                    job["argv"] += ["--set", factor_text(F, factor)]
            else:
                job["argv"] = [kind, "--field", spec] + self._source("--grid", grid_text(F, factors), "grid")
            top = tuple(s - 1 for s in G.sizes)
            bound = sum(top) + G.joint_nullity
            terms = None
            if kind in ("cn-check", "grid-sum"):
                terms = random_poly(F, G.n, bound + (rng.random() < 0.2), 3, rng,
                                    must=[top] if rng.random() < 0.7 else [])
            elif kind == "coeff":
                if i % 2:
                    k = tuple(rng.randint(0, s - 1) for s in G.sizes)
                    job["k"] = k
                    terms = random_poly(F, G.n, sum(k) + G.joint_nullity, 3, rng, must=[k])
                    job["argv"] += ["--k", ",".join(map(str, k))]
                else:
                    terms = random_poly(F, G.n, bound, 3, rng, must=[top])
            elif kind == "interpolate":
                terms = boxed_poly(F, G.sizes, G.joint_nullity, 3, rng)
            if kind == "grid-sum":
                job["mode"] = ("plain", "weighted")[i % 2]
                job["argv"] += ["--mode", job["mode"]]
            elif kind == "plane-scan":
                job["mode"] = rng.choice(("pp", "ppp"))
                job["argv"] += ["--mode", job["mode"]]
            if terms is not None:
                job["terms"] = terms
                job["argv"] += self._source("--poly", poly_text(F, terms), "poly")
        if job["json"]:
            job["argv"].append("--json")
        return job

    def _big_set(self, i) -> dict:
        spec, text, size, null = BIG_SETS[i]
        return {"kind": "analyze-set", "json": bool(i % 2), "big": (size, null),
                "argv": ["analyze-set", "--field", spec, "--set", text] + (["--json"] if i % 2 else [])}


def make_plan(seed: int, run_dir: Path) -> Plan:
    """The job list, with its input files written to run_dir."""
    plan = Plan(seed)
    for rel, text in plan.files.items():
        (run_dir / rel).write_text(text, encoding="utf-8")
    return plan


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def expected(plan: Plan) -> list:
    """(exit code, {report key: value}) for every job."""
    return [_expected(plan, job) for job in plan.jobs]


def _expected(plan, job):
    kind = job["kind"]
    if kind == "malformed":
        return 2, {}
    if "big" in job:
        size, null = job["big"]
        return 0, {"size": size, "nullity": null}
    if kind == "analyze-set":
        F = plan.field(job["field"])
        factor = job["factor"]
        A = ref.factor_elements(F, factor)
        if factor[0] == "mul":
            null = factor[1] - 1
        elif factor[0] in ("all", "units"):
            null = F.q - 2
        else:
            null = ref.set_nullity(F, A)
        return 0, {"size": len(A), "nullity": null}
    if kind == "oracle-suite":
        arg = job["argv"][4]
        if job["scan"] == "redei":
            n = 2 ** int(arg) - 1
        elif job["scan"] == "scd":
            n = (2 ** int(arg) - 1) ** 2
        else:
            F = plan.field(arg)
            n = sum(gaussian_binomial(F.e, k, F.p) for k in range(F.e + 1))
        return 0, {"verdict": True, "instances": n}
    table = PLANE_GRIDS if kind == "plane-scan" else GRIDS
    _, factors, G = plan.grid(job["grid"], table)
    F = G.F
    if kind == "analyze-grid":
        return 0, {"size": G.size, "joint_nullity": G.joint_nullity}
    if kind == "sumset-cd":
        A, B = (ref.factor_elements(F, f) for f in factors[:2])
        C = ref.dedupe(F.add(a, b) for a in A for b in B)
        la, lb, lc = (ref.set_nullity(F, X) for X in (A, B, C))
        verdict = lc >= min(la, lb) or len(C) >= len(A) + len(B) + lc
        return int(not verdict), {"verdict": verdict, "details.size_sum": len(C),
                                  "details.lambda_sum": lc}
    if kind == "plane-scan":
        r = reference_result(G, {"kind": "plane_scan", "terms": None, "mode": job["mode"]})
        return int(not r["verdict"]), {"verdict": r["verdict"], "instances": r["instances"]}
    terms = job["terms"]
    if kind == "cn-check":
        r = reference_result(G, {"kind": "gcn_check", "terms": terms})
        verdict = not r["hyp"] or r["witness"] is not None
        witness = None if r["witness"] is None else tuple(r["witness"])
        return int(not verdict), {"hypothesis_ok": r["hyp"], "witness": witness,
                                  "zero_count": r["zero"], "verdict": verdict}
    if kind == "coeff":
        if "k" in job:
            got = reference_result(G, {"kind": "extract_coefficient", "terms": terms, "k": job["k"]})
            verdict = got == F.show(terms.get(job["k"], F.zero))
            return int(not verdict), {"extracted": got, "verdict": verdict}
        r = reference_result(G, {"kind": "cct_coefficient", "terms": terms})
        verdict = not r["bound_ok"] or r["sum"] == r["direct"]
        return int(not verdict), {"weighted_sum": r["sum"], "verdict": verdict}
    if kind == "interpolate":
        return 0, {"verdict": True, "lambda": G.joint_nullity}
    return 0, {"sum": reference_result(G, {"kind": "grid_sum", "terms": terms, "mode": job["mode"]})}


def _text_form(value) -> str:
    """A value as the text report prints it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(str, value)) + ")"
    return str(value)


def _flatten(data, prefix=""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _flatten(value, prefix + key + ".")
        else:
            yield prefix + key, value


def check(job, code, stdout, want) -> list:
    """Problems with one job's exit code and report; empty when it is right."""
    want_code, fields = want
    if code is None:
        return ["killed at the time limit"]
    if code != want_code:
        return [f"exit {code}, expected {want_code}"]
    try:
        if job["json"]:
            got = dict(_flatten(json.loads(stdout))) if fields else {}
            fields = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
        else:
            got = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
            fields = {k: _text_form(v) for k, v in fields.items()}
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    return [f"{k}={got.get(k)!r}, expected {v!r}" for k, v in fields.items() if got.get(k) != v]


def comparable(stdout: str) -> str:
    """A report without its wall-clock field, which differs from run to run."""
    return "\n".join(line for line in stdout.splitlines() if "elapsed_seconds" not in line)


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def spawn(args, run_dir: Path, env) -> tuple:
    """Run one child to exit or to the time limit.

    Returns (exit code, or None when killed; seconds; peak RSS in MB; stdout).
    """
    out_path = run_dir / "stdout.txt"
    with open(out_path, "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=run_dir, env=env, stdout=out, stderr=err)
        reaped = []
        waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(JOB_LIMIT_S)
        killed = waiter.is_alive()
        if killed:
            os.kill(proc.pid, signal.SIGKILL)  # not proc.kill(): it may reap the child itself
            waiter.join()
        seconds = perf_counter() - t0
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
    code = None if killed else proc.returncode
    return code, seconds, usage.ru_maxrss / 1024, out_path.read_text(encoding="utf-8", errors="replace")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(plan, run_dir, clock, traced=False):
    """Every job once; returns [(code, scaled seconds, rss, stdout)]."""
    env = child_env()
    entry = [str(Path(__file__).with_name("traced_cli.py"))] if traced else ["-m", "gridnull.cli"]
    results = []
    for job in plan.jobs:
        dump = [str(run_dir / f"trace-{job['id']}.json"), str(job["id"])] if traced else []
        (code, _, rss, stdout), seconds = clock.time(spawn, entry + dump + job["argv"], run_dir, env)
        results.append((code, seconds, rss, stdout))
    return results


def _failures(plan, results, want, label) -> int:
    failed = 0
    for job, (code, _, _, stdout), w in zip(plan.jobs, results, want):
        problems = check(job, code, stdout, w)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"mismatch ({label}) job {job['id']} {job['argv']}: {problems}", file=sys.stderr)
    return failed


def _run_dir(seed: int) -> Path:
    run_dir = OUT / f"cli-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def measure(seed: int, seconds: float) -> dict:
    """End-to-end metrics over whole passes of child processes."""
    run_dir = _run_dir(seed)
    clock = HostClock()
    try:
        setups, passes = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(passes) < MIN_PASSES:
            for _ in range(SETUP_REPEATS):
                plan, s = clock.time(make_plan, seed, run_dir)
                setups.append(s)
            passes.append(run_pass(plan, run_dir, clock))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    want = expected(plan)
    failed = sum(_failures(plan, results, want, "untraced") for results in passes)
    done = [r for results in passes for r in results]
    # killed children are left out: their peak depends on when the kill landed
    rss = max((r[2] for r in done if r[0] is not None), default=0.0)
    metrics = {**latency_metrics([r[1] for r in done]), "setup_s": statistics.median(setups),
               "peak_rss_mb": rss}
    report_host(clock)
    return result(len(done), failed, metrics, END_TO_END)


def trace(seed: int) -> dict:
    """Per-layer metrics from one untraced and one traced pass of the same jobs."""
    run_dir = _run_dir(seed)
    try:
        plan = make_plan(seed, run_dir)
        clock = HostClock()
        plain = run_pass(plan, run_dir, clock)
        traced = run_pass(plan, run_dir, clock, traced=True)
        tracer, import_ms = Tracer(), []
        for job in plan.jobs:
            path = run_dir / f"trace-{job['id']}.json"
            if path.exists():
                dump = json.loads(path.read_text(encoding="utf-8"))
                tracer.merge(dump["state"])
                tracer.spans.extend(tuple(s) for s in dump["spans"])
                import_ms.append(dump["import_s"] * 1000)
        hostile = [spawn(["-m", "gridnull.cli"] + argv, run_dir, child_env()) for argv in HOSTILE]
        bare = [clock.time(spawn, ["-c", "pass"], run_dir, child_env())[1] * 1000 for _ in range(5)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for argv, (code, seconds, _, _) in zip(HOSTILE, hostile):
        outcome = "killed" if code is None else f"exit {code}"
        print(f"hostile input {' '.join(argv)}: {outcome} after {seconds:.2f}s", file=sys.stderr)
    tracer.write_spans(OUT / "spans-cli.jsonl")

    want = expected(plan)
    failed = _failures(plan, plain, want, "untraced") + _failures(plan, traced, want, "traced")
    for job, a, b in zip(plan.jobs, plain, traced):
        if a[0] != b[0] or comparable(a[3]) != comparable(b[3]):
            failed += 1
            print(f"traced output differs for job {job['id']} {job['argv']}", file=sys.stderr)
    metrics = {k: 0 for k in PER_LAYER}
    metrics.update(tracer.layer_metrics())
    metrics.update({
        "cli.bare_start_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(import_ms) if import_ms else 0.0,
        "cli.exit_code_mismatches": sum(r[0] is not None and r[0] != w[0] for r, w in zip(traced, want)),
        "cli.timeouts": sum(r[0] is None for r in traced + hostile),
        "trace_overhead_ratio": sum(r[1] for r in traced) / sum(r[1] for r in plain),
    })
    # field timing runs in process, after the children: as in measured runs,
    # this process does not hold gridnull while they run
    import gridnull

    metrics.update(field_microtiming(gridnull, seed, clock))
    return result(2 * len(plan.jobs), failed, metrics, PER_LAYER)
