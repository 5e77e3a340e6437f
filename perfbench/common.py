"""Measurement plumbing shared by the workloads.

In-process workloads (engines, scans) provide plan / build / run_job / canon /
expected; measure() and trace() here run them.  A pass runs every job of the
plan once, in the plan's seeded order; a measured run repeats whole passes
until the requested seconds are used, so every run does the same mix of work.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer, field_microtiming

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3  # set-ups before each pass; setup_s is their median
MIN_PASSES = 3

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_gridnull():
    """Import gridnull from scratch, so each set-up pays the import again."""
    for name in [n for n in sys.modules if n.split(".")[0] == "gridnull"]:
        del sys.modules[name]
    return importlib.import_module("gridnull")


class HostClock:
    """Job times scaled to a host of fixed speed.

    Shared virtual hosts can change speed by about 2x for stretches of
    seconds, so raw wall times of identical work spread far wider than any
    change worth detecting.  The clock times a fixed pure-Python calibration
    loop every CALIBRATE_EVERY seconds, next to the jobs, and scales each
    job's wall time by NOMINAL_S / (calibration time around the job).  A
    figure is thus in seconds on a host that runs the loop in NOMINAL_S; work
    that slows the library shows in full, work that slows the host cancels.
    """

    NOMINAL_S = 0.0005
    CALIBRATE_EVERY = 0.05

    def __init__(self):
        self.at = None
        self.current = None
        self.samples = []

    @staticmethod
    def calibration_round() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            table = {}
            for k in range(6000):
                table[k & 255] = (k, k * k)
            best = min(best, perf_counter() - t0)
        return best

    def refresh(self) -> float:
        """The calibration time now, measured again when the last one is stale."""
        if self.at is None or perf_counter() - self.at >= self.CALIBRATE_EVERY:
            self.current = self.calibration_round()
            self.samples.append(self.current)
            self.at = perf_counter()
        return self.current

    def time(self, fn, *args):
        """(fn's result, its scaled seconds)."""
        before = self.refresh()
        t0 = perf_counter()
        out = fn(*args)
        raw = perf_counter() - t0
        cal = (before + self.refresh()) / 2 if raw >= self.CALIBRATE_EVERY else before
        return out, raw * self.NOMINAL_S / cal


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_metrics(latencies) -> dict:
    """Throughput and latency percentiles from scaled per-job seconds.

    A run has at least 100 jobs, so its 90th percentile has ten samples above it.
    """
    ms = [x * 1000 for x in latencies]
    return {
        "jobs_per_s": len(ms) / sum(ms) * 1000,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def count_failures(canon, expected, label, limit=5) -> int:
    """Compare job outputs with their references; print the first few misses."""
    failed = 0
    for i, (got, want) in enumerate(zip(canon, expected)):
        if got != want:
            failed += 1
            if failed <= limit:
                print(f"mismatch ({label}) job {i}: got {got!r}, expected {want!r}", file=sys.stderr)
    return failed


def run_pass(wl, gn, plan, inputs, clock, tracer=None):
    """Run every job once; returns (outputs, scaled per-job seconds)."""
    outputs, latencies, state = [], [], {}
    for job, inp in zip(plan.jobs, inputs):
        if tracer is not None:
            tracer.job_id = job["id"]
        out, seconds = clock.time(_attempt, wl.run_job, gn, job, inp, state)
        outputs.append(out)
        latencies.append(seconds)
    return outputs, latencies


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failing job is recorded and counted, not fatal
        return exc


def canon_pass(wl, plan, outputs) -> list:
    return [
        {"error": f"{type(out).__name__}: {out}"} if isinstance(out, Exception) else wl.canon(job, out)
        for job, out in zip(plan.jobs, outputs)
    ]


def measure(wl, seed: int, seconds: float) -> dict:
    """End-to-end metrics of an in-process workload, tracing off.

    Each pass starts from a fresh import and freshly parsed inputs, so every
    pass does the same work, lazily filled caches included, and the set-up
    samples are spread over the run like the passes.
    """
    plan = wl.plan(seed)
    clock = HostClock()
    setups, latencies, outputs = [], [], []

    def setup():
        gn = fresh_gridnull()
        return gn, wl.build(gn, plan)

    start = perf_counter()
    while perf_counter() - start < seconds or len(outputs) < MIN_PASSES:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's modules, so peak RSS does not drift
            (gn, inputs), s = clock.time(setup)
            setups.append(s)
        out, lat = run_pass(wl, gn, plan, inputs, clock)
        latencies += lat
        outputs.append(canon_pass(wl, plan, out))
    rss = self_peak_rss_mb()
    expected = wl.expected(plan)
    failed = sum(count_failures(c, expected, "untraced") for c in outputs)
    metrics = {
        **latency_metrics(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    report_host(clock)
    return result(len(latencies), failed, metrics, END_TO_END)


def report_host(clock) -> None:
    cal = clock.samples
    print(f"host: {len(cal)} calibration rounds, slowest/fastest {max(cal) / min(cal):.2f}, "
          f"median {statistics.median(cal) * 1000:.3f} ms (nominal {clock.NOMINAL_S * 1000} ms)",
          file=sys.stderr)


def trace(wl, name: str, seed: int) -> dict:
    """Per-layer metrics: one pass untraced, then the same pass traced."""
    plan = wl.plan(seed)
    clock = HostClock()
    gn = fresh_gridnull()
    micro = field_microtiming(gn, seed, clock)
    outputs, lat_plain = run_pass(wl, gn, plan, wl.build(gn, plan), clock)
    plain = canon_pass(wl, plan, outputs)

    gn = fresh_gridnull()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job_id = "setup"
        outputs, lat_traced = run_pass(wl, gn, plan, wl.build(gn, plan), clock, tracer)
    finally:
        tracer.uninstall()
    traced = canon_pass(wl, plan, outputs)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}.jsonl")

    expected = wl.expected(plan)
    failed = count_failures(plain, expected, "untraced") + count_failures(traced, plain, "traced")
    metrics = {k: 0 for k in PER_LAYER}
    metrics.update(tracer.layer_metrics())
    metrics.update(micro)
    metrics["trace_overhead_ratio"] = sum(lat_traced) / sum(lat_plain)
    return result(2 * len(plan.jobs), failed, metrics, PER_LAYER)


def result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def print_result(res: dict) -> None:
    """A readable table, then the JSON result as the last line of stdout."""
    for name, m in res["metrics"].items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    print(json.dumps(res))
