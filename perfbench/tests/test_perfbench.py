"""Tests of the benchmark itself: determinism, failure counting and tracing.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clijobs  # noqa: E402
import common  # noqa: E402
import engines  # noqa: E402
import reference as ref  # noqa: E402
import scans  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def small_engines_plan(seed=3, count=60):
    """Jobs off the two slowest grids, so a pass takes well under a second."""
    plan = engines.plan(seed)
    light = [j for j in plan.jobs if j["grid"] not in (0, 3)][:count]
    return dataclasses.replace(plan, jobs=light)


def test_same_seed_gives_same_jobs_and_references():
    for wl in (engines, scans):
        a, b = wl.plan(11), wl.plan(11)
        assert a.jobs == b.jobs
        assert wl.expected(a) == wl.expected(b)
        assert wl.plan(12).jobs != a.jobs
    a, b = clijobs.Plan(11), clijobs.Plan(11)
    assert a.jobs == b.jobs and a.files == b.files
    assert clijobs.expected(a) == clijobs.expected(b)
    assert clijobs.Plan(12).jobs != a.jobs


def test_wrong_result_is_counted_as_failed():
    plan = small_engines_plan()
    gn = common.fresh_gridnull()
    inputs = engines.build(gn, plan)
    real = gn.grid_sum
    gn.grid_sum = lambda f, grid, mode="plain": real(f, grid, mode) + 1
    outputs, _ = common.run_pass(engines, gn, plan, inputs, common.HostClock())
    canon = common.canon_pass(engines, plan, outputs)
    wrong = sum(j["kind"] == "grid_sum" for j in plan.jobs)
    assert wrong > 0
    assert common.count_failures(canon, engines.expected(plan), "test") == wrong


def test_raising_job_is_counted_as_failed():
    plan = small_engines_plan(count=5)
    gn = common.fresh_gridnull()
    inputs = engines.build(gn, plan)
    inputs[0] = (inputs[0][0], None, None)  # no polynomial: every engine raises
    outputs, _ = common.run_pass(engines, gn, plan, inputs, common.HostClock())
    canon = common.canon_pass(engines, plan, outputs)
    assert "error" in canon[0]
    assert common.count_failures(canon, engines.expected(plan), "test") == 1


def test_cli_check_flags_wrong_exit_code_wrong_value_and_kill():
    plan = clijobs.Plan(5)
    want = clijobs.expected(plan)
    i = next(i for i, j in enumerate(plan.jobs) if j["kind"] == "grid-sum" and not j["json"])
    job, (code, fields) = plan.jobs[i], want[i]
    good = f"mode: {job['mode']}\nsum: {fields['sum']}\n"
    assert clijobs.check(job, code, good, want[i]) == []
    assert clijobs.check(job, code, "sum: wrong\n", want[i])
    assert clijobs.check(job, 1 - code, good, want[i])
    assert clijobs.check(job, None, good, want[i])


def test_cli_jobs_pass_their_checks():
    """A handful of real child processes, one per subcommand and a malformed one."""
    plan = clijobs.Plan(2)
    seen, jobs = set(), []
    for job in plan.jobs:
        if job["kind"] not in seen and "big" not in job:
            seen.add(job["kind"])
            jobs.append(job)
    plan.jobs = jobs
    run_dir = clijobs._run_dir(999_999)
    try:
        for rel, text in plan.files.items():
            (run_dir / rel).write_text(text, encoding="utf-8")
        results = clijobs.run_pass(plan, run_dir, common.HostClock())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    assert len(jobs) == len(clijobs.MIX)
    for job, (code, _, _, stdout), w in zip(jobs, results, clijobs.expected(plan)):
        assert clijobs.check(job, code, stdout, w) == [], (job["argv"], stdout)


def _traced_pass(plan):
    gn = common.fresh_gridnull()
    tracer = Tracer()
    tracer.install()
    try:
        outputs, _ = common.run_pass(engines, gn, plan, engines.build(gn, plan), common.HostClock(), tracer)
    finally:
        tracer.uninstall()
    return common.canon_pass(engines, plan, outputs), tracer


def test_traced_and_untraced_outputs_are_identical():
    plan = small_engines_plan()
    gn = common.fresh_gridnull()
    outputs, _ = common.run_pass(engines, gn, plan, engines.build(gn, plan), common.HostClock())
    plain = common.canon_pass(engines, plan, outputs)
    traced, _ = _traced_pass(plan)
    assert traced == plain == engines.expected(plan)


def test_traced_counts_repeat_exactly():
    plan = small_engines_plan()
    _, first = _traced_pass(plan)
    _, second = _traced_pass(plan)
    for key in ("calls", "errors", "pairs", "nested", "counts"):
        assert getattr(first, key) == getattr(second, key), key
    assert first.counts["field.mul"] > 0 and first.counts["grids.points"] > 0
    metrics = first.layer_metrics()
    assert metrics["theorems.gcn_check.calls"] > 0


def test_uninstall_restores_the_library():
    gn = common.fresh_gridnull()
    before = (gn.gcn_check, gn.theorems.gcn_check, gn.FieldElement.__mul__, gn.FiniteSet.char_poly)
    tracer = Tracer()
    tracer.install()
    assert gn.theorems.gcn_check is not before[1]
    tracer.uninstall()
    after = (gn.gcn_check, gn.theorems.gcn_check, gn.FieldElement.__mul__, gn.FiniteSet.char_poly)
    assert after == before


def test_reference_fields_agree_with_library_display_and_modulus():
    gn = common.fresh_gridnull()
    for spec in ("F2^2", "F2^3", "F3^2", "F2^4", "F5^2", "F3^3", "F3^4", "F7^2"):
        ctx, F = gn.parse_field(spec), ref.ref_field(spec)
        assert tuple(ctx.modulus) == F.modulus
        assert [str(x) for x in ctx.elements()] == [F.show(k) for k in F.elements]


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == {"engines", "scans", "cli"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_running_a_plan_leaves_its_jobs_unchanged():
    """Running a plan does not modify its jobs, so passes repeat the same work."""
    plan = small_engines_plan(count=20)
    jobs = copy.deepcopy(plan.jobs)
    gn = common.fresh_gridnull()
    common.run_pass(engines, gn, plan, engines.build(gn, plan), common.HostClock())
    assert plan.jobs == jobs
