"""Command-line interface: golden outputs, exit codes, JSON envelope."""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridnull as g
import gridnull.cli as cli


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_set_golden_block(capsys):
    code, out, _ = _run(capsys, ["analyze-set", "--field", "F7", "--set", "mul(3)"])
    assert code == 0
    assert out == (
        "field: F7\n"
        "set: {1, 2, 4}\n"
        "size: 3\n"
        "char_poly: X^3 + 6\n"
        "nullity: 2\n"
        "vandermonde_degree: 2\n"
        "moments.e: [1, 0, 0, 1]\n"
        "moments.h: [1, 0, 0, 1]\n"
        "moments.p: [3, 0, 0, 3]\n"
    )


def test_analyze_set_json_envelope(capsys):
    code, out, _ = _run(
        capsys, ["analyze-set", "--field", "F7", "--set", "mul(3)", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["set"] == "{1, 2, 4}"
    assert data["nullity"] == 2
    assert data["moments"]["e"] == ["1", "0", "0", "1"]


def test_analyze_set_wants_one_set(capsys):
    code, _, err = _run(
        capsys,
        ["analyze-set", "--field", "F7", "--set", "mul(3)", "--set", "mul(2)"],
    )
    assert code == 2
    assert "exactly one" in err


def test_analyze_grid(capsys):
    code, out, _ = _run(
        capsys, ["analyze-grid", "--field", "F7", "--grid", "mul(3) x {0}"]
    )
    assert code == 0
    assert "joint_nullity: 1\n" in out
    assert "has_singleton: true\n" in out
    assert "factor_nullities: [2, 1]\n" in out


def test_cn_check_witness_and_exit_code(capsys):
    code, out, _ = _run(
        capsys,
        [
            "cn-check",
            "--field",
            "Q",
            "--grid",
            "{-1,0,1} x {-1,0,1}",
            "--poly",
            "x1*x2 - x1^3",
        ],
    )
    assert code == 0
    assert "hypothesis_ok: true\n" in out
    assert "qualifying_monomials: [(1, 1)]\n" in out
    assert "witness: (-1, -1)\n" in out
    assert "verdict: true\n" in out


def test_witness_line_formatting(capsys):
    # first non-vanishing point of x1*x2 on {0,1} x {-1,0} is (1, -1)
    Q = g.Rationals()
    grid = g.grid_make([g.FiniteSet(Q, [0, 1]), g.FiniteSet(Q, [-1, 0])])
    report = g.gcn_check(g.parse_poly("x1*x2", 2, Q), grid)
    text = cli.emit_report(report)
    assert "witness: (1, -1)" in text.splitlines()


def test_coeff_with_target_monomial(capsys):
    code, out, _ = _run(
        capsys,
        [
            "coeff",
            "--field",
            "F7",
            "--grid",
            "mul(3) x mul(3)",
            "--poly",
            "2*x1*x2 + 3",
            "--k",
            "1,1",
        ],
    )
    assert code == 0
    assert out == "target: (1, 1)\nextracted: 2\ndirect_coefficient: 2\nverdict: true\n"


def test_coeff_top_monomial_report(capsys):
    code, out, _ = _run(
        capsys,
        [
            "coeff",
            "--field",
            "F7",
            "--grid",
            "mul(3) x mul(3)",
            "--poly",
            "x1^2*x2^2 + 2*x1",
        ],
    )
    assert code == 0
    assert "target: (2, 2)\n" in out
    assert "weighted_sum: 1\n" in out
    assert "direct_coefficient: 1\n" in out
    assert "verdict: true\n" in out


def test_coeff_degree_violation_exits_2(capsys):
    code, _, err = _run(
        capsys,
        [
            "coeff",
            "--field",
            "F7",
            "--grid",
            "mul(3) x mul(3)",
            "--poly",
            "x1^2*x2^2 + x1*x2",
            "--k",
            "0,0",
        ],
    )
    assert code == 2
    assert "error:" in err


def test_interpolate_round_trip(capsys):
    code, out, _ = _run(
        capsys,
        [
            "interpolate",
            "--field",
            "F7",
            "--grid",
            "mul(3) x mul(3)",
            "--poly",
            "2*x1*x2 + 3",
        ],
    )
    assert code == 0
    assert "reconstructed: 2*x1*x2 + 3\n" in out
    assert "verdict: true\n" in out


def test_interpolate_aliasing_exits_1(capsys):
    code, out, _ = _run(
        capsys,
        ["interpolate", "--field", "F7", "--grid", "mul(3)", "--poly", "x1^3"],
    )
    assert code == 1
    assert "reconstructed: 1\n" in out
    assert "verdict: false\n" in out


def test_grid_sum_golden(capsys):
    code, out, _ = _run(
        capsys,
        ["grid-sum", "--field", "Q", "--grid", "{-1,1}", "--poly", "3*x1 + 5"],
    )
    assert code == 0
    assert out == "mode: plain\nsum: 10\n"


def test_sumset_cd(capsys):
    code, out, _ = _run(
        capsys,
        ["sumset-cd", "--field", "F7", "--set", "mul(3)", "--set", "mul(3)"],
    )
    assert code == 0
    assert "name: cauchy-davenport\n" in out
    assert "details.lambda_sum: 5\n" in out
    assert "details.sumset: {1, 2, 3, 4, 5, 6}\n" in out
    code, _, err = _run(capsys, ["sumset-cd", "--field", "F7", "--set", "mul(3)"])
    assert code == 2
    assert "two" in err


def test_plane_scan_pass_and_fail(capsys):
    code, out, _ = _run(
        capsys,
        ["plane-scan", "--field", "F7", "--grid", "mul(3) x mul(3) x mul(2)"],
    )
    assert code == 0
    assert "instances: 57\n" in out
    assert "verdict: true\n" in out
    assert "counterexamples: []\n" in out
    code, out, _ = _run(
        capsys,
        ["plane-scan", "--field", "F7", "--grid", "{1,2} x {1,2}"],
    )
    assert code == 1
    assert "verdict: false\n" in out
    assert "count: 1" in out


def _plane_scan_json(q, p, lam, degree_sum, mode, instances, bad):
    return {
        "schema_version": "1",
        "name": "plane-scan",
        "instances": instances,
        "verdict": not bad,
        "details": {
            "q": q,
            "p": p,
            "joint_nullity": lam,
            "degree_sum": degree_sum,
            "pp_large": False,
            "pp_structured": False,
            "ppp_applies": False,
            "mode": mode,
        },
        "counterexamples": [{"plane": plane, "count": k} for plane, k in bad],
    }


def test_plane_scan_json_golden(capsys):
    grid = ["--field", "F3^3", "--grid", "tracezero x mul(13)", "--json"]
    code, out, _ = _run(capsys, ["plane-scan", *grid])
    assert code == 0
    assert json.loads(out) == _plane_scan_json(27, 3, 5, 20, "pp", 28, [])
    code, out, _ = _run(capsys, ["plane-scan", *grid, "--mode", "ppp"])
    assert code == 1
    second = [
        "0", "1", "2", "t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2",
        "t^2", "t^2+1", "t^2+2", "t^2+t", "t^2+t+1", "t^2+t+2",
        "t^2+2*t", "t^2+2*t+1", "t^2+2*t+2", "2*t^2", "2*t^2+1", "2*t^2+2",
        "2*t^2+t", "2*t^2+t+1", "2*t^2+t+2", "2*t^2+2*t", "2*t^2+2*t+1", "2*t^2+2*t+2",
    ]
    bad = [(["1", x], 13 if x == "0" else 4) for x in second]
    assert json.loads(out) == _plane_scan_json(27, 3, 5, 20, "ppp", 28, bad)
    code, out, _ = _run(
        capsys,
        ["plane-scan", "--field", "F7", "--grid", "{1,2} x {1,2}", "--mode", "ppp", "--json"],
    )
    assert code == 1
    bad = [(["1", "3"], 1), (["1", "5"], 1), (["1", "6"], 2)]
    assert json.loads(out) == _plane_scan_json(7, 7, 0, 2, "ppp", 8, bad)


def test_interpolate_json_golden(capsys):
    poly = "t*x1^2*x2 + x1*x2 + 2*x2^2 + t"
    code, out, _ = _run(
        capsys,
        ["interpolate", "--field", "F3^2", "--grid", "mul(4) x mul(4)", "--poly", poly, "--json"],
    )
    assert code == 0
    assert out == (
        "{\n"
        '  "schema_version": "1",\n'
        '  "lambda": 3,\n'
        '  "joint_nullity": 3,\n'
        f'  "input": "{poly}",\n'
        f'  "reconstructed": "{poly}",\n'
        '  "verdict": true\n'
        "}\n"
    )


def test_oracle_suite_scd(capsys):
    code, out, _ = _run(capsys, ["oracle-suite", "--scan", "scd", "--p", "5"])
    assert code == 0
    assert "name: scd\n" in out
    assert "instances: 961\n" in out
    assert "verdict: true\n" in out
    assert "seed" not in out
    assert "elapsed_seconds:" in out


def test_oracle_suite_redei_json(capsys):
    code, out, _ = _run(capsys, ["oracle-suite", "--scan", "redei", "--q", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["instances"] == 31
    assert data["verdict"] is True
    assert data["details"]["qualifying"] == ["{1, 2, 3, 4}", "{0, 1, 2, 3, 4}"]


def test_oracle_suite_ore(capsys):
    code, out, _ = _run(capsys, ["oracle-suite", "--scan", "ore", "--field", "F3^2"])
    assert code == 0
    assert "instances: 6\n" in out
    assert "verdict: true\n" in out


def test_oracle_suite_ore_over_a_prime_field(capsys):
    # F7 has the subgroups {0} and F7; the coset 1 + V needs no generator
    code, out, _ = _run(capsys, ["oracle-suite", "--scan", "ore", "--field", "F7"])
    assert code == 0
    assert "instances: 2\n" in out
    assert "verdict: true\n" in out


def test_oracle_suite_ore_checks_each_subgroup_shifted_by_one(capsys, monkeypatch):
    """A check that fails only on the coset 1 + V fails every subgroup, and
    the report names each by its generators."""
    check = g.scans.ore_form_check

    def fails_when_shifted(ctx, generators, shift=None):
        assert shift is None or shift == ctx.one
        return shift is None and check(ctx, generators)

    monkeypatch.setattr(g.scans, "ore_form_check", fails_when_shifted)
    argv = ["oracle-suite", "--scan", "ore", "--field", "F3^2", "--json"]
    code, out, _ = _run(capsys, argv)
    data = json.loads(out)
    F9 = g.parse_field("F3^2")
    named = [{"generators": [str(x) for x in gens]} for gens in g.enumerate_additive_subgroups(F9)]
    assert (code, data["instances"], data["verdict"]) == (1, 6, False)
    assert data["counterexamples"] == named


def test_oracle_suite_ore_over_budget_exits_2(capsys, monkeypatch):
    def scan_started(*args):
        raise AssertionError("the subgroup scan ran past its bound")

    monkeypatch.setattr(g.scans, "_span_values", scan_started)
    code, _, err = _run(
        capsys, ["oracle-suite", "--scan", "ore", "--field", "F2^6/1,1,0,0,0,0,1"]
    )
    assert code == 2
    assert "26387 elements over all subgroups" in err


def test_structured_set_over_the_set_bound_exits_2_before_building(capsys):
    start = time.perf_counter()
    code, out, err = _run(
        capsys,
        ["analyze-set", "--field", "F1000000000000000003", "--set", "mul(500000000000000001)"],
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: a set of 500000000000000001 elements exceeds the set bound 1048576\n"
    )


def _scan_json(name, instances, details):
    body = ",\n".join(f'    "{k}": {v}' for k, v in details)
    return (
        "{\n"
        '  "schema_version": "1",\n'
        f'  "name": "{name}",\n'
        f'  "instances": {instances},\n'
        '  "verdict": true,\n'
        '  "details": {\n'
        f"{body}\n"
        "  },\n"
        '  "counterexamples": [],\n'
        '  "elapsed_seconds": ?\n'
        "}\n"
    )


_F9_UNITS = "1, 2, t, t+1, t+2, 2*t, 2*t+1, 2*t+2"


def _units(p):
    return ", ".join(map(str, range(1, p)))


def _redei_json(q, units):
    qualifying = f'[\n      "{{{units}}}",\n      "{{0, {units}}}"\n    ]'
    details = [("q", q), ("lambda", (q - 1) // 2), ("qualifying", qualifying)]
    return _scan_json("redei", 2**q - 1, details)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--scan", "redei", "--q", "9"], _redei_json(9, _F9_UNITS)),
        (
            ["--scan", "scd", "--p", "5"],
            _scan_json("scd", 961, [("p", 5), ("pairs", 961)]),
        ),
        (
            ["--scan", "ore", "--field", "F3^3"],
            _scan_json("ore", 28, [("field", '"F3^3"')]),
        ),
        (["--scan", "redei", "--q", "11"], _redei_json(11, _units(11))),
        (["--scan", "redei", "--q", "13"], _redei_json(13, _units(13))),
    ],
    ids=["redei-q9", "scd-p5", "ore-F27", "redei-q11", "redei-q13"],
)
def test_oracle_suite_json_golden(capsys, argv, golden):
    code, out, err = _run(capsys, ["oracle-suite", *argv, "--json"])
    assert code == 0
    assert err == ""
    assert re.sub(r'("elapsed_seconds": )[0-9.e-]+', r"\1?", out) == golden


@pytest.mark.parametrize("q", [11, 13])
def test_oracle_suite_redei_text_golden(capsys, q):
    code, out, err = _run(capsys, ["oracle-suite", "--scan", "redei", "--q", str(q)])
    assert (code, err) == (0, "")
    assert re.sub(r"(elapsed_seconds: )[0-9.e-]+", r"\1?", out) == (
        "name: redei\n"
        f"instances: {2**q - 1}\n"
        "verdict: true\n"
        f"details.q: {q}\n"
        f"details.lambda: {(q - 1) // 2}\n"
        f"details.qualifying: [{{{_units(q)}}}, {{0, {_units(q)}}}]\n"
        "counterexamples: []\n"
        "elapsed_seconds: ?\n"
    )


def test_huge_prime_fields(capsys):
    code, out, _ = _run(
        capsys, ["analyze-set", "--field", "F1000000000000000003", "--set", "{1}"]
    )
    assert code == 0
    assert "char_poly: X + 1000000000000000002\n" in out
    code, _, err = _run(
        capsys, ["analyze-set", "--field", "F3317044064679887385961981", "--set", "{1}"]
    )
    assert code == 2
    assert "only below 3317044064679887385961981" in err


_LIMIT = "the int/str conversion limit"


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["grid-sum", "--field", "F7", "--grid", "{1,2}", "--poly", "7" * 5000],
            f"integer literal of 5000 digits exceeds {_LIMIT} (at position 0)",
        ),
        (
            ["analyze-set", "--field", "F" + "7" * 5000, "--set", "{1}"],
            f"integer literal of 5000 digits exceeds {_LIMIT}",
        ),
        (
            ["analyze-set", "--field", "F7", "--set", "mul(" + "7" * 5000 + ")"],
            f"integer literal of 5000 digits exceeds {_LIMIT}",
        ),
        (
            ["grid-sum", "--field", "Q", "--grid", "{2,3}", "--poly", "x1^10000"],
            f"cannot print a rational with more digits than {_LIMIT}",
        ),
        (
            ["grid-sum", "--field", "Q", "--grid", "{2,3}", "--poly", "x1^10000", "--json"],
            f"cannot print a rational with more digits than {_LIMIT}",
        ),
    ],
)
def test_int_str_digit_limit_exits_2(capsys, argv, line):
    assert _run(capsys, argv) == (2, "", f"error: {line}\n")


# Q grids on integer points and on fractions, recorded before integral
# rationals became plain ints: a value prints as 2, never 2/1, and JSON holds
# display strings.
_Q_INT = "{-2,-1,0,1,2} x {-1,0,1}"
_Q_FRAC = "{1/2,-1/3,3} x {1/2,-1/3,3}"
_P_INT = "x1^4*x2^2 - 3*x1*x2 + 2"
_P_FRAC = "1/2*x1^2*x2^2 - x1 + 2/3"
_P_LINEAR = "1/2*x1 - 2/3*x2 + 5"
_Q_GOLDENS = [
    (
        ["analyze-set", "--field", "Q", "--set", "{-2,-1,0,1,2}"],
        0,
        "field: Q\n"
        "set: {-2, -1, 0, 1, 2}\n"
        "size: 5\n"
        "char_poly: X^5 - 5*X^3 + 4*X\n"
        "nullity: 1\n"
        "vandermonde_degree: 1\n"
        "moments.e: [1, 0, -5, 0, 4, 0]\n"
        "moments.h: [1, 0, 5, 0, 21, 0]\n"
        "moments.p: [5, 0, 10, 0, 34, 0]\n",
        {"field": "Q",
         "set": "{-2, -1, 0, 1, 2}",
         "size": 5,
         "char_poly": "X^5 - 5*X^3 + 4*X",
         "nullity": 1,
         "vandermonde_degree": 1,
         "moments": {"e": ["1", "0", "-5", "0", "4", "0"],
                     "h": ["1", "0", "5", "0", "21", "0"],
                     "p": ["5", "0", "10", "0", "34", "0"]}},
    ),
    (
        ["analyze-set", "--field", "Q", "--set", "{1/2,-1/3,3}"],
        0,
        "field: Q\n"
        "set: {1/2, -1/3, 3}\n"
        "size: 3\n"
        "char_poly: X^3 - 19/6*X^2 + 1/3*X + 1/2\n"
        "nullity: 0\n"
        "vandermonde_degree: 0\n"
        "moments.e: [1, 19/6, 1/3, -1/2]\n"
        "moments.h: [1, 19/6, 349/36, 6295/216]\n"
        "moments.p: [3, 19/6, 337/36, 5851/216]\n",
        {"field": "Q",
         "set": "{1/2, -1/3, 3}",
         "size": 3,
         "char_poly": "X^3 - 19/6*X^2 + 1/3*X + 1/2",
         "nullity": 0,
         "vandermonde_degree": 0,
         "moments": {"e": ["1", "19/6", "1/3", "-1/2"],
                     "h": ["1", "19/6", "349/36", "6295/216"],
                     "p": ["3", "19/6", "337/36", "5851/216"]}},
    ),
    (
        ["analyze-grid", "--field", "Q", "--grid", "{-2,-1,0,1,2} x {1/2,-1/3,3}"],
        0,
        "field: Q\n"
        "grid: {-2, -1, 0, 1, 2} x {1/2, -1/3, 3}\n"
        "sizes: [5, 3]\n"
        "size: 15\n"
        "joint_nullity: 0\n"
        "joint_vandermonde: 0\n"
        "has_singleton: false\n"
        "factor_nullities: [1, 0]\n",
        {"field": "Q",
         "grid": "{-2, -1, 0, 1, 2} x {1/2, -1/3, 3}",
         "sizes": [5, 3],
         "size": 15,
         "joint_nullity": 0,
         "joint_vandermonde": 0,
         "has_singleton": False,
         "factor_nullities": [1, 0]},
    ),
    (
        ["cn-check", "--field", "Q", "--grid", _Q_INT, "--poly", _P_INT],
        0,
        "hypothesis_ok: true\n"
        "qualifying_monomials: [(4, 2)]\n"
        "witness: (-2, -1)\n"
        "zero_count: 2\n"
        "nonzero_count: 13\n"
        "total_degree: 6\n"
        "joint_nullity: 1\n"
        "grid_sizes: (5, 3)\n"
        "singleton_warning: false\n"
        "verdict: true\n",
        {"hypothesis_ok": True,
         "qualifying_monomials": [[4, 2]],
         "witness": ["-2", "-1"],
         "zero_count": 2,
         "nonzero_count": 13,
         "total_degree": 6,
         "joint_nullity": 1,
         "grid_sizes": [5, 3],
         "singleton_warning": False,
         "verdict": True},
    ),
    (
        ["cn-check", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC],
        0,
        "hypothesis_ok: true\n"
        "qualifying_monomials: [(2, 2)]\n"
        "witness: (1/2, 1/2)\n"
        "zero_count: 0\n"
        "nonzero_count: 9\n"
        "total_degree: 4\n"
        "joint_nullity: 0\n"
        "grid_sizes: (3, 3)\n"
        "singleton_warning: false\n"
        "verdict: true\n",
        {"hypothesis_ok": True,
         "qualifying_monomials": [[2, 2]],
         "witness": ["1/2", "1/2"],
         "zero_count": 0,
         "nonzero_count": 9,
         "total_degree": 4,
         "joint_nullity": 0,
         "grid_sizes": [3, 3],
         "singleton_warning": False,
         "verdict": True},
    ),
    (
        ["coeff", "--field", "Q", "--grid", _Q_INT, "--poly", _P_INT],
        0,
        "target: (4, 2)\n"
        "weighted_sum: 1\n"
        "direct_coefficient: 1\n"
        "degree_bound_ok: true\n"
        "total_degree: 6\n"
        "degree_bound: 7\n"
        "joint_nullity: 1\n"
        "singleton_warning: false\n"
        "verdict: true\n",
        {"target": [4, 2],
         "weighted_sum": "1",
         "direct_coefficient": "1",
         "degree_bound_ok": True,
         "total_degree": 6,
         "degree_bound": 7,
         "joint_nullity": 1,
         "singleton_warning": False,
         "verdict": True},
    ),
    (
        ["coeff", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC],
        0,
        "target: (2, 2)\n"
        "weighted_sum: 1/2\n"
        "direct_coefficient: 1/2\n"
        "degree_bound_ok: true\n"
        "total_degree: 4\n"
        "degree_bound: 4\n"
        "joint_nullity: 0\n"
        "singleton_warning: false\n"
        "verdict: true\n",
        {"target": [2, 2],
         "weighted_sum": "1/2",
         "direct_coefficient": "1/2",
         "degree_bound_ok": True,
         "total_degree": 4,
         "degree_bound": 4,
         "joint_nullity": 0,
         "singleton_warning": False,
         "verdict": True},
    ),
    (
        ["coeff", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC, "--k", "2,2"],
        0,
        "target: (2, 2)\n"
        "extracted: 1/2\n"
        "direct_coefficient: 1/2\n"
        "verdict: true\n",
        {"target": [2, 2],
         "extracted": "1/2",
         "direct_coefficient": "1/2",
         "verdict": True},
    ),
    (
        ["interpolate", "--field", "Q", "--grid", _Q_INT, "--poly", _P_INT],
        1,
        "lambda: 1\n"
        "joint_nullity: 1\n"
        "input: x1^4*x2^2 - 3*x1*x2 + 2\n"
        "reconstructed: 23\n"
        "verdict: false\n",
        {"lambda": 1,
         "joint_nullity": 1,
         "input": "x1^4*x2^2 - 3*x1*x2 + 2",
         "reconstructed": "23",
         "verdict": False},
    ),
    (
        ["interpolate", "--field", "Q", "--grid", _Q_INT, "--poly", _P_LINEAR],
        0,
        "lambda: 1\n"
        "joint_nullity: 1\n"
        "input: 1/2*x1 - 2/3*x2 + 5\n"
        "reconstructed: 1/2*x1 - 2/3*x2 + 5\n"
        "verdict: true\n",
        {"lambda": 1,
         "joint_nullity": 1,
         "input": "1/2*x1 - 2/3*x2 + 5",
         "reconstructed": "1/2*x1 - 2/3*x2 + 5",
         "verdict": True},
    ),
    (
        ["interpolate", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC],
        1,
        "lambda: 0\n"
        "joint_nullity: 0\n"
        "input: 1/2*x1^2*x2^2 - x1 + 2/3\n"
        "reconstructed: 115321/2592\n"
        "verdict: false\n",
        {"lambda": 0,
         "joint_nullity": 0,
         "input": "1/2*x1^2*x2^2 - x1 + 2/3",
         "reconstructed": "115321/2592",
         "verdict": False},
    ),
    (
        ["interpolate", "--field", "Q", "--grid", _Q_FRAC, "--poly=-7/3"],
        0,
        "lambda: 0\n"
        "joint_nullity: 0\n"
        "input: -7/3\n"
        "reconstructed: -7/3\n"
        "verdict: true\n",
        {"lambda": 0,
         "joint_nullity": 0,
         "input": "-7/3",
         "reconstructed": "-7/3",
         "verdict": True},
    ),
    (
        ["grid-sum", "--field", "Q", "--grid", _Q_INT, "--poly", _P_INT],
        0,
        "mode: plain\n"
        "sum: 98\n",
        {"mode": "plain", "sum": "98"},
    ),
    (
        ["grid-sum", "--field", "Q", "--grid", _Q_INT, "--poly", _P_INT,
         "--mode", "weighted"],
        0,
        "mode: weighted\n"
        "sum: 1\n",
        {"mode": "weighted", "sum": "1"},
    ),
    (
        ["grid-sum", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC],
        0,
        "mode: plain\n"
        "sum: 104497/2592\n",
        {"mode": "plain", "sum": "104497/2592"},
    ),
    (
        ["grid-sum", "--field", "Q", "--grid", _Q_FRAC, "--poly", _P_FRAC,
         "--mode", "weighted"],
        0,
        "mode: weighted\n"
        "sum: 1/2\n",
        {"mode": "weighted", "sum": "1/2"},
    ),
]


@pytest.mark.parametrize("argv, code, text, body", _Q_GOLDENS)
def test_q_goldens(capsys, argv, code, text, body):
    assert _run(capsys, argv) == (code, text, "")
    envelope = {"schema_version": "1", **body}
    assert _run(capsys, [*argv, "--json"]) == (code, json.dumps(envelope, indent=2) + "\n", "")


def test_oracle_suite_missing_parameter(capsys):
    code, _, err = _run(capsys, ["oracle-suite", "--scan", "scd"])
    assert code == 2
    assert "--p" in err


def test_non_integer_seed_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("GRIDNULL_SEED", "abc")
    assert _run(capsys, ["analyze-set", "--field", "F7", "--set", "{1}"]) == (
        0,
        "field: F7\n"
        "set: {1}\n"
        "size: 1\n"
        "char_poly: X + 6\n"
        "nullity: 0\n"
        "vandermonde_degree: 0\n"
        "moments.e: [1, 1]\n"
        "moments.h: [1, 1]\n"
        "moments.p: [1, 1]\n",
        "",
    )


_ONE_PER_COMMAND = [
    ["analyze-set", "--field", "F7", "--set", "{1}"],
    ["analyze-grid", "--field", "F7", "--grid", "{1,2}"],
    ["cn-check", "--field", "F7", "--grid", "{1,2}", "--poly", "x1"],
    ["coeff", "--field", "F7", "--grid", "{1,2}", "--poly", "x1"],
    ["interpolate", "--field", "F7", "--grid", "{1,2}", "--poly", "3"],
    ["grid-sum", "--field", "F7", "--grid", "{1,2}", "--poly", "x1"],
    ["sumset-cd", "--field", "F7", "--set", "{1}", "--set", "{2}"],
    ["plane-scan", "--field", "F7", "--grid", "mul(3) x mul(3) x mul(2)"],
    ["oracle-suite", "--scan", "scd", "--p", "2"],
]


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_seed_option_is_gone(capsys, argv):
    assert _run(capsys, argv)[0] == 0
    code, out, err = _run(capsys, [*argv, "--seed", "5"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --seed 5\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_report_int_past_digit_limit_exits_2(capsys, json_flag):
    nines = "9" * 4300
    argv = ["cn-check", "--field", "F7", "--grid", "{1,2} x {1,2}"]
    argv += ["--poly", f"x1^{nines}*x2^{nines}", *json_flag]
    limit = f"{_LIMIT} of {sys.get_int_max_str_digits()}"
    line = f"error: cannot print an integer with more digits than {limit}\n"
    assert _run(capsys, argv) == (2, "", line)


def test_poly_and_grid_files(capsys, tmp_path):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("3*x1 + 5\n")
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text("{-1,1}\n")
    code, out, _ = _run(
        capsys,
        [
            "grid-sum",
            "--field",
            "Q",
            "--grid-file",
            str(grid_file),
            "--poly-file",
            str(poly_file),
        ],
    )
    assert code == 0
    assert "sum: 10\n" in out


def test_grid_sum_of_a_5000_term_poly_file(capsys, tmp_path):
    """A seeded 5,000-term sum read from a file: the sum is the one that the
    parser which merged after every + printed."""
    rng = random.Random(26)
    pieces = []
    for i in range(5000):
        c = rng.randint(1, 12)
        mono = "*".join(f"x{j}^{rng.randint(0, 30)}" for j in (1, 2, 3))
        pieces.append(("- " if rng.random() < 0.5 and i else "+ " if i else "") + f"{c}*{mono}")
    poly_file = tmp_path / "f.txt"
    poly_file.write_text(" ".join(pieces) + "\n")
    argv = ["grid-sum", "--field", "F13", "--grid", "all x all x all", "--poly-file", str(poly_file)]
    assert _run(capsys, argv) == (0, "mode: plain\nsum: 2\n", "")


def test_unreadable_grid_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, out, err = _run(
        capsys, ["grid-sum", "--field", "Q", "--grid-file", missing, "--poly", "x1"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.txt" in err


def _run_with_stdout(argv, stdout, timeout=60):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gridnull.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_mul_over_a_huge_prime_field_takes_no_walk_over_the_field():
    """mul(d) is the d powers of one element of order d, so mul(2) over a
    field of about 10^18 elements is two elements at once."""
    argv = ["analyze-set", "--field", "F1000000000000000003", "--set", "mul(2)"]
    proc = _run_with_stdout(argv, subprocess.PIPE, timeout=20)
    assert proc.returncode == 0
    assert "set: {1, 1000000000000000002}\n" in proc.stdout


# (x1 + x2 + 1)^3000 would have C(3002, 2) = 4,504,501 terms
_PAST_THE_PAIR_BOUND = [
    "grid-sum", "--field", "F7", "--grid", "{1,2} x {1,2}", "--poly", "(x1+x2+1)^3000",
]
_PAIR_BOUND_ERROR = (
    "error: a product of polynomials with 540 and 540 terms makes 291600 term pairs,"
    " above the bound of 250000\n"
)


def test_a_product_past_the_term_pair_bound_exits_2(capsys):
    """The power's ladder is refused at its first product above the bound,
    291,600 pairs, before any larger one; in-process and as a process."""
    assert _run(capsys, _PAST_THE_PAIR_BOUND) == (2, "", _PAIR_BOUND_ERROR)
    proc = _run_with_stdout(_PAST_THE_PAIR_BOUND, subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", _PAIR_BOUND_ERROR)


def test_parentheses_nested_too_deeply_exit_2():
    """The parser recurses once per group: 1,100 levels are refused, 900 parse."""
    grid_sum = ["grid-sum", "--field", "F7", "--grid", "{0,1}", "--poly"]
    deep = _run_with_stdout(grid_sum + ["(" * 1100 + "x1" + ")" * 1100], subprocess.PIPE)
    assert (deep.returncode, deep.stdout) == (2, "")
    assert deep.stderr == "error: parentheses nested too deeply\n"
    shallow = _run_with_stdout(grid_sum + ["(" * 900 + "x1" + ")" * 900], subprocess.PIPE)
    assert (shallow.returncode, shallow.stdout, shallow.stderr) == (0, "mode: plain\nsum: 1\n", "")


def test_a_stray_character_is_named_before_a_literal_power_over_q(capsys):
    start = time.perf_counter()
    argv = ["grid-sum", "--field", "Q", "--grid", "{0,1}", "--poly", "3^29999999 $"]
    assert _run(capsys, argv) == (2, "", "error: unexpected character '$' (at position 11)\n")
    assert time.perf_counter() - start < 1


def test_a_literal_power_over_q_is_refused_by_its_digits_before_it_is_computed(capsys):
    """3^29999999 has over 14 million digits: over Q the estimate, a lower
    bound, passes the int/str conversion limit, so nothing is computed; a
    finite field reduces the power at once, and 2^14280 fits the limit."""
    grid_sum = ["grid-sum", "--grid", "{0,1} x {0,1}", "--poly"]
    for power in ("3^29999999*x1", "(2/3)^29999999"):
        start = time.perf_counter()
        code, out, err = _run(capsys, grid_sum + [power, "--field", "Q"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: a literal power of at least 9030762 digits exceeds the int/str conversion"
            f" limit of {sys.get_int_max_str_digits()}\n"
        )
    assert _run(capsys, grid_sum + ["3^29999999*x1", "--field", "F7"]) == (
        0, "mode: plain\nsum: 3\n", ""
    )
    code, out, _ = _run(capsys, grid_sum + ["2^14280*x1", "--field", "Q"])
    assert (code, out) == (0, f"mode: plain\nsum: {2**14281}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-sum"],
        ["grid-sum", "--mode", "weighted"],
        ["cn-check"],
    ],
    ids=["plain", "weighted", "cn-check"],
)
def test_a_variable_power_over_q_is_refused_by_its_digits_before_the_column(capsys, argv):
    """x1^29999999 on {2, 3} asks for the set column 3^29999999, whose digits
    pass the int/str conversion limit: refused before any power is built."""
    start = time.perf_counter()
    code, out, err = _run(
        capsys, argv + ["--field", "Q", "--grid", "{2,3}", "--poly", "x1^29999999"]
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: a set column power of at least 9030762 digits exceeds the int/str conversion"
        f" limit of {sys.get_int_max_str_digits()}\n"
    )


def test_an_additive_coset_is_refused_by_its_rank_before_spanning(capsys):
    """add(1;t;t^2) over F2053^4 spans 2053^3 elements; a dependent generator is admitted."""
    start = time.perf_counter()
    code, out, err = _run(capsys, ["analyze-set", "--field", "F2053^4", "--set", "add(1;t;t^2)"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: a set of 8653002877 elements exceeds the set bound 1048576\n"
    code, out, _ = _run(capsys, ["analyze-set", "--field", "F7^3", "--set", "add(1;1;t)"])
    assert code == 0 and "size: 49\n" in out


_VERDICTS = [
    (["analyze-set", "--field", "F7", "--set", "units", "--json"], 0),
    (["interpolate", "--field", "F7", "--grid", "mul(3)", "--poly", "x1^3"], 1),
]


@pytest.mark.parametrize("argv, code", _VERDICTS)
def test_closed_stdout_keeps_the_verdict_code(argv, code):
    # the read end is closed before the process starts, so its first write
    # to stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_with_stdout(argv, write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [argv for argv, _ in _VERDICTS])
def test_failed_stdout_write_exits_2(argv):
    # any other write error is reported, whatever the verdict
    with open("/dev/full", "w") as full:
        proc = _run_with_stdout(argv, full)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_inline_and_file_conflict(capsys, tmp_path):
    poly_file = tmp_path / "f.txt"
    poly_file.write_text("x1")
    code, _, err = _run(
        capsys,
        [
            "grid-sum",
            "--field",
            "Q",
            "--grid",
            "{-1,1}",
            "--poly",
            "x1",
            "--poly-file",
            str(poly_file),
        ],
    )
    assert code == 2
    assert "not both" in err


def test_parse_errors_exit_2(capsys):
    code, _, err = _run(capsys, ["analyze-set", "--field", "F7", "--set", "{1,2"])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, ["analyze-set", "--field", "Z12", "--set", "{1}"])
    assert code == 2
    assert "error:" in err
    for argv, line in [
        (["analyze-grid", "--grid", "all x {1, 2"], "error: unbalanced brackets in grid"),
        (["analyze-set", "--set", "{1, (2}"], "error: unbalanced parentheses"),
        (["analyze-set", "--set", "mul(2, (3)"], "error: unbalanced parentheses"),
        (["analyze-set", "--set", "mul(²)"], "error: expected mul(d) or mul(d, shift)"),
    ]:
        code, out, err = _run(capsys, argv + ["--field", "F7"])
        assert (code, out, err) == (2, "", line + "\n")
    # a power takes one ^, and an exponent's digits are placed where they start
    for field, poly, line in [
        ("Q", "x1^2^3", "unexpected trailing input '^' (at position 4)"),
        ("F3^2", "t^2^2", "unexpected trailing input '^' (at position 3)"),
        (
            "Q",
            "x1^" + "9" * 5000,
            "integer literal of 5000 digits exceeds the int/str conversion limit (at position 3)",
        ),
    ]:
        argv = ["cn-check", "--field", field, "--grid", "{0,1} x {0,1}", "--poly", poly]
        assert _run(capsys, argv) == (2, "", f"error: {line}\n")
    argv = ["cn-check", "--field", "Q", "--grid", "{0,1} x {0,1}", "--poly"]
    spaced = _run(capsys, argv + ["x1 ^ 2"])
    assert spaced[0] == 0 and spaced == _run(capsys, argv + ["x1^2"])


def test_normalize_empty_tuple_renders_as_list():
    report = g.ScanReport(name="demo", instances=1, verdict=True, details={})
    assert "counterexamples: []" in cli.emit_report(report).splitlines()


def test_to_dict_pins_report_json():
    Q = g.Rationals()
    grid = g.parse_grid("{-1,0,1} x {-1,0,1}", Q)
    witness = g.gcn_check(g.parse_poly("x1*x2 - x1^3", 2, Q), grid)
    assert json.dumps(g.to_dict(witness)) == (
        '{"hypothesis_ok": true, "qualifying_monomials": [[1, 1]], '
        '"witness": ["-1", "-1"], "zero_count": 5, "nonzero_count": 4, '
        '"total_degree": 3, "joint_nullity": 1, "grid_sizes": [3, 3], '
        '"singleton_warning": false}'
    )
    zero = g.gcn_check(g.MultiPoly.zero(Q, 2), grid)
    assert json.dumps(g.to_dict(zero)) == (
        '{"hypothesis_ok": false, "qualifying_monomials": [], "witness": null, '
        '"zero_count": 9, "nonzero_count": 0, "total_degree": "-inf", '
        '"joint_nullity": 1, "grid_sizes": [3, 3], "singleton_warning": false}'
    )


# --poly parse errors, recorded before the parser moved onto raw values.  Only
# the last three changed then: input that ends too early names the end of
# input, not a token None, and trailing input is quoted as written, not as a
# variable's index.
_POLY_ERRORS = [
    ("Q", "x1 $ 2", "unexpected character '$' (at position 3)"),
    ("Q", "x", "unexpected character 'x' (at position 0)"),
    ("Q", "(x1", "expected ')' (at position 3)"),
    ("Q", "x1^", "expected a non-negative integer exponent (at position 3)"),
    ("Q", "x1^x2", "expected a non-negative integer exponent (at position 3)"),
    ("Q", "1/0", "expected a nonzero denominator (at position 2)"),
    ("Q", "1/", "expected a nonzero denominator (at position 2)"),
    ("F7", "1/2", "fraction literals need the rationals (at position 0)"),
    (
        "Q",
        "t",
        "t denotes the extension generator and needs an extension field (at position 0)",
    ),
    (
        "F7",
        "x1 + t*x2",
        "t denotes the extension generator and needs an extension field (at position 5)",
    ),
    ("Q", "x0", "x0 is outside 1..2 (at position 0)"),
    ("Q", "x2 - x3", "x3 is outside 1..2 (at position 5)"),
    ("F7", "x1)", "unexpected trailing input ')' (at position 2)"),
    ("Q", "", "unexpected end of input (at position 0)"),
    ("Q", "x1 +", "unexpected end of input (at position 4)"),
    ("Q", "x1 x2", "unexpected trailing input 'x2' (at position 3)"),
]


@pytest.mark.parametrize(
    "field, poly, line", _POLY_ERRORS, ids=[p or "empty" for _, p, _ in _POLY_ERRORS]
)
def test_poly_parse_errors(capsys, field, poly, line):
    argv = ["cn-check", "--field", field, "--grid", "{0,1} x {0,1}", "--poly", poly]
    assert _run(capsys, argv) == (2, "", f"error: {line}\n")
