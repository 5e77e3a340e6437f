"""Command-line front end.

One subcommand per engine, text or JSON reports, and a strict exit-code
contract: 0 for a computed result or a true verdict, 1 when a checked claim
fails (the counterexample is part of the report), 2 for usage and parse
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import GridNullError, ParseError
from .field import parse_field
from .grids import parse_factor, parse_grid
from .scans import ore_scan, redei_scan, scd_scan
from .poly import parse_poly
from .reports import to_dict
from .theorems import (
    _grid_values,
    cauchy_davenport,
    cct_coefficient,
    extract_coefficient,
    gcn_check,
    grid_sum,
    interpolate,
    plane_scan,
)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(x) for x in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(x) for x in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _text_lines(data: dict, prefix: str = ""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _text_lines(value, prefix + key + ".")
        else:
            yield f"{prefix}{key}: {_fmt(value)}"


def emit_report(report, json_mode: bool = False) -> str:
    """Render a report record or plain dict as text or JSON."""
    data = to_dict(report)
    if json_mode:
        return json.dumps({"schema_version": "1", **data}, indent=2)
    return "\n".join(_text_lines(data))


def _resolve_source(inline, path, flag: str) -> str:
    if inline is not None and path is not None:
        raise ParseError(f"give {flag} or {flag}-file, not both")
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    if inline is None:
        raise ParseError(f"{flag} is required")
    return inline


def _grid_of(args, ctx):
    return parse_grid(_resolve_source(args.grid, args.grid_file, "--grid"), ctx)


def _grid_and_poly(args):
    ctx = parse_field(args.field)
    grid = _grid_of(args, ctx)
    return grid, parse_poly(_resolve_source(args.poly, args.poly_file, "--poly"), grid.n, ctx)


def _monomial_of(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"--k wants comma-separated integers, got {text!r}") from None


def _cmd_analyze_set(args):
    ctx = parse_field(args.field)
    if len(args.set) != 1:
        raise ParseError("analyze-set wants exactly one --set argument")
    A = parse_factor(args.set[0], ctx)
    table = A.moments(len(A))
    return {
        "field": ctx.spec_string(),
        "set": repr(A),
        "size": len(A),
        "char_poly": str(A.char_poly),
        "nullity": A.nullity,
        "vandermonde_degree": A.vandermonde_degree,
        "moments": {
            "e": list(table.e),
            "h": list(table.h),
            "p": list(table.p),
        },
    }, True


def _cmd_analyze_grid(args):
    ctx = parse_field(args.field)
    grid = _grid_of(args, ctx)
    return {
        "field": ctx.spec_string(),
        "grid": repr(grid),
        "sizes": list(grid.sizes),
        "size": grid.size,
        "joint_nullity": grid.joint_nullity,
        "joint_vandermonde": grid.joint_vandermonde,
        "has_singleton": grid.has_singleton,
        "factor_nullities": [A.nullity for A in grid.factors],
    }, True


def _cmd_cn_check(args):
    grid, f = _grid_and_poly(args)
    report = gcn_check(f, grid)
    verdict = (not report.hypothesis_ok) or report.witness is not None
    return {**report._asdict(), "verdict": verdict}, verdict


def _cmd_coeff(args):
    grid, f = _grid_and_poly(args)
    if args.k is not None:
        k = _monomial_of(args.k)
        extracted = extract_coefficient(f, grid, k)
        direct = f.coefficient(k)
        verdict = extracted == direct
        return {
            "target": k,
            "extracted": extracted,
            "direct_coefficient": direct,
            "verdict": verdict,
        }, verdict
    report = cct_coefficient(f, grid)
    verdict = (not report.degree_bound_ok) or (
        report.weighted_sum == report.direct_coefficient
    )
    return {**report._asdict(), "verdict": verdict}, verdict


def _cmd_interpolate(args):
    grid, f = _grid_and_poly(args)
    lam = args.lam if args.lam is not None else grid.joint_nullity
    values = dict(zip(grid.points(), _grid_values(f, grid)))
    g = interpolate(grid, values, lam)
    verdict = g == f
    return {
        "lambda": lam,
        "joint_nullity": grid.joint_nullity,
        "input": str(f),
        "reconstructed": str(g),
        "verdict": verdict,
    }, verdict


def _cmd_grid_sum(args):
    grid, f = _grid_and_poly(args)
    return {"mode": args.mode, "sum": grid_sum(f, grid, args.mode)}, True


def _cmd_sumset_cd(args):
    ctx = parse_field(args.field)
    if len(args.set) != 2:
        raise ParseError("sumset-cd wants exactly two --set arguments")
    A = parse_factor(args.set[0], ctx)
    B = parse_factor(args.set[1], ctx)
    report = cauchy_davenport(A, B)
    return report, report.verdict


def _cmd_plane_scan(args):
    ctx = parse_field(args.field)
    grid = _grid_of(args, ctx)
    report = plane_scan(grid, args.mode)
    return report, report.verdict


def _cmd_oracle_suite(args):
    start = time.monotonic()
    if args.scan == "scd":
        if args.p is None:
            raise ParseError("--scan scd needs --p")
        report = scd_scan(args.p)
    elif args.scan == "redei":
        if args.q is None:
            raise ParseError("--scan redei needs --q")
        report = redei_scan(args.q)
    else:
        if args.field is None:
            raise ParseError("--scan ore needs --field")
        report = ore_scan(parse_field(args.field))
    return {
        **report._asdict(),
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }, report.verdict


# Each handler returns (report, verdict); run prints the report and exits 0
# when the verdict holds, 1 when it does not.
_COMMANDS = {
    "analyze-set": _cmd_analyze_set,
    "analyze-grid": _cmd_analyze_grid,
    "cn-check": _cmd_cn_check,
    "coeff": _cmd_coeff,
    "interpolate": _cmd_interpolate,
    "grid-sum": _cmd_grid_sum,
    "sumset-cd": _cmd_sumset_cd,
    "plane-scan": _cmd_plane_scan,
    "oracle-suite": _cmd_oracle_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridnull",
        description="Exact analysis of structured grids over fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, field_required=True):
        sp.add_argument(
            "--field",
            required=field_required,
            default=None,
            help="field spec: Q, F<p>, F<p>^<e>, or F<p>^<e>/<c0>,...,<ce>",
        )
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    def gridded(sp):
        sp.add_argument("--grid", default=None, help="factors separated by x")
        sp.add_argument("--grid-file", default=None, help="file holding a grid spec")

    def polyed(sp):
        sp.add_argument("--poly", default=None, help="polynomial in x1..xn")
        sp.add_argument("--poly-file", default=None, help="file holding a polynomial")

    sp = sub.add_parser("analyze-set", help="moments, nullity, and degrees of one set")
    common(sp)
    sp.add_argument("--set", action="append", required=True, help="set or factor spec")

    sp = sub.add_parser("analyze-grid", help="joint structure of a grid")
    common(sp)
    gridded(sp)

    sp = sub.add_parser("cn-check", help="non-vanishing witness search")
    common(sp)
    gridded(sp)
    polyed(sp)

    sp = sub.add_parser("coeff", help="coefficient via weighted grid sum")
    common(sp)
    gridded(sp)
    polyed(sp)
    sp.add_argument("--k", default=None, help="target monomial, e.g. 1,1")

    sp = sub.add_parser("interpolate", help="round-trip a polynomial through its values")
    common(sp)
    gridded(sp)
    polyed(sp)
    sp.add_argument("--lambda", dest="lam", type=int, default=None)

    sp = sub.add_parser("grid-sum", help="plain or weighted sum over the grid")
    common(sp)
    gridded(sp)
    polyed(sp)
    sp.add_argument("--mode", choices=["plain", "weighted"], default="plain")

    sp = sub.add_parser("sumset-cd", help="sumset structure dichotomy")
    common(sp)
    sp.add_argument("--set", action="append", required=True, help="give twice: A then B")

    sp = sub.add_parser("plane-scan", help="intersection counts over all planes")
    common(sp)
    gridded(sp)
    sp.add_argument("--mode", choices=["pp", "ppp"], default="pp")

    sp = sub.add_parser("oracle-suite", help="exhaustive scans")
    common(sp, field_required=False)
    sp.add_argument("--scan", choices=["scd", "redei", "ore"], required=True)
    sp.add_argument("--p", type=int, default=None, help="prime for the scd scan")
    sp.add_argument("--q", type=int, default=None, help="prime power for the redei scan")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        data, verdict = _COMMANDS[args.command](args)
        text = emit_report(data, args.json)
    except (GridNullError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = 0 if verdict else 1
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        # stdout goes to devnull so that the flush at exit cannot fail again;
        # a reader that left early keeps the verdict, any other write error
        # exits 2
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
