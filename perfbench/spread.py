"""Run a workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload engines --runs 10 [--first-seed 1]
        [--trace 0] [--out FILE]

Spread is the distance between the first and third quartiles of the runs'
values (statistics.quantiles, n=4) as a share of their median, the figure a
metric's bound in BENCHMARK.json is compared with; a spread of a third of the
bound or more is flagged WIDE.  --out writes the medians, quartiles and every
run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    values, failures = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound:.3f} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:<34} median {med:<14.6g} spread {spread:.4f}{flag}")
    print(f"failed jobs over all runs: {failures}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "python": platform.python_version(), "metrics": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
