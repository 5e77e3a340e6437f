"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload engines --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports gridnull from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

import common

WORKLOADS = ("engines", "scans", "cli")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (common.ROOT / "src" / "gridnull" / "__init__.py").is_file():
        print(f"error: no gridnull sources under {common.ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing keeps set and dict probing, and so the traced
        # counts, identical from run to run
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, str(common.ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the children it starts, so the host
        # clock's calibration runs where the jobs run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload == "cli":
        import clijobs

        res = clijobs.trace(args.seed) if args.trace else clijobs.measure(args.seed, args.seconds)
    else:
        wl = importlib.import_module(args.workload)
        if args.trace:
            res = common.trace(wl, args.workload, args.seed)
        else:
            res = common.measure(wl, args.seed, args.seconds)
    common.print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
