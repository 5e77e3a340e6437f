"""Traced stand-in for `python -m gridnull.cli`, used by the cli workload.

    python traced_cli.py DUMP JOB_ID [gridnull arguments...]

Times the import of gridnull.cli (scaled like every benchmark time), installs the tracer, runs
gridnull.cli.run with the remaining arguments, writes the trace totals and
spans to DUMP as JSON, and exits with run's exit code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    dump, job_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import gridnull.cli

    import_s = perf_counter() - t0
    from common import HostClock
    from tracer import Tracer

    import_s *= HostClock.NOMINAL_S / HostClock.calibration_round()

    tracer = Tracer()
    tracer.job_id = job_id
    tracer.install()
    try:
        code = gridnull.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "state": tracer.state(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
