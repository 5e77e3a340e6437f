"""Smoke test of scripts/run_scans.py as a separate process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_scans.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_run_scans_small_pass_above_the_default_caps():
    # q = 17, 25 and 29 and p = 11 are over the default redei and scd caps:
    # they run only through the script's REDEI_CONFIG and SCAN_CONFIG; 25 is
    # a prime power; F7, a prime field, has no generator, and ore shifts each
    # of its 2 subgroups by 1
    proc = _run(
        [
            "--scd-primes", "3", "11",
            "--redei-orders", "5", "17", "25", "29",
            "--ore-fields", "F2^2", "F5^2", "F7",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [
        "sumset-dichotomy p=3",
        "sumset-dichotomy p=11",
        "extremal-nullity q=5",
        "extremal-nullity q=17",
        "extremal-nullity q=25",
        "extremal-nullity q=29",
        "additive-form F2^2",
        "additive-form F5^2",
        "additive-form F7",
        "plane-scan F7 mul grid",
        "plane-scan F9 additive grid",
    ]
    assert [line.split("  ")[0].strip() for line in lines] == names
    assert all(line.split()[-3] == "ok" for line in lines)
    assert "instances=4190209" in lines[1]
    assert "instances=131071" in lines[3]
    assert "instances=33554431" in lines[4]
    assert "instances=536870911" in lines[5]
    assert "instances=2 " in lines[8]
    # the time column starts at one place, also after a 9-digit count
    assert len({line.rindex(" ") for line in lines}) == 1


def test_library_errors_exit_2():
    proc = _run(["--scd-primes", "4"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: 4 is not prime\n")
