"""scripts/nullity_census.py run as a separate process, output pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_F5 = """\
field F5, pool size 5
size  nullity    count
   1        0        4
   1        1        1
   2        0        8
   2        1        2
   3        0        8
   3        1        2
   4        0        4
   4        3        1
   5        3        1

size 1: max nullity 1 at {0}
size 2: max nullity 1 at {1, 4}
size 3: max nullity 1 at {0, 1, 4}
size 4: max nullity 3 at {1, 2, 3, 4}
size 5: max nullity 3 at {0, 1, 2, 3, 4}
"""

_F7_UNITS = """\
field F7, pool size 6
size  nullity    count
   1        0        6
   2        0       12
   2        1        3
   3        0       18
   3        2        2
   4        0       12
   4        1        3
   5        0        6
   6        5        1

size 1: max nullity 0 at {1}
size 2: max nullity 1 at {1, 6}
size 3: max nullity 2 at {1, 2, 4}
size 4: max nullity 1 at {1, 2, 5, 6}
size 5: max nullity 0 at {1, 2, 3, 4, 5}
size 6: max nullity 5 at {1, 2, 3, 4, 5, 6}
"""

_F5_EMPTY = """\
field F5, pool size 5
size  nullity    count

"""


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--field", "F5"], _F5),
        (["--field", "F7", "--units-only"], _F7_UNITS),
        (["--field", "F5", "--max-size", "0"], _F5_EMPTY),
    ],
)
def test_nullity_census_output(args, expected):
    assert _census(args) == expected


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "nullity_census.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def _census(args):
    proc = _run(args)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize(
    "spec, message",
    [
        ("Q", "the rationals cannot be enumerated"),
        ("F9", "9 is not prime"),
        # refused before the walk, which would run for hours past the timeout
        ("F31", "a walk over 2147483647 subsets is above the bound of 1048576"),
        ("F65537", "a walk over more than 2^64 subsets is above the bound of 1048576"),
    ],
)
def test_library_errors_exit_2(spec, message):
    proc = _run(["--field", spec])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def _size_of(row):
    """The subset size a census row or "size k:" line is about, else 0."""
    head = row.removeprefix("size ").split(":")[0].split()
    return int(head[0]) if head and head[0].isdigit() else 0


def test_small_max_size_visits_only_small_subsets():
    # 28 of the 127 subsets of F7 have at most 2 elements, and --max-size 2
    # bounds the walk to them; the rows must be those of the full walk
    full = _census(["--field", "F7"]).splitlines()
    small = _census(["--field", "F7", "--max-size", "2"]).splitlines()
    assert small == [row for row in full if _size_of(row) <= 2]
    # a pool of 31 has 2^31 subsets; the bounded walk visits its 496 small ones
    rows = _census(["--field", "F31", "--max-size", "2"]).splitlines()[2:-3]
    assert sum(int(row.split()[2]) for row in rows) == 31 + 465
