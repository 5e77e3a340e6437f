"""Static checks on the library sources."""

import argparse
import ast
import functools
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridnull"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; __all__ entries count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_import_only_what_they_use():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Union, Sequence\n"
        "__all__ = ['osp']\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Union (line 3)"]


def raised_names(source: str) -> list[tuple[str, int]]:
    """(name, line) of the exception each raise statement names; a bare
    re-raise names none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((getattr(exc, "id", ast.unparse(exc)), node.lineno))
    return sorted(found, key=lambda item: item[1])


def getattr_raise_lines(source: str) -> set[int]:
    """Lines of the raise statements inside a module-level __getattr__."""
    return {
        node.lineno
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
    }


def test_every_raise_names_a_library_error():
    """errors.py promises that every library error derives from GridNullError.
    TypeError (``_canon`` on a wrong Python type, which ``FiniteSet.__contains__``
    catches) and NotImplementedError (the FieldCtx stubs) are the exceptions,
    and so is AttributeError in ``gridnull/__init__.py``'s ``__getattr__``
    alone: PEP 562 asks a module's ``__getattr__`` to raise it for a name the
    module lacks, or ``hasattr`` and ``getattr`` with a default break."""
    errors = importlib.import_module("gridnull.errors")
    allowed = {"TypeError", "NotImplementedError"}
    lazy = getattr_raise_lines((SRC / "__init__.py").read_text(encoding="utf-8"))
    stray = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in raised_names(path.read_text(encoding="utf-8"))
        if name not in allowed
        and not (path.name == "__init__.py" and name == "AttributeError" and line in lazy)
        and not (
            isinstance(getattr(errors, name, None), type)
            and issubclass(getattr(errors, name), errors.GridNullError)
        )
    ]
    assert stray == []


def test_raised_name_detector():
    source = (
        "try:\n"
        "    raise ValueError('x') from None\n"
        "except ValueError:\n"
        "    raise\n"
        "raise errors.ParseError\n"
    )
    assert raised_names(source) == [("ValueError", 2), ("errors.ParseError", 5)]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    assert [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gridnull.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_imports_leave_the_references_unloaded_until_first_use():
    """Neither ``import gridnull`` nor the CLI loads ``gridnull.oracle``, nor
    does asking for a name the package lacks; each reference the package
    exports is the oracle's own object, and the oracle re-exports the scans
    the benchmark tracer wraps under their old names."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = (
        "import sys, gridnull\n"
        "loaded = ['gridnull.oracle' in sys.modules]\n"
        "import gridnull.cli\n"
        "loaded.append('gridnull.oracle' in sys.modules)\n"
        "print(loaded, hasattr(gridnull, 'no_such_name'), 'gridnull.oracle' in sys.modules)\n"
        "refs = ['coefficient_oracle', 'exp_series_check', 'moments_bruteforce',\n"
        "        'sylvester_rhs_bruteforce', 'sylvester_sum_bruteforce']\n"
        "lazy = [getattr(gridnull, name) for name in refs]\n"
        "import gridnull.oracle as oracle, gridnull.scans as scans\n"
        "print([x is getattr(oracle, name) for x, name in zip(lazy, refs)])\n"
        "moved = ['redei_scan', 'scd_scan', 'enumerate_additive_subgroups', 'ore_form_check',\n"
        "         'OracleConfig']\n"
        "print([getattr(oracle, name) is getattr(scans, name) for name in moved])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    expected = "[False, False] False False\n" + "[True, True, True, True, True]\n" * 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def untraceable(raw) -> bool:
    """True when Tracer.install() cannot wrap a class attribute: it keeps a
    property a property and a classmethod a classmethod, and wraps anything
    else as a plain function."""
    if isinstance(raw, property):
        raw = raw.fget
    elif isinstance(raw, classmethod):
        raw = raw.__func__
    return not isinstance(raw, types.FunctionType)


def test_untraceable_detector():
    def f(self):
        return self

    assert [untraceable(x) for x in (f, property(f), classmethod(f))] == [False] * 3
    assert untraceable(functools.cached_property(f)) and untraceable(staticmethod(f))


def test_names_the_benchmark_tracer_wraps_exist():
    """perfbench/tracer.py patches these by name; a missing one breaks
    install(), and so does a method whose descriptor kind it cannot wrap."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for _layer, module, attr, _record in tracer._FUNCTIONS
        if attr not in vars(importlib.import_module(f"gridnull.{module}"))
    ]
    for _layer, module, cls, attr, _record in tracer._METHODS:
        owner = getattr(importlib.import_module(f"gridnull.{module}"), cls, None)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"{module}.{cls}.{attr}")
        elif untraceable(owner.__dict__[attr]):
            missing.append(f"{module}.{cls}.{attr} is a {type(owner.__dict__[attr]).__name__}")
    field = importlib.import_module("gridnull.field")
    missing += [
        f"field.FieldElement.{attr}"
        for attr in tracer._FIELD_OPS
        if attr not in field.FieldElement.__dict__
    ]
    assert missing == []


def _args_reads(functions: dict, name: str) -> set[str]:
    """Attributes a function reads off ``args``, and those of the module
    functions it passes ``args`` on to."""
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
            and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
        ):
            reads |= _args_reads(functions, node.func.id)
    return reads


def test_every_cli_option_is_read():
    """Each subcommand's options reach its handler, a helper it hands args
    to, or run; an option nothing reads is a knob that does nothing."""
    cli = importlib.import_module("gridnull.cli")
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (commands,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    unread = {}
    for command, parser in commands.choices.items():
        reads = _args_reads(functions, cli._COMMANDS[command].__name__)
        reads |= _args_reads(functions, "run")
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        if dests - reads:
            unread[command] = sorted(dests - reads)
    assert unread == {}


def float_uses(source: str) -> list[tuple[str, int]]:
    """(what, line) of each float constant, call to float, and true division
    of an int literal, as in 1 / a, which is a float when a is an int."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(("float constant", node.lineno))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(("float call", node.lineno))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is int
        ):
            found.append(("int literal divided", node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_library_arithmetic_has_no_floats():
    """Arithmetic stays exact.  The only float in the library is the CLI's
    elapsed time, a difference of monotonic clock readings, which none of
    these forms spells."""
    assert {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := float_uses(path.read_text(encoding="utf-8")))
    } == {}


def test_float_use_detector():
    source = (
        "x = 0.5\n"
        "y = float(x)\n"
        "z = 1 / y\n"
        "w = y / 2 + 3 // 2 + True / 2 + isinstance(y, float) + x ** -1\n"
        "v = 3 / 4\n"
    )
    assert float_uses(source) == [
        ("float constant", 1),
        ("float call", 2),
        ("int literal divided", 3),
        ("int literal divided", 5),
    ]


# The value kernels every field kind has (the FieldCtx docstring lists them)
_LIBRARY_KERNELS = (
    "_vadd", "_vmul", "_vneg", "_vinv", "_vpow",
    "_outer", "_vsum", "_dot", "_mul_root",
)


def attributes_read(source: str) -> set[str]:
    """Names of the attributes a source reads, as in ctx._vadd or ctx._vadd(a, b)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_value_kernel_is_read_outside_the_field_module():
    """A kernel that no library path calls is dead weight each field kind
    must still supply; it fails here instead of returning unnoticed."""
    read = set().union(
        *(
            attributes_read(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))
            if path.name != "field.py"
        )
    )
    assert [name for name in _LIBRARY_KERNELS if name not in read] == []


def test_attribute_read_detector():
    source = "ctx._vadd(a, b)\nctx._vsub = f\nx = ctx._dot\ndel ctx._vneg\n"
    assert attributes_read(source) == {"_vadd", "_dot"}


def private_gridnull_names(source: str) -> list[str]:
    """``_``-prefixed names a source imports from gridnull, or reads as an
    attribute of a name bound to a gridnull module; dunders are left out."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    bound, found = set(), []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "gridnull"
            )
            found += [alias.name for alias in node.names if any(map(private, alias.name.split(".")))]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gridnull":
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [name for name in parts if private(name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return sorted(found)


def test_scripts_use_only_public_gridnull_names():
    """The scripts are callers of the library: a private name they reach
    for belongs behind a public driver."""
    assert {
        path.name: names
        for path in sorted((ROOT / "scripts").glob("*.py"))
        if (names := private_gridnull_names(path.read_text(encoding="utf-8")))
    } == {}


def test_private_gridnull_name_detector():
    source = (
        "import gridnull as g, os\n"
        "import gridnull.scans\n"
        "from gridnull.scans import _subset_nullities, ore_scan\n"
        "from gridnull._x import y\n"
        "from other import _z\n"
        "g._DEFAULT, g.scans._mask_set, gridnull.scans.ore_scan, g.__doc__, os._exit\n"
    )
    assert private_gridnull_names(source) == ["_DEFAULT", "_mask_set", "_subset_nullities", "_x"]
