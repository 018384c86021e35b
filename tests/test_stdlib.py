"""The library stays pure stdlib: every absolute import under src/latrec
names a standard-library module.  Importing it loads neither dataclasses
nor inspect, which once took over half of its import time, nor typing or
hashlib (spec_hash imports hashlib when first called).  Every annotation
in it resolves, though postponed annotations are never evaluated at run
time."""

import ast
import contextlib
import hashlib
import importlib
import io
import subprocess
import sys
import typing
from pathlib import Path

from latrec.cli import main
from test_cli_golden import CONFIG_DIR, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src" / "latrec"


def absolute_imports(source: str):
    """(line, top-level module name) of every absolute import in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_absolute_imports_skip_relative_ones():
    source = "import numpy.linalg\nfrom .lattice import Box\nfrom fractions import Fraction\n"
    assert list(absolute_imports(source)) == [(1, "numpy"), (3, "fractions")]


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    foreign = [f"{path.name}:{line} imports {name}" for path in modules
               for line, name in absolute_imports(path.read_text(encoding="utf-8"))
               if name not in sys.stdlib_module_names]
    assert not foreign, foreign


def fresh_interpreter(code: str, *args: str) -> str:
    """stdout of code run by a fresh python -I -S, with the tree's src first
    on sys.path (-I ignores PYTHONPATH); -S keeps site from loading modules
    ahead of latrec and hiding their cost."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1]); " + code,
                           str(SRC.parent), *args],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def modules_after_import() -> set[str]:
    loaded = set(fresh_interpreter("import latrec, latrec.cli; print(*sys.modules)").split())
    assert "latrec.cli" in loaded
    return loaded


def test_importing_latrec_loads_no_dataclasses_or_inspect():
    assert not {"dataclasses", "inspect"} & modules_after_import()


def test_importing_latrec_loads_no_hashlib_or_typing():
    assert not {"hashlib", "_hashlib", "typing"} & modules_after_import()


def test_spec_hash_imports_hashlib_on_its_first_call():
    code = ("import latrec; before = 'hashlib' in sys.modules; "
            "print(before, latrec.spec_hash(latrec.load_config(sys.argv[2]).spec))")
    path = str(CONFIG_DIR / "identity.json")
    before, digest = fresh_interpreter(code, path).split()
    assert before == "False"
    # the header of a verify whose output the golden digests pin
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["verify", "--config", path, "--evaluator", "auto"])
    out = stdout.getvalue()
    assert GOLDEN["verify auto identity.json"] == (status, hashlib.sha256(out.encode()).hexdigest())
    assert out.splitlines()[0] == f"# spec={digest}"


def defined_callables():
    """Every function, method and property accessor defined in src/latrec."""
    for path in sorted(SRC.glob("*.py")):
        name = "latrec" if path.stem == "__init__" else f"latrec.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, property):
                    yield from (f for f in (member.fget, member.fset) if f)
                elif isinstance(member, (staticmethod, classmethod)):
                    yield member.__func__
                elif callable(member) and not isinstance(member, type):
                    yield member


def test_every_annotation_resolves():
    # postponed annotations stay strings that nothing evaluates, so a name
    # dropped from an import line would otherwise go unnoticed
    functions = list(defined_callables())
    assert len(functions) > 60
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {exc}")
    assert not unresolved, unresolved
