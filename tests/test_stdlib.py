"""The library stays pure stdlib: every absolute import under src/latrec
names a standard-library module, and importing it loads neither
dataclasses nor inspect, which once took over half of its import time."""

import ast
import subprocess
import sys
from pathlib import Path

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


def test_importing_latrec_loads_no_dataclasses_or_inspect():
    # -I ignores PYTHONPATH, so the child puts src first on its own path; the
    # modules loaded before the import (by site, say) are left out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import latrec, latrec.cli; print(*set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "latrec.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded
