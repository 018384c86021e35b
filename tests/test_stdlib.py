"""The library stays pure stdlib: every absolute import under src/latrec
names a standard-library module."""

import ast
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
