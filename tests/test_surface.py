"""The public surface that other code looks up by name still resolves.

``bench/spans.py`` wraps latrec functions named as strings in ``SELF_TIME``
and ``COUNTERS``; a function deleted or renamed under them would only fail
when a traced benchmark run installs its wrappers.  The spans module is read
from its source, so no bytecode cache is written under ``bench/``.
"""

import importlib
import sys
import types
from pathlib import Path

import latrec

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_functions_resolve(monkeypatch):
    # dataclasses look their class's module up in sys.modules
    spans = types.ModuleType("bench_spans")
    monkeypatch.setitem(sys.modules, spans.__name__, spans)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(spans))
    names = [f"{layer}.{fname}" for layer, fnames in spans.SELF_TIME.values()
             for fname in fnames]
    names += list(spans.COUNTERS)
    assert names
    for name in names:
        layer, fname = name.split(".")
        module = importlib.import_module(f"latrec.{layer}")
        assert callable(getattr(module, fname, None)), name


def test_all_exports_resolve():
    missing = [name for name in latrec.__all__ if not hasattr(latrec, name)]
    assert not missing
