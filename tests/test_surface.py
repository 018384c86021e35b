"""The public surface that other code looks up by name still resolves.

``bench/spans.py`` wraps latrec functions named as strings in ``SELF_TIME``
and derives counters from their arguments in ``COUNTERS``; a function
deleted, renamed or called with a different shape under them would only
fail when a traced benchmark run installs its wrappers.  The spans module is
read from its source, so no bytecode cache is written under ``bench/``.
"""

import importlib
import json
import sys
import types
from pathlib import Path

import latrec
from latrec.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
CONFIG_DIR = ROOT / "configs"


def load_spans(monkeypatch):
    # dataclasses look their class's module up in sys.modules
    spans = types.ModuleType("bench_spans")
    monkeypatch.setitem(sys.modules, spans.__name__, spans)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(spans))
    return spans


def test_traced_functions_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
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


def test_all_is_pinned():
    # the public surface, name for name: an export added or dropped shows here
    assert sorted(latrec.__all__) == [
        "Box", "ConfigError", "EquationSpec", "EvolutionState", "FieldRow",
        "HeatParams", "InitialData", "Mismatch", "ParseError", "Point",
        "RandomWalkParams", "Region", "RunConfig", "SpecError", "StencilEntry",
        "VerifyReport", "WindowOverflowError", "as_tridiagonal", "auto_window",
        "backward_difference", "closed_rows", "closed_value", "compositions",
        "corner_kernel", "corner_spec", "eval_implicit", "eval_multistep",
        "eval_nd", "eval_tridiagonal", "expand_stencil_power", "format_rational",
        "heat_profile", "heat_spec", "load_config", "multinomial", "oracle_evolve",
        "oracle_step", "oracle_sweep_implicit", "parse_config", "parse_rational",
        "random_walk_distribution", "random_walk_spec", "source_rows", "spec_hash",
        "tridiagonal_spec", "verify_closed_vs_oracle", "verify_recurrence",
    ]
    assert len(set(latrec.__all__)) == len(latrec.__all__)


def latrec_bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "latrec" or name.startswith("latrec.")}


def test_traced_cli_runs_count_and_restore(monkeypatch, tmp_path, capsys):
    spans = load_spans(monkeypatch)
    corner = json.loads((CONFIG_DIR / "corner_implicit.json").read_text())
    corner_path = tmp_path / "corner_oracle.json"
    corner_path.write_text(json.dumps(dict(corner, engine="oracle")))
    before = latrec_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        statuses = [
            main(["verify", "--config", str(CONFIG_DIR / "two_row_mixed.json")]),
            main(["solve", "--config", str(corner_path)]),
            main(["demo", "heat", "--r", "1/4", "--steps", "3"]),
        ]
        metrics = tracer.layer_metrics(0.0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert statuses == [0, 0, 0]
    assert metrics["oracle.steps"] > 0
    assert metrics["oracle.values_checked"] > 0
    after = latrec_bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert all(after[name][attr] is value for attr, value in attrs.items()), name
