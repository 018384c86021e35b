"""The public surface that other code looks up by name still resolves.

``bench/spans.py`` wraps latrec functions named as strings in ``SELF_TIME``
and derives counters from their arguments in ``COUNTERS``; a function
deleted, renamed or called with a different shape under them would only
fail when a traced benchmark run installs its wrappers.  ``bench/run.py``'s
``SETUP_CHILD`` and the jobs of ``bench/workloads.py`` call latrec directly,
so a changed signature there would only fail in a benchmark run.  The bench
modules are read from their source, so no bytecode cache is written under
``bench/``.
"""

import ast
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import latrec
from latrec import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CONFIG_DIR = ROOT / "configs"


def load_bench(monkeypatch, name):
    """bench/<name>.py run from its source as the module `name`."""
    path = BENCH / f"{name}.py"
    # dataclasses look their class's module up in sys.modules, and workloads
    # imports its siblings by their bare names
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_traced_functions_resolve(monkeypatch):
    spans = load_bench(monkeypatch, "spans")
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
        "VerifyReport", "as_tridiagonal", "auto_window",
        "closed_rows", "closed_value", "corner_kernel", "eval_implicit",
        "eval_nd", "eval_tridiagonal", "expand_stencil_power",
        "format_rational", "heat_profile", "heat_spec", "load_config",
        "oracle_evolve", "oracle_step", "oracle_sweep_implicit", "parse_config",
        "parse_rational", "random_walk_distribution", "random_walk_spec",
        "source_rows", "spec_hash", "tridiagonal_spec", "verify_closed_vs_oracle",
        "verify_recurrence",
    ]
    assert len(latrec.__all__) == 41
    assert len(set(latrec.__all__)) == len(latrec.__all__)


def latrec_bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "latrec" or name.startswith("latrec.")}


def test_traced_cli_runs_count_and_restore(monkeypatch, tmp_path, capsys):
    spans = load_bench(monkeypatch, "spans")
    corner = json.loads((CONFIG_DIR / "corner_implicit.json").read_text())
    corner_path = tmp_path / "corner_oracle.json"
    corner_path.write_text(json.dumps(dict(corner, engine="oracle")))
    before = latrec_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # cli.main is looked up at the call, so each run is a traced root span
        statuses = [
            cli.main(["verify", "--config", str(CONFIG_DIR / "two_row_mixed.json")]),
            cli.main(["solve", "--config", str(corner_path)]),
            cli.main(["demo", "heat", "--r", "1/4", "--steps", "3"]),
        ]
        metrics = tracer.layer_metrics(0.0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert statuses == [0, 0, 0]
    # the CLI steps integer rows, which no span wraps; the corner solve, the
    # second root, parses its document and writes its table under its root
    roots = [i for i, span in enumerate(tracer.spans) if span.parent < 0]
    assert [tracer.spans[i].name for i in roots] == ["cli.main"] * 3
    solve = tracer.spans[roots[1] + 1:roots[2]]
    assert {span.name for span in solve} >= {"config.parse_config", "cli.format_table"}
    assert all(span.parent >= roots[1] for span in solve)
    assert metrics["oracle.window_cells"] > 0
    assert metrics["oracle.values_checked"] > 0
    after = latrec_bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert all(after[name][attr] is value for attr, value in attrs.items()), name


# smaller problems for the two workloads whose full size takes seconds; every
# call keeps its shape
SMALL = {"solve-oracle": {"HALF_WIDTH": 7, "GRID_T": 4, "LINE_T": 8, "HEAT_STEPS": 8},
         "point-queries": {"LINE_TIMES": (10, 19), "CORNER_TIMES": (8, 12),
                           "WALK_STEPS": (4, 6)}}


def test_bench_direct_calls_run(monkeypatch, tmp_path):
    load_bench(monkeypatch, "spans")
    load_bench(monkeypatch, "speed")
    workloads = load_bench(monkeypatch, "workloads")
    paths = []
    for name, workload_class in workloads.WORKLOADS.items():
        for attr, value in SMALL.get(name, {}).items():
            monkeypatch.setattr(workload_class, attr, value)
        workload = workload_class(1, tmp_path / name)
        paths += workload.config_paths()
        workload.prepare()
        for job in workload.jobs():
            job.check(job.run())
    source = (BENCH / "run.py").read_text(encoding="utf-8")
    child = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "SETUP_CHILD" for target in node.targets))
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", child, str(ROOT / "src"),
                           str(BENCH), *paths],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0
