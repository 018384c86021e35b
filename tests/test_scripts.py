import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["run_verify_corpus", "walk_variance",
                                  "c_exponent_comparison"])
def test_script_main_exits_zero(capsys, monkeypatch, name):
    path = SCRIPT_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert module.main() == 0
    assert capsys.readouterr().out
