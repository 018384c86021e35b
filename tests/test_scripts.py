import importlib.util
import sys
from pathlib import Path

import pytest

from latrec import FieldRow, random_walk_distribution

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load(name, monkeypatch):
    path = SCRIPT_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])
    return module


@pytest.mark.parametrize("name", ["run_verify_corpus", "walk_variance",
                                  "c_exponent_comparison"])
def test_script_main_exits_zero(capsys, monkeypatch, name):
    assert load(name, monkeypatch).main() == 0
    assert capsys.readouterr().out


def test_run_verify_corpus_reports_a_config_that_does_not_load(capsys, monkeypatch,
                                                               tmp_path):
    module = load("run_verify_corpus", monkeypatch)
    good = (module.CONFIG_DIR / "identity.json").read_text()
    (tmp_path / "a_good.json").write_text(good)
    (tmp_path / "b_bad.json").write_text('{"spatial_dim": 1}')
    monkeypatch.setattr(module, "CONFIG_DIR", tmp_path)
    assert module.main() == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("a_good.json  spec=")
    assert lines[1] == "b_bad.json   error: time_order: missing required field"
    assert lines[2] == "2 configs checked"


# each fault breaks one moment identity at j = 2 and leaves the ones before it
WALK_FAULTS = {
    "mass": lambda params, dist: {p: 2 * v for p, v in dist.values.items()},
    "mean": lambda params, dist: {(x + 1,): v for (x,), v in dist.values.items()},
    "variance": lambda params, dist: random_walk_distribution(params, 1).values,
}


@pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
def test_walk_variance_exits_one_on_a_broken_identity(capsys, monkeypatch, fault):
    module = load("walk_variance", monkeypatch)

    def distribution(params, j):
        dist = random_walk_distribution(params, j)
        if j != 2:
            return dist
        return FieldRow(1, WALK_FAULTS[fault](params, dist))

    monkeypatch.setattr(module, "random_walk_distribution", distribution)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert f"j=2: {fault} is " in out
    assert "all moment identities hold exactly" not in out


def test_c_exponent_comparison_exits_one_when_the_outer_variant_is_wrong(capsys,
                                                                          monkeypatch):
    module = load("c_exponent_comparison", monkeypatch)
    real = module.eval_tridiagonal

    def evaluate(a, b, c, psi, i, j):
        value = real(a, b, c, psi, i, j)
        return value + 1 if (i, j) == (0, 2) else value

    monkeypatch.setattr(module, "eval_tridiagonal", evaluate)
    assert module.main() == 1
    assert "differs from the oracle at i=0, j=2" in capsys.readouterr().out


def test_c_exponent_comparison_exits_one_when_the_control_misses_its_oracle(capsys,
                                                                             monkeypatch):
    # the control must equal the oracle of (a, b c, c) = (1, 6, 3) at every cell
    module = load("c_exponent_comparison", monkeypatch)
    real = module.closed_getter

    def getter(spec, initial, evaluator):
        value = real(spec, initial, evaluator)

        def bumped(p, t):
            n, d = value(p, t)
            return (n + d, d) if (p, t) == ((1,), 3) else (n, d)
        return bumped

    monkeypatch.setattr(module, "closed_getter", getter)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == ("inner-index variant differs from the oracle of "
                                    "(a, b c, c) = (1, 6, 3) at i=1, j=3")
    assert "  j-n diverges" in out


def test_c_exponent_comparison_exits_one_when_the_control_does_not_diverge(capsys,
                                                                            monkeypatch):
    # with c = 1, b c = b: the control is the consistent sum and agrees
    # with the oracle everywhere, so it shows nothing
    module = load("c_exponent_comparison", monkeypatch)
    monkeypatch.setattr(module, "C", module.Fraction(1))
    assert module.main() == 1
    out = capsys.readouterr().out
    assert "agrees with the oracle everywhere" in out
    assert "differs" not in out
