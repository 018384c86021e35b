import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import latrec
from latrec import cli
from latrec.cli import main, parse_table_csv
from latrec.closed_form import EVALUATORS, closed_value, eval_tridiagonal
from latrec.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_closed_emits_exact_csv(capsys, tmp_path):
    path = write_config(tmp_path, {
        "preset": "random-walk", "p": "1/2", "d": "0", "q": "1/2",
        "query": {"box": [[-3, 3]], "times": [0, 3]},
        "engine": "closed",
    })
    status, out, _ = run_cli(capsys, "solve", "--config", path)
    assert status == 0
    rows = parse_table_csv(out)
    assert len(rows) == 28
    for t in range(4):
        assert sum(v for _, rt, v in rows if rt == t) == 1
    assert out.splitlines()[0].startswith("# spec=")


def test_solve_oracle_engine_agrees_with_closed(capsys, tmp_path):
    base = {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": [{"offset": [-1], "time_level": 0, "coeff": "1/3"},
                    {"offset": [1], "time_level": 0, "coeff": "-2"}],
        "initial": {"builtin": "delta"},
        "query": {"box": [[-5, 5]], "times": [0, 4]},
    }
    closed = write_config(tmp_path, dict(base, engine="closed"), "closed.json")
    oracle = write_config(tmp_path, dict(base, engine="oracle"), "oracle.json")
    _, out_closed, _ = run_cli(capsys, "solve", "--config", closed)
    _, out_oracle, _ = run_cli(capsys, "solve", "--config", oracle)
    assert out_closed == out_oracle


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_solve_engines_agree_on_corpus(capsys, tmp_path, name, out_format):
    doc = json.loads((CONFIG_DIR / name).read_text())
    outs = []
    for engine in ("closed", "oracle"):
        path = write_config(tmp_path, dict(doc, engine=engine), f"{engine}.json")
        status, out, err = run_cli(capsys, "solve", "--config", path, "--format", out_format)
        assert status == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_window_key_no_longer_narrows_the_oracle(capsys, tmp_path):
    # the key is ignored: neither a corner sweep cut at x=3 nor an explicit
    # window smaller than the support may change a value or the exit code
    doc = json.loads((CONFIG_DIR / "corner_implicit.json").read_text())
    doc["window"] = [[-12, 3]]
    status, out, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert status == 0 and "0 mismatches" in out
    outs = [run_cli(capsys, "solve", "--config",
                    write_config(tmp_path, dict(doc, engine=engine), f"{engine}.json"))
            for engine in ("closed", "oracle")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    doc = json.loads((CONFIG_DIR / "tridiagonal_mixed.json").read_text())
    doc["window"] = [[0, 0]]
    status, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert status == 0 and err == "" and "0 mismatches" in out


def test_solve_point_query_json_format(capsys, tmp_path):
    path = write_config(tmp_path, {
        "preset": "heat", "r": "1/4",
        "query": {"points": [{"at": [0], "t": 2}, {"at": [-2], "t": 2}]},
        "engine": "closed",
        "output": {"format": "json"},
    })
    status, out, _ = run_cli(capsys, "solve", "--config", path)
    assert status == 0
    payload = json.loads(out)
    values = {(tuple(r["at"]), r["t"]): r["value"] for r in payload["rows"]}
    assert values[((0,), 2)] == "3/8"
    assert values[((-2,), 2)] == "1/16"


def test_far_apart_support_verifies_and_solves(capsys, tmp_path):
    far = 10 ** 12
    doc = {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": [{"offset": [-1], "time_level": 0, "coeff": "1/2"},
                    {"offset": [1], "time_level": 0, "coeff": "1/3"}],
        "initial": {"rows": [[{"at": [0], "value": "1"},
                              {"at": [far], "value": "-2/3"}]]},
        "query": {"points": [{"at": [0], "t": 2}, {"at": [far - 1], "t": 3}]},
    }
    plane = dict(doc, spatial_dim=2, spatial_shift=[0, 0], stencil=[
        {"offset": [-1, 0], "time_level": 0, "coeff": "1/2"},
        {"offset": [1, 0], "time_level": 0, "coeff": "1/3"},
        {"offset": [0, 1], "time_level": 0, "coeff": "1/5"}],
        initial={"rows": [[{"at": [0, 0], "value": "1"},
                           {"at": [far, -5], "value": "-2/3"}]]},
        query={"points": [{"at": [0, 0], "t": 2}, {"at": [far - 1, -7], "t": 3}]})
    for doc, want in ((doc, f"0,2,1/3\n{far - 1},3,-1/9\n"),
                      (plane, f"0,0,2,1/3\n{far - 1},-7,3,-2/75\n")):
        for evaluator in ("auto", "nd"):
            status, out, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc),
                                     "--evaluator", evaluator)
            assert status == 0 and "checked 2 points up to time 3: 0 mismatches" in out
        for engine in ("closed", "oracle"):
            path = write_config(tmp_path, dict(doc, engine=engine))
            status, out, _ = run_cli(capsys, "solve", "--config", path)
            assert status == 0 and out.endswith(want)


def test_verify_corpus_all_pass(capsys):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert len(configs) >= 10
    for config in configs:
        status, out, _ = run_cli(capsys, "verify", "--config", str(config))
        assert status == 0, (config.name, out)
        assert "0 mismatches" in out


def test_verify_negative_control_exits_one(capsys):
    config = str(CONFIG_DIR / "tridiagonal_mixed.json")
    status, out, _ = run_cli(capsys, "verify", "--config", config,
                             "--evaluator", "tridiagonal-j-n")
    assert status == 1
    assert "mismatch at" in out
    status, _, _ = run_cli(capsys, "verify", "--config", config,
                           "--evaluator", "tridiagonal")
    assert status == 0


def test_verify_tmax_flag(capsys):
    config = str(CONFIG_DIR / "tridiagonal_mixed.json")
    status, out, _ = run_cli(capsys, "verify", "--config", config, "--tmax", "2")
    assert status == 0
    assert "up to time 2" in out


def test_verify_tmax_cuts_point_list(capsys, tmp_path):
    path = write_config(tmp_path, {
        "preset": "heat", "r": "1/4",
        "query": {"points": [{"at": [0], "t": 1}, {"at": [1], "t": 3}]},
    })
    status, out, _ = run_cli(capsys, "verify", "--config", path, "--tmax", "2")
    assert status == 0
    assert "checked 1 points up to time 1: 0 mismatches" in out
    status, out, err = run_cli(capsys, "verify", "--config", path, "--tmax", "0")
    assert status == 2 and out == ""
    assert "--tmax" in err


def test_verify_tmax_below_a_region_is_refused_like_a_point_list(capsys, tmp_path):
    doc = json.loads((CONFIG_DIR / "tridiagonal_mixed.json").read_text())
    doc["query"] = {"box": [[-2, 2]], "times": [3, 6]}
    region = write_config(tmp_path, doc, "region.json")
    doc["query"] = {"points": [{"at": [i], "t": t} for i in range(-2, 3) for t in range(3, 7)]}
    points = write_config(tmp_path, doc, "points.json")
    for path in (region, points):
        status, out, err = run_cli(capsys, "verify", "--config", path, "--tmax", "1")
        assert (status, out, err) == (2, "", "error: --tmax: no query point has time <= 1\n")
        status, out, _ = run_cli(capsys, "verify", "--config", path, "--tmax", "4")
        assert status == 0
        assert "checked 10 points up to time 4: 0 mismatches" in out


def test_verify_tmax_past_a_region_keeps_its_times_like_a_point_list(capsys, tmp_path):
    # the config asks for times 0..5 on 13 points: 78 values
    doc = json.loads((CONFIG_DIR / "tridiagonal_mixed.json").read_text())
    doc["query"] = {"points": [{"at": [i], "t": t} for i in range(-6, 7) for t in range(6)]}
    points = write_config(tmp_path, doc, "points.json")
    for path in (str(CONFIG_DIR / "tridiagonal_mixed.json"), points):
        status, out, _ = run_cli(capsys, "verify", "--config", path, "--tmax", "9")
        assert status == 0
        assert "checked 78 points up to time 5: 0 mismatches" in out


@pytest.mark.parametrize("argv", [
    ["demo", "random-walk", "--p", "1/2", "--d", "0", "--q", "1/2", "--steps"],
    ["demo", "heat", "--r", "1/4", "--steps"],
    ["verify", "--config", str(CONFIG_DIR / "identity.json"), "--tmax"],
    ["expand", "--config", str(CONFIG_DIR / "identity.json"), "--power"],
], ids=["walk-steps", "heat-steps", "tmax", "power"])
def test_count_flags_reject_bad_values(capsys, argv):
    for bad in ("-2", "x", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [bad])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {argv[-1]}: expected a non-negative integer" in captured.err


EXPLICIT_CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json")
                          if p.name != "corner_implicit.json")

# evaluator -> (corpus configs of its shape, a config of another shape, the
# shape its error names)
EVALUATOR_CASES = {
    "nd": (EXPLICIT_CONFIGS, "corner_implicit.json", "an explicit stencil"),
    "tridiagonal": (["tridiagonal_mixed.json", "heat_quarter.json"], "one_row_wide.json",
                    "a three-point one-step 1D stencil"),
    "tridiagonal-j-n": (["tridiagonal_mixed.json"], "ninepoint_uniform.json",
                        "a three-point one-step 1D stencil"),
    "implicit": (["corner_implicit.json"], "identity.json", "a corner-implicit 1D stencil"),
}


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_every_evaluator_name_checks_its_shape(capsys, name):
    matching, other, shape = EVALUATOR_CASES[name]
    # the j-n variant is the negative control: it must find mismatches
    want = 1 if name == "tridiagonal-j-n" else 0
    for config in matching:
        status, out, _ = run_cli(capsys, "verify", "--config", str(CONFIG_DIR / config),
                                 "--evaluator", name)
        assert status == want, (config, out)
    status, out, err = run_cli(capsys, "verify", "--config", str(CONFIG_DIR / other),
                               "--evaluator", name)
    assert status == 2 and out == ""
    assert err == f"error: spec is not {shape}\n"


@pytest.mark.parametrize("name", ["one-row", "ninepoint", "grid-2d", "two-row"])
def test_removed_evaluator_names_are_invalid_choices(capsys, name):
    config = str(CONFIG_DIR / "identity.json")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", config, "--evaluator", name])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --evaluator: invalid choice: {name!r}" in captured.err


TIME_ORDER_THREE = {
    "spatial_dim": 1, "time_order": 3, "spatial_shift": [0],
    "stencil": [{"offset": [-1], "time_level": 2, "coeff": "1/2"},
                {"offset": [1], "time_level": 1, "coeff": "-1/3"},
                {"offset": [0], "time_level": 0, "coeff": "2"}],
    "initial": {"rows": [[{"at": [0], "value": "1"}], [{"at": [1], "value": "-2/7"}],
                         [{"at": [-1], "value": "3"}]]},
    "query": {"box": [[-8, 8]], "times": [0, 7]},
}
TWO_D_TWO_ROW = {
    "spatial_dim": 2, "time_order": 2, "spatial_shift": [0, 0],
    "stencil": [{"offset": [1, 0], "time_level": 1, "coeff": "1/2"},
                {"offset": [0, -1], "time_level": 1, "coeff": "1/4"},
                {"offset": [0, 0], "time_level": 0, "coeff": "-1"}],
    "initial": {"rows": [[{"at": [0, 0], "value": "1"}], [{"at": [1, 0], "value": "1/3"}]]},
    "query": {"box": [[-5, 3], [-3, 5]], "times": [0, 5]},
}


@pytest.mark.parametrize("doc", [TIME_ORDER_THREE, TWO_D_TWO_ROW],
                         ids=["time-order-3", "2d-two-row"])
def test_verify_multistep_configs(capsys, tmp_path, doc):
    path = write_config(tmp_path, doc)
    status, out, err = run_cli(capsys, "verify", "--config", path)
    assert status == 0 and err == "", out
    assert "0 mismatches" in out
    # the one composition sum checks every explicit order and dimension pointwise
    status, out, err = run_cli(capsys, "verify", "--config", path, "--evaluator", "nd")
    assert status == 0 and err == "", out
    assert "0 mismatches" in out


def test_huge_time_order_exits_two_before_building_rows(capsys, tmp_path):
    doc = dict(TIME_ORDER_THREE, time_order=10**12, initial={"builtin": "delta"})
    status, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert status == 2 and out == ""
    assert err == "error: time_order: must be <= 1000\n"


def test_non_utf8_config_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"preset": "heat", "r": "1/4", "note": "\xe9"}')
    status, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert status == 2 and out == ""
    assert err.startswith("error: $: not UTF-8 text")


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    status, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert status == 2 and out == ""
    assert err == "error: $: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("coeff", ["1\n", "\u0661/\u0662", "1" * 5000, "1/" + "3" * 5000],
                         ids=["trailing-newline", "arabic-indic-digits",
                              "long-numerator", "long-denominator"])
def test_bad_rational_coeff_exits_two(capsys, tmp_path, coeff):
    doc = json.loads((CONFIG_DIR / "identity.json").read_text())
    doc["stencil"][0]["coeff"] = coeff
    status, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert status == 2 and out == ""
    assert err.startswith("error: stencil[0].coeff: cannot parse rational")


@pytest.mark.parametrize("coeff, position", [("1" * 5000, 0), ("1/" + "3" * 5000, 2),
                                              ("1/2" + "x" * 5000, 3)],
                         ids=["long-numerator", "long-denominator", "long-junk"])
def test_long_rational_error_line_is_short_and_names_path(capsys, tmp_path, coeff, position):
    doc = json.loads((CONFIG_DIR / "identity.json").read_text())
    doc["stencil"][0]["coeff"] = coeff
    status, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert status == 2 and out == ""
    assert err.count("\n") == 1 and len(err) <= 200, err
    assert err.startswith("error: stencil[0].coeff: cannot parse rational")
    assert f"({len(coeff)} characters) at position {position}:" in err


def test_integer_literal_past_digit_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"spatial_dim": ' + "1" * 5000 + "}")
    status, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert status == 2 and out == ""
    assert err.startswith("error: $: invalid JSON: ")
    assert err.count("\n") == 1


# 1/10**100: a value at t = 44 has a denominator of 4,401 digits or more,
# past the interpreter's default limit of 4,300 on an int's text
TINY = "1/1" + "0" * 100


def digit_limit():
    """The interpreter's limit on int-to-str digits; None before 3.10.7."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get and get()


def decimal_text(x):
    """x's rational text by Decimal, which has no digit limit."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def past_limit_config(tmp_path, offsets, engine):
    return write_config(tmp_path, {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": [{"offset": [o], "time_level": 0, "coeff": TINY} for o in offsets],
        "initial": {"rows": [[{"at": [0], "value": "1"}]]},
        "query": {"points": [{"at": [0], "t": 44}]}, "engine": engine,
    }, name=f"{engine}_past_limit.json")


def test_solve_writes_a_value_past_the_digit_limit(capsys, tmp_path):
    # the value 10**-4400 is written whole, the limit stays as it was after
    # exit 0, and input past the limit still exits 2
    limit = digit_limit()
    path = past_limit_config(tmp_path, [0], "closed")
    status, out, err = run_cli(capsys, "solve", "--config", path)
    assert (status, err) == (0, "")
    config = load_config(path)
    value = closed_value(config.spec, config.initial, (0,), 44)
    assert value == Fraction(1, 10 ** 4400)
    assert out.splitlines()[2] == f"0,44,{decimal_text(value)}"
    assert digit_limit() == limit
    doc = json.loads(Path(path).read_text())
    doc["stencil"][0]["coeff"] = "1/" + "3" * 5000
    status, out, err = run_cli(capsys, "solve", "--config", write_config(tmp_path, doc))
    assert status == 2 and out == ""
    assert err.startswith("error: stencil[0].coeff: cannot parse rational")
    assert digit_limit() == limit


def test_verify_mismatch_line_writes_values_past_the_digit_limit(capsys, tmp_path):
    limit = digit_limit()
    path = past_limit_config(tmp_path, [-1, 0, 1], "verify")
    status, out, err = run_cli(capsys, "verify", "--config", path,
                               "--evaluator", "tridiagonal-j-n")
    assert (status, err) == (1, "")
    config = load_config(path)
    tiny = Fraction(TINY)
    closed = eval_tridiagonal(tiny, tiny, tiny, config.initial.rows[0], 0, 44, "j-n")
    oracle = closed_value(config.spec, config.initial, (0,), 44)
    assert len(str(Decimal(oracle.denominator))) > 4300
    assert out.splitlines()[1:] == [
        "checked 1 points up to time 44: 1 mismatches",
        f"mismatch at (0,) t=44: closed={decimal_text(closed)} oracle={decimal_text(oracle)}"]
    assert digit_limit() == limit


def test_values_past_the_digit_limit_need_no_limit_setting(capsys, tmp_path, monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.set_int_max_str_digits: the
    # writers neither read nor set it, and write the same bytes
    path = past_limit_config(tmp_path, [0], "closed")
    status, want, _ = run_cli(capsys, "solve", "--config", path)
    assert status == 0 and len(want) > 4400
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_cli(capsys, "solve", "--config", path) == (0, want, "")


def test_demo_random_walk_conserves_probability(capsys):
    status, out, _ = run_cli(capsys, "demo", "random-walk", "--p", "1/3",
                             "--d", "1/3", "--q", "1/3", "--steps", "4")
    assert status == 0
    rows = parse_table_csv(out)
    for t in range(5):
        assert sum(v for _, rt, v in rows if rt == t) == 1


def test_demo_heat_unstable_warns(capsys):
    status, out, err = run_cli(capsys, "demo", "heat", "--r", "2/3", "--steps", "2")
    assert status == 0
    assert "unstable" in err
    rows = parse_table_csv(out)
    assert sum(v for _, rt, v in rows if rt == 2) == 1


def test_expand_dumps_collected_terms(capsys):
    config = str(CONFIG_DIR / "tridiagonal_mixed.json")
    status, out, _ = run_cli(capsys, "expand", "--config", config,
                             "--power", "2")
    assert status == 0
    lines = out.splitlines()
    assert lines[1] == "a1,b,coeff"
    terms = {tuple(ln.split(",")[:2]): ln.split(",")[2] for ln in lines[2:]}
    assert terms[("0", "2")] == "10"


def test_expand_ninepoint_at_power_fourteen(capsys):
    config = str(CONFIG_DIR / "ninepoint_uniform.json")
    status, out, _ = run_cli(capsys, "expand", "--config", config,
                             "--power", "14")
    assert status == 0
    coeffs = [Fraction(ln.rsplit(",", 1)[1]) for ln in out.splitlines()[2:]]
    # every coefficient is 1/9, so S(1) = 1
    assert len(coeffs) == 29 * 29 and sum(coeffs) == 1


def test_byte_identical_reruns(capsys, tmp_path):
    config = str(CONFIG_DIR / "heat_quarter.json")
    outputs = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        status = main(["solve", "--config", config, "--out", str(target)])
        capsys.readouterr()
        assert status == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_csv_round_trip_preserves_conservation(capsys, tmp_path):
    path = write_config(tmp_path, {
        "preset": "heat", "r": "1/3",
        "query": {"box": [[-5, 5]], "times": [0, 4]},
        "engine": "closed",
    })
    _, out, _ = run_cli(capsys, "solve", "--config", path)
    rows = parse_table_csv(out)
    for t in range(5):
        assert sum(v for _, rt, v in rows if rt == t) == 1
    assert all(isinstance(v, Fraction) for _, _, v in rows)


def test_config_error_exits_two(capsys, tmp_path):
    path = write_config(tmp_path, {"preset": "nope"})
    status, _, err = run_cli(capsys, "verify", "--config", path)
    assert status == 2
    assert "error:" in err


def test_missing_file_exits_two(capsys):
    status, _, err = run_cli(capsys, "solve", "--config", "does-not-exist.json")
    assert status == 2


def test_console_entry_point_subprocess():
    config = str(CONFIG_DIR / "identity.json")
    # the child imports the same latrec as this test, installed or not
    package_root = str(Path(latrec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "latrec.cli", "verify",
                           "--config", config],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "0 mismatches" in proc.stdout


def test_main_reuses_one_parser_and_writes_what_a_fresh_parser_writes(
        capsys, monkeypatch, tmp_path):
    # one process: every call's exit status, stdout and stderr are those of
    # a call through a freshly built parser, usage errors and --help
    # included, and no parser is constructed after the first call
    doc = json.loads((CONFIG_DIR / "grid2d_drift.json").read_text())
    solve = write_config(tmp_path, dict(doc, engine="closed"))
    calls = [
        ["verify", "--config", str(CONFIG_DIR / "tridiagonal_mixed.json")],
        ["verify", "--config", solve, "--no-such-flag"],
        ["--help"],
        ["solve", "--config", solve, "--format", "json"],
        ["demo", "heat", "--r", "1/3", "--steps", "3"],
        ["expand", "--config", str(CONFIG_DIR / "ninepoint_uniform.json"), "--power", "2"],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def outcome(argv):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        out, err = capsys.readouterr()
        return status, out, err

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    shared = [outcome(calls[0])]
    first = len(built)
    shared += [outcome(argv) for argv in calls[1:]]
    assert first > 0 and len(built) == first
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [outcome(argv) for argv in calls]
    assert len(built) == first * (len(calls) + 1)
    assert shared == fresh
    assert [status for status, _, _ in shared] == [0, 2, 0, 0, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in shared[1][2]
    assert shared[2][1].startswith("usage: latrec")


def test_importing_the_cli_builds_no_parser_and_a_process_builds_one():
    code = "\n".join([
        "import argparse, contextlib, io",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting_init(self, *args, **kwargs):",
        "    init(self, *args, **kwargs)",
        "    built.append(self.prog)",
        "argparse.ArgumentParser.__init__ = counting_init",
        "import latrec, latrec.cli",
        "print(len(built))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for _ in range(2):",
        "        latrec.cli.main(['demo', 'heat', '--r', '1/3', '--steps', '2'])",
        "print(built.count('latrec'))",
    ])
    package_root = str(Path(latrec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]
