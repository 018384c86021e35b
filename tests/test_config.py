import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latrec import (Box, ConfigError, RunConfig, as_tridiagonal, parse_config,
                    spec_hash, tridiagonal_spec)
from latrec.cli import main
from latrec.oracle import Region

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

MINIMAL_IDENTITY = {
    "spatial_dim": 1,
    "time_order": 1,
    "spatial_shift": [0],
    "stencil": [{"offset": [0], "time_level": 0, "coeff": "1"}],
}


def test_minimal_document_defaults():
    config = parse_config(json.dumps(MINIMAL_IDENTITY))
    assert config.engine == "verify"
    assert config.out_format == "csv" and config.out_path is None
    assert config.initial.rows[0].values == {(0,): Fraction(1)}
    assert isinstance(config.query, Region)


def test_zero_denominator_coeff_names_path():
    doc = dict(MINIMAL_IDENTITY)
    doc["stencil"] = [{"offset": [0], "time_level": 0, "coeff": "1/0"}]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.path == "stencil[0].coeff"


def test_heat_preset_document():
    config = parse_config(json.dumps({"preset": "heat", "r": "1/4"}))
    assert as_tridiagonal(config.spec) == (Fraction(1, 4), Fraction(1, 2),
                                           Fraction(1, 4))


def test_random_walk_preset_document():
    config = parse_config(json.dumps(
        {"preset": "random-walk", "p": "1/2", "d": "0", "q": "1/2"}))
    assert as_tridiagonal(config.spec) == (Fraction(1, 2), Fraction(0),
                                           Fraction(1, 2))


def test_invalid_preset_probabilities_name_constraint():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"preset": "random-walk", "p": "1", "d": "1", "q": "0"}))
    assert "sum to 1" in str(exc.value)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"preset": "wave"}))


def test_initial_rows_and_query_box():
    doc = dict(MINIMAL_IDENTITY)
    doc["initial"] = {"rows": [[{"at": [2], "value": "2/3"}]]}
    doc["query"] = {"box": [[-1, 3]], "times": [0, 2]}
    config = parse_config(json.dumps(doc))
    assert config.initial.rows[0].get((2,)) == Fraction(2, 3)
    assert config.query == Region(Box((-1,), (3,)), 0, 2)
    assert config.t_max == 2


def test_point_list_query():
    doc = dict(MINIMAL_IDENTITY)
    doc["query"] = {"points": [{"at": [1], "t": 3}, {"at": [0], "t": 0}]}
    config = parse_config(json.dumps(doc))
    assert config.query_points == [((0,), 0), ((1,), 3)]
    assert config.t_max == 3


def test_initial_row_count_must_match_time_order():
    doc = dict(MINIMAL_IDENTITY)
    doc["time_order"] = 2
    doc["stencil"] = [{"offset": [0], "time_level": 1, "coeff": "1"}]
    doc["initial"] = {"rows": [[{"at": [0], "value": "1"}]]}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert "rows" in exc.value.path


def test_time_order_three_config_parses():
    doc = dict(MINIMAL_IDENTITY)
    doc["time_order"] = 3
    doc["stencil"] = [{"offset": [0], "time_level": 0, "coeff": "1"}]
    for engine in ("oracle", "verify"):
        doc["engine"] = engine
        config = parse_config(json.dumps(doc))
        assert config.engine == engine
        assert len(config.initial.rows) == 3


def test_bad_engine_and_format():
    doc = dict(MINIMAL_IDENTITY)
    doc["engine"] = "fastest"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    doc2 = dict(MINIMAL_IDENTITY)
    doc2["output"] = {"format": "xml"}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc2))


def test_invalid_json_reports_top_level():
    with pytest.raises(ConfigError) as exc:
        parse_config("{not json")
    assert exc.value.path == "$"


def test_integer_literal_past_digit_limit_names_top_level():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"spatial_dim": ' + "1" * 5000 + "}")
    assert exc.value.path == "$"


def test_window_key_is_ignored():
    # the oracle sizes its own extent, so a "window" box is a key the
    # schema does not read
    doc = dict(MINIMAL_IDENTITY)
    doc["window"] = [[-10, 10]]
    assert parse_config(json.dumps(doc)) == parse_config(json.dumps(MINIMAL_IDENTITY))


CORNER = {
    "spatial_dim": 1, "time_order": 1, "spatial_shift": [1],
    "implicit_corner": True, "implicit_coeff": "1/2",
    "stencil": [{"offset": [1], "time_level": 0, "coeff": "1"},
                {"offset": [0], "time_level": 0, "coeff": "1/3"}],
    "query": {"box": [[-4, 6]], "times": [0, 3]},
}


def test_implicit_corner_document():
    config = parse_config(json.dumps(CORNER))
    assert config.spec.corner_coefficients() == (Fraction(1, 2), Fraction(1),
                                                 Fraction(1, 3))


@pytest.mark.parametrize("change, reason", [
    ({"spatial_shift": [0]}, "corner-implicit spec must have spatial_shift (1,)"),
    ({"stencil": [{"offset": [2], "time_level": 0, "coeff": "1"}]},
     "corner-implicit stencil offset (2,) not in {(0,), (1,)}"),
    ({"stencil": [{"offset": [0], "time_level": 0, "coeff": "1"},
                  {"offset": [-1], "time_level": 0, "coeff": "1"}]},
     "corner-implicit stencil offset (-1,) not in {(0,), (1,)}"),
], ids=["shift", "offset-2", "offset-minus-1"])
def test_corner_implicit_shape_errors_name_a_path(capsys, tmp_path, change, reason):
    doc = dict(CORNER, **change)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert (exc.value.path, exc.value.reason) == ("stencil", reason)
    # every subcommand reports it the same way, before any engine runs
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(doc))
    for command in (["verify"], ["solve"], ["expand", "--power", "2"]):
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: stencil: {reason}\n")


def test_implicit_corner_must_be_boolean():
    doc = dict(MINIMAL_IDENTITY)
    for value in ("false", 0, None):
        doc["implicit_corner"] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "implicit_corner"
    doc["implicit_corner"] = False
    assert not parse_config(json.dumps(doc)).spec.implicit_corner


def test_rationals_reject_booleans():
    coeff = dict(MINIMAL_IDENTITY)
    coeff["stencil"] = [{"offset": [0], "time_level": 0, "coeff": True}]
    value = dict(MINIMAL_IDENTITY)
    value["initial"] = {"rows": [[{"at": [0], "value": False}]]}
    heat = {"preset": "heat", "r": True}
    for doc, path in ((coeff, "stencil[0].coeff"), (value, "initial.rows[0][0].value"),
                      (heat, "r")):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == path


def test_spec_hash_is_stable_and_order_insensitive():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    doc = {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": [{"offset": [1], "time_level": 0, "coeff": "3"},
                    {"offset": [-1], "time_level": 0, "coeff": "1"},
                    {"offset": [0], "time_level": 0, "coeff": "2"}],
    }
    assert spec_hash(parse_config(json.dumps(doc)).spec) == spec_hash(spec)


# the keys a config document's top level can hold
TOP_KEYS = ("spatial_dim", "time_order", "spatial_shift", "implicit_corner",
            "implicit_coeff", "stencil", "initial", "query", "engine", "output",
            "preset", "p", "d", "q", "r")
# every key the schema reads below the top, so that generated objects reach
# the optional blocks no corpus config has (query points, output)
INNER_KEYS = ("offset", "time_level", "coeff", "builtin", "rows", "at", "value",
              "box", "times", "points", "t", "format", "path")

SCALARS = st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.text(max_size=8)
# st.recursive alone draws a container nine times in ten
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(INNER_KEYS) | st.text(max_size=8),
                                     inner, max_size=4)),
    max_leaves=12)


def node_paths(node, path=()):
    """Every node of a JSON document, the root first, as key/index paths."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaceable(doc):
    """Half the draws pick any node; the other half pick the root, a top-level
    node or a top-level key the document lacks, which would otherwise be
    outnumbered by the many deep nodes."""
    top = [(), *((key,) for key in doc), *((key,) for key in TOP_KEYS if key not in doc)]
    return st.sampled_from(list(node_paths(doc))) | st.sampled_from(top)


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# every optional block the corpus configs leave out
OPTIONAL_BLOCKS = {
    "spatial_dim": 1, "time_order": 1, "spatial_shift": [1],
    "implicit_corner": True, "implicit_coeff": "1/2",
    "stencil": [{"offset": [1], "time_level": 0, "coeff": "1/3"}],
    "initial": {"rows": [[{"at": [0], "value": "1"}]]},
    "query": {"points": [{"at": [0], "t": 2}, {"at": [3], "t": 1}]},
    "engine": "closed", "output": {"format": "json", "path": None},
}


# OPTIONAL_BLOCKS is drawn as often as the whole corpus: only it reaches
# the blocks the corpus leaves out
@settings(max_examples=400, deadline=None)
@given(st.sampled_from([json.loads(p.read_text()) for p in CONFIGS]) | st.just(OPTIONAL_BLOCKS),
       st.data())
def test_one_node_replaced_or_added_parses_or_names_a_path(doc, data):
    path = data.draw(replaceable(doc), label="path")
    value = data.draw(JSON_VALUES, label="value")
    try:
        config = parse_config(json.dumps(replaced(doc, path, value)))
    except ConfigError as exc:
        assert exc.path
    else:
        assert isinstance(config, RunConfig)
