"""solve and the demos write their tables point by point from integer rows;
these tests hold the bytes to the per-cell writer of tests/table_reference.py
and count the value texts solve builds."""

import contextlib
import io
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latrec import Box, FieldRow, HeatParams, InitialData, RandomWalkParams
from latrec import cli
from latrec.config import RunConfig
from latrec.lattice import Packing, Query
from latrec.models import heat_spec, random_walk_spec
from latrec.oracle import Region

from instance_gen import corner_spec, engine_point_rows, field_row, nd_instance
from table_reference import (reference_demo, reference_format_table,
                             reference_query_points, reference_solve)


@st.composite
def solve_configs(draw):
    """A 1D or 2D equation of time order 1 or 2 (or, now and then, the 1D
    corner-implicit form), a Region cutting or padding its support or a
    list of points with repeats, out of order and with times past the
    support, for either engine and either format."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.integers(0, 5)) == 0:
        spec = corner_spec(*(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             for _ in range(2)), Fraction(rng.randint(1, 3), 2))
        dim, t_max = 1, draw(st.integers(0, 6))
        rows = (field_row(rng, 1, max_points=3, allow_empty=True),)
    else:
        dim, order = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        spec = nd_instance(rng, dim, time_order=order)
        t_max = draw(st.integers(order - 1, 6 if dim == 1 else 4))
        rows = tuple(field_row(rng, dim, max_points=4, allow_empty=True)
                     for _ in range(order))
    initial = InitialData(rows)
    coord = st.integers(-6, 6)
    if draw(st.booleans()):
        lo = tuple(draw(coord) for _ in range(dim))
        hi = tuple(l + draw(st.integers(0, 8)) for l in lo)
        t_lo = draw(st.integers(0, t_max))
        query = Region(Box(lo, hi), t_lo, t_max)
    else:
        cells = st.tuples(st.tuples(*[coord] * dim), st.integers(0, t_max))
        query = draw(st.lists(cells, min_size=1, max_size=12))
        query = tuple(query + draw(st.lists(st.sampled_from(query), max_size=4)))
    return RunConfig(spec, initial, query, draw(st.sampled_from(["closed", "oracle"])),
                     draw(st.sampled_from(["csv", "json"])), None)


@settings(max_examples=150, deadline=None)
@given(solve_configs())
def test_solve_writes_the_per_cell_tables_bytes(config):
    assert cli.run(config) == (0, reference_solve(config))


def demo_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=3, max_denominator=9).filter(bool),
       st.integers(0, 25), st.sampled_from(["csv", "json"]))
def test_demo_heat_writes_the_per_cell_tables_bytes(r, steps, out_format):
    spec, initial = heat_spec(HeatParams(r)), InitialData((FieldRow.delta(1),))
    want = reference_demo(spec, initial, engine_point_rows(spec, initial, steps, "oracle"),
                          out_format)
    assert demo_output(["demo", "heat", "--r", str(r), "--steps", str(steps),
                        "--format", out_format]) == want


@settings(max_examples=40, deadline=None)
@given(FRACTIONS, FRACTIONS, st.integers(0, 20), st.sampled_from(["csv", "json"]))
def test_demo_random_walk_writes_the_per_cell_tables_bytes(p, q, steps, out_format):
    if p + q > 1:
        p, q = 1 - p, 1 - q
    d = 1 - p - q
    spec, delta = random_walk_spec(RandomWalkParams(p, d, q)), InitialData((FieldRow.delta(1),))
    want = reference_demo(spec, delta, engine_point_rows(spec, delta, steps, "closed"),
                          out_format)
    assert demo_output(["demo", "random-walk", "--p", str(p), "--d", str(d),
                        "--q", str(q), "--steps", str(steps),
                        "--format", out_format]) == want


def test_format_table_matches_the_per_cell_writer_on_ragged_groups():
    groups = [((-2, 5), (0, 0, 3), ["1/2", "1/2", "0"]), ((0, 0), (1,), ["-7"]),
              ((3, -1), (0, 2, 4), ["0", "0", "0"])]
    cells = [(p, t, text) for p, times, texts in groups for t, text in zip(times, texts)]
    for out_format in ("csv", "json"):
        assert (cli.format_table(2, groups, "h", out_format)
                == reference_format_table(2, cells, "h", out_format))
    assert cli.format_table(1, [], "h", "csv") == reference_format_table(1, [], "h", "csv")


def counted_texts(monkeypatch):
    """Wrap the emitter solve gets from _value_texts with a log of its calls."""
    calls = []
    real = cli._value_texts

    def value_texts(spec, initial):
        text = real(spec, initial)

        def counted(n, den):
            calls.append(n)
            return text(n, den)

        return counted

    monkeypatch.setattr(cli, "_value_texts", value_texts)
    return calls


def test_solve_texts_each_nonzero_asked_cell_once(monkeypatch):
    rng = random.Random(11)
    spec = nd_instance(rng, 1, time_order=2)
    initial = InitialData(tuple(field_row(rng, 1, max_points=4) for _ in range(2)))
    rows = engine_point_rows(spec, initial, 8, "oracle")
    region = Region(Box((-3,), (4,)), 5, 8)
    # out of order, repeats, a time asked of one point only, a far point
    points = (((1,), 7), ((0,), 2), ((1,), 7), ((-2,), 7), ((0,), 3), ((40,), 8),
              ((0,), 2), ((2,), 8))
    for query in (region, points):
        want = len({(p, t) for p, t in reference_query_points(query) if p in rows[t][1]})
        assert want > 2
        for engine in ("closed", "oracle"):
            calls = counted_texts(monkeypatch)
            cli.run(RunConfig(spec, initial, query, engine, "csv", None))
            assert len(calls) == want and all(calls)


def test_query_points_flatten_query_groups():
    region = Region(Box((-1, 2), (1, 3)), 2, 4)
    points = [((3,), 5), ((-1,), 2), ((3,), 1), ((-1,), 2), ([0], 0), ((3,), 5)]
    for query, dim in ((region, 2), (Region(Box((4,), (6,)), 0, 0), 1), (points, 1)):
        groups = list(Query.of(query, dim).groups())
        assert [p for p, _ in groups] == sorted({p for p, _ in groups})
        assert all(list(times) == sorted(times) for _, times in groups)
        assert ([(p, t) for p, times in groups for t in times]
                == reference_query_points(query))
    groups = list(Query.of(region, 2).groups())
    assert len({id(times) for _, times in groups}) == 1 and groups[0][1] == (2, 3, 4)
    assert list(Query.of(points, 1).groups()) == [
        ((-1,), (2, 2)), ((0,), (0,)), ((3,), (1, 5, 5))]
    # asked_keys: a region's box cut to the packing, once at each time, and
    # a list's repeat counts; a point outside the packing is never asked
    cut = {key: 1 for key in (0, 1, 4, 5)}  # (0, 2), (0, 3), (1, 2), (1, 3)
    asked = Query.of(region, 2).asked_keys(Packing(Box((0, 2), (2, 5))))
    assert asked == {2: cut, 3: cut, 4: cut} and len({id(c) for c in asked.values()}) == 1
    assert Query.of(points, 1).asked_keys(Packing(Box((-1,), (2,)))) == {0: {1: 1}, 2: {0: 2}}
