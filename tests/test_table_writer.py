"""solve and the demos write their tables point by point from integer rows;
these tests hold the bytes to the per-cell writer of tests/table_reference.py
and count the value texts solve builds."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, HeatParams, InitialData, RandomWalkParams,
                    StencilEntry)
from latrec import cli
from latrec.config import RunConfig
from latrec.lattice import Packing, Query
from latrec.models import heat_spec, random_walk_spec
from latrec.oracle import Region, engine_rows

from instance_gen import (box_keys, corner_spec, engine_point_rows, field_row, nd_instance,
                          rational)
from table_reference import (reference_demo, reference_format_table,
                             reference_query_points, reference_solve)


@st.composite
def solve_configs(draw):
    """A 1D or 2D equation of time order 1 or 2 (or, now and then, the 1D
    corner-implicit form) with random initial rows, in a run_config."""
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
    return run_config(draw, spec, InitialData(rows), t_max)


def run_config(draw, spec, initial, t_max):
    """A config over spec and initial asking a Region cutting or padding the
    rows' support or a list of points with repeats, out of order and with
    times past the support, for either engine and either format."""
    dim, coord = spec.spatial_dim, st.integers(-6, 6)
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
    want = reference_demo(spec, engine_point_rows(spec, initial, steps, "oracle"), out_format)
    assert demo_output(["demo", "heat", "--r", str(r), "--steps", str(steps),
                        "--format", out_format]) == want


@st.composite
def walks(draw):
    """(p, q) drawn apart, or with q = p (mirrored rows) or p +- 1/9."""
    p = draw(FRACTIONS)
    q = draw(st.one_of(FRACTIONS, st.sampled_from([p, p + Fraction(1, 9), p - Fraction(1, 9)])))
    q = min(max(q, Fraction(0)), Fraction(1))
    return (1 - p, 1 - q) if p + q > 1 else (p, q)


@settings(max_examples=40, deadline=None)
@given(walks(), st.integers(0, 20), st.sampled_from(["csv", "json"]))
def test_demo_random_walk_writes_the_per_cell_tables_bytes(walk, steps, out_format):
    p, q = walk
    d = 1 - p - q
    spec, delta = random_walk_spec(RandomWalkParams(p, d, q)), InitialData((FieldRow.delta(1),))
    want = reference_demo(spec, engine_point_rows(spec, delta, steps, "closed"), out_format)
    assert demo_output(["demo", "random-walk", "--p", str(p), "--d", str(d),
                        "--q", str(q), "--steps", str(steps),
                        "--format", out_format]) == want


def test_format_table_matches_the_per_cell_writer_on_ragged_groups():
    # the zero tuples take the "t,0" line lists, the zero list the general join
    groups = [((-2, 5), (0, 0, 3), ["1/2", "1/2", "0"]), ((0, 0), (1,), ["-7"]),
              ((0, 1), (2, 2), ("0", "0")), ((3, -1), (0, 2, 4), ["0", "0", "0"]),
              ((3, 0), (0, 2, 4), ("0", "0", "0")), ((3, 1), (0, 2, 4), ("0", "5", "0")),
              ((4, 0), (0, 2, 4), ("0", "0", "0"))]
    cells = [(p, t, text) for p, times, texts in groups for t, text in zip(times, texts)]
    for out_format in ("csv", "json"):
        assert (cli.format_table(2, groups, "h", out_format)
                == reference_format_table(2, cells, "h", out_format))
    assert cli.format_table(1, [], "h", "csv") == reference_format_table(1, [], "h", "csv")


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_solve_writes_zero_points_as_the_per_cell_writer(out_format):
    """A listed point zero at each of its repeated times, one zero at some
    of its times only, and a Region whose points are zero at some times or
    at every time, on either engine."""
    spec, delta = heat_spec(HeatParams(Fraction(1, 3))), InitialData((FieldRow.delta(1),))
    points = [((9,), 2), ((2,), 1), ((9,), 2), ((9,), 4), ((2,), 3), ((2,), 2),
              ((0,), 0), ((-30,), 5), ((9,), 2)]
    queries = (points, Region(Box((-6,), (7,)), 0, 4), Region(Box((5,), (9,)), 1, 3))
    for query in queries:
        for engine in ("closed", "oracle"):
            config = RunConfig(spec, delta, query, engine, out_format, None)
            assert cli.run(config) == (0, reference_solve(config))


def test_solve_packs_each_query_block_once(monkeypatch):
    # a region is one block, a point list one block per distinct point
    spec, delta = heat_spec(HeatParams(Fraction(1, 3))), InitialData((FieldRow.delta(1),))
    points = [((9,), 2), ((2,), 1), ((9,), 4), ((0,), 0), ((2,), 3)]
    for query, blocks in ((Region(Box((-6,), (7,)), 0, 4), 1), (points, 3)):
        for engine in ("closed", "oracle"):
            config = RunConfig(spec, delta, query, engine, "csv", None)
            calls, keys = [], Packing.keys
            monkeypatch.setattr(Packing, "keys",
                                lambda *args: calls.append(args) or keys(*args))
            status, out = cli.run(config)
            monkeypatch.undo()
            assert (status, out) == (0, reference_solve(config))
            assert len(calls) == blocks


def counted_texts(monkeypatch):
    """Wrap the row texter solve and the demos get from _value_texts with a
    log of the numerators handed to it, one per texted cell."""
    calls = []
    real = cli._value_texts

    def value_texts(spec, initial):
        texts = real(spec, initial)

        def counted(den, numerators):
            calls.extend(numerators)
            return texts(den, numerators)

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


def mirrored(values, twice_centre):
    """values with each cell's reflection through twice_centre / 2 set to it."""
    out = {}
    for p, v in values.items():
        out[p] = out[tuple(c - x for c, x in zip(twice_centre, p))] = v
    return out


@st.composite
def mirror_configs(draw):
    """A 1D or 2D equation whose rows are each their own point reflection:
    entries in mirrored pairs of offsets with one coefficient (about any
    centre for time order 1, about the shift for time order 2, so the rows
    do not drift) and initial rows mirrored about one centre.  "near"
    changes one off-centre initial cell, and "skew" one entry's
    coefficient, so the rows are not mirrored, most by a few cells."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dim, order = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["mirror", "near", "skew"]))
    shift = tuple(rng.randint(-1, 1) for _ in range(dim))
    about = (tuple(2 * c for c in shift) if order == 2
             else tuple(rng.randint(-2, 2) for _ in range(dim)))
    entries = {}
    for _ in range(rng.randint(1, 3)):
        offset = tuple(rng.randint(-1, 1) + c // 2 for c in about)
        level = rng.randrange(order)
        for o, v in mirrored({offset: rational(rng, nonzero=True)}, about).items():
            entries[o, level] = v
    if kind == "skew":
        key = rng.choice(sorted(entries))
        entries[key] = entries[key] + 1 or Fraction(2)
    spec = EquationSpec(dim, order, shift, tuple(StencilEntry(o, level, c)
                                                 for (o, level), c in entries.items()))
    centre = tuple(rng.randint(-3, 3) for _ in range(dim))
    rows = [mirrored({tuple(rng.randint(-3, 3) for _ in range(dim)): rational(rng, nonzero=True)
                      for _ in range(rng.randint(0, 4))}, centre) for _ in range(order)]
    if kind == "near":
        p = tuple(rng.randint(-3, 3) for _ in range(dim))
        if tuple(2 * c for c in p) == centre:
            p = (p[0] + 1, *p[1:])
        rows[0][p] = rows[0].get(p, 0) + 1
    initial = InitialData(tuple(FieldRow(dim, values) for values in rows))
    t_max = draw(st.integers(order - 1, 6 if dim == 1 else 4))
    return kind, run_config(draw, spec, initial, t_max)


def mirror_sum(nums):
    """c, the sum of an integer row's least and greatest key, when every
    cell k equals cell c - k; None otherwise."""
    if nums:
        c = min(nums) + max(nums)
        if all(nums.get(c - k) == n for k, n in nums.items()):
            return c
    return None


def point_mirrored(cells):
    """Whether a row keyed by point is its own point reflection through the
    centre of its support."""
    if not cells:
        return True
    c = tuple(map(sum, zip(min(cells), max(cells))))
    return all(cells.get(tuple(x - y for x, y in zip(c, p))) == n for p, n in cells.items())


def mirror_texts(config):
    """The texts solve must build for config: at each time, one per asked
    nonzero cell, or one per pair k, c - k of them on a row with a
    mirror_sum c in the tests' own packing (box_keys) of the query's."""
    spec, query = config.spec, config.query
    points = reference_query_points(query)
    packing, rows = engine_rows(spec, config.initial, max(t for _, t in points), config.engine)
    key, _ = box_keys(packing.box)
    asked = {(p, t) for p, t in points if p in packing.box}
    count = 0
    for t, (_, nums) in enumerate(rows):
        keys = {key(p) for p, s in asked if s == t} & nums.keys()
        if (c := mirror_sum(nums)) is not None:
            keys = {min(k, c - k) for k in keys}
        count += len(keys)
    return count


@settings(max_examples=150, deadline=None)
@given(mirror_configs())
def test_solve_texts_each_mirrored_pair_once_and_writes_the_per_cell_bytes(case):
    kind, config = case
    if kind == "mirror":
        rows = engine_point_rows(config.spec, config.initial, config.t_max, "oracle")
        assert all(point_mirrored(nums) for _, nums in rows)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_texts(patch)
        assert cli.run(config) == (0, reference_solve(config))
    assert len(calls) == mirror_texts(config)


def test_a_mirrored_row_asked_right_of_its_centre_texts_every_asked_cell(monkeypatch):
    spec, delta = heat_spec(HeatParams(Fraction(1, 4))), InitialData((FieldRow.delta(1),))
    plane = EquationSpec(2, 1, (0, 0), tuple(StencilEntry(o, 0, Fraction(1, 5)) for o in
                                             ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))))
    cases = [(spec, delta, Region(Box((1,), (6,)), 0, 6)),
             (spec, delta, [((3,), 4), ((1,), 2), ((2,), 5), ((1,), 2)]),
             (plane, InitialData((FieldRow.delta(2),)), Region(Box((1, -3), (3, 3)), 0, 3))]
    for spec, initial, query in cases:
        for engine in ("closed", "oracle"):
            config = RunConfig(spec, initial, query, engine, "csv", None)
            calls = counted_texts(monkeypatch)
            assert cli.run(config) == (0, reference_solve(config))
            rows = engine_point_rows(spec, initial, config.t_max, engine)
            assert all(point_mirrored(nums) for _, nums in rows)
            # no asked cell's mirror is asked, so each is texted once
            want = {(p, t) for p, t in reference_query_points(query) if p in rows[t][1]}
            assert len(calls) == len(want) >= 3


def test_demo_heat_texts_each_mirrored_pair_once(monkeypatch):
    calls = counted_texts(monkeypatch)
    demo_output(["demo", "heat", "--r", "2/7", "--steps", "120"])
    # row t holds 2t + 1 cells, mirrored about 0: t + 1 texts
    assert len(calls) == sum(t + 1 for t in range(121)) == 7381


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
    # asked_keys in packings that hold the query's box: a region's box once
    # at each time, and a list's repeat counts
    cells = {key: 1 for key in (0, 1, 4, 5, 8, 9)}  # (-1, 2), (-1, 3), ..., (1, 3)
    asked, keys = Query.of(region, 2).asked_keys(Packing(Box((-1, 2), (2, 5))))
    assert asked == {2: cells, 3: cells, 4: cells} and len({id(c) for c in asked.values()}) == 1
    assert keys == [[0, 1, 4, 5, 8, 9]]
    assert Query.of(points, 1).asked_keys(Packing(Box((-1,), (3,)))) == (
        {0: {1: 1}, 1: {4: 1}, 2: {0: 2}, 5: {4: 2}}, [[0], [1], [4]])
