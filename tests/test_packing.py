"""Both engines key their integer rows by one int per point, in the query's
one packing (lattice.query_packing).  These tests unpack the rows with the
tests' own packing (instance_gen.box_keys) and hold them to tuple-keyed rows
worked out here: reference_step iterated in Fractions for the oracle, and
the composition sum for the closed form at small t.  They also check that
engine_rows keys every row of both engines inside the query's packing,
which it sizes itself."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, InitialData, StencilEntry, load_config,
                    oracle_step, verify_closed_vs_oracle)
import latrec
from latrec import cli, closed_form, lattice, oracle
from latrec.config import RunConfig
from latrec.lattice import Packing, query_packing
from latrec.oracle import Region, engine_rows

from instance_gen import box_keys, corner_spec, point_rows, reference_step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FAR = 10 ** 12
VALUES = st.one_of(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]),
                   st.fractions(min_value=-3, max_value=3, max_denominator=7)).filter(bool)


def reach(spec, rows, t_max):
    """The box the rows can reach by t_max, worked out here, or None."""
    points = [p for row in rows for p in row.values]
    if not points:
        return None
    steps = list(zip(*[[s - o for s, o in zip(spec.spatial_shift, e.offset)]
                       for e in spec.stencil]))
    return Box(tuple(min(axis) + t_max * min(0, *d) for axis, d in zip(zip(*points), steps)),
               tuple(max(axis) + t_max * max(0, *d) for axis, d in zip(zip(*points), steps)))


@st.composite
def packing_cases(draw):
    """A spec of dimension 1 to 3 and time order 1 to 3, its shift up to 3
    from every offset, so that on some axes every entry moves the support
    the same way; initial rows, empty ones among them, whose points may lie
    10**12 apart; a horizon; and a query box near the origin, or just
    outside the reach of the rows on one axis, below or above it."""
    dim, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    offsets = st.tuples(*[st.integers(-1, 1)] * dim)
    keys = draw(st.lists(st.tuples(offsets, st.integers(0, k - 1)),
                         min_size=1, max_size=4, unique=True))
    spec = EquationSpec(dim, k, draw(st.tuples(*[st.integers(-3, 3)] * dim)),
                        tuple(StencilEntry(o, level, draw(VALUES)) for o, level in keys))
    coords = st.integers(-2, 2) | st.sampled_from([FAR, -FAR])
    rows = [FieldRow(dim, draw(st.dictionaries(st.tuples(*[coords] * dim), VALUES,
                                               max_size=3)))
            for _ in range(k)]
    t_max = draw(st.integers(0, 4 if dim < 3 else 3))
    lo = list(draw(st.tuples(*[st.integers(-3, 3)] * dim)))
    window = reach(spec, rows, t_max)
    if window is not None and draw(st.booleans()):
        axis = draw(st.integers(0, dim - 1))
        lo = [min(max(c, l), h) for c, l, h in zip(lo, window.lo, window.hi)]
        lo[axis] = (window.hi[axis] + 1 if draw(st.booleans())
                    else window.lo[axis] - 4) + draw(st.integers(0, 2))
    box = Box(tuple(lo), tuple(c + draw(st.integers(0, 3)) for c in lo))
    return spec, InitialData(tuple(rows)), t_max, box


def reference_rows(spec, initial, t_max):
    """Rows 0..t_max as {point: Fraction}, reference_step iterated."""
    held = list(initial.rows)
    want = [row.values for row in held]
    while len(want) <= t_max:
        held = held[1:] + [FieldRow(spec.spatial_dim, reference_step(spec, held))]
        want.append(held[-1].values)
    return want[:t_max + 1]


def values(rows):
    return [{p: Fraction(n, den) for p, n in nums.items()} for den, nums in rows]


@given(packing_cases())
# a drift stencil in 3D, rows 10**12 apart, the box just above the reach
@example((EquationSpec(3, 1, (3, 0, 1), (StencilEntry((1, 0, 0), 0, Fraction(1, 2)),
                                         StencilEntry((0, -1, 1), 0, Fraction(2, 3)))),
          InitialData((FieldRow(3, {(0, 0, 0): Fraction(1), (-FAR, 2, FAR): Fraction(-3, 2)}),)),
          3, Box((0, 0, FAR + 4), (1, 2, FAR + 6))))
# time order 3 in 2D, with an empty row
@example((EquationSpec(2, 3, (1, -1), (StencilEntry((0, 1), 0, Fraction(1, 2)),
                                       StencilEntry((-1, 0), 2, Fraction(-1, 3)),
                                       StencilEntry((1, 1), 1, Fraction(1, 5)))),
          InitialData((FieldRow(2, {(0, 0): Fraction(1)}), FieldRow.zero(2),
                       FieldRow(2, {(1, -1): Fraction(2, 3), (0, 2): Fraction(1)}))),
          4, Box((-2, 7), (0, 9))))
@settings(max_examples=150, deadline=None)
def test_packed_rows_unpack_to_the_reference_rows(case):
    spec, initial, t_max, box = case
    want = reference_rows(spec, initial, t_max)
    for engine in ("closed", "oracle"):
        packing, rows = engine_rows(spec, initial, t_max, engine)
        rows = list(rows)
        assert all(type(den) is int and den > 0 and all(nums.values()) for den, nums in rows)
        assert values(point_rows(rows, packing.box)) == want, engine
    # at small t each closed cell is the composition sum, on the support and
    # one cell beside it on each axis
    q = closed_form.source_rows(spec, initial)
    for t in range(min(t_max, 2) + 1):
        for p in list(want[t])[:3]:
            for near in [p] + [p[:i] + (p[i] + 1,) + p[i + 1:] for i in range(len(p))]:
                assert (closed_form._composition_sum(spec, q, near, t)
                        == want[t].get(near, 0)), (near, t)
    # the query box, near the rows or outside their reach: every cell that
    # verify checks agrees, and solve writes the reference values
    region = Region(box, 0, t_max)
    report = verify_closed_vs_oracle(spec, initial, region)
    assert report.ok and report.checked == box.size() * (t_max + 1)
    listed = [(p, t) for p in box.points() for t in range(t_max + 1)][::-1]
    for query in (region, listed):
        for engine in ("closed", "oracle"):
            _, text = cli.run(RunConfig(spec, initial, query, engine, "csv", None))
            cells = cli.parse_table_csv(text)
            assert len(cells) == box.size() * (t_max + 1)
            assert all(v == want[t].get(p, 0) for p, t, v in cells), engine


@st.composite
def corner_cases(draw):
    """A corner-implicit spec, psi of one to three points, a horizon and a
    query box whose right edge lies up to 3 cells left of psi's left end or
    right of its right end, so that the edge lies left of psi, at its left
    end, inside it, or past it, and whose left edge lies up to 4 cells left
    of the right edge."""
    a, b, c = (draw(VALUES) for _ in range(3))
    psi = FieldRow(1, draw(st.dictionaries(st.tuples(st.integers(-3, 3)), VALUES,
                                           min_size=1, max_size=3)))
    (lo,), (hi,) = min(psi.values), max(psi.values)
    edge = draw(st.integers(lo - 3, hi + 3))
    return (corner_spec(a, b, c), InitialData((psi,)), draw(st.integers(0, 3)),
            Box((edge - draw(st.integers(0, 4)),), (edge,)))


def explicit_cases():
    """packing_cases with the query box or none."""
    return packing_cases().flatmap(lambda case: st.sampled_from([(*case[:3], None), case]))


CORNER = corner_spec(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5))
SPREAD = InitialData((FieldRow(1, {(-1,): Fraction(1), (2,): Fraction(-2, 3)}),))


@given(st.one_of(explicit_cases(), corner_cases()))
# drift stencils, 0 outside every entry's displacement on some axis: 1D
# one step, 2D time order 2, 3D time order 3
@example((EquationSpec(1, 1, (3,), (StencilEntry((0,), 0, Fraction(1, 2)),
                                    StencilEntry((1,), 0, Fraction(-1, 3)))),
          InitialData((FieldRow(1, {(0,): Fraction(1), (FAR,): Fraction(2)}),)), 4,
          Box((1,), (1,))))
@example((EquationSpec(2, 2, (-2, 1), (StencilEntry((0, -1), 1, Fraction(1, 2)),
                                       StencilEntry((1, 1), 0, Fraction(2, 3)))),
          InitialData((FieldRow(2, {(0, 0): Fraction(1)}),
                       FieldRow(2, {(-FAR, 1): Fraction(-1, 2)}))), 4, None))
@example((EquationSpec(3, 3, (2, 0, -2), (StencilEntry((0, 1, 0), 2, Fraction(1, 3)),
                                          StencilEntry((1, -1, 1), 0, Fraction(-1, 2)),
                                          StencilEntry((0, 0, -1), 1, Fraction(1, 5)))),
          InitialData((FieldRow(3, {(0, 0, 0): Fraction(1)}), FieldRow.zero(3),
                       FieldRow(3, {(1, -1, FAR): Fraction(3, 2)}))), 3,
          Box((0, 0, 0), (0, 0, 0))))
# corner right edges left of psi, at its left end, inside it and past it
@example((CORNER, SPREAD, 3, Box((-3,), (-3,))))
@example((CORNER, SPREAD, 3, Box((-4,), (-1,))))
@example((CORNER, SPREAD, 3, Box((1,), (1,))))
@example((CORNER, SPREAD, 3, Box((-3,), (5,))))
@settings(max_examples=150, deadline=None)
def test_engine_rows_key_every_term_in_the_query_packing(case):
    spec, initial, t_max, box = case
    want = query_packing(spec, initial, t_max, box).box
    if box is not None:
        assert box.lo in want and box.hi in want
    for engine in ("closed", "oracle"):
        packing, rows = engine_rows(spec, initial, t_max, engine, box)
        assert packing.box == want, engine
        keys = range(packing.box.size())
        rows = list(rows)
        assert len(rows) == t_max + 1
        assert all(k in keys for _, nums in rows for k in nums), engine


@given(st.one_of(packing_cases(), corner_cases().map(
    lambda case: case[:3] + (Box((case[3].lo[0] - 2,), case[3].hi),))))
@settings(max_examples=80, deadline=None)
def test_solve_and_verify_pack_the_query_box(case):
    # every packing that solve and verify (under "auto" and a named
    # evaluator) key their rows in holds the query's box: a box near the
    # rows, outside their reach, or for the corner form left of psi
    spec, initial, t_max, box = case
    region = Region(box, 0, t_max)
    listed = [(box.lo, t_max), (box.hi, 0), (box.lo, t_max)]
    named = "implicit" if spec.implicit_corner else "nd"
    boxes, sized = [], engine_rows

    def logged(*args):
        packing, rows = sized(*args)
        boxes.append(packing.box)
        return packing, rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "engine_rows", logged)
        patch.setattr(cli, "engine_rows", logged)
        for query in (region, listed):
            want = lattice.Query.of(query, spec.spatial_dim).box
            boxes.clear()
            for evaluator in ("auto", named):
                assert verify_closed_vs_oracle(spec, initial, query, evaluator).ok
            for engine in ("closed", "oracle"):
                cli.run(RunConfig(spec, initial, query, engine, "csv", None))
            assert len(boxes) == 5
            assert all(want.lo in b and want.hi in b for b in boxes), (want, boxes)


def test_the_packing_keys_points_as_the_tests_do():
    box = Box((-2, 5, 0), (1, 7, 3))
    packing, (key, point) = Packing(box), box_keys(box)
    keys = [packing.key(p) for p in box.points()]
    assert keys == list(range(box.size())) == [key(p) for p in box.points()]
    assert packing.points(keys) == list(box.points()) == [point(k) for k in keys]
    assert packing.step((1, 0, 0)) == 12 and packing.step((0, 1, -1)) == 3
    # the keys of a box inside the packing's, in the points' order
    assert packing.keys(box) == keys
    assert packing.keys(Box((0, 5, 2), (1, 6, 3))) == [
        key(p) for p in Box((0, 5, 2), (1, 6, 3)).points()] == [26, 27, 30, 31, 38, 39, 42, 43]
    assert packing.keys(Box((1, 7, 0), (1, 7, 0))) == [key((1, 7, 0))] == [44]


def test_each_engine_sizes_its_rows_with_one_auto_window_call(monkeypatch):
    # the packing engine_rows sizes is the only one: a verify reads two
    # engines, and a named evaluator's verify, a solve and a step one each
    config = load_config(str(CONFIG_DIR / "tridiagonal_mixed.json"))
    calls, sized = [], lattice.auto_window
    for module in (latrec, lattice, oracle, closed_form, cli):
        if vars(module).get("auto_window") is sized:
            monkeypatch.setattr(module, "auto_window",
                                lambda *args: calls.append(args) or sized(*args))
    spec, initial = config.spec, config.initial
    runs = {"verify": (lambda: cli.run_verify(config, "auto"), 2),
            "verify tridiagonal": (lambda: cli.run_verify(config, "tridiagonal"), 1),
            "oracle_step": (lambda: oracle_step(spec, oracle.EvolutionState(initial.rows, 0)), 1)}
    for engine in ("closed", "oracle"):
        solve = RunConfig(spec, initial, config.query, engine, "csv", None)
        runs[f"solve {engine}"] = (lambda solve=solve: cli.run(solve), 1)
    for name, (run, want) in runs.items():
        calls.clear()
        run()
        assert len(calls) == want, name
