"""Both engines key their integer rows by one int per point, in the query's
one packing (lattice.query_packing).  These tests unpack the rows with the
tests' own packing (instance_gen.box_keys) and hold them to tuple-keyed rows
worked out here: reference_step iterated in Fractions for the oracle, and
the composition sum for the closed form at small t.  They also check that a
packing too small for an engine's rows is refused."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, InitialData, SpecError, StencilEntry,
                    tridiagonal_spec, verify_closed_vs_oracle)
from latrec import cli, closed_form, oracle
from latrec.config import RunConfig
from latrec.lattice import Packing, query_packing
from latrec.oracle import Region, engine_rows

from instance_gen import box_keys, corner_spec, point_rows, reference_step

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
    packing = query_packing(spec, initial, t_max)
    for engine in ("closed", "oracle"):
        rows = list(engine_rows(spec, initial, t_max, engine, packing))
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


def shrunk(box, axis, side):
    """box one cell short on one axis, at its low (side 0) or high end."""
    lo, hi = list(box.lo), list(box.hi)
    if side == 0:
        lo[axis] += 1
    else:
        hi[axis] -= 1
    return Box(tuple(lo), tuple(hi))


def test_a_packing_too_small_for_the_rows_is_refused():
    f = Fraction
    plane = EquationSpec(2, 2, (0, 1), (StencilEntry((1, 0), 0, f(1, 2)),
                                        StencilEntry((0, -1), 1, f(-1, 3))))
    cases = [(tridiagonal_spec(f(1, 2), f(1, 3), f(1, 4)),
              InitialData((FieldRow(1, {(0,): f(1), (3,): f(-2)}),))),
             (plane, InitialData((FieldRow(2, {(0, 0): f(1)}),
                                  FieldRow(2, {(2, -1): f(3, 2)}))))]
    for spec, initial in cases:
        packing = query_packing(spec, initial, 3)
        for axis in range(spec.spatial_dim):
            for side in (0, 1):
                short = Packing(shrunk(packing.box, axis, side))
                for rows in (oracle._evolve, closed_form._rows):
                    with pytest.raises(SpecError, match="cannot key rows"):
                        rows(spec, initial, 3, short)
                for engine in ("closed", "oracle"):
                    with pytest.raises(SpecError, match="cannot key rows"):
                        engine_rows(spec, initial, 3, engine, short)
        # a packing at least as wide is taken, and gives the same rows
        wide = Packing(Box(tuple(c - 1 for c in packing.box.lo), packing.box.hi))
        for engine in ("closed", "oracle"):
            assert (point_rows(engine_rows(spec, initial, 3, engine, wide), wide.box)
                    == point_rows(engine_rows(spec, initial, 3, engine, packing),
                                  packing.box))
    # the corner form's rows start at psi's left end; its packing ends at
    # the right edge, and one starting right of psi's left end is refused
    corner, psi = corner_spec(f(1, 2), f(1, 3), f(1, 5)), FieldRow(1, {(2,): f(1)})
    packing = query_packing(corner, InitialData((psi,)), 3, 6)
    assert packing.box == Box((2,), (6,))
    for engine in ("closed", "oracle"):
        with pytest.raises(SpecError, match="cannot key rows"):
            engine_rows(corner, InitialData((psi,)), 3, engine, Packing(Box((3,), (6,))))


def test_the_packing_keys_points_as_the_tests_do():
    box = Box((-2, 5, 0), (1, 7, 3))
    packing, (key, point) = Packing(box), box_keys(box)
    keys = [packing.key(p) for p in box.points()]
    assert keys == list(range(box.size())) == [key(p) for p in box.points()]
    assert packing.points(keys) == list(box.points()) == [point(k) for k in keys]
    assert packing.step((1, 0, 0)) == 12 and packing.step((0, 1, -1)) == 3
    # the keys of a box cut to the packing's, in the points' order
    assert packing.keys(Box((0, 3, 2), (5, 6, 9))) == [
        key(p) for p in Box((0, 5, 2), (1, 6, 3)).points()]
    assert packing.keys(Box((2, 5, 0), (3, 7, 3))) == []
