import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, HeatParams, InitialData,
                    SpecError, StencilEntry, eval_implicit, heat_profile,
                    oracle_evolve, oracle_step,
                    oracle_sweep_implicit, tridiagonal_spec,
                    verify_closed_vs_oracle, verify_recurrence)
from latrec import cli, closed_form, combinatorics, models, oracle
from latrec.closed_form import closed_rows
from latrec.lattice import Query, query_packing
from latrec.oracle import (EvolutionState, Mismatch, Region, VerifyReport, engine_rows,
                           sweep_window)

from instance_gen import (CORNER_COEFFS, box_keys, corner_spec, engine_point_rows, field_row,
                          line_rows, nd_instance, point_rows, rational, reference_step,
                          tridiagonal_instance, verification_region)
from table_reference import reference_query_points

DELTA = FieldRow.delta(1)
HALF = Fraction(1, 2)


def rows_to_values(rows, box):
    """Materialize rows over a box, zeros included, keyed by (point, time)."""
    values = {}
    for t, row in enumerate(rows):
        for p in box.points():
            values[(p, t)] = row.get(p)
    return values


def state_for(spec, *rows):
    return EvolutionState(tuple(rows), spec.time_order - 1)


def test_step_identity():
    spec = EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    psi = FieldRow(1, {(2,): Fraction(5), (-1,): Fraction(-3, 2)})
    out = oracle_step(spec, state_for(spec, psi))
    assert out.newest == psi and out.time == 1


def test_step_tridiagonal_delta():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    out = oracle_step(spec, state_for(spec, DELTA))
    assert out.newest.values == {(-1,): 3, (0,): 2, (1,): 1}


def test_step_heat_preset_delta():
    spec = tridiagonal_spec(Fraction(1, 4), HALF, Fraction(1, 4))
    out = oracle_step(spec, state_for(spec, DELTA))
    assert out.newest.values == {(-1,): Fraction(1, 4), (0,): HALF, (1,): Fraction(1, 4)}


def assert_trusted_row(row, dim):
    """What FieldRow._trusted takes on faith: int-tuple keys of length dim
    and nonzero Fraction values."""
    assert row.dim == dim
    for p, v in row.values.items():
        assert type(p) is tuple and len(p) == dim and all(type(c) is int for c in p)
        assert type(v) is Fraction and v != 0


# negative values and mixed denominators; the small set makes partial
# cancellation inside a new row more likely
STEP_VALUES = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), HALF, -HALF, Fraction(2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7)).filter(bool)


FAR = 10 ** 12


@st.composite
def step_cases(draw, max_dim=2, far=False):
    """A spec of time order 1-3 and dimension 1..max_dim with its held rows,
    empty rows among them.  When drawn, every level-0 entry gets a negated
    twin on level 1 over an equal row, so those terms cancel exactly (the
    whole new row when no entry sits on level 2).  With `far`, a row may
    also hold a point FAR cells away on some axis."""
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-1, 1)] * dim)
    keys = draw(st.lists(st.tuples(coords, st.integers(0, k - 1)),
                         min_size=1, max_size=5, unique=True))
    entries = [StencilEntry(o, level, draw(STEP_VALUES)) for o, level in keys]
    points = st.tuples(*[st.integers(-2, 2)] * dim)
    rows = [FieldRow(dim, {} if draw(st.integers(0, 4)) == 4 else
                     draw(st.dictionaries(points, STEP_VALUES, min_size=1, max_size=5)))
            for _ in range(k)]
    if far and draw(st.booleans()):
        s = draw(st.integers(0, k - 1))
        p = [0] * dim
        p[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([FAR, -FAR]))
        rows[s] = FieldRow(dim, {**rows[s].values, tuple(p): draw(STEP_VALUES)})
    if k >= 2 and any(e.time_level == 0 for e in entries) and draw(st.booleans()):
        rows[1] = rows[0]
        entries = ([e for e in entries if e.time_level != 1]
                   + [StencilEntry(e.offset, 1, -e.coeff)
                      for e in entries if e.time_level == 0])
    shift = draw(coords)
    return EquationSpec(dim, k, shift, tuple(entries)), rows


@given(step_cases(max_dim=3, far=True))
@example((EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(1)),
                                    StencilEntry((1,), 0, Fraction(-1)))),
          [FieldRow(1, {(0,): Fraction(1), (1,): Fraction(1)})]))
@example((EquationSpec(2, 2, (1, -1), (StencilEntry((0, 1), 0, HALF),
                                       StencilEntry((-1, 0), 1, Fraction(-1, 3)))),
          [FieldRow.zero(2), FieldRow.zero(2)]))
@example((EquationSpec(3, 1, (0, 0, 1), (StencilEntry((1, 0, 0), 0, HALF),
                                         StencilEntry((0, -1, 1), 0, Fraction(2, 3)))),
          [FieldRow(3, {(0, 0, 0): Fraction(1), (-FAR, 2, FAR): Fraction(-3, 2)})]))
@settings(max_examples=300, deadline=None)
def test_step_integer_sum_equals_fraction_reference(case):
    # the first example is (1 - x^-1)(1 + x): its middle cell cancels; the
    # second's rows are all zero; the third's points lie FAR apart
    spec, rows = case
    state = state_for(spec, *rows)
    held = list(rows)
    initial, t_max = InitialData(rows), spec.time_order + 2
    packing, stepped = engine_rows(spec, initial, t_max, "oracle")
    evolved = iter(point_rows(stepped, packing.box))
    for row, (den, nums) in zip(rows, evolved):
        assert type(den) is int and den > 0
        assert {p: Fraction(n, den) for p, n in nums.items()} == row.values
    for _ in range(3):
        state = oracle_step(spec, state)
        want = reference_step(spec, held)
        assert state.newest.values == want
        assert_trusted_row(state.newest, spec.spatial_dim)
        den, nums = next(evolved)
        assert {p: Fraction(n, den) for p, n in nums.items()} == want
        assert all(type(n) is int and n for n in nums.values())
        held = held[1:] + [state.newest]
        assert list(state.rows) == held


def test_oracle_reads_no_closed_form_kernel(monkeypatch):
    def closed_form_path(*args, **kwargs):
        raise AssertionError("the oracle reached a closed-form kernel")

    for module in (closed_form, combinatorics):
        for name in ("_multinomial_weights", "_column_weights", "_symbol_powers", "_miller"):
            monkeypatch.setattr(module, name, closed_form_path)
    for module in (closed_form, models):
        monkeypatch.setattr(module, "_power_rows", closed_form_path)
    # the closed form's integer rows and their integer scaling, every lookup
    # of its evaluators and the corner form's kernel, its rows and its
    # integer scaling; the engines share only the packing (lattice)
    for name in ("_composition_sum", "_series_value", "_rows", "_series_rows",
                 "_integer_rows", "closed_getter", "_kernel_values", "_corner_rows",
                 "eval_implicit", "corner_kernel", "_scaled", "_three_point_history"):
        monkeypatch.setattr(closed_form, name, closed_form_path)
    f = Fraction
    line = tridiagonal_spec(HALF, f(1, 3), f(1, 4))
    assert oracle_evolve(line, InitialData((DELTA,)), 2)[2].values == {
        (-2,): f(1, 16), (-1,): f(1, 6), (0,): f(13, 36), (1,): f(1, 3), (2,): f(1, 4)}
    plane = EquationSpec(2, 1, (0, 0), (StencilEntry((0, 0), 0, HALF),
                                        StencilEntry((1, 0), 0, f(-1, 3)),
                                        StencilEntry((0, 1), 0, f(1, 5))))
    assert oracle_evolve(plane, InitialData((FieldRow.delta(2),)), 2)[2].values == {
        (0, 0): f(1, 4), (-1, 0): f(-1, 3), (0, -1): f(1, 5),
        (-2, 0): f(1, 9), (0, -2): f(1, 25), (-1, -1): f(-2, 15)}
    # U[t+2](x) = U[t+1](x) - U[t](x+1) / 2
    two_step = EquationSpec(1, 2, (0,), (StencilEntry((0,), 1, f(1)),
                                         StencilEntry((1,), 0, -HALF)))
    rows = oracle_evolve(two_step, InitialData((DELTA, FieldRow(1, {(0,): f(1, 3)}))), 4)
    assert [row.values for row in rows[2:]] == [
        {(0,): f(1, 3), (-1,): -HALF},
        {(0,): f(1, 3), (-1,): f(-2, 3)},
        {(0,): f(1, 3), (-1,): f(-5, 6), (-2,): f(1, 4)}]
    # r = 1/3 averages three cells; the cell at x = 2 cancels at j = 2
    heat = heat_profile(HeatParams(f(1, 3)), FieldRow(1, {(0,): f(1), (1,): -HALF}), 2)
    assert [row.values for row in heat[1:]] == [
        {(-1,): f(1, 3), (0,): f(1, 6), (1,): f(1, 6), (2,): f(-1, 6)},
        {(-2,): f(1, 9), (-1,): f(1, 6), (0,): f(2, 9), (1,): f(1, 18), (3,): f(-1, 18)}]
    # the integer rows behind solve with the oracle engine and demo heat
    *_, (den, nums) = engine_point_rows(line, InitialData((DELTA,)), 2, "oracle")
    assert Fraction(nums[(0,)], den) == f(13, 36) and (3,) not in nums
    assert cli.main(["demo", "heat", "--r", "1/3", "--steps", "3"]) == 0
    # U[i+1, j+1] = U[i, j+1] / 2 + U[i+1, j] / 3 + U[i, j] / 5 from 1 at 0
    # and -2 at 1: the public sweep, and the integer rows to the right edge 3
    corner = corner_spec(HALF, f(1, 3), f(1, 5))
    psi = FieldRow(1, {(0,): f(1), (1,): f(-2)})
    want = [{(0,): f(1), (1,): f(-2)},
            {(0,): f(1, 3), (1,): f(-3, 10), (2,): f(-11, 20), (3,): f(-11, 40)},
            {(0,): f(1, 9), (1,): f(1, 45), (2,): f(-209, 900), (3,): f(-143, 450)}]
    rows = oracle_sweep_implicit(HALF, f(1, 3), f(1, 5), psi, sweep_window(psi, 2, 3), 2)
    assert [{p: v for p, v in row.values.items() if p[0] <= 3} for row in rows] == want
    rows = engine_point_rows(corner, InitialData((psi,)), 2, "oracle", Box((3,), (3,)))
    assert [{p: Fraction(n, den) for p, n in nums.items()} for den, nums in rows] == want


@given(step_cases())
@example((EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),
                                    StencilEntry((0,), 1, Fraction(-1)))),
          [DELTA, DELTA]))
@example((tridiagonal_spec(HALF, Fraction(1, 3), Fraction(1, 4)), [FieldRow.zero(1)]))
@settings(max_examples=150, deadline=None)
def test_integer_rows_equal_the_other_engines_fraction_rows(case):
    # the first example's row 2 cancels to zero; the second's rows are all zero
    spec, rows = case
    initial = InitialData(rows)
    t_max = 4
    pairs = [(engine_point_rows(spec, initial, t_max, "oracle"), closed_rows(spec, initial, t_max)),
             (engine_point_rows(spec, initial, t_max, "closed"),
              oracle_evolve(spec, initial, t_max))]
    # the support moves at most this far, and one cell past it is zero
    reach = 1 + t_max * max(abs(s - o) for e in spec.stencil
                            for s, o in zip(spec.spatial_shift, e.offset))
    hull = initial.support_hull() or Box((0,) * spec.spatial_dim, (0,) * spec.spatial_dim)
    box = Box(tuple(c - reach for c in hull.lo), tuple(c + reach for c in hull.hi))
    for int_rows, fraction_rows in pairs:
        assert len(int_rows) == len(fraction_rows) == t_max + 1
        for (den, nums), row in zip(int_rows, fraction_rows):
            assert type(den) is int and den > 0
            assert set(nums) == set(row.values)
            assert all(type(n) is int and n for n in nums.values())
            for p in box.points():
                assert Fraction(nums.get(p, 0), den) == row.get(p)


def test_negative_t_max_is_refused_when_called():
    spec = tridiagonal_spec(HALF, Fraction(1, 3), Fraction(1, 4))
    initial = InitialData((DELTA,))
    for rows in (oracle_evolve, closed_rows, query_packing,
                 lambda *args: engine_rows(*args, "closed"),
                 lambda *args: engine_rows(*args, "oracle")):
        with pytest.raises(SpecError, match="t_max must be >= 0"):
            rows(spec, initial, -1)


def test_evolve_t0_returns_initial():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    rows = oracle_evolve(spec, InitialData((DELTA,)), 0)
    assert rows == [DELTA]


def test_evolve_symmetric_walk_two_steps():
    spec = tridiagonal_spec(HALF, Fraction(0), HALF)
    rows = oracle_evolve(spec, InitialData((DELTA,)), 2)
    assert rows[2].values == {(-2,): Fraction(1, 4), (0,): HALF, (2,): Fraction(1, 4)}


def test_evolve_period_two_recurrence():
    spec = EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    zero = FieldRow.zero(1)
    rows = oracle_evolve(spec, InitialData((DELTA, zero)), 3)
    assert rows == [DELTA, zero, DELTA, zero]


def test_step_rejects_wrong_row_count():
    spec = EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    with pytest.raises(SpecError):
        oracle_step(spec, EvolutionState((DELTA,), 0))


def test_mass_evolution_factor():
    rng = random.Random(2005)
    for _ in range(10):
        spec = nd_instance(rng, rng.randint(1, 2), max_entries=5)
        total = sum(e.coeff for e in spec.stencil)
        psi = field_row(rng, spec.spatial_dim)
        rows = oracle_evolve(spec, InitialData((psi,)), 4)
        for t in range(4):
            assert rows[t + 1].total() == total * rows[t].total()


def test_determinism():
    rng1, rng2 = random.Random(2007), random.Random(2007)
    for rng in (rng1, rng2):
        rng.random()
    spec = tridiagonal_spec(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    a = oracle_evolve(spec, InitialData((DELTA,)), 6)
    b = oracle_evolve(spec, InitialData((DELTA,)), 6)
    assert a == b


# ---------------------------------------------------------------------------
# corner-implicit sweep
# ---------------------------------------------------------------------------

def test_sweep_b_c_zero_rows_vanish():
    rows = oracle_sweep_implicit(Fraction(3), Fraction(0), Fraction(0), DELTA,
                                 sweep_window(DELTA, 3, 0), 3)
    assert rows[0] == DELTA
    assert all(not rows[j].values for j in range(1, 4))


def test_sweep_copy_shift_row():
    rows = oracle_sweep_implicit(Fraction(0), Fraction(1), Fraction(1), DELTA,
                                 sweep_window(DELTA, 1, 0), 1)
    assert rows[1].values == {(0,): 1, (1,): 1}


def test_sweep_rows_satisfy_corner_recurrence():
    rng = random.Random(2011)
    for _ in range(10):
        a, b, c = (rational(rng) for _ in range(3))
        psi = field_row(rng, 1, max_points=4)
        window = Box((psi.support_box().lo[0] - 5,), (psi.support_box().hi[0] + 6,))
        rows = oracle_sweep_implicit(a, b, c, psi, window, 4)
        for row in rows[1:]:
            assert_trusted_row(row, 1)
        for j in range(4):
            for i in range(window.lo[0], window.hi[0]):
                lhs = rows[j + 1].get((i + 1,))
                rhs = (a * rows[j + 1].get((i,)) + b * rows[j].get((i + 1,))
                       + c * rows[j].get((i,)))
                assert lhs == rhs


def reference_sweep(a, b, c, psi, window, j_max):
    """The corner-implicit sweep in Fractions, cell by cell, as the oracle
    ran it before it stepped integer rows: rows 0..j_max as dicts."""
    lo, hi = window.lo[0], window.hi[0]
    rows = [dict(psi.values)]
    for _ in range(j_max):
        prev, acc, val = rows[-1], {}, Fraction(0)
        for i in range(lo, hi):
            val = a * val + b * prev.get((i + 1,), 0) + c * prev.get((i,), 0)
            if val:
                acc[(i + 1,)] = val
        rows.append(acc)
    return rows


@given(CORNER_COEFFS, st.one_of(st.just(Fraction(0)), CORNER_COEFFS), CORNER_COEFFS,
       line_rows(), st.integers(0, 9), st.integers(-30, 60))
@example(HALF, Fraction(0), Fraction(-2, 3), FieldRow(1, {(-1,): HALF, (3,): Fraction(2)}), 6, 40)
@example(HALF, Fraction(1, 3), Fraction(1, 5), FieldRow(1, {(2,): Fraction(1)}), 3, -5)
@settings(max_examples=80, deadline=None)
def test_corner_rows_equal_the_pointwise_sum_and_the_fraction_sweep(a, b, c, psi, t_max,
                                                                    right_edge):
    # psi on [-4, 4], the zero row among them; right edges from left of the
    # support to far right of it
    if not (b or c):
        b = HALF  # a corner spec needs b or c
    spec, initial = corner_spec(a, b, c), InitialData((psi,))
    edge = Box((right_edge,), (right_edge,))
    closed, swept = (engine_point_rows(spec, initial, t_max, engine, edge)
                     for engine in ("closed", "oracle"))
    # one denominator, an int, per time, and equal numerators
    assert closed == swept and len(closed) == t_max + 1
    assert all(type(den) is int for den, _ in closed)
    left, want = right_edge + 1, [{}] * (t_max + 1)
    if psi.values:
        # the Fraction sweep on a window wide on both sides, cut at the right edge
        left, window = min(psi.values)[0], sweep_window(psi, t_max, right_edge)
        want = [{p: v for p, v in row.items() if p[0] <= right_edge}
                for row in reference_sweep(a, b, c, psi, window, t_max)]
    assert [{p: Fraction(n, den) for p, n in nums.items()} for den, nums in closed] == want
    scale = lcm(a.denominator, b.denominator, c.denominator)
    lcd = lcm(*(v.denominator for v in psi.values.values()))
    for j, (den, nums) in enumerate(closed):
        # every nonzero cell from psi's left end to the right edge, none past it
        assert all(left <= i <= right_edge for (i,) in nums)
        # row j goes over D^(R - m + j) L, and cell i's value over a
        # divisor of D^(i - m + j) L
        if left <= right_edge:
            assert den == scale ** (right_edge - left + j) * lcd
        for i in range(left - 1, right_edge + 1):
            value = Fraction(nums.get((i,), 0), den)
            assert value == eval_implicit(a, b, c, psi, i, j), (i, j)
            assert (value * scale ** max(i - left + j, 0) * lcd).denominator == 1, (i, j)


@given(CORNER_COEFFS, CORNER_COEFFS, CORNER_COEFFS, line_rows(), st.integers(0, 6),
       st.integers(-12, 12), st.integers(-12, 16))
@example(HALF, Fraction(1), Fraction(1), FieldRow.delta(1), 3, 0, 4)
@settings(max_examples=80, deadline=None)
def test_sweep_reads_only_the_window_right_edge(a, b, c, psi, j_max, left, right):
    # the left edge anywhere, at or right of psi's left end too, and right
    # edges left of psi's support, inside it and right of it
    window = Box((min(left, right),), (right,))
    if not psi.values:
        rows = oracle_sweep_implicit(a, b, c, psi, None, j_max)
        assert [row.values for row in rows] == [{}] * (j_max + 1)
        return
    rows = oracle_sweep_implicit(a, b, c, psi, window, j_max)
    # sweep_window's left edge is j_max + 1 left of psi, its right edge
    # reaches at least psi's right end and right
    want = [{p: v for p, v in row.items() if p[0] <= right}
            for row in reference_sweep(a, b, c, psi, sweep_window(psi, j_max, right), j_max)]
    assert [row.values for row in rows] == want


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_identity_no_mismatch():
    spec = EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    report = verify_closed_vs_oracle(spec, InitialData((DELTA,)),
                                     Region(Box((-3,), (3,)), 0, 4))
    assert report.ok and report.checked == 35 and report.max_time == 4


def test_verify_inner_exponent_variant_reports_mismatch():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    report = verify_closed_vs_oracle(spec, InitialData((DELTA,)),
                                     Region(Box((0,), (0,)), 1, 1),
                                     evaluator="tridiagonal-j-n")
    assert not report.ok
    (m,) = report.mismatches
    assert (m.point, m.time, m.closed_value, m.oracle_value) == ((0,), 1, 6, 2)
    good = verify_closed_vs_oracle(spec, InitialData((DELTA,)),
                                   Region(Box((0,), (0,)), 1, 1),
                                   evaluator="tridiagonal")
    assert good.ok


def test_verify_point_list_matches_region():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    initial = InitialData((FieldRow(1, {(0,): Fraction(1), (2,): Fraction(-1, 2)}),))
    region = Region(Box((-3,), (4,)), 1, 3)
    points = [(p, t) for p in region.box.points() for t in range(1, 4)]
    random.Random(2011).shuffle(points)
    for evaluator in ("auto", "tridiagonal", "tridiagonal-j-n"):
        by_region = verify_closed_vs_oracle(spec, initial, region, evaluator=evaluator)
        assert verify_closed_vs_oracle(spec, initial, points, evaluator=evaluator) == by_region
    assert len(by_region.mismatches) > 1 and by_region.checked == 24
    corner = corner_spec(Fraction(1, 2), Fraction(1), Fraction(1, 3))
    region = Region(Box((-4,), (6,)), 0, 4)
    points = [(p, t) for p in region.box.points() for t in range(5)][::-1]
    report = verify_closed_vs_oracle(corner, InitialData((DELTA,)), region)
    assert report.ok
    assert verify_closed_vs_oracle(corner, InitialData((DELTA,)), points) == report


def per_cell_report(closed_get, oracle_rows, query):
    """The compare loop verify ran before whole rows: every asked (point,
    time), duplicates included, cross-multiplied one by one."""
    checked, mismatches = 0, []
    for p, t in reference_query_points(query):
        n_c, d_c = closed_get(p, t)
        d_o, o_row = oracle_rows[t]
        n_o = o_row.get(p, 0)
        checked += 1
        if n_c * d_o != n_o * d_c:
            mismatches.append(Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o)))
    return checked, mismatches


def row_getter(rows):
    return lambda p, t: (rows[t][1].get(p, 0), rows[t][0])


@st.composite
def compare_cases(draw):
    """A step case, a query (a box that may cut the support, over times
    starting anywhere, or a point list with repeats), the query's packing,
    both engines' integer rows up to the query's last time keyed by point,
    and the closed rows with faults: a cell inside the packing changed,
    added or dropped, or a whole row's den and numerators scaled together."""
    spec, rows = draw(step_cases())
    initial = InitialData(rows)
    coords = st.tuples(*[st.integers(-4, 4)] * spec.spatial_dim)
    if draw(st.booleans()):
        a, b = draw(coords), draw(coords)
        t_lo = draw(st.integers(0, 4))
        query = Region(Box(tuple(map(min, a, b)), tuple(map(max, a, b))),
                       t_lo, draw(st.integers(t_lo, 4)))
    else:
        query = draw(st.lists(st.tuples(coords, st.integers(0, 4)), min_size=1, max_size=8))
        query += draw(st.lists(st.sampled_from(query), max_size=3))
    # the packing holds the query's box, as verify's does: an asked cell
    # outside it would share a key with a cell inside
    asked = Query.of(query, spec.spatial_dim)
    t_max, packing = asked.t_max, query_packing(spec, initial, asked.t_max, asked.box)
    closed = engine_point_rows(spec, initial, t_max, "closed")
    faulty = list(closed)
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, t_max))
        den, nums = faulty[t]
        if draw(st.booleans()):
            m = draw(st.integers(2, 6))
            faulty[t] = (den * m, {p: n * m for p, n in nums.items()})
        else:
            p = draw(coords)
            if not all(map(lambda l, c, h: l <= c <= h, packing.box.lo, p, packing.box.hi)):
                continue  # no row of either engine holds a cell there
            n = nums.get(p, 0) + draw(st.integers(-2, 2))
            nums = {q: v for q, v in nums.items() if q != p}
            faulty[t] = (den, nums | {p: n} if n else nums)
    return (spec, initial, query, packing, closed, faulty,
            engine_point_rows(spec, initial, t_max, "oracle"))


@given(compare_cases())
@settings(max_examples=300, deadline=None)
def test_row_compare_equals_the_per_cell_loop(case):
    spec, initial, query, packing, closed, faulty, oracle_rows = case
    checked, mismatches = per_cell_report(row_getter(closed), oracle_rows, query)
    assert not mismatches
    query_ = Query.of(query, spec.spatial_dim)
    assert verify_closed_vs_oracle(spec, initial, query) == VerifyReport(
        checked, (), query_.t_max)
    key, _ = box_keys(packing.box)
    packed_faulty, packed_oracle = ([(den, {key(p): n for p, n in nums.items()})
                                     for den, nums in rows] for rows in (faulty, oracle_rows))
    mismatches = oracle._row_mismatches(iter(packed_faulty), iter(packed_oracle), query_, packing)
    assert (query_.checked, sorted(mismatches, key=lambda m: (m.point, m.time))) == \
        per_cell_report(row_getter(faulty), oracle_rows, query)


def test_verify_reports_a_faulty_closed_cell_only_where_asked(monkeypatch):
    spec = tridiagonal_spec(HALF, Fraction(1, 3), Fraction(1, 4))
    initial = InitialData((FieldRow(1, {(0,): Fraction(1), (3,): Fraction(-2, 3)}),))
    region = Region(Box((-1,), (2,)), 2, 4)
    points = [((1,), 3), ((5,), 3), ((1,), 3), ((0,), 4)]
    rows = closed_form._rows

    def patch(t, edit):
        # edit(key, den, numerators) of row t, key the packing's (box_keys)
        def faulty(*args):
            out = list(rows(*args))
            out[t] = edit(box_keys(args[-1].box)[0], *out[t])
            return iter(out)
        monkeypatch.setattr(closed_form, "_rows", faulty)

    def bump(p):
        return lambda key, den, nums: (den, nums | {key(p): nums.get(key(p), 0) + 1})

    den = engine_point_rows(spec, initial, 3, "closed")[3][0]
    patch(3, bump((1,)))
    report = verify_closed_vs_oracle(spec, initial, region)
    assert report.checked == 12 and [(m.point, m.time) for m in report.mismatches] == [((1,), 3)]
    (m,) = report.mismatches
    assert m.closed_value - m.oracle_value == Fraction(1, den)
    listed = verify_closed_vs_oracle(spec, initial, points)
    assert listed.checked == 4 and listed.mismatches == (m, m)
    # outside the box, and inside it at a time before the region starts
    patch(3, bump((5,)))
    assert verify_closed_vs_oracle(spec, initial, region).ok
    patch(1, bump((0,)))
    assert verify_closed_vs_oracle(spec, initial, region).ok
    assert verify_closed_vs_oracle(spec, initial, points).ok
    # the same values over a multiple of the denominator
    patch(3, lambda key, den, nums: (7 * den, {k: 7 * n for k, n in nums.items()}))
    assert verify_closed_vs_oracle(spec, initial, region) == VerifyReport(12, (), 4)
    assert verify_closed_vs_oracle(spec, initial, points) == VerifyReport(4, (), 4)


def test_tridiagonal_j_n_control_keeps_the_per_cell_report():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    initial = InitialData((FieldRow(1, {(0,): Fraction(1), (2,): Fraction(-1, 2)}),))
    oracle_rows = engine_point_rows(spec, initial, 4, "oracle")
    closed_get = closed_form.closed_getter(spec, initial, "tridiagonal-j-n")
    for query in (Region(Box((-3,), (4,)), 2, 4),
                  [((1,), 3), ((-2,), 2), ((1,), 3), ((4,), 4), ((9,), 1)]):
        checked, mismatches = per_cell_report(closed_get, oracle_rows, query)
        assert mismatches
        report = verify_closed_vs_oracle(spec, initial, query, evaluator="tridiagonal-j-n")
        assert report == VerifyReport(checked, tuple(mismatches), 4)


@st.composite
def named_cases(draw):
    """A spec, its initial rows, a named evaluator for it and a query that
    reaches past the support: a box over a time range, or a point list
    with repeated pairs.  The spec is a step case in 1D or 2D under "nd",
    a three-point stencil under "tridiagonal" or its j-n control, or a
    corner form under "implicit", whose boxes may lie left of psi; "nd"
    values may be bumped at drawn cells, a nonzero one to 0 and 0 to 1, so
    mismatches show in 2D too, on the oracle's support and off it."""
    kind = draw(st.sampled_from(("nd", "tridiagonal", "implicit")))
    if kind == "nd":
        spec, rows = draw(step_cases())
        evaluator = "nd"
    elif kind == "tridiagonal":
        spec = tridiagonal_spec(*(draw(STEP_VALUES) for _ in range(3)))
        rows, evaluator = [draw(line_rows())], draw(st.sampled_from(
            ("tridiagonal", "tridiagonal-j-n")))
    else:
        spec = corner_spec(HALF, draw(STEP_VALUES), draw(CORNER_COEFFS))
        rows, evaluator = [draw(line_rows())], "implicit"
    dim = spec.spatial_dim
    coords = st.tuples(*[st.integers(-8, 8)] * dim)
    if draw(st.booleans()):
        a, b = draw(coords), draw(coords)
        t_lo = draw(st.integers(0, 4))
        query = Region(Box(tuple(map(min, a, b)), tuple(map(max, a, b))),
                       t_lo, draw(st.integers(t_lo, 4)))
    else:
        query = draw(st.lists(st.tuples(coords, st.integers(0, 4)), min_size=1, max_size=8))
        query += draw(st.lists(st.sampled_from(query), max_size=3))
    bumps = set()
    if evaluator == "nd":
        bumps = draw(st.sets(st.sampled_from(reference_query_points(query)), max_size=2))
    return spec, InitialData(tuple(rows)), evaluator, query, bumps


@given(named_cases())
@example((corner_spec(HALF, Fraction(1), Fraction(1, 3)), InitialData((DELTA,)), "implicit",
          Region(Box((-6,), (-2,)), 0, 3), set()))
@example((corner_spec(HALF, Fraction(1), Fraction(1, 3)),
          InitialData((FieldRow(1, {(2,): HALF, (4,): Fraction(-1, 3)}),)), "implicit",
          [((-3,), 2), ((1,), 4), ((-3,), 2), ((5,), 1)], set()))
@example((tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3)), InitialData((DELTA,)),
          "tridiagonal-j-n", [((7,), 3), ((0,), 1), ((7,), 3), ((-8,), 4)], set()))
@settings(max_examples=150, deadline=None)
def test_named_verify_equals_the_per_cell_loop(case):
    # every asked cell, on the support or past it, corner boxes left of psi
    # among them, is compared once per repeat, as the per-cell loop did
    spec, initial, evaluator, query, bumps = case
    get = closed_form.closed_getter(spec, initial, evaluator)

    def value(p, t):
        n, d = get(p, t)
        return ((0 if n else d), d) if (p, t) in bumps else (n, d)

    query_ = Query.of(query, spec.spatial_dim)
    oracle_rows = engine_point_rows(spec, initial, query_.t_max, "oracle", query_.box)
    checked, mismatches = per_cell_report(value, oracle_rows, query)
    assert checked == query_.checked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closed_form, "closed_getter", lambda *args: value)
        report = verify_closed_vs_oracle(spec, initial, query, evaluator=evaluator)
    assert report == VerifyReport(checked, tuple(mismatches), query_.t_max)
    if bumps:
        assert report.mismatches


def test_a_named_evaluator_reads_each_oracle_row_as_it_is_stepped(monkeypatch):
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    initial = InitialData((FieldRow(1, {(0,): Fraction(1), (2,): Fraction(-1, 2)}),))
    log, engine_rows, closed_getter = [], oracle.engine_rows, closed_form.closed_getter

    def logged_rows(*args):
        packing, rows = engine_rows(*args)
        if args[3] != "oracle":
            return packing, rows
        return packing, (log.append(("row", t)) or row for t, row in enumerate(rows))

    def logged_getter(*args):
        get = closed_getter(*args)
        return lambda p, t: log.append(("value", p, t)) or get(p, t)

    monkeypatch.setattr(oracle, "engine_rows", logged_rows)
    monkeypatch.setattr(closed_form, "closed_getter", logged_getter)
    # (9,) lies past the support, inside the packing of the query's box: it
    # is evaluated against 0; the repeated pair ((1,), 3) is evaluated once
    for query in (Region(Box((-3,), (4,)), 2, 4),
                  [((1,), 3), ((-2,), 2), ((1,), 3), ((9,), 1), ((4,), 4)]):
        log.clear()
        report = verify_closed_vs_oracle(spec, initial, query, evaluator="tridiagonal-j-n")
        assert report.mismatches
        drawn, values = -1, []
        for entry in log:
            if entry[0] == "row":
                assert entry[1] == drawn + 1
                drawn += 1
            else:
                # every value at time t is asked for after row t is drawn
                # and before row t + 1 is
                assert entry[2] == drawn
                values.append(entry[1:])
        assert sorted(values) == sorted(set(reference_query_points(query)))


def test_a_named_three_point_verify_steps_each_history_once(monkeypatch):
    # over a region, each asked point steps one history per cell of psi
    # through times 0..t_max, and no double binomial sum is taken
    def no_sum(*args):
        raise AssertionError("a per-cell sum was taken")

    calls, history = [], closed_form._three_point_history

    def counted(*args):
        # each history's steps counted in its own slot
        calls.append(0)
        return steps(len(calls) - 1, history(*args))

    def steps(slot, run):
        for w in run:
            calls[slot] += 1
            yield w

    monkeypatch.setattr(closed_form, "eval_tridiagonal", no_sum)
    monkeypatch.setattr(closed_form, "_three_point_history", counted)
    spec = tridiagonal_spec(HALF, Fraction(1, 3), Fraction(1, 4))
    psi = FieldRow(1, {(0,): Fraction(1), (3,): Fraction(-5, 2)})
    region = Region(Box((-9,), (9,)), 2, 12)
    for evaluator, ok in (("tridiagonal", True), ("tridiagonal-j-n", False)):
        calls.clear()
        report = verify_closed_vs_oracle(spec, InitialData((psi,)), region, evaluator)
        assert report.ok is ok and report.checked == 19 * 11
        assert len(calls) == 19 * 2 and max(calls) <= 13


def test_an_equal_named_row_is_settled_by_one_dict_comparison(monkeypatch):
    # the three-point getter's values are over the oracle's own row
    # denominator, so where the asked box holds the whole support each
    # named row equals the oracle's and no asked cell is read from it, even
    # where the values have a smaller common denominator (row 1 is integral)
    reads, evaluated_rows = [], oracle._evaluated_rows

    class Row(dict):
        def get(self, *args):
            reads.append(args)
            return super().get(*args)

    def counted_rows(*args):
        return ((den, Row(nums)) for den, nums in evaluated_rows(*args))

    monkeypatch.setattr(oracle, "_evaluated_rows", counted_rows)
    spec = tridiagonal_spec(HALF, HALF, HALF)
    initial = InitialData((FieldRow(1, {(0,): Fraction(2), (2,): Fraction(-4)}),))
    report = verify_closed_vs_oracle(spec, initial, Region(Box((-6,), (8,)), 0, 5),
                                     "tridiagonal")
    assert report.ok and report.checked == 15 * 6
    assert not reads
    # the control's rows differ, and their asked cells are read
    assert not verify_closed_vs_oracle(spec, initial, Region(Box((-6,), (8,)), 0, 5),
                                       "tridiagonal-j-n").ok
    assert reads


def test_row_compare_packs_the_asked_keys_only_for_an_unequal_row(monkeypatch):
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    initial = InitialData((FieldRow(1, {(0,): Fraction(1), (2,): Fraction(-1, 2)}),))
    calls, asked_keys = [], Query.asked_keys
    monkeypatch.setattr(Query, "asked_keys", lambda *args: calls.append(args) or asked_keys(*args))
    queries = (Region(Box((-3,), (4,)), 2, 4), [((1,), 3), ((-2,), 2), ((1,), 3), ((4,), 4)])
    assert all(verify_closed_vs_oracle(spec, initial, query).ok for query in queries)
    assert not calls
    # closed rows read from the tridiagonal-j-n control, which differ from
    # the oracle's past time 0: the same mismatches as the per-cell loop
    packing = query_packing(spec, initial, 4)
    key, _ = box_keys(packing.box)
    closed_get = closed_form.closed_getter(spec, initial, "tridiagonal-j-n")
    control = []
    for t in range(5):
        values = {p: Fraction(*closed_get(p, t)) for p in packing.box.points()}
        den = lcm(*(v.denominator for v in values.values()))
        control.append((den, {p: v.numerator * (den // v.denominator)
                              for p, v in values.items() if v}))
    oracle_rows = engine_point_rows(spec, initial, 4, "oracle")
    packed_control, packed_oracle = ([(den, {key(p): n for p, n in nums.items()})
                                      for den, nums in rows] for rows in (control, oracle_rows))
    for query in queries:
        calls.clear()
        query_ = Query.of(query, 1)
        mismatches = oracle._row_mismatches(iter(packed_control), iter(packed_oracle), query_,
                                            packing)
        mismatches.sort(key=lambda m: (m.point, m.time))
        assert (query_.checked, mismatches) == per_cell_report(row_getter(control), oracle_rows,
                                                               query)
        assert mismatches and len(calls) == 1


def test_auto_picks_one_source_per_engine(monkeypatch):
    delta = InitialData((DELTA,))
    corner = corner_spec(HALF, Fraction(1), Fraction(1, 3))
    tri = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    # "auto" names verify's comparison of both engines' rows, no pointwise
    # evaluator
    for spec in (corner, tri):
        with pytest.raises(SpecError, match="unknown evaluator 'auto'"):
            closed_form.closed_getter(spec, delta, "auto")
    # every spec is answered by rows in the query's one packing, which
    # engine_rows sizes and returns; the corner-implicit form's rows run
    # from the query box's or psi's left end, whichever is further left, to
    # the box's right edge
    monkeypatch.setattr(closed_form, "_rows", lambda *args: ("closed rows", *args[2:]))
    monkeypatch.setattr(closed_form, "_corner_rows", lambda *args: ("corner rows", *args))
    monkeypatch.setattr(oracle, "_steps", lambda *args: ("oracle rows", *args[2:]))
    monkeypatch.setattr(oracle, "_sweep", lambda *args: ("sweep", *args))
    for engine, source in (("closed", "closed rows"), ("oracle", "oracle rows")):
        packing, rows = engine_rows(tri, delta, 3, engine)
        assert packing.box == query_packing(tri, delta, 3).box == Box((-3,), (3,))
        assert rows == (source, 3, packing)
        # a query box past the support widens the packing to hold it
        packing, rows = engine_rows(tri, delta, 3, engine, Box((2,), (6,)))
        assert packing.box == Box((-3,), (6,)) and rows == (source, 3, packing)
    coeffs = (HALF, Fraction(1), Fraction(1, 3), DELTA)
    for box, want in ((Box((5,), (5,)), Box((0,), (5,))), (Box((0,), (0,)), Box((0,), (0,))),
                      (Box((-2,), (1,)), Box((-2,), (1,)))):
        for engine, source in (("closed", "corner rows"), ("oracle", "sweep")):
            packing, rows = engine_rows(corner, delta, 3, engine, box)
            assert packing.box == want
            assert rows == (source, *coeffs, packing, 3)
    zero = InitialData((FieldRow.zero(1),))
    with pytest.raises(SpecError, match="give a right edge"):
        query_packing(corner, delta, 3)
    for engine in ("closed", "oracle"):
        with pytest.raises(SpecError, match="give a right edge"):
            engine_rows(corner, delta, 3, engine)
        # a right edge left of psi, or a zero psi, gives zero rows
        for initial, box in ((delta, Box((-3,), (-1,))), (zero, Box((5,), (5,)))):
            packing, rows = engine_rows(corner, initial, 2, engine, box)
            assert packing.box == box
            assert list(rows) == [(1, {})] * 3


def test_engine_rows_refuse_an_unknown_engine():
    corner = corner_spec(HALF, Fraction(1), Fraction(1, 3))
    for spec in (tridiagonal_spec(HALF, Fraction(1, 3), Fraction(1, 4)), corner):
        for engine in ("clsoed", "Oracle", "auto", ""):
            with pytest.raises(SpecError, match=f"unknown engine {engine!r}"):
                engine_rows(spec, InitialData((DELTA,)), 3, engine, Box((4,), (4,)))


def test_closed_rows_refuse_the_corner_form():
    # its rows have no right end; engine_rows takes them to a right edge
    spec, delta = corner_spec(HALF, Fraction(1), Fraction(1, 3)), InitialData((DELTA,))
    with pytest.raises(SpecError):
        closed_rows(spec, delta, 3)
    with pytest.raises(SpecError):
        closed_form._rows(spec, delta, 3, query_packing(spec, delta, 3, Box((5,), (5,))))


def test_sweep_needs_a_window_for_a_nonzero_row():
    with pytest.raises(SpecError, match="needs a sweep window"):
        oracle_sweep_implicit(HALF, Fraction(1), Fraction(1, 3), DELTA, None, 2)
    rows = oracle_sweep_implicit(HALF, Fraction(1), Fraction(1, 3), FieldRow.zero(1), None, 2)
    assert [row.values for row in rows] == [{}] * 3


def test_engine_rows_refuse_a_negative_t_max():
    two_row = EquationSpec(1, 2, (0,), (StencilEntry((0,), 1, Fraction(1)),
                                        StencilEntry((1,), 0, HALF)))
    corner = corner_spec(HALF, Fraction(1), Fraction(1, 3))
    cases = [(tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3)), (DELTA,)),
             (two_row, (DELTA, DELTA)), (corner, (DELTA,)), (corner, (FieldRow.zero(1),))]
    for spec, rows in cases:
        initial = InitialData(rows)
        with pytest.raises(SpecError, match="t_max must be >= 0"):
            query_packing(spec, initial, -1, Box((3,), (3,)))
        for engine in ("closed", "oracle"):
            with pytest.raises(SpecError, match="t_max must be >= 0"):
                engine_rows(spec, initial, -1, engine, Box((3,), (3,)))


def test_verify_random_specs_zero_mismatches():
    rng = random.Random(2013)
    for _ in range(15):
        dim = rng.randint(1, 2)
        spec = nd_instance(rng, dim, max_entries=4)
        initial = InitialData((field_row(rng, dim, max_points=4, coord_range=2),))
        region = verification_region(spec, initial, rng.randint(0, 4))
        assert verify_closed_vs_oracle(spec, initial, region).ok


def test_verify_rejects_unknown_evaluator():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(SpecError):
        verify_closed_vs_oracle(spec, InitialData((DELTA,)),
                                Region(Box((0,), (0,)), 0, 0), evaluator="nope")


def test_recurrence_holds_on_oracle_output():
    rng = random.Random(2017)
    for _ in range(10):
        spec = nd_instance(rng, rng.randint(1, 2), max_entries=4)
        initial = InitialData((field_row(rng, spec.spatial_dim, max_points=4,
                                         coord_range=2),))
        rows = oracle_evolve(spec, initial, 4)
        wide = verification_region(spec, initial, 4, pad=4)
        values = rows_to_values(rows, wide.box)
        interior = verification_region(spec, initial, 4, pad=1)
        ok, violation = verify_recurrence(values, spec, interior)
        assert ok and violation is None


def test_recurrence_holds_on_closed_output():
    from latrec import closed_rows
    rng = random.Random(2019)
    spec = tridiagonal_instance(rng)
    initial = InitialData((field_row(rng, 1),))
    rows = closed_rows(spec, initial, 5)
    wide = verification_region(spec, initial, 5, pad=4)
    values = rows_to_values(rows, wide.box)
    ok, _ = verify_recurrence(values, spec, verification_region(spec, initial, 5))
    assert ok


def test_recurrence_detects_injected_fault():
    spec = tridiagonal_spec(HALF, Fraction(0), HALF)
    initial = InitialData((DELTA,))
    rows = oracle_evolve(spec, initial, 3)
    wide = verification_region(spec, initial, 3, pad=4)
    values = rows_to_values(rows, wide.box)
    values[((1,), 2)] += 1
    ok, violation = verify_recurrence(values, spec,
                                      verification_region(spec, initial, 3))
    assert not ok
    point, time, lhs, rhs = violation
    # the perturbed value breaks the relation either at its own cell or where
    # it feeds the next row
    assert (point, time) in {((1,), 2), ((0,), 3), ((2,), 3)}
    assert lhs != rhs


def test_recurrence_missing_value_is_an_error():
    from latrec.oracle import MissingValueError
    spec = tridiagonal_spec(HALF, Fraction(0), HALF)
    initial = InitialData((DELTA,))
    rows = oracle_evolve(spec, initial, 2)
    values = rows_to_values(rows, Box((-2,), (2,)))
    with pytest.raises(MissingValueError):
        verify_recurrence(values, spec, Region(Box((-2,), (2,)), 0, 2))
