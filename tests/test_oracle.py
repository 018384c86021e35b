import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, HeatParams, InitialData,
                    SpecError, StencilEntry, heat_profile,
                    oracle_evolve, oracle_step,
                    oracle_sweep_implicit, tridiagonal_spec,
                    verify_closed_vs_oracle, verify_recurrence)
from latrec import closed_form, combinatorics, models
from latrec.oracle import EvolutionState, Region, WindowOverflowError, sweep_window

from instance_gen import (corner_spec, field_row, nd_instance, rational,
                          tridiagonal_instance, verification_region)

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


def reference_step(spec, rows):
    """One step summed in Fractions, cell by cell: the reference for
    oracle_step's integer sum."""
    acc = {}
    for e in spec.stencil:
        delta = tuple(s - o for s, o in zip(spec.spatial_shift, e.offset))
        for p, v in rows[e.time_level].values.items():
            key = tuple(c + d for c, d in zip(p, delta))
            acc[key] = acc.get(key, Fraction(0)) + e.coeff * v
    return {p: v for p, v in acc.items() if v}


# negative values and mixed denominators; the small set makes partial
# cancellation inside a new row more likely
STEP_VALUES = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), HALF, -HALF, Fraction(2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7)).filter(bool)


@st.composite
def step_cases(draw):
    """A spec of time order 1-3 and dimension 1-2 with its held rows, empty
    rows among them.  When drawn, every level-0 entry gets a negated twin on
    level 1 over an equal row, so those terms cancel exactly (the whole new
    row when no entry sits on level 2)."""
    dim = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-1, 1)] * dim)
    keys = draw(st.lists(st.tuples(coords, st.integers(0, k - 1)),
                         min_size=1, max_size=5, unique=True))
    entries = [StencilEntry(o, level, draw(STEP_VALUES)) for o, level in keys]
    points = st.tuples(*[st.integers(-2, 2)] * dim)
    rows = [FieldRow(dim, {} if draw(st.integers(0, 4)) == 4 else
                     draw(st.dictionaries(points, STEP_VALUES, min_size=1, max_size=5)))
            for _ in range(k)]
    if k >= 2 and any(e.time_level == 0 for e in entries) and draw(st.booleans()):
        rows[1] = rows[0]
        entries = ([e for e in entries if e.time_level != 1]
                   + [StencilEntry(e.offset, 1, -e.coeff)
                      for e in entries if e.time_level == 0])
    shift = draw(coords)
    return EquationSpec(dim, k, shift, tuple(entries)), rows


@given(step_cases())
@example((EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(1)),
                                    StencilEntry((1,), 0, Fraction(-1)))),
          [FieldRow(1, {(0,): Fraction(1), (1,): Fraction(1)})]))
@settings(max_examples=300, deadline=None)
def test_step_integer_sum_equals_fraction_reference(case):
    # the example is (1 - x^-1)(1 + x): its middle cell cancels
    spec, rows = case
    state = state_for(spec, *rows)
    held = list(rows)
    for _ in range(3):
        state = oracle_step(spec, state)
        want = reference_step(spec, held)
        assert state.newest.values == want
        assert_trusted_row(state.newest, spec.spatial_dim)
        held = held[1:] + [state.newest]
        assert list(state.rows) == held


def test_oracle_reads_no_closed_form_kernel(monkeypatch):
    def closed_form_path(*args, **kwargs):
        raise AssertionError("the oracle reached a closed-form kernel")

    for module in (closed_form, combinatorics):
        for name in ("_multinomial_weights", "_symbol_power"):
            monkeypatch.setattr(module, name, closed_form_path)
    for module in (closed_form, models):
        monkeypatch.setattr(module, "_power_row", closed_form_path)
    monkeypatch.setattr(closed_form, "_composition_sum", closed_form_path)
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


def test_sweep_window_too_small():
    # the left edge must sit below support minimum - j_max, where the
    # left-vanishing solution is zero
    with pytest.raises(WindowOverflowError) as exc:
        oracle_sweep_implicit(Fraction(1), Fraction(1), Fraction(1), DELTA,
                              Box((-3,), (4,)), 3)
    assert exc.value.axis == 0 and exc.value.point == (-3,)
    assert len(oracle_sweep_implicit(Fraction(1), Fraction(1), Fraction(1), DELTA,
                                     Box((-4,), (4,)), 3)) == 4
    # the initial row must lie inside the window
    psi = FieldRow(1, {(0,): Fraction(1), (5,): Fraction(-2)})
    with pytest.raises(WindowOverflowError) as exc:
        oracle_sweep_implicit(Fraction(1), Fraction(1), Fraction(1), psi,
                              Box((-10,), (4,)), 3)
    assert exc.value.axis == 0 and exc.value.point == (5,)


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
