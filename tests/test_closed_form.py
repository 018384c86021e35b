import random
import tracemalloc
from fractions import Fraction
from math import comb
from operator import sub
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latrec import (EquationSpec, FieldRow, InitialData, SpecError,
                    StencilEntry, as_tridiagonal,
                    closed_rows, closed_value, corner_kernel,
                    eval_implicit, eval_nd, eval_tridiagonal,
                    RandomWalkParams, oracle_evolve,
                    oracle_sweep_implicit, random_walk_distribution,
                    source_rows, tridiagonal_spec, verify_closed_vs_oracle)
from latrec import closed_form, combinatorics
from latrec.closed_form import closed_getter
from latrec.combinatorics import _miller, multinomial, stencil_symbol_steps
from latrec.config import load_config
from latrec.lattice import Box, query_packing
from latrec.oracle import Region, sweep_window

from instance_gen import (CORNER_COEFFS, LINE_COEFFS, column_spec, column_specs, corner_spec,
                          field_row, grid_2d_instance, grid_2d_spec, line_rows, line_specs,
                          nd_instance,
                          ninepoint_instance, ninepoint_spec, one_row_instance,
                          one_row_spec, plane_rows, plane_specs, point_rows, rational,
                          tridiagonal_instance, two_row_instance,
                          verification_region)
import power_reference
from power_reference import reference_symbol_power

DELTA = FieldRow.delta(1)
DELTA2 = FieldRow.delta(2)


# ---------------------------------------------------------------------------
# eval_nd
# ---------------------------------------------------------------------------

def test_nd_identity_spec_reproduces_psi():
    spec = one_row_spec([Fraction(1)], 0)
    psi = FieldRow(1, {(-2,): Fraction(3, 4), (5,): Fraction(-1, 7)})
    for i in range(-4, 7):
        for t in range(5):
            assert eval_nd(spec, psi, (i,), t) == psi.get((i,))


def test_nd_tridiagonal_two_steps():
    # two explicit oracle steps of (1,2,3) from a delta give 10 at the origin
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    rows = oracle_evolve(spec, InitialData((DELTA,)), 2)
    assert rows[2].get((0,)) == 10
    assert eval_nd(spec, DELTA, (0,), 2) == 10


def test_nd_ninepoint_single_step_center():
    spec = ninepoint_spec([Fraction(1, 9)] * 9)
    assert eval_nd(spec, DELTA2, (0, 0), 1) == Fraction(1, 9)


def test_nd_rejects_bad_inputs():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(SpecError):
        eval_nd(spec, DELTA2, (0, 0), 1)
    with pytest.raises(SpecError):
        eval_nd(spec, DELTA, (0,), -1)
    two_row = EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    with pytest.raises(SpecError):
        eval_nd(two_row, DELTA, (0,), 1)


def assert_nd_matches_oracle(rng, spec, t_max):
    dim = spec.spatial_dim
    psi = field_row(rng, dim, max_points=4, coord_range=2)
    t = rng.randint(0, t_max)
    rows = oracle_evolve(spec, InitialData((psi,)), t)
    for _ in range(6):
        q = tuple(rng.randint(-5, 5) for _ in range(dim))
        assert eval_nd(spec, psi, q, t) == rows[t].get(q), (spec, psi, q, t)


def test_nd_agrees_with_oracle_randomized():
    rng = random.Random(1003)
    for _ in range(25):
        dim = rng.randint(1, 3)
        assert_nd_matches_oracle(rng, nd_instance(rng, dim, max_entries=4), 4)
    # the shifted-row and 3x3 families
    for _ in range(15):
        assert_nd_matches_oracle(rng, one_row_instance(rng), 5)
    for _ in range(8):
        assert_nd_matches_oracle(rng, ninepoint_instance(rng), 3)


# ---------------------------------------------------------------------------
# eval_tridiagonal
# ---------------------------------------------------------------------------

def test_tridiagonal_one_step_values():
    abc = (Fraction(1), Fraction(2), Fraction(3))
    assert eval_tridiagonal(*abc, DELTA, 0, 1) == 2
    assert eval_tridiagonal(*abc, DELTA, -1, 1) == 3
    assert eval_tridiagonal(*abc, DELTA, 1, 1) == 1
    with pytest.raises(SpecError):
        eval_tridiagonal(*abc, DELTA2, 0, 1)


def test_tridiagonal_symmetric_walk_two_steps():
    # brute force: two steps of (1/2, 0, 1/2) return half the mass home
    half = Fraction(1, 2)
    rows = oracle_evolve(tridiagonal_spec(half, Fraction(0), half),
                         InitialData((DELTA,)), 2)
    assert rows[2].get((0,)) == half
    assert eval_tridiagonal(half, Fraction(0), half, DELTA, 0, 2) == half


def test_tridiagonal_inner_exponent_variant_is_wrong():
    # the "j-n" c-exponent variant disagrees with the recurrence at the very
    # first step: it yields b*c = 6 where the equation demands b = 2
    abc = (Fraction(1), Fraction(2), Fraction(3))
    spec, initial = tridiagonal_spec(*abc), InitialData((DELTA,))
    assert tridiagonal_double_loop(*abc, DELTA, 0, 1, "j-n") == 6
    assert closed_getter(spec, initial, "tridiagonal-j-n")((0,), 1) == (6, 1)
    assert oracle_evolve(spec, initial, 1)[1].get((0,)) == 2


def test_tridiagonal_agrees_with_nd_randomized():
    rng = random.Random(1005)
    for _ in range(30):
        spec = tridiagonal_instance(rng)
        a, b, c = as_tridiagonal(spec)
        psi = field_row(rng, 1)
        i, j = rng.randint(-6, 6), rng.randint(0, 6)
        assert eval_tridiagonal(a, b, c, psi, i, j) == eval_nd(spec, psi, (i,), j)


def tridiagonal_double_loop(a, b, c, psi, i, j, c_exponent):
    """The double binomial sum over every pair 0 <= n <= m <= j, in
    Fractions: the reference for eval_tridiagonal's landing pairs."""
    total = Fraction(0)
    for m in range(j + 1):
        for n in range(m + 1):
            sample = psi.get((i + j - m - n,))
            if sample == 0:
                continue
            exp_c = j - m if c_exponent == "j-m" else j - n
            total += comb(j, m) * comb(m, n) * a ** n * b ** (m - n) * c ** exp_c * sample
    return total


# zero allowed, so 0^0 = 1 and vanishing powers are exercised
TRI_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(TRI_COEFFS, TRI_COEFFS, TRI_COEFFS, line_rows(), st.integers(-46, 46),
       st.integers(0, 40), st.sampled_from(["j-m", "j-n"]))
@settings(max_examples=300, deadline=None)
def test_tridiagonal_landing_pairs_equal_double_loop(a, b, c, psi, i, j, c_exponent):
    # i in [-46, 46] with j <= 40 and psi on [-4, 4] reaches points left of,
    # inside and right of the reach of every support point; j up to 40 runs
    # the weight's descending exact division over up to 21 steps.  The
    # literal "j-n" sum is the "j-m" sum with b c in place of b, since
    # c^(j-n) = c^(j-m) c^(m-n)
    middle = b * c if c_exponent == "j-n" else b
    assert (eval_tridiagonal(a, middle, c, psi, i, j)
            == tridiagonal_double_loop(a, b, c, psi, i, j, c_exponent))


@given(TRI_COEFFS, TRI_COEFFS, TRI_COEFFS, line_rows(), st.integers(0, 8))
@example(Fraction(0), Fraction(1), Fraction(0),
         FieldRow(1, {(0,): Fraction(1), (3,): Fraction(-2, 7)}), 5)
@example(Fraction(-1, 2), Fraction(0), Fraction(-3), FieldRow.delta(1), 4)
@example(Fraction(2), Fraction(-1, 3), Fraction(-2), FieldRow.delta(1), 6)
@settings(max_examples=150, deadline=None)
def test_tridiagonal_control_is_the_oracle_of_b_times_c(a, b, c, psi, t_max):
    # the j-n control is the exact solution of the equation at (a, b c, c),
    # zero and negative coefficients included; when a = c = 0 that stencil
    # is all zero (configs/identity.json), no spec holds it, and every row
    # after row 0 is zero
    assume(a or b or c)
    spec, initial = tridiagonal_spec(a, b, c), InitialData((psi,))
    if a or b * c or c:
        rows = oracle_evolve(tridiagonal_spec(a, b * c, c), initial, t_max)
    else:
        rows = [psi] + [FieldRow.zero(1)] * t_max
    control = closed_getter(spec, initial, "tridiagonal-j-n")
    for t, row in enumerate(rows):
        for i in range(-5 - t, 6 + t):
            assert Fraction(*control((i,), t)) == row.get((i,)), (i, t)


# ---------------------------------------------------------------------------
# shifted-row family through eval_nd
# ---------------------------------------------------------------------------

def test_one_row_identity_and_pure_shift():
    psi = FieldRow(1, {(0,): Fraction(1), (3,): Fraction(-2)})
    identity = one_row_spec([Fraction(1)], 0)
    shift = one_row_spec([Fraction(5)], 1)
    for i in range(-2, 5):
        for j in range(4):
            assert eval_nd(identity, psi, (i,), j) == psi.get((i,))
            assert eval_nd(shift, psi, (i,), j) == Fraction(5) ** j * psi.get((i - j,))


def test_one_row_two_coefficients_single_step():
    # one oracle step of U[i, j+1] = U[i, j] + U[i+1, j] from a delta
    spec = one_row_spec([Fraction(1), Fraction(1)], 0)
    row1 = oracle_evolve(spec, InitialData((DELTA,)), 1)[1]
    assert row1.get((-1,)) == 1
    assert eval_nd(spec, DELTA, (-1,), 1) == 1


# ---------------------------------------------------------------------------
# corner-implicit pieces
# ---------------------------------------------------------------------------

def backward_difference(psi: FieldRow, a: Fraction) -> FieldRow:
    """The row k -> psi(k) - a * psi(k-1) in Fractions: the reference for
    the differenced row eval_implicit builds in integers."""
    out = {}
    for (k,), v in psi.values.items():
        out[(k,)] = out.get((k,), Fraction(0)) + v
        out[(k + 1,)] = out.get((k + 1,), Fraction(0)) - a * v
    return FieldRow(1, out)


def test_backward_difference_examples():
    one = Fraction(1)
    assert backward_difference(DELTA, one).values == {(0,): 1, (1,): -1}
    assert backward_difference(DELTA, Fraction(0)) == DELTA
    two_cell = FieldRow(1, {(0,): one, (1,): one})
    assert backward_difference(two_cell, one).values == {(0,): 1, (2,): -1}


def test_corner_kernel_base_cases():
    a, b, c = Fraction(2, 3), Fraction(-1, 2), Fraction(4)
    assert corner_kernel(0, 0, a, b, c) == 1
    for s in range(5):
        assert corner_kernel(s, 0, a, b, c) == a ** s
    ones = (Fraction(1),) * 3
    assert corner_kernel(1, 1, *ones) == 3


def brute_force_series_table(a, b, c, max_s, max_j):
    """Coefficients of sum_J (a x + b y + c x y)^J by iterated truncated
    polynomial products; independent of the closed kernel formula."""
    base = {}
    if a != 0:
        base[(1, 0)] = a
    if b != 0:
        base[(0, 1)] = b
    if c != 0:
        base[(1, 1)] = c
    table = {(0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for _ in range(max_s + max_j):
        nxt = {}
        for (sx, sy), v in power.items():
            for (bx, by), w in base.items():
                key = (sx + bx, sy + by)
                if key[0] > max_s or key[1] > max_j:
                    continue
                nxt[key] = nxt.get(key, Fraction(0)) + v * w
        power = nxt
        for key, v in power.items():
            table[key] = table.get(key, Fraction(0)) + v
    return table


def test_corner_kernel_matches_series_oracle():
    rng = random.Random(1011)
    for _ in range(10):
        a, b, c = (rational(rng) for _ in range(3))
        table = brute_force_series_table(a, b, c, 6, 6)
        for s in range(7):
            for j in range(7):
                assert corner_kernel(s, j, a, b, c) == table.get((s, j), 0), (a, b, c, s, j)


def corner_kernel_per_g(s, j, a, b, c):
    """The kernel's defining sum, one multinomial and Fraction powers per g."""
    return sum((multinomial(s + j - g, (s - g, j - g, g)) * a ** (s - g) * b ** (j - g) * c ** g
                for g in range(min(s, j) + 1)), Fraction(0))


# near the diagonal, and far from it on either side: s >> j and j >> s
KERNEL_INDICES = st.one_of(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                           st.tuples(st.integers(0, 6), st.integers(40, 120)),
                           st.tuples(st.integers(40, 120), st.integers(0, 6)))


@given(KERNEL_INDICES, *[CORNER_COEFFS] * 3)
@settings(max_examples=200, deadline=None)
def test_corner_kernel_ratio_steps_equal_per_g_multinomials(indices, a, b, c):
    s, j = indices
    assert corner_kernel(s, j, a, b, c) == corner_kernel_per_g(s, j, a, b, c)


@given(st.integers(0, 12), st.integers(-8, 8), CORNER_COEFFS, CORNER_COEFFS, CORNER_COEFFS)
@example(4, -2, Fraction(1, 2), Fraction(0), Fraction(1, 3))
@example(4, -4, Fraction(1, 2), Fraction(0), Fraction(-2, 3))
@example(3, 0, Fraction(0), Fraction(0), Fraction(5, 2))
@settings(max_examples=200, deadline=None)
def test_kernel_rows_equal_per_g_multinomials(j, past, a, b, c):
    # k_0..k_n of row j for n below j, at j and past it; b = 0 shifts the
    # row right by j, so with n + 1 <= j it is all zeros
    n = max(j + past, 0)
    scale, na, nb, nc = closed_form._scaled(a, b, c)
    kernel = [corner_kernel_per_g(s, j, a, b, c) for s in range(n + 1)]
    # R = B + C D x, P = A x, in integers over D^(s+j)
    quotient = [(0, nb), (1, nc * scale)], [(1, na)]
    (row,) = _miller(*quotient, [(j, j + 1, n)])
    assert row == [k * scale ** (s + j) for s, k in enumerate(kernel)]
    # with e = j, one factor 1 - a x less: the corner form's row j over psi
    (over0,) = _miller(*quotient, [(j, j, n)])
    assert over0 == [(k - a * p) * scale ** (s + j)
                     for s, (k, p) in enumerate(zip(kernel, [0] + kernel))]
    if not b and n < j:
        assert row == over0 == [0] * (n + 1)


def test_implicit_time_zero_recovers_psi():
    rng = random.Random(1013)
    for _ in range(20):
        a = rational(rng)
        b, c = rational(rng), rational(rng)
        psi = field_row(rng, 1)
        box = psi.support_box()
        for i in range(box.lo[0] - 2, box.hi[0] + 3):
            assert eval_implicit(a, b, c, psi, i, 0) == psi.get((i,))


def test_implicit_copy_and_shift_case():
    one, zero = Fraction(1), Fraction(0)
    assert eval_implicit(zero, one, one, DELTA, 0, 1) == 1
    assert eval_implicit(zero, one, one, DELTA, 1, 1) == 1
    assert eval_implicit(zero, one, one, DELTA, 2, 1) == 0


def test_implicit_degenerate_b_c_zero():
    a = Fraction(7, 2)
    for j in range(1, 5):
        for i in range(-3, 4):
            assert eval_implicit(a, Fraction(0), Fraction(0), DELTA, i, j) == 0


def test_implicit_vanishes_left_of_support():
    rng = random.Random(1017)
    for _ in range(15):
        a, b, c = (rational(rng) for _ in range(3))
        psi = field_row(rng, 1)
        left = psi.support_box().lo[0]
        for j in range(4):
            for i in range(left - 4, left):
                assert eval_implicit(a, b, c, psi, i, j) == 0


def test_implicit_matches_sweep_oracle():
    rng = random.Random(1019)
    for _ in range(15):
        a, b, c = (rational(rng) for _ in range(3))
        psi = field_row(rng, 1, max_points=4)
        box = psi.support_box()
        rows = oracle_sweep_implicit(a, b, c, psi, sweep_window(psi, 4, box.hi[0]), 4)
        for j in range(5):
            for i in range(box.lo[0] - 5, box.hi[0] + 5):
                assert eval_implicit(a, b, c, psi, i, j) == rows[j].get((i,))


def implicit_per_point(a, b, c, psi, i, j):
    """eval_implicit's defining sum in Fractions: the differenced row times
    the kernel's per-g multinomials, one support point at a time."""
    return sum((v * corner_kernel_per_g(i - k, j, a, b, c)
                for (k,), v in backward_difference(psi, a).values.items() if k <= i),
               Fraction(0))


@given(CORNER_COEFFS, st.one_of(st.just(Fraction(0)), CORNER_COEFFS), CORNER_COEFFS,
       line_rows(), st.integers(-8, 40), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_implicit_integer_sum_equals_per_point_form(a, b, c, psi, i, j):
    # psi on [-4, 4], the zero row among them, and i from left of the
    # support to 44 past it
    assert eval_implicit(a, b, c, psi, i, j) == implicit_per_point(a, b, c, psi, i, j)


@given(CORNER_COEFFS, st.one_of(st.just(Fraction(0)), CORNER_COEFFS), CORNER_COEFFS,
       line_rows(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_implicit_integer_sum_equals_sweep(a, b, c, psi, j_max):
    window = sweep_window(psi, j_max, 8) if psi.values else Box((-1,), (8,))
    rows = oracle_sweep_implicit(a, b, c, psi, window, j_max)
    for j in range(j_max + 1):
        for i in range(window.lo[0], window.hi[0] + 1):
            assert eval_implicit(a, b, c, psi, i, j) == rows[j].get((i,)), (i, j)


# ---------------------------------------------------------------------------
# single points at the benchmark's large t
# ---------------------------------------------------------------------------

LARGE_T_COEFFS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
LARGE_T_PSI = FieldRow(1, {(0,): Fraction(1, 2), (1,): Fraction(-3, 2), (3,): Fraction(3, 2)})


def test_tridiagonal_at_t_199_equals_closed_value_and_oracle():
    spec = tridiagonal_spec(*LARGE_T_COEFFS)
    initial = InitialData((LARGE_T_PSI,))
    row = oracle_evolve(spec, initial, 199)[199]
    for i in (-199, -150, -3, 0, 2, 77, 202, 203):
        want = row.get((i,))
        assert eval_tridiagonal(*LARGE_T_COEFFS, LARGE_T_PSI, i, 199) == want, i
        assert closed_value(spec, initial, (i,), 199) == want, i


def test_implicit_at_t_84_equals_sweep():
    psi = LARGE_T_PSI
    rows = oracle_sweep_implicit(*LARGE_T_COEFFS, psi, sweep_window(psi, 84, 90), 84)
    for i in (-1, 0, 1, 3, 40, 81, 84, 90):
        assert eval_implicit(*LARGE_T_COEFFS, psi, i, 84) == rows[84].get((i,)), i


def test_tridiagonal_query_at_t_2000_holds_no_power_table():
    # a table of the j powers of one coefficient would hold O(j^2) bits,
    # several MiB here; the Horner sum holds a few integers at a time
    tracemalloc.start()
    try:
        eval_tridiagonal(*LARGE_T_COEFFS, LARGE_T_PSI, 7, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# ---------------------------------------------------------------------------
# every explicit equation: U = Q / (1 - S)
# ---------------------------------------------------------------------------

def test_source_rows_subtract_terms_from_earlier_rows():
    # U[i, t+2] = U[i-1, t+1] + 2 U[i, t]: Q_1 = row 1 - shift(row 0, +1)
    spec = EquationSpec(1, 2, (0,), (StencilEntry((-1,), 1, Fraction(1)),
                                     StencilEntry((0,), 0, Fraction(2))))
    row0 = FieldRow(1, {(0,): Fraction(3)})
    row1 = FieldRow(1, {(1,): Fraction(3), (5,): Fraction(1, 2)})
    q0, q1 = source_rows(spec, InitialData((row0, row1)))
    assert q0 == row0
    assert q1.values == {(5,): Fraction(1, 2)}
    psi = FieldRow(1, {(2,): Fraction(-1, 3)})
    assert source_rows(tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3)),
                       InitialData((psi,))) == [psi]


def nd_value(spec, initial, point, time):
    """The composition sum of any explicit equation at one point, through
    the "nd" evaluator."""
    return Fraction(*closed_getter(spec, initial, "nd")(point, time))


def test_multistep_rejects_bad_inputs():
    spec = EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    with pytest.raises(SpecError):
        nd_value(spec, InitialData((DELTA, DELTA)), (0,), -1)
    with pytest.raises(SpecError):
        nd_value(spec, InitialData((DELTA,)), (0,), 1)
    corner = corner_spec(Fraction(1, 2), Fraction(1), Fraction(1, 3))
    with pytest.raises(SpecError):
        nd_value(corner, InitialData((DELTA,)), (0,), 1)


def test_two_row_reproduces_initial_rows():
    rng = random.Random(1021)
    for _ in range(10):
        spec = two_row_instance(rng)
        psi0, psi1 = field_row(rng, 1), field_row(rng, 1)
        initial = InitialData((psi0, psi1))
        for i in range(-6, 7):
            assert nd_value(spec, initial, (i,), 0) == psi0.get((i,))
            assert nd_value(spec, initial, (i,), 1) == psi1.get((i,))


def test_two_row_pure_doubling():
    spec = EquationSpec(1, 2, (0,), (StencilEntry((0,), 0, Fraction(1)),))
    initial = InitialData((DELTA, FieldRow.zero(1)))
    assert nd_value(spec, initial, (0,), 2) == 1
    assert nd_value(spec, initial, (0,), 3) == 0
    assert nd_value(spec, initial, (0,), 4) == 1


def test_two_row_agrees_with_oracle_randomized():
    rng = random.Random(1023)
    for _ in range(20):
        spec = two_row_instance(rng)
        psi0 = field_row(rng, 1, max_points=4)
        psi1 = field_row(rng, 1, max_points=4)
        initial = InitialData((psi0, psi1))
        region = verification_region(spec, initial, 5)
        rows = oracle_evolve(spec, initial, 5)
        for j in range(6):
            for p in region.box.points():
                assert nd_value(spec, initial, p, j) == rows[j].get(p), (spec, p, j)


def test_multistep_agrees_with_oracle_randomized():
    # time orders 2 and 3 in 1D and 2D: closed_rows over the whole region,
    # the composition sum on every region point in 1D and on a sample in 2D
    rng = random.Random(1025)
    for case in range(40):
        k, dim = 2 + case % 2, 1 + case // 2 % 2
        spec = nd_instance(rng, dim, max_entries=4, time_order=k)
        initial = InitialData(tuple(field_row(rng, dim, max_points=3, coord_range=2)
                                    for _ in range(k)))
        t_max = 7 if dim == 1 else 5
        rows = oracle_evolve(spec, initial, t_max)
        assert closed_rows(spec, initial, t_max) == rows, spec
        region = verification_region(spec, initial, t_max)
        points = [(p, t) for p in region.box.points() for t in range(t_max + 1)]
        if dim == 2:
            points = rng.sample(points, 60)
        for p, t in points:
            assert nd_value(spec, initial, p, t) == rows[t].get(p), (spec, p, t)


def test_multistep_agrees_with_nd_on_one_step_specs():
    rng = random.Random(1027)
    for _ in range(20):
        dim = rng.randint(1, 2)
        spec = nd_instance(rng, dim, max_entries=4)
        psi = field_row(rng, dim, max_points=4, coord_range=2)
        q = tuple(rng.randint(-4, 4) for _ in range(dim))
        t = rng.randint(0, 5)
        initial = InitialData((psi,))
        want = oracle_evolve(spec, initial, t)[t].get(q)
        assert nd_value(spec, initial, q, t) == eval_nd(spec, psi, q, t) == want


def _entry(offset, level, coeff):
    return StencilEntry(offset, level, Fraction(coeff))


# a spec of the x-steps {0, sigma} family and one drawn row per time level
COLUMN_CASES = column_specs().flatmap(lambda spec: st.tuples(
    st.just(spec), st.lists(line_rows(), min_size=spec.time_order, max_size=spec.time_order)))


@given(COLUMN_CASES, st.integers(0, 12), st.lists(st.integers(-8, 8), min_size=1, max_size=3))
@example((column_spec(1, {0: "1/2", 1: "-1/3"}, {0: "1/4", 1: "1"}),
          [FieldRow(1, {(0,): Fraction(1, 2), (2,): Fraction(-3, 2)}),
           FieldRow(1, {(1,): Fraction(3, 2)})]), 12, [-3, 4, 8])
@settings(max_examples=60, deadline=None)
def test_column_value_equals_composition_sum(case, t, xs):
    # a point of the x-steps {0, sigma} family reads only the columns its
    # source cells reach; the composition sum is the witness
    spec, rows = case
    initial = InitialData(tuple(rows))
    for x in xs:
        assert closed_value(spec, initial, (x,), t) == nd_value(spec, initial, (x,), t)


@given(COLUMN_CASES, st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_column_rows_equal_oracle(case, t_max):
    spec, rows = case
    initial = InitialData(tuple(rows))
    assert closed_rows(spec, initial, t_max) == oracle_evolve(spec, initial, t_max)


# The benchmark's two-row shape: U[i+1, t+2] = 1/2 U[i, t] - 1/3 U[i+1, t]
# + 1/4 U[i, t+1] + U[i+1, t+1], x-steps 1 and 0
TWO_ROW = EquationSpec(1, 2, (1,), (_entry((0,), 0, "1/2"), _entry((1,), 0, "-1/3"),
                                    _entry((0,), 1, "1/4"), _entry((1,), 1, "1")))
TWO_ROW_INITIAL = InitialData((FieldRow(1, {(0,): Fraction(1, 2), (2,): Fraction(-3, 2)}),
                               FieldRow(1, {(-1,): Fraction(3, 2)})))


def test_column_value_equals_oracle_at_t_60():
    three = column_spec(-1, {0: "1/2", 2: "-1/3"}, {1: "2/3", 2: "1/5"}, 3)
    cases = [(TWO_ROW, TWO_ROW_INITIAL),
             (three, InitialData((DELTA, FieldRow(1, {(2,): Fraction(-1, 2)}), DELTA)))]
    for spec, initial in cases:
        rows = oracle_evolve(spec, initial, 61)
        for t in (59, 60, 61):
            support = sorted(rows[t].values)
            for p in support[::7] + [support[-1], (support[0][0] - 1,), (support[-1][0] + 1,)]:
                assert closed_value(spec, initial, p, t) == rows[t].get(p)


@pytest.mark.parametrize("spec", [
    # x-steps {1, 2}, {-1, 0, 1}, {0} and {1}, and a 2D spec
    EquationSpec(1, 2, (0,), (_entry((-1,), 0, "1/2"), _entry((-2,), 1, "-1/3"))),
    EquationSpec(1, 2, (0,), (_entry((-1,), 0, "1/2"), _entry((0,), 1, "-1/3"),
                              _entry((1,), 1, "1/4"))),
    EquationSpec(1, 2, (0,), (_entry((0,), 0, "1/2"), _entry((0,), 1, "1"))),
    EquationSpec(1, 2, (1,), (_entry((0,), 0, "1/2"),)),
    EquationSpec(2, 3, (0, 0), (_entry((0, 0), 0, "1/2"), _entry((1, 0), 2, "-1/3"))),
])
def test_other_multistep_symbols_keep_the_multinomial_kernel(monkeypatch, spec):
    # rows and a point of a multistep spec outside the column family each
    # reach the multinomial kernel with the whole symbol, never the
    # composition sum
    seen = []
    weights = closed_form._multinomial_weights

    def multinomial_kernel(spec, limit):
        seen.append(spec)
        return weights(spec, limit)

    def composition_sum(*args):
        raise AssertionError("a multistep point took the composition sum")

    monkeypatch.setattr(closed_form, "_multinomial_weights", multinomial_kernel)
    monkeypatch.setattr(closed_form, "_composition_sum", composition_sum)
    origin = (0,) * spec.spatial_dim
    initial = InitialData(tuple(FieldRow(spec.spatial_dim, {origin: Fraction(1, 3 + s)})
                                for s in range(spec.time_order)))
    rows = oracle_evolve(spec, initial, 6)
    assert closed_rows(spec, initial, 6) == rows
    assert closed_value(spec, initial, origin, 6) == rows[6].get(origin)
    assert seen == [spec, spec]


@st.composite
def multistep_cases(draw):
    """A spec of time order 2 or 3 with one drawn row per time level, and a
    horizon past the time order: a column-family spec (column_specs), or a
    1D or 2D spec with offsets in [-1, 1] per axis at any time levels, whose
    x-steps are mostly not 0 and one sign."""
    if draw(st.booleans()):
        spec = draw(column_specs())
    else:
        dim, k = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        cells = st.tuples(*[st.integers(-1, 1)] * dim)
        keys = draw(st.lists(st.tuples(cells, st.integers(0, k - 1)),
                             min_size=1, max_size=4, unique=True))
        spec = EquationSpec(dim, k, draw(cells), tuple(
            StencilEntry(o, level, draw(LINE_COEFFS)) for o, level in keys))
    rows = draw(st.lists(line_rows() if spec.spatial_dim == 1 else plane_rows(),
                         min_size=spec.time_order, max_size=spec.time_order))
    return spec, InitialData(tuple(rows)), spec.time_order + draw(st.integers(0, 3))


@given(multistep_cases())
@example((EquationSpec(2, 3, (0, 1), (_entry((1, 0), 0, "1/2"), _entry((0, 1), 2, "-1/3"),
                                      _entry((-1, 1), 1, "2/5"))),
          InitialData((FieldRow(2, {(0, 0): Fraction(1)}), FieldRow.zero(2),
                       FieldRow(2, {(1, -1): Fraction(-3, 2)}))), 6))
@settings(max_examples=60, deadline=None)
def test_multistep_closed_value_reads_the_series_kernel(case):
    # at every time from 0 through the time order and past it, on the
    # support and one cell past it on each axis: the oracle's value, and the
    # composition sum's, which closed_value never calls
    spec, initial, t_max = case
    rows = oracle_evolve(spec, initial, t_max)
    q = source_rows(spec, initial)
    probes = {}
    for t, row in enumerate(rows):
        near = {p[:i] + (p[i] + d,) + p[i + 1:] for p in row.values
                for i in range(spec.spatial_dim) for d in (-1, 0, 1)}
        probes[t] = sorted(near or {(0,) * spec.spatial_dim})[:12]
        for p in probes[t]:
            assert closed_form._composition_sum(spec, q, p, t) == row.get(p), (p, t)

    def composition_sum(*args):
        raise AssertionError("a multistep point took the composition sum")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closed_form, "_composition_sum", composition_sum)
        for t, points in probes.items():
            for p in points:
                assert closed_value(spec, initial, p, t) == rows[t].get(p), (p, t)


def test_two_row_at_t_80_never_takes_the_multinomial_pass(monkeypatch):
    # the columns' only multinomial pass is over S0's entries, at most one
    # per time level; a fallback to the whole symbol's pass fails here
    seen = []
    weights = combinatorics._multinomial_weights

    def multinomial_kernel(spec, limit):
        seen.append(len(spec.stencil))
        assert len(spec.stencil) <= spec.time_order
        return weights(spec, limit)

    monkeypatch.setattr(combinatorics, "_multinomial_weights", multinomial_kernel)
    monkeypatch.setattr(closed_form, "_multinomial_weights", multinomial_kernel)
    report = verify_closed_vs_oracle(TWO_ROW, TWO_ROW_INITIAL, Region(Box((-2,), (83,)), 0, 80))
    assert report.ok and report.checked == 86 * 81
    assert seen == [2]
    # a point reads column 0 only when a source cell sits on it
    row = oracle_evolve(TWO_ROW, TWO_ROW_INITIAL, 80)[80]
    for x in (0, 40):
        assert closed_value(TWO_ROW, TWO_ROW_INITIAL, (x,), 80) == row.get((x,))
    assert seen == [2, 2]


# ---------------------------------------------------------------------------
# 2D 3x3 and corner-stencil families through eval_nd
# ---------------------------------------------------------------------------

def test_ninepoint_identity_and_uniform():
    coeffs = [Fraction(0)] * 9
    coeffs[4] = Fraction(1)  # center entry only
    identity = ninepoint_spec(coeffs)
    psi = FieldRow(2, {(1, 2): Fraction(5, 3), (0, 0): Fraction(-1)})
    for k in range(4):
        assert eval_nd(identity, psi, (1, 2), k) == Fraction(5, 3)
    uniform = ninepoint_spec([Fraction(1, 9)] * 9)
    assert eval_nd(uniform, DELTA2, (0, 0), 1) == Fraction(1, 9)


def test_ninepoint_total_mass_all_ones():
    ones = ninepoint_spec([Fraction(1)] * 9)
    for k in range(4):
        total = sum(eval_nd(ones, DELTA2, (i, j), k)
                    for i in range(-k - 1, k + 2) for j in range(-k - 1, k + 2))
        assert total == 9 ** k


def test_2d_general_identity_and_diagonal_shift():
    one = [[Fraction(1)]]
    identity, diagonal = grid_2d_spec(one, 0, 0), grid_2d_spec(one, 1, 1)
    psi = FieldRow(2, {(2, -1): Fraction(7, 5)})
    for k in range(4):
        assert eval_nd(identity, psi, (2, -1), k) == Fraction(7, 5)
        assert eval_nd(diagonal, psi, (2 + k, -1 + k), k) == Fraction(7, 5)


def test_2d_general_agrees_with_oracle_randomized():
    rng = random.Random(1033)
    for _ in range(12):
        spec = grid_2d_instance(rng)
        psi = field_row(rng, 2, max_points=5, coord_range=2)
        initial = InitialData((psi,))
        k = rng.randint(0, 4)
        rows = oracle_evolve(spec, initial, k)
        region = verification_region(spec, initial, k)
        for p in region.box.points():
            assert eval_nd(spec, psi, p, k) == rows[k].get(p)


# ---------------------------------------------------------------------------
# bulk rows and dispatch
# ---------------------------------------------------------------------------

def test_closed_rows_match_pointwise_evaluators():
    rng = random.Random(1041)
    for _ in range(10):
        dim = rng.randint(1, 2)
        spec = nd_instance(rng, dim, max_entries=4)
        psi = field_row(rng, dim, max_points=4, coord_range=2)
        initial = InitialData((psi,))
        rows = closed_rows(spec, initial, 4)
        region = verification_region(spec, initial, 4)
        for t in range(5):
            for p in region.box.points():
                assert rows[t].get(p) == eval_nd(spec, psi, p, t)
    for _ in range(10):
        spec = two_row_instance(rng)
        psi0, psi1 = field_row(rng, 1), field_row(rng, 1)
        initial = InitialData((psi0, psi1))
        rows = closed_rows(spec, initial, 5)
        region = verification_region(spec, initial, 5)
        getter = closed_getter(spec, initial, "nd")
        for t in range(6):
            for p in region.box.points():
                assert (rows[t].get(p) == nd_value(spec, initial, p, t)
                        == Fraction(*getter(p, t)))


def test_two_row_getter_builds_source_rows_once(monkeypatch):
    calls = []

    def counted(spec, initial):
        calls.append(spec)
        return source_rows(spec, initial)

    monkeypatch.setattr(closed_form, "source_rows", counted)
    spec = two_row_instance(random.Random(1043))
    getter = closed_getter(spec, InitialData((DELTA, DELTA)), "nd")
    for t in range(4):
        for i in range(-3, 4):
            getter((i,), t)
    assert len(calls) == 1


def test_closed_rows_3x3_match_oracle_at_large_time():
    spec = ninepoint_spec([Fraction(n, 7 + n) for n in range(1, 10)])
    psi = FieldRow(2, {(0, 0): Fraction(1), (2, -1): Fraction(-3, 2)})
    initial = InitialData((psi,))
    assert closed_rows(spec, initial, 14) == oracle_evolve(spec, initial, 14)


def test_closed_rows_integer_sums_edge_cases():
    two_step = EquationSpec(1, 2, (0,), (_entry((-1,), 1, "1/2"), _entry((0,), 0, "1/3")))
    three_step = EquationSpec(1, 3, (0,), (
        _entry((-1,), 2, "1/2"), _entry((1,), 1, "-2/9"), _entry((0,), 0, "3/11"),
        _entry((2,), 0, "1/7")))
    three_step_2d = EquationSpec(2, 3, (0, 0), (
        _entry((1, 0), 2, "1/3"), _entry((0, -1), 1, "-1/2"), _entry((0, 0), 0, "2/5")))
    row = FieldRow(1, {(0,): Fraction(1, 3), (2,): Fraction(-5, 4)})
    # Q_1 cancels to zero: row 1 is the level-1 term from row 0
    cancelled = InitialData((DELTA, FieldRow(1, {(1,): Fraction(1, 2)})))
    assert not source_rows(two_step, cancelled)[1].values
    cases = [
        # all-zero initial rows: the lcm of no denominators
        (tridiagonal_spec(Fraction(1, 2), Fraction(0), Fraction(1, 2)),
         InitialData((FieldRow.zero(1),)), 4),
        (two_step, InitialData((FieldRow.zero(1), FieldRow.zero(1))), 5),
        (two_step, cancelled, 6),
        (two_step, InitialData((DELTA, FieldRow(1, {(1,): Fraction(1, 2),
                                                    (3,): Fraction(2, 9)}))), 6),
        # x - 1/x on two equal points cancels at point 1 of row 1
        (tridiagonal_spec(Fraction(1), Fraction(0), Fraction(-1)),
         InitialData((FieldRow(1, {(0,): Fraction(1), (2,): Fraction(1)}),)), 5),
        # different denominators from row to row
        (two_step, InitialData((row, FieldRow(1, {(1,): Fraction(2, 5),
                                                  (-1,): Fraction(5, 7)}))), 6),
        (three_step, InitialData((FieldRow(1, {(0,): Fraction(1, 6)}), row,
                                  FieldRow(1, {(-1,): Fraction(3, 10)}))), 7),
        # fewer rows than the time order holds initial rows
        (three_step, InitialData((row, DELTA, row)), 0),
        (three_step, InitialData((row, DELTA, row)), 1),
        (three_step_2d, InitialData((DELTA2, FieldRow(2, {(1, 1): Fraction(-1, 4)}),
                                     FieldRow(2, {(0, 1): Fraction(2, 3)}))), 6),
    ]
    for spec, initial, t_max in cases:
        assert closed_rows(spec, initial, t_max) == oracle_evolve(spec, initial, t_max), spec
    # a negative t_max is refused as the oracle refuses it, one-step and multistep
    for spec, initial, _ in cases[:2]:
        for rows in (closed_rows, oracle_evolve):
            with pytest.raises(SpecError, match="t_max must be >= 0"):
                rows(spec, initial, -1)


def test_closed_rows_lattice3d_config():
    config = load_config(str(Path(__file__).resolve().parent.parent / "configs"
                             / "lattice3d_diffusion.json"))
    rows = closed_rows(config.spec, config.initial, 6)
    assert rows == oracle_evolve(config.spec, config.initial, 6)
    assert len(rows[6].values) > len(rows[5].values)


# ---------------------------------------------------------------------------
# one-step equations: Miller's power recurrence
# ---------------------------------------------------------------------------

@given(line_specs(), line_rows(), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_line_closed_value_equals_composition_sum(spec, psi, t):
    # every point the support can reach, both ends of S**t among them, and
    # two cells past each side, where the value is 0
    steps = [spec.spatial_shift[0] - e.offset[0] for e in spec.stencil]
    xs = [p for (p,) in psi.values] or [0]
    initial = InitialData((psi,))
    for x in range(min(xs) + t * min(steps) - 2, max(xs) + t * max(steps) + 3):
        assert closed_value(spec, initial, (x,), t) == eval_nd(spec, psi, (x,), t), x


@given(line_specs(), line_rows(), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_line_closed_rows_equal_oracle(spec, psi, t_max):
    initial = InitialData((psi,))
    assert closed_rows(spec, initial, t_max) == oracle_evolve(spec, initial, t_max)


@given(plane_specs(), plane_rows(), st.integers(0, 4),
       st.lists(st.tuples(st.integers(-11, 11), st.integers(-11, 11)), max_size=6))
@settings(max_examples=40, deadline=None)
def test_plane_closed_value_equals_composition_sum(spec, psi, t, points):
    # drawn points, and the cells a single entry reaches from each point of
    # psi in t steps (a corner of the reach, often nonzero) and their
    # neighbours
    steps = [tuple(s - o for s, o in zip(spec.spatial_shift, e.offset)) for e in spec.stencil]
    probes = list(points)
    for (x, y) in psi.values:
        for dx, dy in steps:
            reached = (x + t * dx, y + t * dy)
            probes += [reached, (reached[0] + 1, reached[1]), (reached[0], reached[1] - 1)]
    initial = InitialData((psi,))
    for p in probes:
        assert closed_value(spec, initial, p, t) == eval_nd(spec, psi, p, t), p


@given(plane_specs(), plane_rows(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_plane_closed_rows_equal_oracle(spec, psi, t_max):
    initial = InitialData((psi,))
    assert closed_rows(spec, initial, t_max) == oracle_evolve(spec, initial, t_max)


def test_line_paths_read_no_composition_or_multinomial_kernel(monkeypatch):
    # one-step equations in 1D, 2D (3x3) and 3D read every power from
    # Miller's recurrence, never from the composition sum or the series
    line = EquationSpec(1, 1, (1,), (StencilEntry((-2,), 0, Fraction(2, 3)),
                                     StencilEntry((1,), 0, Fraction(-1, 4)),
                                     StencilEntry((2,), 0, Fraction(1, 5))))
    lattice3d = load_config(str(Path(__file__).resolve().parent.parent / "configs"
                                / "lattice3d_diffusion.json"))
    cases = [
        (line, InitialData((FieldRow(1, {(0,): Fraction(1), (3,): Fraction(-5, 2)}),)), 12),
        (ninepoint_spec([Fraction(n, 7 + n) * (-1) ** n for n in range(1, 10)]),
         InitialData((FieldRow(2, {(0, 0): Fraction(1), (2, -1): Fraction(-3, 2)}),)), 6),
        (lattice3d.spec, lattice3d.initial, 3),
    ]
    walk = RandomWalkParams(Fraction(1, 4), Fraction(1, 6), Fraction(7, 12))
    rows = [oracle_evolve(spec, initial, t_max) for spec, initial, t_max in cases]
    walk_rows = oracle_evolve(tridiagonal_spec(walk.p, walk.d, walk.q),
                              InitialData((DELTA,)), 12)

    def slow_path(*args, **kwargs):
        raise AssertionError("a one-step equation took the slow path")

    dims = []
    symbol_powers = combinatorics._symbol_powers

    def powers(terms, *args):
        dims.append(len(terms[0][1]))
        return symbol_powers(terms, *args)

    monkeypatch.setattr(closed_form, "_symbol_powers", powers)
    monkeypatch.setattr(closed_form, "_composition_sum", slow_path)
    monkeypatch.setattr(closed_form, "_multinomial_weights", slow_path)
    monkeypatch.setattr(combinatorics, "_multinomial_weights", slow_path)
    for (spec, initial, t_max), want in zip(cases, rows):
        assert closed_rows(spec, initial, t_max) == want
        for t in (0, t_max // 2, t_max):
            for p, v in want[t].values.items():
                assert closed_value(spec, initial, p, t) == v
    for t in (0, 5, 12):
        assert random_walk_distribution(walk, t) == walk_rows[t]
    assert set(dims) == {1, 2, 3}
    # the patches are live: an equation of time order 2 does reach them,
    # through x-steps -1, 0 and 1, which have no columns (_column_sign)
    two_step = EquationSpec(1, 2, (0,), (StencilEntry((0,), 1, Fraction(1)),
                                         StencilEntry((1,), 0, Fraction(-1, 2)),
                                         StencilEntry((-1,), 0, Fraction(1, 3))))
    initial = InitialData((DELTA, DELTA))
    with pytest.raises(AssertionError):
        closed_value(two_step, initial, (0,), 2)
    with pytest.raises(AssertionError):
        closed_rows(two_step, initial, 2)


def test_closed_value_dispatch():
    corner = corner_spec(Fraction(1, 2), Fraction(1), Fraction(1, 3))
    assert (closed_value(corner, InitialData((DELTA,)), (0,), 0)
            == eval_implicit(Fraction(1, 2), Fraction(1), Fraction(1, 3), DELTA, 0, 0))
    tri = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    assert closed_value(tri, InitialData((DELTA,)), (0,), 2) == 10
    # U[t+3] = U[t+2] + U[t+1] + U[t] from rows 0, 0, 1: the tribonacci numbers
    trib = EquationSpec(1, 3, (0,), tuple(StencilEntry((0,), level, Fraction(1))
                                          for level in range(3)))
    zero = FieldRow.zero(1)
    initial = InitialData((zero, zero, DELTA))
    assert [closed_value(trib, initial, (0,), t) for t in range(8)] == [0, 0, 1, 1, 2, 4, 7, 13]
    # every family checks the query before it evaluates
    a, b, c = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    delta = InitialData((DELTA,))
    for point, time, message in [((1, 2), 3, "point of length 2"), ((), 3, "point of length 0"),
                                 ((3,), -2, "time must be >= 0"),
                                 ((-5,), -2, "time must be >= 0")]:
        with pytest.raises(SpecError, match=message):
            closed_value(corner_spec(a, b, c), delta, point, time)
    with pytest.raises(SpecError, match="time must be >= 0"):
        eval_implicit(a, b, c, DELTA, -5, -2)


# ---------------------------------------------------------------------------
# algebraic properties (small smoke versions; the acceptance suite runs the
# full randomized batches)
# ---------------------------------------------------------------------------

def test_linearity_translation_scaling_smoke():
    rng = random.Random(1043)
    for _ in range(8):
        spec = nd_instance(rng, 1, max_entries=4)
        psi1, psi2 = field_row(rng, 1), field_row(rng, 1)
        alpha, beta = rational(rng), rational(rng)
        q, t = (rng.randint(-4, 4),), rng.randint(0, 4)
        combo = FieldRow(1, {p: alpha * psi1.get(p) + beta * psi2.get(p)
                             for p in psi1.values.keys() | psi2.values.keys()})
        assert (eval_nd(spec, combo, q, t)
                == alpha * eval_nd(spec, psi1, q, t) + beta * eval_nd(spec, psi2, q, t))
        d = (rng.randint(-3, 3),)
        shifted = FieldRow(1, {(p + d[0],): v for (p,), v in psi1.values.items()})
        assert (eval_nd(spec, shifted, q, t)
                == eval_nd(spec, psi1, (q[0] - d[0],), t))
        lam = rational(rng, nonzero=True)
        scaled_spec = EquationSpec(
            spec.spatial_dim, 1, spec.spatial_shift,
            tuple(StencilEntry(e.offset, e.time_level, lam * e.coeff)
                  for e in spec.stencil))
        assert (eval_nd(scaled_spec, psi1, q, t)
                == lam ** t * eval_nd(spec, psi1, q, t))


FAR = 10 ** 12
FAR_LINE = EquationSpec(1, 1, (0,), (StencilEntry((-1,), 0, Fraction(1, 2)),
                                     StencilEntry((1,), 0, Fraction(1, 3))))
FAR_PLANE = EquationSpec(2, 1, (0, 0), (StencilEntry((-1, 0), 0, Fraction(1, 2)),
                                        StencilEntry((1, 0), 0, Fraction(1, 3)),
                                        StencilEntry((0, 1), 0, Fraction(1, 5))))


@pytest.mark.parametrize("spec, psi, values", [
    (FAR_LINE, FieldRow(1, {(0,): Fraction(1), (FAR,): Fraction(-2, 3)}),
     {((0,), 2): Fraction(1, 3), ((FAR - 1,), 3): Fraction(-1, 9),
      ((FAR + 1,), 1): Fraction(-1, 3), ((5,), 3): 0}),
    (FAR_PLANE, FieldRow(2, {(0, 0): Fraction(1), (FAR, -5): Fraction(-2, 3)}),
     {((0, 0), 2): Fraction(1, 3), ((FAR - 1, -7), 3): Fraction(-2, 75),
      ((FAR + 1, -6), 2): Fraction(-2, 15), ((1, -1), 2): Fraction(1, 5),
      ((FAR - 1, -6), 3): 0}),
], ids=["line", "plane"])
def test_far_apart_support_gives_exact_values(spec, psi, values):
    # the gap between the points costs the closed form no coefficient
    initial = InitialData((psi,))
    rows = oracle_evolve(spec, initial, 3)
    assert closed_rows(spec, initial, 3) == rows
    for (p, t), want in values.items():
        assert closed_value(spec, initial, p, t) == eval_nd(spec, psi, p, t) == want
        assert rows[t].get(p) == want


SWEEP_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
# coordinates near 0 or near FAR, so two points may be 10**12 apart
SWEEP_COORDS = st.integers(-3, 3) | st.integers(FAR - 2, FAR + 2)


@st.composite
def one_step_sweeps(draw):
    """A one-step spec in 1 to 3 dimensions and a row 0 for it, possibly
    empty, whose points may lie 10**12 apart."""
    dim = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                            min_size=1, max_size=5, unique=True))
    shift = draw(st.tuples(*[st.integers(-1, 1)] * dim))
    spec = EquationSpec(dim, 1, shift, tuple(StencilEntry(o, 0, draw(SWEEP_COEFFS))
                                             for o in offsets))
    points = draw(st.lists(st.tuples(*[SWEEP_COORDS] * dim), max_size=4, unique=True))
    return spec, FieldRow(dim, {p: draw(SWEEP_COEFFS) for p in points})


@given(one_step_sweeps(), st.integers(0, 5))
@example((FAR_PLANE, FieldRow.zero(2)), 3)
@example((FAR_LINE, FieldRow(1, {(0,): Fraction(1), (FAR,): Fraction(-2, 3)})), 5)
@settings(max_examples=60, deadline=None)
def test_row_sweep_equals_power_row_and_oracle(case, t_max):
    # the sweep's one set-up gives, row by row, what one _power_rows call
    # per time works out from scratch, and the oracle's rows
    spec, psi = case
    initial = InitialData((psi,))
    packing = query_packing(spec, initial, t_max)
    rows = list(closed_form._rows(spec, initial, t_max, packing))
    assert rows == list(closed_form._power_rows(spec, psi, range(t_max + 1), packing))
    assert rows == [next(closed_form._power_rows(spec, psi, (j,), packing))
                    for j in range(t_max + 1)]
    # the point form gives that cell of the row alone: the row's first and
    # last cells, psi's points and the origin, which may hold no value
    for j, (den, nums) in enumerate(point_rows(rows, packing.box)):
        cells = sorted(nums)
        for p in {*cells[:1], *cells[-1:], *psi.values, (0,) * spec.spatial_dim}:
            want = (den, {p: nums[p]} if p in nums else {})
            assert next(closed_form._power_rows(spec, psi, (j,), point=p)) == want, (p, j)
    assert ([FieldRow._over(packing, den, nums) for den, nums in rows]
            == oracle_evolve(spec, initial, t_max))


def centrally_symmetric(spec):
    """Whether S's coefficients, by exponent vector, map onto themselves
    through the centre of the exponents' bounding box."""
    cells = {tuple(map(sub, spec.spatial_shift, e.offset)): e.coeff for e in spec.stencil}
    ends = [min(axis) + max(axis) for axis in zip(*cells)]
    return all(cells.get(tuple(map(sub, ends, p))) == c for p, c in cells.items())


MIRROR_FAR = 10 ** 6
# coordinates near 0 and near 10**6 on either side
MIRROR_COORDS = (st.integers(-3, 3) | st.integers(MIRROR_FAR - 2, MIRROR_FAR + 2)
                 | st.integers(-MIRROR_FAR - 2, -MIRROR_FAR + 2))


@st.composite
def mirror_sweeps(draw):
    """A one-step spec in 1 to 3 dimensions whose stencil is centrally
    symmetric about a drawn point, a half-integer one too, so that S
    drifts; or that stencil with one coefficient doubled or one entry
    dropped, which may break the symmetry.  With it a nonzero row 0, values
    of either sign, whose points may lie 10**6 apart."""
    dim = draw(st.integers(1, 3))
    ends = draw(st.tuples(*[st.integers(-3, 3)] * dim))  # twice the centre
    coeffs = {}
    for o in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=3)):
        coeffs[o] = coeffs[tuple(map(sub, ends, o))] = draw(SWEEP_COEFFS)
    change = draw(st.sampled_from([None, "double", "drop"]))
    if change:
        o = draw(st.sampled_from(sorted(coeffs)))
        if change == "double":
            coeffs[o] *= 2
        elif len(coeffs) > 1:
            del coeffs[o]
    shift = draw(st.tuples(*[st.integers(-1, 1)] * dim))
    spec = EquationSpec(dim, 1, shift, tuple(StencilEntry(o, 0, c)
                                             for o, c in sorted(coeffs.items())))
    points = draw(st.lists(st.tuples(*[MIRROR_COORDS] * dim), min_size=1, max_size=4,
                           unique=True))
    return spec, FieldRow(dim, {p: draw(SWEEP_COEFFS) for p in points})


def line(*cells, values=((0, 1),)):
    """A 1D one-step spec with coefficient c at exponent e for (e, c) in
    cells, and a row 0 of the (point, value) pairs values."""
    spec = EquationSpec(1, 1, (0,), tuple(StencilEntry((-e,), 0, Fraction(c))
                                          for e, c in cells))
    return spec, FieldRow(1, {(p,): Fraction(v) for p, v in values})


@given(mirror_sweeps(), st.integers(0, 6))
@example(line((3, "-2/3")), 0)                       # n = 0 at t = 0 and one entry
@example(line((3, "-2/3"), values=((0, 2), (MIRROR_FAR, -1))), 6)
@example(line((0, 1), (1, 1), values=((0, 1), (1, -1))), 5)  # (1 + x)**t (1 - x) cancels
@example(line((-1, "1/3"), (0, "1/4"), (1, "1/3")), 6)      # symmetric about 0
@example(line((-1, "1/3"), (0, "1/4"), (1, "1/2")), 6)      # near-symmetric
@example(line((1, "-1/2"), (2, "1/3"), (4, "1/3"), (5, "-1/2"),
              values=((-MIRROR_FAR, 3), (0, -1), (2, 1), (MIRROR_FAR, 2))), 6)  # drift, gaps
@example((EquationSpec(2, 1, (0, 0), tuple(
    StencilEntry(o, 0, Fraction(c)) for o, c in (((0, 0), 1), ((1, 0), 1), ((0, 1), 1),
                                                 ((1, 1), 1)))),
          FieldRow(2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})), 3)  # 2D, cancels
@settings(max_examples=80, deadline=None)
def test_mirrored_rows_equal_the_per_row_power_and_the_oracle(case, t_max):
    # Each row of the sweep equals the per-row dict product worked out from
    # scratch (power_reference) and the oracle's row.  A centrally symmetric
    # S with more than one entry runs Miller's recurrence to about the
    # middle of the power at every t > 0; any other runs it to the end.
    spec, psi = case
    initial = InitialData((psi,))
    packing = query_packing(spec, initial, t_max)
    terms = [(coeff, xstep) for coeff, xstep, _ in stencil_symbol_steps(spec)]
    lcd, (nums,) = closed_form._integer_rows([psi])
    row = [(packing.key(p), n) for p, n in nums.items()]
    times = range(t_max + 1)
    reads = []

    def recording(r, p, powers):
        powers = list(powers)
        reads.extend(n for _, _, n in powers)
        return _miller(r, p, powers)

    with mock.patch.object(combinatorics, "_miller", recording):
        got = list(combinatorics._symbol_powers(terms, times, row, packing.units))
    halves, reads = reads, []
    with mock.patch.object(power_reference, "_miller", recording):
        assert got == [reference_symbol_power(terms, t, row, packing.units) for t in times]
    mirrored = centrally_symmetric(spec) and len(terms) > 1
    for t, half, full in zip(times, halves, reads, strict=True):
        if mirrored and t:
            assert full // 2 <= half < full, (t, half, full)
        else:
            assert half == full, (t, half, full)
    assert ([FieldRow._over(packing, scale ** t * lcd, cells)
             for t, (scale, cells) in zip(times, got)] == oracle_evolve(spec, initial, t_max))


@pytest.mark.parametrize("cells", [
    ((-1, "1/3"), (0, "1/4"), (1, "1/3")), ((-1, "1/2"), (0, "1/3"), (1, "1/4"))],
    ids=["symmetric", "asymmetric"])
def test_row_points_far_apart_fill_no_dense_span(cells):
    # three clusters 10**6 apart: each fills a list of its own, a few
    # hundred cells long, where one list across the gaps would take 16 MB
    # for a single row; all 61 rows together take about 1 MB
    spec, psi = line(*cells, values=((-MIRROR_FAR, 1), (0, -3), (1, 2), (MIRROR_FAR, 3)))
    initial = InitialData((psi,))
    t_max = 60
    packing = query_packing(spec, initial, t_max)
    tracemalloc.start()
    try:
        rows = list(closed_form._rows(spec, initial, t_max, packing))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, peak
    assert [FieldRow._over(packing, den, nums) for den, nums in rows] == oracle_evolve(
        spec, initial, t_max)
