import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, InitialData, SpecError, StencilEntry,
                    expand_stencil_power, oracle_evolve, tridiagonal_spec)
from latrec.combinatorics import (_column_sign, _column_weights, _miller,
                                  _multinomial_weights, _symbol_power, compositions, multinomial,
                                  stencil_symbol_steps)
from latrec.lattice import Packing

from instance_gen import box_keys, column_spec, column_specs, line_specs, nd_instance


def packed_power(terms, j, row):
    """_symbol_power's (D A)**j * N with N's points packed in a box that
    holds N and the product, N's box plus j times A's exponent box hulled
    with 0, as auto_window sizes it, and the cells unpacked by the tests'
    own packing (box_keys)."""
    exps, points = list(zip(*[e for _, e in terms])), list(zip(*[p for p, _ in row]))
    box = Box(tuple(min(0, j * min(e)) + min(p) for e, p in zip(exps, points)),
              tuple(max(0, j * max(e)) + max(p) for e, p in zip(exps, points)))
    key, point = box_keys(box)
    scale, got = _symbol_power(terms, j, [(key(p), v) for p, v in row], Packing(box).units)
    return scale, {point(k): v for k, v in got.items()}


def poly_mul(p, q):
    """Brute-force product of exponent-vector polynomials (a test oracle for
    the stencil-power expansion)."""
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            acc = out.get(key, Fraction(0)) + va * vb
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def poly_power(base, j, dim):
    result = {(0,) * (dim + 1): Fraction(1)}
    for _ in range(j):
        result = poly_mul(result, base)
    return result


def composition_expansion(spec, j):
    """S**j as a sum over compositions r of j over the stencil entries of
    multinomial(j, r) * prod(coeff**r): the reference for the entry-by-entry
    expansion."""
    steps = stencil_symbol_steps(spec)
    dim = spec.spatial_dim
    terms = {}
    for r in compositions(len(steps), j):
        exps = [0] * (dim + 1)
        weight = Fraction(multinomial(j, r))
        for mult, (coeff, xstep, ystep) in zip(r, steps):
            weight *= coeff ** mult
            for i in range(dim):
                exps[i] += mult * xstep[i]
            exps[dim] += mult * ystep
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + weight
    return {key: v for key, v in terms.items() if v != 0}


def symbol_terms(spec):
    """S itself, read off the stencil entries."""
    return {(*xstep, ystep): coeff for coeff, xstep, ystep in stencil_symbol_steps(spec)}


COEFFS = [Fraction(1, 7), Fraction(-2, 9), Fraction(3, 11), Fraction(1),
          Fraction(-1), Fraction(2), Fraction(-5, 2), Fraction(3, 4)]


@st.composite
def stencil_specs(draw, still=st.just(False)):
    """Explicit specs; with `still` drawing True, every entry's offset equals
    the shift, so every spatial step of the symbol is zero."""
    dim = draw(st.integers(1, 3))
    time_order = draw(st.integers(1, 3))
    shift = draw(st.tuples(*[st.integers(-1, 1)] * dim))
    offsets = st.just(shift) if draw(still) else st.tuples(*[st.integers(-2, 2)] * dim)
    keys = draw(st.lists(st.tuples(offsets, st.integers(0, time_order - 1)),
                         min_size=1, max_size=6, unique=True))
    stencil = tuple(StencilEntry(offset, level, draw(st.sampled_from(COEFFS)))
                    for offset, level in keys)
    return EquationSpec(dim, time_order, shift, stencil)


@given(stencil_specs(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_expand_equals_composition_sum_and_iterated_product(spec, j):
    expanded = expand_stencil_power(spec, j)
    assert expanded == composition_expansion(spec, j)
    assert expanded == poly_power(symbol_terms(spec), j, spec.spatial_dim)


@given(stencil_specs(still=st.booleans()), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_series_kernel_equals_summed_powers(spec, t_max):
    # sum_J S**J up to time exponent t_max, every coefficient W / D**e
    scale, weights = _multinomial_weights(spec, t_max)
    assert all(exps[-1] <= t_max and w != 0 for exps, w in weights.items())
    expected = {}
    for j in range(t_max + 1):
        for exps, coef in composition_expansion(spec, j).items():
            if exps[-1] <= t_max:
                expected[exps] = expected.get(exps, 0) + coef
    assert {exps: Fraction(w, scale ** exps[-1]) for exps, w in weights.items()} == {
        exps: coef for exps, coef in expected.items() if coef != 0}


@given(column_specs(), st.integers(0, 14))
@example(column_spec(1, {1: "1/2"}, {1: "-2/3"}), 14)                  # v = 1, one term
@example(column_spec(-1, {0: "1", 1: "1/3"}, {0: "5/2"}), 14)          # v = 2
@example(column_spec(1, {2: "-1/4"}, {0: "2/3", 1: "3"}, 3), 14)       # v = 2, two terms
@example(column_spec(-1, {0: "1/2"}, {0: "1/5", 1: "-1", 2: "3/4"}, 3), 14)  # v = 1, three
@example(column_spec(1, {1: "1"}, {0: "1"}, 3), 14)                    # v = 3
@settings(max_examples=150, deadline=None)
def test_column_weights_equal_multinomial_weights(spec, limit):
    # [x**(sigma i)] sum_J S**J column by column, every coefficient W / D**e,
    # equals the multinomial pass over the whole symbol; asked for some
    # columns, each to its own limit, it gives those terms alone
    sign = _column_sign(spec)
    assert sign in (1, -1)
    scale, weights = _multinomial_weights(spec, limit)
    assert _column_weights(spec, limit) == (scale, weights)
    columns = {i: limit - i % 3 for i in range(0, limit + 1, 2)}
    assert _column_weights(spec, limit, columns) == (scale, {
        (x, e): w for (x, e), w in weights.items()
        if x * sign in columns and e <= columns[x * sign]})


def series_quotient(r, p, i, e, n):
    """k_0..k_n of R**i / (1 - P)**e by plain truncated series arithmetic:
    R multiplied in i times, then e long divisions by 1 - P."""
    def dense(pairs):
        out = [0] * (n + 1)
        for a, c in pairs:
            if a <= n:
                out[a] += c
        return out

    k, factor, divisor = dense([(0, 1)]), dense(r), dense([(0, 1)] + [(b, -q) for b, q in p])
    for _ in range(i):
        k = [sum(k[a] * factor[s - a] for a in range(s + 1)) for s in range(n + 1)]
    for _ in range(e):
        out = []
        for s in range(n + 1):
            out.append(k[s] - sum(divisor[b] * out[s - b] for b in range(1, s + 1)))
        k = out
    return k


def sparse_poly(exponents, coeffs, size):
    return st.lists(st.tuples(exponents, coeffs), max_size=size,
                    unique_by=lambda term: term[0]).map(sorted)


@given(sparse_poly(st.integers(0, 6), st.integers(-4, 4), 3),
       sparse_poly(st.integers(1, 4), st.integers(-4, 4).filter(bool), 3).filter(bool),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 12)),
                min_size=1, max_size=3))
@example([], [(1, 2)], [(0, 3, 6), (2, 1, 6)])                  # R = 0: R**0 = 1, R**2 = 0
@example([(2, 3), (5, -1)], [(1, -2), (3, 1)], [(3, 0, 5), (3, 0, 9), (2, 4, 12)])
@example([(0, 0), (1, 2)], [(2, 3)], [(0, 0, 4), (4, 2, 3)])    # a zero lowest term: v = 1
@settings(max_examples=300, deadline=None)
def test_miller_equals_truncated_series_arithmetic(r, p, powers):
    # e independent of i and e = 0 with P != 0, P of 1 to 3 terms, R with
    # v >= 2 read to n < v i, R = 0, negative coefficients; one set-up
    # serves every power
    assert list(_miller(r, p, powers)) == [series_quotient(r, p, i, e, n)
                                           for i, e, n in powers]


def line_spec(shift, *entries):
    return EquationSpec(1, 1, (shift,), tuple(
        StencilEntry((offset,), 0, Fraction(coeff)) for offset, coeff in entries))


def lattice_spec(*exps):
    """A one-step spec whose symbol has the given exponent vectors, with
    coefficients 1/2, -2/3, 3/4, ..."""
    dim = len(exps[0])
    return EquationSpec(dim, 1, (0,) * dim, tuple(
        StencilEntry(tuple(-x for x in e), 0, Fraction((-1) ** i * (i + 1), i + 2))
        for i, e in enumerate(exps)))


def probes(cells, dim):
    """Some of `cells`, the farthest one along each axis, and each one's
    neighbours along every axis, where the coefficient may be 0.  Past the
    farthest cell on a lower axis the digit equals the radix."""
    picked = sorted(cells)[::max(1, len(cells) // 3)]
    picked += [max(cells, key=lambda cell: cell[i]) for i in range(dim)]
    out = set(picked)
    for cell in picked:
        for i in range(dim):
            for step in (-1, 1):
                out.add(cell[:i] + (cell[i] + step,) + cell[i + 1:])
    return out


ROW_POINTS = st.tuples(*[st.integers(-3, 3)] * 4)


@given(stencil_specs(), st.integers(0, 6),
       st.lists(st.tuples(ROW_POINTS, st.sampled_from([1, -2, 3])), max_size=3))
@example(lattice_spec((1, 0), (0, 1), (2, 1)), 7, [])           # least key off every corner
@example(lattice_spec((1, 0), (0, 1), (2, 1)), 5, [((0, 0, 0, 0), 1), ((3, -1, 2, 0), -2)])
@example(lattice_spec((0, 0), (3, 0), (0, 2), (3, 2)), 4, [])   # interior gaps on both axes
@example(lattice_spec((2, -1),), 7, [((1, 1, 1, 0), 3)])        # a single entry
@example(lattice_spec((0, 0), (0, 1)), 1, [])                  # one x digit, radix 1
@example(line_spec(0, (0, "1/2"), (-1, "1/3")), 1,            # a row wider than S
         [((0, 0, 0, 0), 1), ((3, 0, 0, 0), -2)])
@example(line_spec(1, (-3, "1/2"), (0, "-2"), (4, "5/3")), 0, [])  # j = 0
# the widest row times the highest-key term: the cell (9, 4) has x digit
# t * width + span = 9, the radix less one, and (10, 4) has the radix
@example(lattice_spec((0, 0), (2, 1)), 3, [((0, 0, 0, 0), 1), ((3, 1, 0, 0), -2)])
@example(lattice_spec((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)), 3,
         [((0, 0, 0, 0), 1), ((2, -1, 1, 0), -2)])       # 3D with a row
@settings(max_examples=80, deadline=None)
def test_symbol_power_equals_composition_sum_and_iterated_product(spec, j, row):
    # (D S)**j times an integer row N, with y as one more axis and, for a
    # one-step spec, in x alone; every cell, and single cells on and off
    # the support
    dim = spec.spatial_dim
    power = composition_expansion(spec, j)
    assert power == poly_power(symbol_terms(spec), j, dim)
    steps = stencil_symbol_steps(spec)
    cases = [([(coeff, (*xstep, ystep)) for coeff, xstep, ystep in steps], power, dim + 1)]
    if spec.time_order == 1:
        cases.append(([(coeff, xstep) for coeff, xstep, _ in steps],
                      {exps[:dim]: v for exps, v in power.items()}, dim))
    for terms, expected, axes in cases:
        ints = list({p[:axes]: v for p, v in row}.items()) or [((0,) * axes, 1)]
        want = poly_mul(expected, {p: Fraction(v) for p, v in ints})
        scale, got = packed_power(terms, j, ints)
        assert scale == math.lcm(*(e.coeff.denominator for e in spec.stencil))
        assert all(got.values())
        assert {cell: Fraction(w, scale ** j) for cell, w in got.items()} == want
        for cell in probes(want or {(0,) * axes: 0}, axes):
            alone = {cell: got[cell]} if cell in got else {}
            assert _symbol_power(terms, j, ints, point=cell) == (scale, alone)
    assert _symbol_power(cases[0][0], j, []) == (scale, {})


def row_product(spec, j, row):
    """_symbol_power's (D S)**j * N for the one-step spec and the integer row
    N, checked to hold no zero and, over D**j, to equal the composition sum
    times N and row j of the oracle from N."""
    dim = spec.spatial_dim
    terms = [(coeff, xstep) for coeff, xstep, _ in stencil_symbol_steps(spec)]
    scale, got = packed_power(terms, j, row)
    assert all(got.values())
    values = {p: Fraction(v, scale ** j) for p, v in got.items()}
    power = {exps[:dim]: v for exps, v in composition_expansion(spec, j).items()}
    assert values == poly_mul(power, {p: Fraction(v) for p, v in row})
    psi = FieldRow(dim, {p: Fraction(v) for p, v in row})
    assert values == oracle_evolve(spec, InitialData((psi,)), j)[j].values
    return got


def unit_spec(*exps):
    """A one-step spec whose symbol is the sum of x**e over the exponent
    vectors e, every coefficient 1."""
    dim = len(exps[0])
    return EquationSpec(dim, 1, (0,) * dim, tuple(
        StencilEntry(tuple(-x for x in e), 0, Fraction(1)) for e in exps))


@pytest.mark.parametrize("spec", [
    unit_spec((0,), (1,)),
    unit_spec((0, 0), (1, 0), (0, 1)),
    unit_spec((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("j", [0, 1, 2, 5, 6])
def test_row_product_drops_the_cells_that_cancel(spec, j):
    # A = 1 + x (+ y + z) times N = 1 - x: on the line y = z = 0 the product
    # is (1 + x)**j (1 - x), whose coefficient C(j, k) - C(j, k - 1) is 0 at
    # the interior cell k = (j + 1) / 2 for odd j
    dim = spec.spatial_dim
    x = (1,) + (0,) * (dim - 1)
    got = row_product(spec, j, [((0,) * dim, 1), (x, -1)])
    assert (((j + 1) // 2,) + (0,) * (dim - 1) in got) == (j % 2 == 0)


@pytest.mark.parametrize("spec, point", [
    (lattice_spec((1,), (-2,), (3,)), (4,)),
    (lattice_spec((1, 0), (0, 1), (-1, -1)), (2, -3)),
    (lattice_spec((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 2)), (-1, 5, 2)),
], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("j", [0, 1, 4])
def test_row_product_of_a_one_point_row(spec, point, j):
    # a row one cell wide on every axis packs as (D S)**j does, so the
    # product is the power shifted to the point
    row_product(spec, j, [(point, -3)])


@given(line_specs(), st.integers(0, 17))
@example(line_spec(0, (2, "-3/4")), 17)                      # a single entry
@example(line_spec(1, (-3, "1/2"), (0, "-2"), (4, "5/3")), 17)  # interior gaps
@example(line_spec(-2, (-1, "-1/6"), (1, "-1/4")), 17)       # negatives, every other cell
@settings(max_examples=120, deadline=None)
def test_line_power_mirrors_with_its_symbol(spec, j):
    # S(1/x)**j has the coefficients of S(x)**j in reverse, worked out from
    # the other end; they are the series kernel's time-exponent-j terms, and
    # past either end of S**j the coefficients are 0
    terms = [(coeff, xstep) for coeff, xstep, _ in stencil_symbol_steps(spec)]
    delta = [((0,), 1)]
    scale, coeffs = packed_power(terms, j, delta)
    mirrored = [(coeff, (-x,)) for coeff, (x,) in terms]
    assert packed_power(mirrored, j, delta) == (scale, {(-x,): c for (x,), c in coeffs.items()})
    kernel_scale, series = _multinomial_weights(spec, j)
    assert kernel_scale == scale
    assert coeffs == {(x,): w for (x, e), w in series.items() if e == j}
    (low,), (high,) = min(coeffs), max(coeffs)
    for x in (low - 3, low - 1, high + 1, high + 3):
        assert _symbol_power(terms, j, delta, point=(x,)) == (scale, {})


def test_compositions_examples():
    assert list(compositions(2, 1)) == [(0, 1), (1, 0)]
    assert len(list(compositions(3, 2))) == 6
    assert list(compositions(1, 5)) == [(5,)]


def test_compositions_lexicographic_and_unique():
    got = list(compositions(3, 4))
    assert got == sorted(got)
    assert len(got) == len(set(got))


def test_compositions_count_matches_stars_and_bars():
    for p in range(1, 7):
        for t in range(0, 9):
            count = sum(1 for _ in compositions(p, t))
            assert count == math.comb(t + p - 1, p - 1)


@given(st.integers(1, 5), st.integers(0, 6))
@settings(max_examples=60)
def test_compositions_sum_invariant(p, t):
    for c in compositions(p, t):
        assert len(c) == p and sum(c) == t


def test_multinomial_examples():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(7, (7, 0, 0, 0)) == 1
    assert multinomial(4, (2, 2)) == 6


def test_multinomial_total_mismatch():
    with pytest.raises(SpecError):
        multinomial(3, (1, 1))


def test_multinomial_sum_is_power_of_entry_count():
    for parts in range(1, 5):
        for j in range(0, 6):
            total = sum(multinomial(j, c) for c in compositions(parts, j))
            assert total == parts ** j


def test_expand_monomial_power():
    spec = EquationSpec(1, 3, (0,), (StencilEntry((0,), 1, Fraction(2, 7)),))
    # single entry: time exponent per factor is time_order - time_level = 2
    for j in range(8):
        assert expand_stencil_power(spec, j) == {(0, 2 * j): Fraction(2, 7) ** j}
    spec = EquationSpec(2, 1, (1, 0), (StencilEntry((0, 2), 0, Fraction(-3)),))
    assert expand_stencil_power(spec, 5) == {(5, -10, 5): Fraction(-243)}


def test_expand_exact_cancellation_leaves_no_zero():
    # (x + 1/x + y - 1/y)**2: the constant 2 from the x pair cancels the -2
    # from the y pair
    spec = EquationSpec(2, 1, (0, 0), (
        StencilEntry((-1, 0), 0, Fraction(1)), StencilEntry((1, 0), 0, Fraction(1)),
        StencilEntry((0, -1), 0, Fraction(1)), StencilEntry((0, 1), 0, Fraction(-1))))
    expanded = expand_stencil_power(spec, 2)
    assert (0, 0, 2) not in expanded
    assert all(v != 0 for v in expanded.values())
    assert expanded == composition_expansion(spec, 2)
    _, series = _multinomial_weights(spec, 3)
    assert (0, 0, 2) not in series
    assert all(w != 0 for w in series.values())


def test_expand_integer_coefficients():
    spec = EquationSpec(1, 2, (0,), (StencilEntry((-1,), 0, Fraction(2)),
                                     StencilEntry((0,), 1, Fraction(-3)),
                                     StencilEntry((1,), 1, Fraction(1))))
    for j in range(7):
        expanded = expand_stencil_power(spec, j)
        assert all(v.denominator == 1 for v in expanded.values())
        assert expanded == composition_expansion(spec, j)
    assert sum(expand_stencil_power(spec, 6).values()) == 0


def test_expand_tridiagonal_ones_power_one():
    spec = tridiagonal_spec(Fraction(1), Fraction(1), Fraction(1))
    assert expand_stencil_power(spec, 1) == {
        (-1, 1): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}


def test_expand_tridiagonal_center_coefficient():
    # t=2 center term collects b^2 + 2ac = 4 + 6 = 10, cross-checked against
    # the brute-force self-product of the power-1 expansion
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    expanded = expand_stencil_power(spec, 2)
    assert expanded[(0, 2)] == 10
    assert expanded == poly_power(expand_stencil_power(spec, 1), 2, 1)


def test_expand_power_zero_is_one():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    assert expand_stencil_power(spec, 0) == {(0, 0): Fraction(1)}
    rng = random.Random(31)
    for dim in (1, 2, 3):
        spec = nd_instance(rng, dim, max_entries=6, reach=2, time_order=dim)
        assert expand_stencil_power(spec, 0) == {(0,) * (dim + 1): Fraction(1)}


def test_expand_equals_iterated_products_random():
    rng = random.Random(424242)
    for _ in range(12):
        dim = rng.randint(1, 3)
        spec = nd_instance(rng, dim, max_entries=4)
        base = expand_stencil_power(spec, 1)
        for j in range(7):
            assert expand_stencil_power(spec, j) == poly_power(base, j, dim)


def test_expand_at_all_ones_gives_coefficient_sum_power():
    rng = random.Random(99)
    for _ in range(10):
        spec = nd_instance(rng, rng.randint(1, 2), max_entries=5)
        total = sum(e.coeff for e in spec.stencil)
        for j in range(5):
            value = sum(expand_stencil_power(spec, j).values())
            assert value == total ** j


def test_symbol_steps_shape():
    spec = tridiagonal_spec(Fraction(1), Fraction(2), Fraction(3))
    steps = {(xs[0], ys): c for c, xs, ys in stencil_symbol_steps(spec)}
    assert steps == {(1, 1): Fraction(1), (0, 1): Fraction(2), (-1, 1): Fraction(3)}
