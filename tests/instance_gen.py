"""Seeded random instance generators shared by the test modules.

Coefficients are rationals with numerators in [-5, 5] and denominators in
[1, 5]; initial data has at most 7 support points.  Everything is driven by
an explicit random.Random so failures reproduce exactly, except the
hypothesis strategies at the end, which draw one-step 1D and 2D equations
and rows for the tests of Miller's power recurrence, and the multistep 1D
equations whose series is read column by column.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, InitialData, SpecError,
                    StencilEntry, auto_window, tridiagonal_spec)
from latrec.oracle import Region, engine_rows


# Named shapes of the one explicit family, kept as test fixtures.

def one_row_spec(coeffs, m: int) -> EquationSpec:
    """U[i+m, j+1] = c_1 U[i, j] + c_2 U[i+1, j] + ... + c_n U[i+n-1, j]."""
    entries = (StencilEntry((r,), 0, Fraction(c)) for r, c in enumerate(coeffs))
    return EquationSpec(1, 1, (m,), tuple(entries))


def ninepoint_spec(coeffs) -> EquationSpec:
    """3x3 one-step stencil; coefficients run over dy in (-1, 0, 1), then dx
    in (-1, 0, 1), dx fastest."""
    offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    entries = (StencilEntry(off, 0, Fraction(c))
               for off, c in zip(offsets, coeffs, strict=True))
    return EquationSpec(2, 1, (0, 0), tuple(entries))


def grid_2d_spec(coeffs, s: int, t: int) -> EquationSpec:
    """U[i+s, j+t, k+1] = sum_{u=1..n} sum_{v=1..m} c[u][v] U[i+u-1, j+v-1, k]."""
    entries = (StencilEntry((u, v), 0, Fraction(c))
               for u, row in enumerate(coeffs) for v, c in enumerate(row))
    return EquationSpec(2, 1, (s, t), tuple(entries))


def corner_spec(a: Fraction, b: Fraction, c: Fraction) -> EquationSpec:
    """U[i+1, j+1] = a U[i, j+1] + b U[i+1, j] + c U[i, j] (corner-implicit).

    b = c = 0 is not representable as a spec (stencils need a nonzero entry);
    eval_implicit still accepts raw coefficients for that degenerate case.
    """
    entries = tuple(e for e in (StencilEntry((1,), 0, Fraction(b)),
                                StencilEntry((0,), 0, Fraction(c)))
                    if e.coeff != 0)
    if not entries:
        raise SpecError("corner-implicit spec needs b or c nonzero")
    return EquationSpec(1, 1, (1,), entries, implicit_corner=True,
                        implicit_coeff=Fraction(a))


def rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-5, 5)
    while nonzero and num == 0:
        num = rng.randint(-5, 5)
    return Fraction(num, rng.randint(1, 5))


def field_row(rng: random.Random, dim: int, max_points: int = 7,
              coord_range: int = 3, allow_empty: bool = False) -> FieldRow:
    count = rng.randint(0 if allow_empty else 1, max_points)
    values = {}
    for _ in range(count):
        p = tuple(rng.randint(-coord_range, coord_range) for _ in range(dim))
        values[p] = rational(rng, nonzero=True)
    return FieldRow(dim, values)


def tridiagonal_instance(rng: random.Random) -> EquationSpec:
    while True:
        a, b, c = (rational(rng) for _ in range(3))
        if a != 0 or b != 0 or c != 0:
            return tridiagonal_spec(a, b, c)


def one_row_instance(rng: random.Random, max_n: int = 4,
                     max_m: int = 2) -> EquationSpec:
    n = rng.randint(1, max_n)
    while True:
        coeffs = [rational(rng) for _ in range(n)]
        if any(c != 0 for c in coeffs):
            return one_row_spec(coeffs, rng.randint(-max_m, max_m))


def ninepoint_instance(rng: random.Random) -> EquationSpec:
    while True:
        coeffs = [rational(rng) for _ in range(9)]
        if any(c != 0 for c in coeffs):
            return ninepoint_spec(coeffs)


def grid_2d_instance(rng: random.Random, max_nm: int = 3,
                     max_st: int = 2) -> EquationSpec:
    n, m = rng.randint(1, max_nm), rng.randint(1, max_nm)
    while True:
        coeffs = [[rational(rng) for _ in range(m)] for _ in range(n)]
        if any(c != 0 for row in coeffs for c in row):
            return grid_2d_spec(coeffs, rng.randint(0, max_st), rng.randint(0, max_st))


def nd_instance(rng: random.Random, dim: int, max_entries: int = 5,
                reach: int = 1, time_order: int = 1) -> EquationSpec:
    """Explicit spec with offsets within `reach` of the origin, each at a
    random time level below `time_order`."""
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        offset = tuple(rng.randint(-reach, reach) for _ in range(dim))
        # one-step specs draw no level
        level = rng.randrange(time_order) if time_order > 1 else 0
        entries[offset, level] = rational(rng)
    while all(v == 0 for v in entries.values()):
        entries[next(iter(entries))] = rational(rng, nonzero=True)
    shift = tuple(rng.randint(-1, 1) for _ in range(dim))
    stencil = tuple(StencilEntry(o, level, c)
                    for (o, level), c in entries.items() if c != 0)
    return EquationSpec(dim, time_order, shift, stencil)


def two_row_instance(rng: random.Random, max_n: int = 3,
                     max_m: int = 2) -> EquationSpec:
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    while True:
        entries = []
        for r in range(n):
            for level in (0, 1):
                c = rational(rng)
                if c != 0:
                    entries.append(StencilEntry((r,), level, c))
        if entries:
            return EquationSpec(1, 2, (m,), tuple(entries))


def verification_region(spec: EquationSpec, initial: InitialData,
                        t_max: int, pad: int = 1) -> Region:
    """The forward-reach window padded by one cell: everything nonzero lives
    inside, and the rim re-checks that both engines agree on zero."""
    window = auto_window(spec, initial, t_max)
    if window is None:
        origin = (0,) * spec.spatial_dim
        window = Box(origin, origin)
    box = Box(tuple(l - pad for l in window.lo), tuple(h + pad for h in window.hi))
    return Region(box, 0, t_max)


def reference_step(spec, rows):
    """One step summed in Fractions, cell by cell, from the held rows
    (FieldRows, oldest first): the reference for the oracle's integer sum."""
    acc = {}
    for e in spec.stencil:
        delta = tuple(s - o for s, o in zip(spec.spatial_shift, e.offset))
        for p, v in rows[e.time_level].values.items():
            key = tuple(c + d for c, d in zip(p, delta))
            acc[key] = acc.get(key, Fraction(0)) + e.coeff * v
    return {p: v for p, v in acc.items() if v}


def box_keys(box: Box):
    """The tests' own packing of box, written apart from lattice.Packing so
    that a fault there shows: (key of a point, point of a key).  A key is
    the point's offsets from box.lo read as digits by Horner's rule, the
    last axis lowest; a point comes back by divmod, the last axis first."""
    radices = [h - l + 1 for l, h in zip(box.lo, box.hi)]

    def key(p):
        k = 0
        for c, l, r in zip(p, box.lo, radices):
            assert l <= c < l + r, (p, box)
            k = k * r + c - l
        return k

    def point(k):
        coords = []
        for l, r in zip(box.lo[::-1], radices[::-1]):
            k, d = divmod(k, r)
            coords.append(l + d)
        assert k == 0, box
        return tuple(coords[::-1])

    return key, point


def point_rows(rows, box: Box) -> list:
    """Integer rows (den, {key: numerator}) keyed in the packing of box, as
    (den, {point: numerator}) by box_keys."""
    _, point = box_keys(box)
    return [(den, {point(k): n for k, n in nums.items()}) for den, nums in rows]


def engine_point_rows(spec: EquationSpec, initial: InitialData, t_max: int, engine: str,
                      box: Box | None = None) -> list:
    """engine_rows in the packing it returns, the query's, keyed by point."""
    packing, rows = engine_rows(spec, initial, t_max, engine, box)
    return point_rows(rows, packing.box)


# coefficients with negative signs, unit and non-unit numerators and several
# denominators, so the scale D and the exact divisions are exercised
LINE_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)

# corner-form coefficients, zero and negative values drawn often, so
# vanishing powers and signs show
CORNER_COEFFS = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def line_specs(draw) -> EquationSpec:
    """One-step 1D specs: one to five entries at distinct offsets in
    [-4, 4], so the symbol can have interior gaps, and a shift in [-2, 2]."""
    offsets = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
    shift = draw(st.integers(-2, 2))
    return EquationSpec(1, 1, (shift,), tuple(
        StencilEntry((o,), 0, draw(LINE_COEFFS)) for o in offsets))


@st.composite
def column_specs(draw) -> EquationSpec:
    """1D specs of time order 2 or 3 whose x-steps are exactly 0 and
    sigma = +1 or -1, so S = S0(y) + x**sigma S1(y): S0's entries sit at
    the shift and S1's at shift - sigma, each at a nonempty set of time
    levels.  S1's lowest time exponent v is 1 when it has an entry at the
    top level and >= 2 otherwise."""
    k = draw(st.integers(2, 3))
    sign = draw(st.sampled_from((1, -1)))
    shift = draw(st.integers(-2, 2))
    levels = st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)
    return EquationSpec(1, k, (shift,), tuple(
        StencilEntry((offset,), level, draw(LINE_COEFFS))
        for offset in (shift, shift - sign) for level in draw(levels)))


def column_spec(sign: int, zero: dict[int, str], step: dict[int, str],
                time_order: int = 2) -> EquationSpec:
    """The spec with S0's entries {time level: coeff} at offset 0 and S1's
    at offset -sign, under shift 0."""
    return EquationSpec(1, time_order, (0,), tuple(
        StencilEntry((offset,), level, Fraction(coeff))
        for offset, entries in ((0, zero), (-sign, step)) for level, coeff in entries.items()))


def line_rows():
    """1D rows, the zero row among them, with up to 4 points in [-4, 4]."""
    return st.dictionaries(st.integers(-4, 4).map(lambda x: (x,)), LINE_COEFFS,
                           max_size=4).map(lambda values: FieldRow(1, values))


@st.composite
def plane_specs(draw) -> EquationSpec:
    """One-step 2D specs: one to five entries at distinct offsets in
    [-1, 1]^2, the 3x3 stencil's cells, and a shift in [-1, 1]^2."""
    cells = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    offsets = draw(st.lists(cells, min_size=1, max_size=5, unique=True))
    return EquationSpec(2, 1, draw(cells), tuple(
        StencilEntry(o, 0, draw(LINE_COEFFS)) for o in offsets))


def plane_rows():
    """2D rows, the zero row among them, with up to 4 points in [-3, 3]^2."""
    return st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), LINE_COEFFS,
                           max_size=4).map(lambda values: FieldRow(2, values))
