"""Seeded random instance generators shared by the test modules.

Coefficients are rationals with numerators in [-5, 5] and denominators in
[1, 5]; initial data has at most 7 support points.  Everything is driven by
an explicit random.Random so failures reproduce exactly, except the
hypothesis strategies at the end, which draw one-step 1D equations and rows
for the tests of Miller's power recurrence.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, InitialData, StencilEntry,
                    auto_window, tridiagonal_spec)
from latrec.oracle import Region


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


# coefficients with negative signs, unit and non-unit numerators and several
# denominators, so the scale D and the exact divisions are exercised
LINE_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@st.composite
def line_specs(draw) -> EquationSpec:
    """One-step 1D specs: one to five entries at distinct offsets in
    [-4, 4], so the symbol can have interior gaps, and a shift in [-2, 2]."""
    offsets = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
    shift = draw(st.integers(-2, 2))
    return EquationSpec(1, 1, (shift,), tuple(
        StencilEntry((o,), 0, draw(LINE_COEFFS)) for o in offsets))


def line_rows():
    """1D rows, the zero row among them, with up to 4 points in [-4, 4]."""
    return st.dictionaries(st.integers(-4, 4).map(lambda x: (x,)), LINE_COEFFS,
                           max_size=4).map(lambda values: FieldRow(1, values))
