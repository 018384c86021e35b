"""Ground-truth engine: direct iteration of the recurrences over the
evolving support, a left-to-right sweep for the corner-implicit form from
the initial row's left end to a right edge, and verifiers that compare
closed-form values against iterated ones exactly.

The stepping and the sweep give integer rows (den, {key: nonzero
numerator}), not reduced, keyed in the query's one packing
(lattice.query_packing), which the closed form's rows share, so a stencil
shift is one int addition.  engine_rows sizes the packing and returns it
with either engine's rows, so no rows meet a packing sized for other
arguments.  A step goes over the lcm of coefficient times held-row
denominators, so every term is an integer multiple of one held numerator.
The sweep holds a row as a list up to its right edge.  Only oracle_evolve,
oracle_step and oracle_sweep_implicit unpack keys, and build a Fraction
per cell.  The oracle reads nothing of the closed form's symbol,
powers or kernel.  verify_closed_vs_oracle compares the oracle's packed
rows with closed rows one time at a time over a lattice.Query, in one
comparison (_row_mismatches): under "auto" the closed form's rows, under a
named evaluator its values at the asked cells as integer rows, each read
after its oracle row is stepped.  The packing holds the query's box, so
every asked cell has a key.  verify_recurrence substitutes plain Fractions
at points.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from math import lcm

from . import closed_form
from .exactnum import ZERO
# auto_window is not called here; it stays importable as oracle.auto_window,
# the name bench/ sizes and traces windows by, and Region as oracle.Region
from .lattice import (Box, EquationSpec, FieldRow, InitialData, Packing, Point, Query, Record,
                      Region, SpecError, _as_count, _as_fraction, _set, auto_window,
                      query_packing)


class MissingValueError(KeyError):
    """A recurrence check referenced a value absent from the supplied map."""

    def __init__(self, point: Point, time: int):
        self.point = point
        self.time = time
        super().__init__(f"value at point {point}, time {time} is missing")


class EvolutionState(Record):
    """The most recent time_order rows; rows[-1] is the row at `time`.
    Rows are sparse, so the state has no spatial bound."""
    __slots__ = ("rows", "time")

    def __init__(self, rows: tuple[FieldRow, ...], time: int):
        _set(self, "rows", rows)
        _set(self, "time", time)

    @property
    def newest(self) -> FieldRow:
        return self.rows[-1]


def _int_row(row: FieldRow) -> tuple[int, dict[Point, int]]:
    """A FieldRow as (d, numerators) over d, the lcm of its denominators."""
    d = lcm(*(v.denominator for v in row.values.values()))
    return d, {p: v.numerator * (d // v.denominator) for p, v in row.values.items()}


def oracle_step(spec: EquationSpec, state: EvolutionState) -> EvolutionState:
    """Advance one time step: the new row at point e is

        sum over entries of  coeff * rows[time_level](e + offset - shift).

    The sum runs over the held rows' support only, so each new row stays
    sparse and no window bounds it.  It is the oracle's last row of
    engine_rows from the held rows as initial data; each nonzero cell of
    the new row then becomes one Fraction.
    """
    if spec.implicit_corner:
        raise SpecError("the corner-implicit form is not explicitly steppable; "
                        "use oracle_sweep_implicit")
    if len(state.rows) != spec.time_order:
        raise SpecError(f"state holds {len(state.rows)} rows, "
                        f"spec time_order is {spec.time_order}")
    packing, rows = engine_rows(spec, InitialData(state.rows), spec.time_order, "oracle")
    *_, (den, nums) = rows
    new_row = FieldRow._over(packing, den, nums)
    return EvolutionState(state.rows[1:] + (new_row,), state.time + 1)


def _steps(spec: EquationSpec, initial: InitialData, t_max: int,
           packing: Packing) -> Iterator[tuple[int, dict[int, int]]]:
    """The oracle's rows 0..t_max of an explicit spec as integer rows (den,
    {key: nonzero numerator}) keyed in packing, which engine_rows sizes,
    stepped as they are read: an entry's shift is one int added to a held
    key, and a new row goes over the lcm over the entries of
    coeff.denominator times the held row's den.  The first entry's terms
    start the new row in one dict comprehension, the others are added cell
    by cell, and zeros are dropped only when one is there.  Do not change a
    yielded row."""
    entries = [(e.time_level, e.coeff.numerator, e.coeff.denominator,
                packing.step(spec.spatial_shift) - packing.step(e.offset))
               for e in spec.stencil]
    rows = [(den, {packing.key(p): n for p, n in nums.items()})
            for den, nums in map(_int_row, initial.rows)]
    yield from rows[:t_max + 1]
    (level0, num0, den0, shift0), *rest = entries
    for _ in range(spec.time_order - 1, t_max):
        den = lcm(*(c_den * rows[level][0] for level, _, c_den, _ in entries))
        d, nums = rows[level0]
        factor = num0 * (den // (den0 * d))
        acc = {key + shift0: factor * n for key, n in nums.items()}
        get = acc.get
        for level, c_num, c_den, shift in rest:
            d, nums = rows[level]
            factor = c_num * (den // (c_den * d))
            for key, n in nums.items():
                key += shift
                acc[key] = get(key, 0) + factor * n
        if 0 in acc.values():
            acc = {key: n for key, n in acc.items() if n}
        rows = rows[1:] + [(den, acc)]
        yield rows[-1]


def oracle_evolve(spec: EquationSpec, initial: InitialData, t_max: int) -> list[FieldRow]:
    """Rows 0..t_max by repeated stepping; rows 0..time_order-1 equal the
    inputs.  Each row becomes a FieldRow as it is stepped."""
    packing, rows = engine_rows(spec, initial, t_max, "oracle")
    return [FieldRow._over(packing, den, nums) for den, nums in rows]


def sweep_window(psi: FieldRow, j_max: int, right_edge: int) -> Box:
    """A window for oracle_sweep_implicit, kept for bench/ and the tests; the
    program reads only right edges.  Its left edge is support minimum -
    j_max - 1, its right edge j_max past the support, or right_edge if further."""
    box = psi.support_box()
    if box is None:
        raise SpecError("zero initial row needs no sweep window")
    return Box((box.lo[0] - j_max - 1,), (max(box.hi[0] + j_max, right_edge),))


def oracle_sweep_implicit(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                          window: Box, j_max: int) -> list[FieldRow]:
    """Rows 0..j_max of the left-vanishing solution of

        U[i+1, j+1] = a U[i, j+1] + b U[i+1, j] + c U[i, j]

    built left-to-right from psi's left end, where the solution starts: every
    nonzero value up to window.hi, the one edge read, and none past it.  A
    zero psi needs no window; a nonzero one is a SpecError without one, as is
    a coefficient that is not an int or a Fraction."""
    if not type(a) is type(b) is type(c) is Fraction:
        a, b, c = (_as_fraction(v, f"coefficient {n}") for n, v in zip("abc", (a, b, c)))
    if psi.dim != 1:
        raise SpecError("corner-implicit sweep is 1D")
    j_max = _as_count(j_max, "j_max")
    if psi.values and window is None:
        raise SpecError("a nonzero initial row needs a sweep window")
    if not psi.values or window.hi[0] < min(psi.values)[0]:
        return [FieldRow.zero(1) for _ in range(j_max + 1)]
    packing = Packing(Box(min(psi.values), window.hi))
    return [FieldRow._over(packing, den, nums)
            for den, nums in _sweep(a, b, c, psi, packing, j_max)]


def _sweep(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow, packing: Packing,
           j_max: int) -> Iterator[tuple[int, dict[int, int]]]:
    """oracle_sweep_implicit's rows as integer rows keyed in packing,
    stepped as lists over [m - 1, hi], hi >= m the packing's right edge and
    m the nonzero psi's left end; values left of m are 0.  With D the lcm
    of the denominators of a, b, c, row j goes over D^(hi - m + j) L, L
    psi's lcd.  A step up or right adds at most one factor D to a
    denominator, so cell i's value has one dividing D^(i - m + j) L, each
    numerator left of hi is a multiple of D, and with A = D a, B = D b,
    C = D c, N_{j+1}(i+1) = A N_{j+1}(i) // D + B N_j(i+1) + C N_j(i)."""
    scale = lcm(a.denominator, b.denominator, c.denominator)
    na, nb, nc = (v.numerator * (scale // v.denominator) for v in (a, b, c))
    lcd, nums = _int_row(psi)
    hi, lo = packing.box.hi[0], min(nums)[0] - 1
    shift = packing.key((lo,))  # cell lo + x has key shift + x
    lift = scale ** (hi - lo - 1)
    den, prev = lift * lcd, [nums.get((i,), 0) * lift for i in range(lo, hi + 1)]
    yield den, {x + shift: n for x, n in enumerate(prev) if n}
    for _ in range(j_max):
        val, row = 0, [0]
        for x in range(hi - lo):
            val = na * val // scale + nb * prev[x + 1] + nc * prev[x]
            row.append(val)
        den *= scale
        yield den, {x + shift: n for x, n in enumerate(row) if n}
        prev = row


class Mismatch(Record):
    """A (point, time) where the closed form's value differs from the oracle's."""
    __slots__ = ("point", "time", "closed_value", "oracle_value")

    def __init__(self, point: Point, time: int, closed_value: Fraction, oracle_value: Fraction):
        _set(self, "point", point)
        _set(self, "time", time)
        _set(self, "closed_value", closed_value)
        _set(self, "oracle_value", oracle_value)


class VerifyReport(Record):
    """How many (point, time) pairs a verify checked, and its mismatches."""
    __slots__ = ("checked", "mismatches", "max_time")

    def __init__(self, checked: int, mismatches: tuple[Mismatch, ...], max_time: int):
        _set(self, "checked", checked)
        _set(self, "mismatches", mismatches)
        _set(self, "max_time", max_time)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (f"checked {self.checked} points up to time {self.max_time}: "
                f"{len(self.mismatches)} mismatches")


def engine_rows(spec: EquationSpec, initial: InitialData, t_max: int, engine: str,
                box: Box | None = None
                ) -> tuple[Packing, Iterator[tuple[int, dict[int, int]]]]:
    """The query's packing (lattice.query_packing, which checks the
    arguments and holds the query's box when given) and the integer rows
    (den, {key: nonzero numerator}) at times 0..t_max of engine "closed"
    (closed_form._rows, _corner_rows) or "oracle" (_steps, _sweep), keyed
    in it; another name is a SpecError.  A corner-implicit row, which has
    no right end, runs from psi's left end to the box's right edge."""
    if engine not in ("closed", "oracle"):
        raise SpecError(f"unknown engine {engine!r}; use 'closed' or 'oracle'")
    packing = query_packing(spec, initial, t_max, box)
    closed = engine == "closed"
    if not spec.implicit_corner:
        return packing, (closed_form._rows if closed else _steps)(spec, initial, t_max, packing)
    psi = initial.rows[0]
    if not psi.values or packing.box.hi[0] < min(psi.values)[0]:
        return packing, iter([(1, {})] * (t_max + 1))
    rows = closed_form._corner_rows if closed else _sweep
    return packing, rows(*spec.corner_coefficients(), psi, packing, t_max)


def verify_closed_vs_oracle(spec: EquationSpec, initial: InitialData,
                            region: Region | Query | Iterable[tuple[Point, int]],
                            evaluator: str = "auto") -> VerifyReport:
    """Evaluate both engines at every (point, time) of the query, a Region,
    (point, time) pairs or a Query (lattice.Query.of, which checks it), and
    report exact mismatches in point, then time order; mismatches are data,
    not errors.  The oracle's integer rows (engine_rows), keyed in the one
    packing of the query's box, are compared one time at a time
    (_row_mismatches) with the closed form's under "auto", and with a named
    evaluator's values (closed_form.closed_getter) at the asked cells
    otherwise (_evaluated_rows), so no row is kept."""
    initial.check_matches(spec)
    query = Query.of(region, spec.spatial_dim)
    t_max, box = query.t_max, query.box
    packing, oracle_rows = engine_rows(spec, initial, t_max, "oracle", box)
    asked = None
    if evaluator == "auto":
        _, closed_rows = engine_rows(spec, initial, t_max, "closed", box)
    else:
        value = closed_form.closed_getter(spec, initial, evaluator)
        asked, _ = query.asked_keys(packing)
        closed_rows = _evaluated_rows(value, asked, packing, t_max)
    mismatches = _row_mismatches(closed_rows, oracle_rows, query, packing, asked)
    mismatches.sort(key=lambda m: (m.point, m.time))
    return VerifyReport(query.checked, tuple(mismatches), t_max)


def _evaluated_rows(value: Callable[[Point, int], tuple[int, int]],
                    asked: dict[int, dict[int, int]], packing: Packing,
                    t_max: int) -> Iterator[tuple[int, dict[int, int]]]:
    """Integer rows at times 0..t_max of a pointwise evaluator's
    (numerator, denominator) values at the asked keys (Query.asked_keys),
    over their lcm: each distinct asked cell is evaluated once, when its
    row is read."""
    for t in range(t_max + 1):
        keys = list(asked.get(t, ()))
        pairs = [value(p, t) for p in packing.points(keys)]
        den = lcm(*[d for _, d in pairs])
        yield den, {k: n * (den // d) for k, (n, d) in zip(keys, pairs) if n}


def _row_mismatches(closed_rows: Iterable[tuple[int, dict[int, int]]],
                    oracle_rows: Iterable[tuple[int, dict[int, int]]],
                    query: Query, packing: Packing,
                    asked: dict[int, dict[int, int]] | None = None) -> list[Mismatch]:
    """The mismatches among the query's (point, time) pairs, a repeated
    pair once per repeat, in time order, from both engines' integer rows at
    times 0, 1, ..., keyed in packing, each oracle row drawn before its
    closed row.  Both engines drop zero numerators, so one dict comparison
    of equal rows settles a time.  Otherwise only the asked keys of either
    row's support are cross-multiplied (every other asked cell is 0 on both
    sides), and a key is unpacked to its point only for a mismatch.  The
    asked keys, unless given, are packed at the first unequal row: equal
    rows read none.  Given asked keys, the closed rows are a named
    evaluator's, which hold only asked keys, so time t's asked keys are
    read as they are, with no key sets formed."""
    named = asked is not None
    mismatches = []
    for t, ((d_o, o_row), (d_c, c_row)) in enumerate(zip(oracle_rows, closed_rows)):
        if d_c == d_o and c_row == o_row:
            continue
        if asked is None:
            asked, _ = query.asked_keys(packing)
        cells = asked.get(t, {})
        for k in cells if named else (c_row.keys() | o_row.keys()) & cells.keys():
            n_c, n_o = c_row.get(k, 0), o_row.get(k, 0)
            if n_c * d_o != n_o * d_c:
                (p,) = packing.points((k,))
                mismatches += [Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o))] * cells[k]
    return mismatches


def verify_recurrence(values: dict[tuple[Point, int], Fraction],
                      spec: EquationSpec, region: Region):
    """Check the defining relation pointwise on the region interior.

    Returns (True, None) when the recurrence holds exactly at every
    (point, time) with time >= time_order, else (False, first violation) as
    (point, time, lhs, rhs).  A referenced value absent from the map raises
    MissingValueError naming the point.
    """
    if spec.implicit_corner:
        raise SpecError("recurrence substitution check covers explicit forms only")
    k = spec.time_order
    for t in range(max(region.t_lo, k), region.t_hi + 1):
        for p in region.box.points():
            if (p, t) not in values:
                raise MissingValueError(p, t)
            lhs = values[(p, t)]
            rhs = ZERO
            for e in spec.stencil:
                q = tuple(c + o - s for c, o, s in
                          zip(p, e.offset, spec.spatial_shift))
                t_ref = t - k + e.time_level
                if (q, t_ref) not in values:
                    raise MissingValueError(q, t_ref)
                rhs += e.coeff * values[(q, t_ref)]
            if lhs != rhs:
                return False, (p, t, lhs, rhs)
    return True, None
