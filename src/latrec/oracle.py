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
powers or kernel.  verify_closed_vs_oracle compares both engines' packed
rows one time at a time, a named evaluator's values cell by cell;
verify_recurrence substitutes plain Fractions at points.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import lcm

from . import closed_form
from .exactnum import ZERO
# auto_window is not called here; it stays importable as oracle.auto_window,
# the name bench/ sizes and traces windows by
from .lattice import (Box, EquationSpec, FieldRow, InitialData, Packing, Point, Record,
                      SpecError, _set, auto_window, query_packing)


class MissingValueError(KeyError):
    """A recurrence check referenced a value absent from the supplied map."""

    def __init__(self, point: Point, time: int):
        self.point = point
        self.time = time
        super().__init__(f"value at point {point}, time {time} is missing")


class Region(Record):
    """Query region: a spatial box crossed with an inclusive time range."""
    __slots__ = ("box", "t_lo", "t_hi")

    def __init__(self, box: Box, t_lo: int, t_hi: int):
        _set(self, "box", box)
        _set(self, "t_lo", t_lo)
        _set(self, "t_hi", t_hi)
        if self.t_lo < 0 or self.t_hi < self.t_lo:
            raise SpecError(f"bad time range [{self.t_lo}, {self.t_hi}]")


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
    coeff.denominator times the held row's den.  Do not change a yielded row."""
    entries = [(e.time_level, e.coeff.numerator, e.coeff.denominator,
                packing.step(spec.spatial_shift) - packing.step(e.offset))
               for e in spec.stencil]
    rows = [(den, {packing.key(p): n for p, n in nums.items()})
            for den, nums in map(_int_row, initial.rows)]
    yield from rows[:t_max + 1]
    for _ in range(spec.time_order - 1, t_max):
        den = lcm(*(c_den * rows[level][0] for level, _, c_den, _ in entries))
        acc: dict[int, int] = {}
        get = acc.get
        for level, c_num, c_den, shift in entries:
            d, nums = rows[level]
            factor = c_num * (den // (c_den * d))
            for key, n in nums.items():
                key += shift
                acc[key] = get(key, 0) + factor * n
        rows = rows[1:] + [(den, {key: n for key, n in acc.items() if n})]
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
    zero psi needs no window; a nonzero one is a SpecError without one."""
    if psi.dim != 1:
        raise SpecError("corner-implicit sweep is 1D")
    if j_max < 0:
        raise SpecError("j_max must be >= 0")
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


Query = Region | Sequence[tuple[Point, int]]


def query_groups(query: Query) -> Iterator[tuple[Point, tuple[int, ...]]]:
    """The query's points, sorted, each with its asked times ascending:
    a region's points are generated as read and share one times tuple; a
    listed point becomes a tuple, and its times keep their repeats."""
    if isinstance(query, Region):
        times = tuple(range(query.t_lo, query.t_hi + 1))
        return ((p, times) for p in query.box.points())
    groups: dict[Point, list[int]] = {}
    for p, t in query:
        groups.setdefault(tuple(p), []).append(t)
    return ((p, tuple(sorted(groups[p]))) for p in sorted(groups))


def query_points(query: Query) -> Iterator[tuple[Point, int]]:
    """The query's (point, time) pairs, sorted: query_groups flattened."""
    return ((p, t) for p, times in query_groups(query) for t in times)


def asked_keys(query: Query, packing: Packing) -> dict[int, dict[int, int]]:
    """time -> {key: times asked} of the query's cells inside the packing,
    packed once (the others are 0 on both engines); a region's, once each."""
    if isinstance(query, Region):
        return dict.fromkeys(range(query.t_lo, query.t_hi + 1),
                             dict.fromkeys(packing.keys(query.box), 1))
    asked: dict[int, dict[int, int]] = {}
    for p, times in query_groups(query):
        if p in packing.box:
            k = packing.key(p)
            for t in times:
                cells = asked.setdefault(t, {})
                cells[k] = cells.get(k, 0) + 1
    return asked


def query_bounds(query: Query) -> tuple[Box, int]:
    """The smallest box holding every point of the query, and its latest time."""
    if isinstance(query, Region):
        return query.box, query.t_hi
    if not query:
        raise SpecError("the query has no points")
    if len({len(p) for p, _ in query}) != 1:
        raise SpecError("the query's points differ in length")
    axes = list(zip(*(p for p, _ in query)))
    return Box(tuple(map(min, axes)), tuple(map(max, axes))), max(t for _, t in query)


def engine_rows(spec: EquationSpec, initial: InitialData, t_max: int, engine: str,
                right_edge: int | None = None
                ) -> tuple[Packing, Iterator[tuple[int, dict[int, int]]]]:
    """The query's packing (lattice.query_packing, which checks the
    arguments) and the integer rows (den, {key: nonzero numerator}) at times
    0..t_max of engine "closed" (closed_form._rows, _corner_rows) or
    "oracle" (_steps, _sweep), keyed in it; another name is a SpecError.  A
    corner-implicit row, which has no right end, runs from psi's left end
    to right_edge."""
    if engine not in ("closed", "oracle"):
        raise SpecError(f"unknown engine {engine!r}; use 'closed' or 'oracle'")
    packing = query_packing(spec, initial, t_max, right_edge)
    closed = engine == "closed"
    if not spec.implicit_corner:
        return packing, (closed_form._rows if closed else _steps)(spec, initial, t_max, packing)
    psi = initial.rows[0]
    if not psi.values or right_edge < min(psi.values)[0]:
        return packing, iter([(1, {})] * (t_max + 1))
    rows = closed_form._corner_rows if closed else _sweep
    return packing, rows(*spec.corner_coefficients(), psi, packing, t_max)


def verify_closed_vs_oracle(spec: EquationSpec, initial: InitialData,
                            region: Query, evaluator: str = "auto") -> VerifyReport:
    """Evaluate both engines at every (point, time) of the query, a Region or
    a list of (point, time) pairs, and report exact mismatches in point,
    then time order; mismatches are data, not errors.  Under "auto" both
    engines' integer rows (engine_rows), keyed in the query's one packing,
    are compared one time at a time (_row_mismatches).  A named evaluator's
    (numerator, denominator) pairs (closed_form.closed_getter) are
    cross-multiplied with the oracle's rows cell by cell, so a Fraction is
    built only for a mismatch."""
    initial.check_matches(spec)
    box, t_max = query_bounds(region)
    if box.dim != spec.spatial_dim:
        raise SpecError("region box dimension differs from the spec")
    packing, oracle_rows = engine_rows(spec, initial, t_max, "oracle", box.hi[0])
    if evaluator == "auto":
        _, closed_rows = engine_rows(spec, initial, t_max, "closed", box.hi[0])
        checked, mismatches = _row_mismatches(closed_rows, oracle_rows, region, packing)
        return VerifyReport(checked, tuple(mismatches), t_max)
    closed_get = closed_form.closed_getter(spec, initial, evaluator)
    oracle_rows = list(oracle_rows)
    checked, mismatches = 0, []
    for p, times in query_groups(region):
        # a point outside the packing has no key and is 0 in every row
        k = packing.key(p) if p in packing.box else None
        for t in times:
            n_c, d_c = closed_get(p, t)
            d_o, n_o = oracle_rows[t][0], oracle_rows[t][1].get(k, 0)
            if n_c * d_o != n_o * d_c:
                mismatches.append(Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o)))
        checked += len(times)
    return VerifyReport(checked, tuple(mismatches), t_max)


def _row_mismatches(closed_rows: Iterable[tuple[int, dict[int, int]]],
                    oracle_rows: Iterable[tuple[int, dict[int, int]]],
                    query: Query, packing: Packing) -> tuple[int, list[Mismatch]]:
    """The number of (point, time) pairs the query asks for, duplicates
    included, and the mismatches among them in point, then time order,
    from both engines' integer rows at times 0, 1, ..., keyed in packing.
    Both engines drop zero numerators, so one dict comparison of equal rows
    settles a time.  Otherwise only the asked keys of either row's support
    are cross-multiplied (every other asked cell is 0 on both sides), and a
    key is unpacked to its point only for a mismatch.  The asked keys are
    packed at the first unequal row: equal rows read none."""
    asked = None
    checked = (query.box.size() * (query.t_hi - query.t_lo + 1)
               if isinstance(query, Region) else len(query))
    mismatches = []
    for t, ((d_c, c_row), (d_o, o_row)) in enumerate(zip(closed_rows, oracle_rows)):
        if d_c == d_o and c_row == o_row:
            continue
        if asked is None:
            asked = asked_keys(query, packing)
        cells = asked.get(t, {})
        for k in (c_row.keys() | o_row.keys()) & cells.keys():
            n_c, n_o = c_row.get(k, 0), o_row.get(k, 0)
            if n_c * d_o != n_o * d_c:
                (p,) = packing.points((k,))
                mismatches += [Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o))] * cells[k]
    mismatches.sort(key=lambda m: (m.point, m.time))
    return checked, mismatches


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
