"""Ground-truth engine: direct iteration of the recurrences over the
evolving support, a left-to-right sweep for the corner-implicit form from
the initial row's left end to a right edge, and verifiers that compare
closed-form values against iterated ones exactly.

The stepping and the sweep give integer rows (den, {point: nonzero
numerator}), not reduced.  A step keys each point by one int packed from
its offset to auto_window's low corner, with no digit carries, so a stencil
shift is one int addition; it goes over the lcm of coefficient times
held-row denominators, so every term is an integer multiple of one held
numerator, and _evolve unpacks each row to point keys once.  The sweep
holds a row as a list up to its right edge.  oracle_evolve, oracle_step and
oracle_sweep_implicit build a Fraction per cell.  The oracle reads nothing
of the closed form's symbol, powers or kernel.  verify_closed_vs_oracle
compares both engines' rows one time at a time, a named evaluator's values
cell by cell; verify_recurrence substitutes plain Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import le, mul, sub
from typing import Iterable, Iterator, Sequence

from . import closed_form
from .exactnum import ZERO
from .lattice import Box, EquationSpec, FieldRow, InitialData, Point, SpecError


class MissingValueError(KeyError):
    """A recurrence check referenced a value absent from the supplied map."""

    def __init__(self, point: Point, time: int):
        self.point = point
        self.time = time
        super().__init__(f"value at point {point}, time {time} is missing")


@dataclass(frozen=True)
class Region:
    """Query region: a spatial box crossed with an inclusive time range."""

    box: Box
    t_lo: int
    t_hi: int

    def __post_init__(self):
        if self.t_lo < 0 or self.t_hi < self.t_lo:
            raise SpecError(f"bad time range [{self.t_lo}, {self.t_hi}]")


@dataclass(frozen=True)
class EvolutionState:
    """The most recent time_order rows; rows[-1] is the row at `time`.
    Rows are sparse, so the state has no spatial bound."""

    rows: tuple[FieldRow, ...]
    time: int

    @property
    def newest(self) -> FieldRow:
        return self.rows[-1]


def auto_window(spec: EquationSpec, initial: InitialData, t_max: int,
                extra: Box | None = None) -> Box | None:
    """Window guaranteed to contain the evolved support up to t_max,
    hulled with an optional extra box (e.g. the query region): each update
    moves the support by spatial_shift - offset over the stencil entries."""
    hull = initial.support_hull()
    window = None
    if hull is not None:
        # per axis, the displacement of every entry
        axes = list(zip(*(map(sub, spec.spatial_shift, e.offset) for e in spec.stencil)))
        window = Box(tuple(l + t_max * min(0, *a) for l, a in zip(hull.lo, axes)),
                     tuple(h + t_max * max(0, *a) for h, a in zip(hull.hi, axes)))
    if extra is not None:
        window = extra if window is None else window.hull(extra)
    return window


def _int_row(row: FieldRow) -> tuple[int, dict[Point, int]]:
    """A FieldRow as (d, numerators) over d, the lcm of its denominators."""
    d = lcm(*(v.denominator for v in row.values.values()))
    return d, {p: v.numerator * (d // v.denominator) for p, v in row.values.items()}


def _check_steppable(spec: EquationSpec) -> None:
    if spec.implicit_corner:
        raise SpecError("the corner-implicit form is not explicitly steppable; "
                        "use oracle_sweep_implicit")


def oracle_step(spec: EquationSpec, state: EvolutionState) -> EvolutionState:
    """Advance one time step: the new row at point e is

        sum over entries of  coeff * rows[time_level](e + offset - shift).

    The sum runs over the held rows' support only, so each new row stays
    sparse and no window bounds it.  It is the one step of _evolve, from
    the held rows as initial data; each nonzero cell of the new row then
    becomes one Fraction.
    """
    _check_steppable(spec)
    if len(state.rows) != spec.time_order:
        raise SpecError(f"state holds {len(state.rows)} rows, "
                        f"spec time_order is {spec.time_order}")
    *_, (den, nums) = _evolve(spec, InitialData(state.rows), spec.time_order)
    new_row = FieldRow._over(spec.spatial_dim, den, nums)
    return EvolutionState(state.rows[1:] + (new_row,), state.time + 1)


def _evolve(spec: EquationSpec, initial: InitialData,
            t_max: int) -> Iterator[tuple[int, dict[Point, int]]]:
    """Rows 0..t_max as integer rows (den, {point: nonzero numerator}),
    stepped as they are read; the arguments are checked before the first
    row is asked for."""
    if t_max < 0:
        raise SpecError("t_max must be >= 0")
    initial.check_matches(spec)
    if t_max >= spec.time_order:
        _check_steppable(spec)
    return _steps(spec, initial, t_max)


def _steps(spec: EquationSpec, initial: InitialData,
           t_max: int) -> Iterator[tuple[int, dict[Point, int]]]:
    """The stepping kernel behind _evolve.

    Held rows are keyed by one int per point.  auto_window bounds the
    support up to t_max; offset by the window's low corner, every
    coordinate is a digit in [0, radix) on its axis, the last axis lowest,
    so a point packs without a carry and each entry's shift
    spatial_shift - offset is one int added to the key.  A new row's
    denominator is the lcm over the entries of coeff.denominator times the
    held row's den, so every term is an integer multiple of one held
    numerator.  Each stepped row is unpacked to point keys, column by
    column, once."""
    dim = spec.spatial_dim
    window = auto_window(spec, initial, t_max) or Box((0,) * dim, (0,) * dim)
    radices = [hi - lo + 1 for lo, hi in zip(window.lo, window.hi)]
    # each axis's unit is the product of the radices of the axes after it
    units = [1]
    for radix in radices[:0:-1]:
        units.insert(0, units[0] * radix)
    base = sum(map(mul, window.lo, units))
    entries = [(e.time_level, e.coeff.numerator, e.coeff.denominator,
                sum(map(mul, map(sub, spec.spatial_shift, e.offset), units)))
               for e in spec.stencil]
    axes = list(zip(units, radices, window.lo))
    rows = []
    for row in initial.rows:
        den, nums = _int_row(row)
        if len(rows) <= t_max:
            yield den, nums
        rows.append((den, {sum(map(mul, p, units)) - base: n for p, n in nums.items()}))
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
        nums = {key: n for key, n in acc.items() if n}
        rows = rows[1:] + [(den, nums)]
        keys = list(nums)
        columns = [[k // u % radix + lo for k in keys] for u, radix, lo in axes]
        yield den, dict(zip(zip(*columns), nums.values()))


def oracle_evolve(spec: EquationSpec, initial: InitialData, t_max: int) -> list[FieldRow]:
    """Rows 0..t_max by repeated stepping; rows 0..time_order-1 equal the
    inputs.  Each row becomes a FieldRow as it is stepped."""
    dim = spec.spatial_dim
    return [FieldRow._over(dim, den, nums) for den, nums in _evolve(spec, initial, t_max)]


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
    zero psi needs no window."""
    if psi.dim != 1:
        raise SpecError("corner-implicit sweep is 1D")
    if j_max < 0:
        raise SpecError("j_max must be >= 0")
    if not psi.values or window.hi[0] < min(psi.values)[0]:
        return [FieldRow.zero(1) for _ in range(j_max + 1)]
    return [FieldRow._over(1, den, nums)
            for den, nums in _sweep(a, b, c, psi, window.hi[0], j_max)]


def _sweep(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow, hi: int,
           j_max: int) -> Iterator[tuple[int, dict[Point, int]]]:
    """oracle_sweep_implicit's rows as integer rows, stepped as lists over
    [m - 1, hi], m <= hi the nonzero psi's left end; values left of m are 0.
    With D the lcm of the denominators of a, b, c, row j goes over
    D^(hi - m + j + 1) L, L psi's lcd.  A step up or right adds at most one
    factor D to a denominator, so each numerator left of hi is a multiple of
    D, and with A = D a, B = D b, C = D c,
    N_{j+1}(i+1) = A N_{j+1}(i) // D + B N_j(i+1) + C N_j(i)."""
    scale = lcm(a.denominator, b.denominator, c.denominator)
    na, nb, nc = (v.numerator * (scale // v.denominator) for v in (a, b, c))
    lcd, nums = _int_row(psi)
    lo = min(nums)[0] - 1
    lift = scale ** (hi - lo)
    den, prev = lift * lcd, [nums.get((i,), 0) * lift for i in range(lo, hi + 1)]
    yield den, {(lo + x,): n for x, n in enumerate(prev) if n}
    for _ in range(j_max):
        val, row = 0, [0]
        for x in range(hi - lo):
            val = na * val // scale + nb * prev[x + 1] + nc * prev[x]
            row.append(val)
        den *= scale
        yield den, {(lo + x,): n for x, n in enumerate(row) if n}
        prev = row


@dataclass(frozen=True)
class Mismatch:
    point: Point
    time: int
    closed_value: Fraction
    oracle_value: Fraction


@dataclass(frozen=True)
class VerifyReport:
    checked: int
    mismatches: tuple[Mismatch, ...]
    max_time: int

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


def asked_cells(query: Query) -> dict[int, dict[Point, int] | None]:
    """time -> the cells the query asks for at that time: None for a
    region, which asks its whole box at every time of its range, else
    {point: how often the pair is listed}, from query_groups."""
    if isinstance(query, Region):
        return dict.fromkeys(range(query.t_lo, query.t_hi + 1))
    asked: dict[int, dict[Point, int]] = {}
    for p, times in query_groups(query):
        for t in times:
            cells = asked.setdefault(t, {})
            cells[p] = cells.get(p, 0) + 1
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
                right_edge: int | None = None) -> Iterator[tuple[int, dict[Point, int]]]:
    """The integer rows (den, {point: nonzero numerator}) at times 0..t_max
    by which engine, "closed" or "oracle", answers the spec: closed_form._rows
    or _evolve.  A corner-implicit row, which has no right end, runs from
    psi's left end, where it starts, to right_edge, which it requires."""
    if t_max < 0:
        raise SpecError("t_max must be >= 0")
    if not spec.implicit_corner:
        return (closed_form._rows if engine == "closed" else _evolve)(spec, initial, t_max)
    if right_edge is None:
        raise SpecError("corner-implicit rows have infinite support; give a right edge")
    initial.check_matches(spec)
    psi = initial.rows[0]
    if not psi.values or right_edge < min(psi.values)[0]:
        return iter([(1, {})] * (t_max + 1))
    if engine == "closed":
        return closed_form._rows(spec, initial, t_max, right_edge)
    return _sweep(*spec.corner_coefficients(), psi, right_edge, t_max)


def verify_closed_vs_oracle(spec: EquationSpec, initial: InitialData,
                            region: Query, evaluator: str = "auto") -> VerifyReport:
    """Evaluate both engines at every (point, time) of the query, a Region or
    a list of (point, time) pairs, and report exact mismatches in point,
    then time order.  Mismatches are data, not errors.  The oracle's extent
    follows from the spec, the initial data and the query.

    Under "auto" both engines' integer rows (engine_rows) are compared one
    time at a time (_row_mismatches).  A named evaluator's (numerator,
    denominator) pairs (closed_form.closed_getter) are read against the
    oracle's rows cell by cell; n_c / d_c equals n_o / d_o exactly when
    n_c * d_o == n_o * d_c, so a Fraction is built only for a mismatch."""
    initial.check_matches(spec)
    box, t_max = query_bounds(region)
    if box.dim != spec.spatial_dim:
        raise SpecError("region box dimension differs from the spec")
    if evaluator == "auto":
        checked, mismatches = _row_mismatches(
            engine_rows(spec, initial, t_max, "closed", box.hi[0]),
            engine_rows(spec, initial, t_max, "oracle", box.hi[0]), region)
        return VerifyReport(checked, tuple(mismatches), t_max)
    closed_get = closed_form.closed_getter(spec, initial, evaluator)
    oracle_rows = list(engine_rows(spec, initial, t_max, "oracle", box.hi[0]))
    points = list(query_points(region))
    mismatches = []
    for p, t in points:
        n_c, d_c = closed_get(p, t)
        d_o, n_o = oracle_rows[t][0], oracle_rows[t][1].get(p, 0)
        if n_c * d_o != n_o * d_c:
            mismatches.append(Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o)))
    return VerifyReport(len(points), tuple(mismatches), t_max)


def _row_mismatches(closed_rows: Iterable[tuple[int, dict[Point, int]]],
                    oracle_rows: Iterable[tuple[int, dict[Point, int]]],
                    query: Query) -> tuple[int, list[Mismatch]]:
    """The number of (point, time) pairs the query asks for, duplicates
    included, and the mismatches among them in point, then time order,
    from both engines' integer rows at times 0, 1, ...

    Both engines drop zero numerators, so rows with equal denominators and
    equal numerator maps are equal everywhere, and one dict comparison
    settles that time.  Otherwise only the asked cells of either row's
    support are cross-multiplied: every other asked cell is 0 on both
    sides."""
    asked = asked_cells(query)
    if isinstance(query, Region):
        lo, hi = query.box.lo, query.box.hi
        checked = query.box.size() * len(asked)
    else:
        checked = len(query)
    mismatches = []
    for t, ((d_c, c_row), (d_o, o_row)) in enumerate(zip(closed_rows, oracle_rows)):
        if t not in asked or (d_c == d_o and c_row == o_row):
            continue
        cells = asked[t]
        for p in c_row.keys() | o_row.keys():
            if cells is None:
                if not (all(map(le, lo, p)) and all(map(le, p, hi))):
                    continue
                repeats = 1
            else:
                repeats = cells.get(p)
                if repeats is None:
                    continue
            n_c, n_o = c_row.get(p, 0), o_row.get(p, 0)
            if n_c * d_o != n_o * d_c:
                mismatches += [Mismatch(p, t, Fraction(n_c, d_c), Fraction(n_o, d_o))] * repeats
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
