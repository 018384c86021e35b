"""Ground-truth engine: direct iteration of the recurrences over the
evolving support, a left-to-right sweep for the corner-implicit form on a
window sized from the initial row and the time range, and verifiers that
compare closed-form values against iterated ones exactly.

Each explicit step adds up its new row in integers: the held rows are scaled
to integer numerators over the lcm of their own denominators, the new row
takes one denominator, the lcm over stencil entries of coefficient
denominator times row denominator, and each nonzero cell becomes one
Fraction.  The scaling is the oracle's own; it reads nothing of the closed
form's symbol or powers, so the two engines stay separate algorithms.
verify_recurrence substitutes plain Fractions cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator, Sequence

from . import closed_form
from .exactnum import ZERO
from .lattice import Box, EquationSpec, FieldRow, InitialData, Point, SpecError


class WindowOverflowError(RuntimeError):
    """The corner-implicit sweep's window is too small for its initial row
    and time range; names the violating axis."""

    def __init__(self, axis: int, point: Point, window: Box):
        self.axis = axis
        self.point = point
        self.window = window
        super().__init__(
            f"support left the window on axis {axis}: point {point} outside "
            f"[{window.lo[axis]}, {window.hi[axis]}]")


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


def forward_steps(spec: EquationSpec) -> tuple[Point, Point]:
    """Per-axis (min, max) support displacement of one update:
    spatial_shift - offset over the stencil entries."""
    steps = [tuple(s - o for s, o in zip(spec.spatial_shift, e.offset))
             for e in spec.stencil]
    axes = list(zip(*steps))
    return tuple(map(min, axes)), tuple(map(max, axes))


def auto_window(spec: EquationSpec, initial: InitialData, t_max: int,
                extra: Box | None = None) -> Box | None:
    """Window guaranteed to contain the evolved support up to t_max,
    hulled with an optional extra box (e.g. the query region)."""
    hull = initial.support_hull()
    window = None
    if hull is not None:
        fw_lo, fw_hi = forward_steps(spec)
        window = Box(
            tuple(l + t_max * min(s, 0) for l, s in zip(hull.lo, fw_lo)),
            tuple(h + t_max * max(s, 0) for h, s in zip(hull.hi, fw_hi)),
        )
    if extra is not None:
        window = extra if window is None else window.hull(extra)
    return window


def oracle_step(spec: EquationSpec, state: EvolutionState) -> EvolutionState:
    """Advance one time step: the new row at point e is

        sum over entries of  coeff * rows[time_level](e + offset - shift).

    The sum runs over the held rows' support only, so each new row stays
    sparse and no window bounds it.  It is added up in integers: each held
    row is scaled to integer numerators over the lcm d of its denominators,
    and the new row's denominator is the lcm over the entries of
    coeff.denominator * d, so every term is an integer multiple of one
    numerator.  Each nonzero cell then becomes one Fraction.
    """
    if spec.implicit_corner:
        raise SpecError("the corner-implicit form is not explicitly steppable; "
                        "use oracle_sweep_implicit")
    if len(state.rows) != spec.time_order:
        raise SpecError(f"state holds {len(state.rows)} rows, "
                        f"spec time_order is {spec.time_order}")
    scaled = []
    for row in state.rows:
        d = lcm(*(v.denominator for v in row.values.values()))
        scaled.append((d, {p: v.numerator * (d // v.denominator)
                           for p, v in row.values.items()}))
    den = lcm(*(e.coeff.denominator * scaled[e.time_level][0] for e in spec.stencil))
    acc: dict[Point, int] = {}
    for e in spec.stencil:
        d, nums = scaled[e.time_level]
        factor = e.coeff.numerator * (den // (e.coeff.denominator * d))
        delta = tuple(s - o for s, o in zip(spec.spatial_shift, e.offset))
        for p, n in nums.items():
            key = tuple(map(add, p, delta))
            acc[key] = acc.get(key, 0) + factor * n
    new_row = FieldRow._trusted(spec.spatial_dim,
                                {p: Fraction(v, den) for p, v in acc.items() if v})
    return EvolutionState(state.rows[1:] + (new_row,), state.time + 1)


def oracle_evolve(spec: EquationSpec, initial: InitialData, t_max: int) -> list[FieldRow]:
    """Rows 0..t_max by repeated stepping; rows 0..time_order-1 are the
    inputs verbatim."""
    if t_max < 0:
        raise SpecError("t_max must be >= 0")
    initial.check_matches(spec)
    k = spec.time_order
    out = list(initial.rows[:t_max + 1])
    if t_max < k:
        return out
    state = EvolutionState(initial.rows, k - 1)
    for _ in range(k - 1, t_max):
        state = oracle_step(spec, state)
        out.append(state.newest)
    return out


def sweep_window(psi: FieldRow, j_max: int, right_edge: int | None = None) -> Box:
    """Default window for the corner-implicit sweep: the left edge sits at
    support minimum - j_max - 1, where the left-vanishing solution is zero;
    the right edge reaches j_max past the support (or further on request)."""
    box = psi.support_box()
    if box is None:
        raise SpecError("zero initial row needs no sweep window")
    lo = box.lo[0] - j_max - 1
    hi = box.hi[0] + j_max
    if right_edge is not None:
        hi = max(hi, right_edge)
    return Box((lo,), (hi,))


def oracle_sweep_implicit(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                          window: Box | None, j_max: int) -> list[FieldRow]:
    """Rows 0..j_max of the left-vanishing solution of

        U[i+1, j+1] = a U[i, j+1] + b U[i+1, j] + c U[i, j]

    built left-to-right inside the window from a zero left edge.  Values are
    exact for every window point; support may continue past the right edge.
    """
    if psi.dim != 1:
        raise SpecError("corner-implicit sweep is 1D")
    if j_max < 0:
        raise SpecError("j_max must be >= 0")
    if not psi.values:
        return [FieldRow.zero(1) for _ in range(j_max + 1)]
    if window is None:
        window = sweep_window(psi, j_max)
    box = psi.support_box()
    if box.lo[0] - j_max <= window.lo[0]:
        raise WindowOverflowError(0, (window.lo[0],), window)
    if box.hi[0] > window.hi[0]:
        raise WindowOverflowError(0, (box.hi[0],), window)
    lo, hi = window.lo[0], window.hi[0]
    rows = [psi]
    prev = psi
    for _ in range(j_max):
        acc: dict[Point, Fraction] = {}
        val = ZERO  # U at the left edge of the new row
        for i in range(lo, hi):
            val = a * val + b * prev.get((i + 1,)) + c * prev.get((i,))
            if val != 0:
                acc[(i + 1,)] = val
        new_row = FieldRow._trusted(1, acc)
        rows.append(new_row)
        prev = new_row
    return rows


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


def query_points(query: Query) -> Iterator[tuple[Point, int]]:
    """The query's (point, time) pairs sorted by point, then time; a
    region's are generated as they are read."""
    if isinstance(query, Region):
        return ((p, t) for p in query.box.points()
                for t in range(query.t_lo, query.t_hi + 1))
    return iter(sorted(query))


def query_bounds(query: Query) -> tuple[Box, int]:
    """The smallest box holding every point of the query, and its latest time."""
    if isinstance(query, Region):
        return query.box, query.t_hi
    if not query:
        raise SpecError("the query has no points")
    axes = list(zip(*(p for p, _ in query)))
    return Box(tuple(map(min, axes)), tuple(map(max, axes))), max(t for _, t in query)


def oracle_getter(spec: EquationSpec, initial: InitialData, t_max: int, box: Box):
    """(point, time) -> iterated value for times up to t_max, exact at every
    point of the query box.

    Explicit specs iterate the whole support.  The corner-implicit sweep runs
    on sweep_window with its right edge at the box's right edge."""
    if spec.implicit_corner:
        a, b, c = spec.corner_coefficients()
        psi = initial.rows[0]
        if not psi.values:
            return lambda p, t: ZERO
        rows = oracle_sweep_implicit(
            a, b, c, psi, sweep_window(psi, t_max, right_edge=box.hi[0]), t_max)
    else:
        rows = oracle_evolve(spec, initial, t_max)
    return lambda p, t: rows[t].get(p)


def verify_closed_vs_oracle(spec: EquationSpec, initial: InitialData,
                            region: Query, evaluator: str = "auto") -> VerifyReport:
    """Evaluate both engines at every (point, time) of the query, a Region or
    a list of (point, time) pairs, and report exact mismatches in point,
    then time order.  Mismatches are data, not errors.  The oracle's extent
    follows from the spec, the initial data and the query."""
    initial.check_matches(spec)
    box, t_max = query_bounds(region)
    if box.dim != spec.spatial_dim:
        raise SpecError("region box dimension differs from the spec")
    oracle_get = oracle_getter(spec, initial, t_max, box)
    closed_get = closed_form.closed_getter(spec, initial, t_max, evaluator)
    checked = 0
    mismatches = []
    for p, t in query_points(region):
        cv = closed_get(p, t)
        ov = oracle_get(p, t)
        checked += 1
        if cv != ov:
            mismatches.append(Mismatch(p, t, cv, ov))
    return VerifyReport(checked, tuple(mismatches), t_max)


def rows_to_values(rows: list[FieldRow], box: Box) -> dict[tuple[Point, int], Fraction]:
    """Materialize rows over a box, zeros included, keyed by (point, time)."""
    values = {}
    for t, row in enumerate(rows):
        for p in box.points():
            values[(p, t)] = row.get(p)
    return values


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
