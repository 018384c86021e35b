"""Lattice points, finite-support grid functions, and equation specifications.

A lattice point is a plain tuple of ints whose length is the spatial
dimension.  A ``FieldRow`` is one time level of data: a sparse map from
points to nonzero rationals (absent means exactly zero).  An
``EquationSpec`` pins down one linear constant-coefficient recurrence

    U[p + shift, t + k] = sum over entries of  coeff * U[p + offset, t + level]

with ``level`` in ``[0, k-1]``.  The corner-implicit 1D form, whose right
side also references the unknown time level, is marked with a flag and a
dedicated coefficient slot instead of an out-of-range entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import index

from .exactnum import ZERO

Point = tuple[int, ...]


class SpecError(ValueError):
    """An equation, field, or parameter violates a structural constraint."""


def _as_point(coords, dim: int, what: str) -> Point:
    try:
        p = tuple(map(index, coords))
    except TypeError:
        raise SpecError(f"{what} {coords!r} is not a sequence of integers") from None
    if len(p) != dim:
        raise SpecError(f"{what} has length {len(p)}, expected spatial dimension {dim}")
    return p


def _as_time_level(level) -> int:
    try:
        return index(level)
    except TypeError:
        raise SpecError(f"time_level {level!r} is not an integer") from None


@dataclass(frozen=True)
class Box:
    """Closed per-axis interval box [lo[i], hi[i]]."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise SpecError("box lo/hi dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise SpecError(f"empty box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def hull(self, other: "Box") -> "Box":
        return Box(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def points(self):
        """Iterate all lattice points, last axis fastest (lexicographic)."""
        return product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def size(self) -> int:
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l + 1
        return n


@dataclass(frozen=True)
class StencilEntry:
    offset: Point
    time_level: int
    coeff: Fraction


@dataclass(frozen=True)
class EquationSpec:
    """Stencil, shifts and dimensions of one linear partial difference equation.

    ``implicit_corner`` marks the 1D one-step corner form

        U[i+1, j+1] = implicit_coeff * U[i, j+1]  +  (explicit stencil terms)

    where the explicit terms follow the ordinary convention above with
    spatial_shift = (1,).
    """

    spatial_dim: int
    time_order: int
    spatial_shift: Point
    stencil: tuple[StencilEntry, ...]
    implicit_corner: bool = False
    implicit_coeff: Fraction | None = None

    def __post_init__(self):
        if self.spatial_dim < 1:
            raise SpecError("spatial_dim must be >= 1")
        if self.time_order < 1:
            raise SpecError("time_order must be >= 1")
        object.__setattr__(self, "spatial_shift",
                           _as_point(self.spatial_shift, self.spatial_dim, "spatial_shift"))
        entries = tuple(
            StencilEntry(_as_point(e.offset, self.spatial_dim, "stencil offset"),
                         _as_time_level(e.time_level), Fraction(e.coeff))
            for e in self.stencil
            if e.coeff != 0
        )
        object.__setattr__(self, "stencil", entries)
        if not entries:
            raise SpecError("stencil needs at least one entry with nonzero coeff")
        seen = set()
        for e in entries:
            if not 0 <= e.time_level < self.time_order:
                raise SpecError(
                    f"time_level {e.time_level} outside [0, {self.time_order - 1}]")
            key = (e.offset, e.time_level)
            if key in seen:
                raise SpecError(f"duplicate stencil entry at {key}")
            seen.add(key)
        if self.implicit_corner:
            if self.spatial_dim != 1 or self.time_order != 1:
                raise SpecError("implicit_corner requires spatial_dim=1 and time_order=1")
            if self.implicit_coeff is None:
                raise SpecError("implicit_corner spec needs implicit_coeff")
            if self.spatial_shift != (1,):
                raise SpecError("corner-implicit spec must have spatial_shift (1,)")
            for e in entries:
                if e.offset not in ((0,), (1,)):
                    raise SpecError(
                        f"corner-implicit stencil offset {e.offset} not in {{(0,), (1,)}}")
            object.__setattr__(self, "implicit_coeff", Fraction(self.implicit_coeff))
        elif self.implicit_coeff is not None:
            raise SpecError("implicit_coeff is only meaningful with implicit_corner")

    def corner_coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) of the corner form U[i+1,j+1] = a U[i,j+1] + b U[i+1,j] + c U[i,j]
        of a corner-implicit spec, whose shape __post_init__ has checked."""
        coeffs = {e.offset: e.coeff for e in self.stencil}
        return self.implicit_coeff, coeffs.get((1,), ZERO), coeffs.get((0,), ZERO)


@dataclass(frozen=True)
class FieldRow:
    """Finite-support map from lattice points to nonzero rationals.

    Treat instances as immutable.
    """

    dim: int
    values: dict[Point, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for p, v in self.values.items():
            p = _as_point(p, self.dim, "field point")
            v = Fraction(v)
            if v != 0:
                clean[p] = v
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(cls, dim: int, values: dict[Point, Fraction]) -> "FieldRow":
        """A row over `values` as given, without __post_init__'s checks: for
        internal producers whose keys are int tuples of length dim and whose
        values are nonzero Fractions.  The row takes ownership of the dict."""
        row = object.__new__(cls)
        object.__setattr__(row, "dim", dim)
        object.__setattr__(row, "values", values)
        return row

    @classmethod
    def delta(cls, dim: int = 1) -> "FieldRow":
        """Unit mass at the origin."""
        return cls(dim, {(0,) * dim: Fraction(1)})

    @classmethod
    def zero(cls, dim: int = 1) -> "FieldRow":
        return cls(dim, {})

    def get(self, p: Point) -> Fraction:
        if len(p) != self.dim:
            raise SpecError(f"point of length {len(p)} queried in a dim-{self.dim} field")
        return self.values.get(tuple(p), ZERO)

    def support_box(self) -> Box | None:
        """Tight per-axis bounds of the support; None for the zero field."""
        if not self.values:
            return None
        lo = [min(p[i] for p in self.values) for i in range(self.dim)]
        hi = [max(p[i] for p in self.values) for i in range(self.dim)]
        return Box(tuple(lo), tuple(hi))

    def total(self) -> Fraction:
        return sum(self.values.values(), ZERO)

    def sorted_items(self):
        return sorted(self.values.items())


@dataclass(frozen=True)
class InitialData:
    """The first time_order rows; row t is the data at time t."""

    rows: tuple[FieldRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise SpecError("initial data needs at least one row")
        dim = self.rows[0].dim
        if any(r.dim != dim for r in self.rows):
            raise SpecError("initial rows disagree on dimension")

    @property
    def dim(self) -> int:
        return self.rows[0].dim

    def check_matches(self, spec: EquationSpec) -> None:
        if len(self.rows) != spec.time_order:
            raise SpecError(
                f"{len(self.rows)} initial rows given, spec time_order is {spec.time_order}")
        if self.dim != spec.spatial_dim:
            raise SpecError(
                f"initial data dim {self.dim} != spec spatial_dim {spec.spatial_dim}")

    def support_hull(self) -> Box | None:
        hull = None
        for r in self.rows:
            b = r.support_box()
            if b is not None:
                hull = b if hull is None else hull.hull(b)
        return hull

