"""Lattice points, finite-support grid functions, and equation specifications.

A lattice point is a plain tuple of ints whose length is the spatial
dimension.  A ``FieldRow`` is one time level of data: a sparse map from
points to nonzero rationals (absent means exactly zero).  An
``EquationSpec`` pins down one linear constant-coefficient recurrence

    U[p + shift, t + k] = sum over entries of  coeff * U[p + offset, t + level]

with ``level`` in ``[0, k-1]``.  The corner-implicit 1D form, whose right
side also references the unknown time level, is marked with a flag and a
dedicated coefficient slot instead of an out-of-range entry.  A ``Packing``
keys the points of one box by ints; ``query_packing`` sizes the one packing
of a query to hold both engines' rows and the query's box, so every asked
cell has a key.  Every record type of the library is a frozen ``__slots__``
class on ``Record``.

Two readers take every number the library is given: ``_as_count`` reads a
time, a step count, a power, an index or a ``t_max`` as an int >= 0, and
``_as_fraction`` reads a coefficient, a probability or a field value as a
``Fraction`` (an int or any ``numbers.Rational`` is converted, a Fraction is
kept as it is).  Anything else, a float, a string or None among them, is a
``SpecError`` naming the input: there is no tolerance, so no float is read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from numbers import Rational
from operator import index, le, mul, sub

from .exactnum import ZERO

Point = tuple[int, ...]
_set = object.__setattr__


class SpecError(ValueError):
    """An equation, field, or parameter violates a structural constraint."""


class Record:
    """A frozen record: its fields are its class's __slots__, set only by
    the class's __init__, through _set (object.__setattr__).  Records
    compare, hash and repr by their fields' values, as frozen dataclasses
    do, refuse assignment and deletion, and copy and pickle by calling the
    class on their fields."""
    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_ints(coords, what: str) -> Point:
    try:
        return tuple(map(index, coords))
    except TypeError:
        raise SpecError(f"{what} {coords!r} is not a sequence of integers") from None


def _check_dim(p: Point, dim: int, what: str) -> Point:
    if len(p) != dim:
        raise SpecError(f"{what} has length {len(p)}, expected spatial dimension {dim}")
    return p


def _as_point(coords, dim: int, what: str) -> Point:
    return _check_dim(_as_ints(coords, what), dim, what)


def _as_int(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise SpecError(f"{what} {value!r} is not an integer") from None


def _as_count(value, what: str) -> int:
    """value as an int >= 0: the one reader of a time, a step count, a
    power or an index."""
    if (n := _as_int(value, what)) < 0:
        raise SpecError(f"{what} must be >= 0")
    return n


def _as_fraction(value, what: str) -> Fraction:
    """value as a Fraction, a Fraction given as itself: the one reader of a
    coefficient, a probability or a field value.  An int or any other
    numbers.Rational is converted; a float, a string or None is refused."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise SpecError(f"{what} {value!r} is not an integer or a fraction")


class Box(Record):
    """Closed per-axis interval box [lo[i], hi[i]], its corners read as
    tuples of ints."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Point, hi: Point):
        _set(self, "lo", _as_ints(lo, "box corner"))
        _set(self, "hi", _as_ints(hi, "box corner"))
        if len(self.lo) != len(self.hi):
            raise SpecError("box lo/hi dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise SpecError(f"empty box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def hull(self, other: "Box") -> "Box":
        return Box(tuple(map(min, self.lo, other.lo)), tuple(map(max, self.hi, other.hi)))

    def __contains__(self, p) -> bool:
        return all(map(le, self.lo, p)) and all(map(le, p, self.hi))

    def points(self):
        """Iterate all lattice points, last axis fastest (lexicographic)."""
        return product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def size(self) -> int:
        return prod(h - l + 1 for l, h in zip(self.lo, self.hi))


class StencilEntry(Record):
    """One term coeff * U[p + offset, t + time_level] of a stencil.  The
    fields are normalised here, once: offset to a tuple of ints, time_level
    to an int and coeff to a Fraction."""
    __slots__ = ("offset", "time_level", "coeff")

    def __init__(self, offset: Point, time_level: int, coeff: Fraction):
        _set(self, "offset", _as_ints(offset, "stencil offset"))
        _set(self, "time_level", _as_int(time_level, "time_level"))
        _set(self, "coeff", _as_fraction(coeff, "stencil coefficient"))


class EquationSpec(Record):
    """Stencil, shifts and dimensions of one linear partial difference equation.

    ``implicit_corner`` marks the 1D one-step corner form

        U[i+1, j+1] = implicit_coeff * U[i, j+1]  +  (explicit stencil terms)

    where the explicit terms follow the ordinary convention above with
    spatial_shift = (1,).
    """
    __slots__ = ("spatial_dim", "time_order", "spatial_shift", "stencil", "implicit_corner",
                 "implicit_coeff")

    def __init__(self, spatial_dim: int, time_order: int, spatial_shift: Point,
                 stencil: tuple[StencilEntry, ...], implicit_corner: bool = False,
                 implicit_coeff: Fraction | None = None):
        _set(self, "spatial_dim", _as_int(spatial_dim, "spatial_dim"))
        _set(self, "time_order", _as_int(time_order, "time_order"))
        _set(self, "spatial_shift", spatial_shift)
        _set(self, "stencil", stencil)
        _set(self, "implicit_corner", implicit_corner)
        _set(self, "implicit_coeff", implicit_coeff)
        if self.spatial_dim < 1:
            raise SpecError("spatial_dim must be >= 1")
        if self.time_order < 1:
            raise SpecError("time_order must be >= 1")
        object.__setattr__(self, "spatial_shift",
                           _as_point(self.spatial_shift, self.spatial_dim, "spatial_shift"))
        # the entries are kept as given: each StencilEntry normalised its own
        # fields, and only the checks against this spec remain
        entries = tuple(e for e in self.stencil if e.coeff != 0)
        for e in entries:
            _check_dim(e.offset, self.spatial_dim, "stencil offset")
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
            if self.spatial_shift != (1,):
                raise SpecError("corner-implicit spec must have spatial_shift (1,)")
            for e in entries:
                if e.offset not in ((0,), (1,)):
                    raise SpecError(
                        f"corner-implicit stencil offset {e.offset} not in {{(0,), (1,)}}")
            object.__setattr__(self, "implicit_coeff",
                               _as_fraction(self.implicit_coeff, "implicit_coeff"))
        elif self.implicit_coeff is not None:
            raise SpecError("implicit_coeff is only meaningful with implicit_corner")

    def corner_coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) of the corner form U[i+1,j+1] = a U[i,j+1] + b U[i+1,j] + c U[i,j]
        of a corner-implicit spec, whose shape __init__ has checked."""
        coeffs = {e.offset: e.coeff for e in self.stencil}
        return self.implicit_coeff, coeffs.get((1,), ZERO), coeffs.get((0,), ZERO)


class FieldRow(Record):
    """Finite-support map from lattice points to nonzero rationals.

    Treat instances as immutable.
    """
    __slots__ = ("dim", "values")

    def __init__(self, dim: int, values: dict[Point, Fraction] | None = None):
        _set(self, "dim", _as_int(dim, "field dim"))
        clean = {}
        for p, v in (values or {}).items():
            p = _as_point(p, self.dim, "field point")
            if v := _as_fraction(v, "field value"):
                clean[p] = v
        object.__setattr__(self, "values", clean)

    @classmethod
    def _trusted(cls, dim: int, values: dict[Point, Fraction]) -> "FieldRow":
        """A row over `values` as given, without __init__'s checks: for
        internal producers whose keys are int tuples of length dim and whose
        values are nonzero Fractions.  The row takes ownership of the dict."""
        row = object.__new__(cls)
        object.__setattr__(row, "dim", dim)
        object.__setattr__(row, "values", values)
        return row

    @classmethod
    def _over(cls, packing: Packing, den: int, nums: dict[int, int]) -> "FieldRow":
        """The row of an integer row (den > 0, {key: nonzero numerator})."""
        return cls._trusted(packing.box.dim, {p: Fraction(n, den) for p, n in
                                              zip(packing.points(nums), nums.values())})

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
        axes = list(zip(*self.values))
        return Box(tuple(map(min, axes)), tuple(map(max, axes)))

    def total(self) -> Fraction:
        return sum(self.values.values(), ZERO)

    def sorted_items(self):
        return sorted(self.values.items())


class InitialData(Record):
    """The first time_order rows; row t is the data at time t."""
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[FieldRow, ...]):
        _set(self, "rows", tuple(rows))
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


def auto_window(spec: EquationSpec, initial: InitialData, t_max: int,
                extra: Box | None = None) -> Box | None:
    """Window guaranteed to contain the evolved support up to t_max, and so
    every term of either engine's rows, hulled with an optional extra box
    (query_packing's box, from the query's box): each update moves the
    support by spatial_shift - offset over the stencil entries."""
    t_max, hull = _as_count(t_max, "t_max"), initial.support_hull()
    window = None
    if hull is not None:
        # per axis, the displacement of every entry
        axes = list(zip(*(map(sub, spec.spatial_shift, e.offset) for e in spec.stencil)))
        window = Box(tuple(l + t_max * min(0, *a) for l, a in zip(hull.lo, axes)),
                     tuple(h + t_max * max(0, *a) for h, a in zip(hull.hi, axes)))
    if extra is not None:
        window = extra if window is None else window.hull(extra)
    return window


class Packing:
    """One int key per point of `box`: its offsets from box.lo as digits,
    the last axis lowest, so keys sort as their points do.  A key is linear
    in its point: a shift by v adds step(v).  The int of a point outside the
    box may equal an inside point's key, so it is never looked up, and rows
    and queries keyed here must stay in the box: query_packing sizes it to
    their reach and the query's box, and a packing checks nothing."""

    def __init__(self, box: Box):
        self.box, radices = box, [h - l + 1 for l, h in zip(box.lo, box.hi)]
        self.units = [prod(radices[i + 1:]) for i in range(len(radices))]
        self.base = self.step(box.lo)
        self._axes = list(zip(self.units, radices, box.lo))

    def step(self, vector) -> int:
        return sum(map(mul, vector, self.units))

    def key(self, p: Point) -> int:
        return self.step(p) - self.base

    def keys(self, box: Box) -> list[int]:
        """The keys of the points of box, which the packing's box holds."""
        return list(map(sum, product(*[range((a - l) * u, (b - l) * u + 1, u)
                                       for a, b, l, u in zip(box.lo, box.hi, self.box.lo,
                                                             self.units)])))

    def points(self, keys) -> list[Point]:
        """The point of each key, in order: the one unpack."""
        if len(self._axes) == 1:
            return [(k + self.box.lo[0],) for k in keys]
        return list(zip(*[[k // u % r + l for k in keys] for u, r, l in self._axes]))


def query_packing(spec: EquationSpec, initial: InitialData, t_max: int,
                  box: Box | None = None) -> Packing:
    """The one packing of a query's rows 0..t_max on both engines, holding
    the query's box when given: auto_window's box hulled with it (the
    origin for zero rows and no box), or for the corner form, whose rows
    have no right end, the box and psi's left end to the box's right edge."""
    t_max = _as_count(t_max, "t_max")
    initial.check_matches(spec)
    if not spec.implicit_corner:
        zero = (0,) * spec.spatial_dim
        return Packing(auto_window(spec, initial, t_max, box) or Box(zero, zero))
    if box is None:
        raise SpecError("corner-implicit rows have infinite support; give a right edge")
    left = min([box.lo[0], *(x for x, in initial.rows[0].values)])
    return Packing(Box((left,), box.hi))


class Region(Record):
    """Query region: a spatial box crossed with an inclusive time range,
    its times read as ints."""
    __slots__ = ("box", "t_lo", "t_hi")

    def __init__(self, box: Box, t_lo: int, t_hi: int):
        _set(self, "box", box)
        _set(self, "t_lo", _as_int(t_lo, "query time"))
        _set(self, "t_hi", _as_int(t_hi, "query time"))
        if self.t_lo < 0 or self.t_hi < self.t_lo:
            raise SpecError(f"bad time range [{self.t_lo}, {self.t_hi}]")


class Query(Record):
    """The (point, time) pairs a solve or verify asks for, as blocks: (Box,
    times ascending) pairs sorted by point, each point of a box asked at
    each of its times.  Query.of is the one reader of a query's form."""
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[Box, tuple[int, ...]], ...]):
        _set(self, "blocks", blocks)

    @classmethod
    def of(cls, query, dim: int) -> "Query":
        """A Query as it is, a Region as one block (its box, its time range),
        (point, time) pairs as one one-point block per distinct point, with
        repeated times kept.  A query that is none of these, an item that is
        not a (point, time) pair, a point not of length dim, a coordinate or
        time that is not an int, a negative time or no pairs is a SpecError."""
        if isinstance(query, Query):
            _check_dim(query.box.lo, dim, "query point")
            return query
        if isinstance(query, Region):
            _check_dim(query.box.lo, dim, "query box corner")
            return cls(((query.box, tuple(range(query.t_lo, query.t_hi + 1))),))
        try:
            pairs = iter(query)
        except TypeError:
            raise SpecError(f"query {query!r} is not a Region or (point, time) pairs") from None
        groups: dict[Point, list[int]] = {}
        for pair in pairs:
            try:
                p, t = pair
            except (TypeError, ValueError):
                raise SpecError(f"query pair {pair!r} is not a (point, time) pair") from None
            if (t := _as_int(t, "query time")) < 0:
                raise SpecError(f"query time {t} must be >= 0")
            groups.setdefault(_as_point(p, dim, "query point"), []).append(t)
        if not groups:
            raise SpecError("the query has no points")
        return cls(tuple((Box(p, p), tuple(sorted(ts))) for p, ts in sorted(groups.items())))

    def groups(self):
        """Each asked point, sorted, with its block's one times tuple."""
        return ((p, times) for box, times in self.blocks for p in box.points())

    @property
    def box(self) -> Box:
        """The smallest box holding every asked point."""
        los, his = zip(*[(box.lo, box.hi) for box, _ in self.blocks])
        return Box(tuple(map(min, zip(*los))), tuple(map(max, zip(*his))))

    @property
    def t_max(self) -> int:
        return max(times[-1] for _, times in self.blocks)

    @property
    def checked(self) -> int:
        """The number of asked (point, time) pairs, repeats included."""
        return sum(box.size() * len(times) for box, times in self.blocks)

    def cut(self, t_max: int) -> "Query | None":
        """The query without its times after t_max; None when none is left."""
        blocks = tuple((box, cut) for box, times in self.blocks
                       if (cut := tuple(t for t in times if t <= t_max)))
        return Query(blocks) if blocks else None

    def asked_keys(self, packing: Packing) -> tuple[dict[int, dict[int, int]], list[list[int]]]:
        """time -> {key: times asked} of the asked cells, in a packing that
        holds the query's box, and each block's keys in its box's point
        order, each box packed once; the times one block alone asks share
        its one dict."""
        asked: dict[int, dict[int, int]] = {}
        merged, block_keys = set(), [packing.keys(box) for box, _ in self.blocks]
        for (_, times), keys in zip(self.blocks, block_keys):
            cells = dict.fromkeys(keys, 1)
            for t in times:
                if t not in asked:
                    asked[t] = cells
                    continue
                if t not in merged:
                    merged.add(t)
                    asked[t] = dict(asked[t])
                for k in cells:
                    asked[t][k] = asked[t].get(k, 0) + 1
        return asked, block_keys
