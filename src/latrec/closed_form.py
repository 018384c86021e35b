"""Closed-form evaluators for the supported equation families.

Every explicit equation has the generating function U = Q / (1 - S): S is
the stencil symbol and Q holds the initial rows less the stencil terms that
reach them from earlier initial rows.  Under finite-support initial data
every evaluator reduces to an exact finite sum, so results are exact
rationals.  Evaluators:

* ``eval_multistep``     -- any explicit equation of any time order and
                            spatial dimension: one sum over compositions of
                            the powers of S, sampling Q.
* ``eval_nd``            -- the one-step case on its own: a sum over
                            compositions of the time over the stencil
                            entries.  The 1D shifted-row, 2D 3x3 and 2D
                            n-by-m corner families are one-step equations;
                            their constructors and recognisers below name
                            them for ``EVALUATORS``.
* ``eval_tridiagonal``   -- 1D three-point stencil U[i,j+1] = a U[i-1,j] + b U[i,j] + c U[i+1,j]
                            as a double binomial sum, with a known-inconsistent
                            exponent variant kept as a negative control.
* ``eval_implicit``      -- 1D corner form whose right side references the
                            unknown time level; returns the particular
                            solution vanishing left of the initial support.

``EVALUATORS`` maps each evaluator name to its shape check and evaluator;
``closed_rows`` builds whole rows of Q / (1 - S) from one integer pass over
the series sum_J S^J, adding up each row in integers.  The test suite checks
every evaluator against the iteration oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Callable, Sequence

from .combinatorics import (_multinomial_weights, compositions, multinomial,
                            stencil_symbol_steps)
from .exactnum import ZERO
from .lattice import EquationSpec, FieldRow, InitialData, Point, SpecError, StencilEntry


# ---------------------------------------------------------------------------
# spec constructors / recognizers for the specialized families
# ---------------------------------------------------------------------------

def tridiagonal_spec(a: Fraction, b: Fraction, c: Fraction) -> EquationSpec:
    """U[i, j+1] = a U[i-1, j] + b U[i, j] + c U[i+1, j]."""
    entries = [StencilEntry((-1,), 0, Fraction(a)),
               StencilEntry((0,), 0, Fraction(b)),
               StencilEntry((1,), 0, Fraction(c))]
    return EquationSpec(1, 1, (0,), tuple(entries))


def as_tridiagonal(spec: EquationSpec) -> tuple[Fraction, Fraction, Fraction] | None:
    if (spec.implicit_corner or spec.spatial_dim != 1 or spec.time_order != 1
            or spec.spatial_shift != (0,)):
        return None
    coeffs = {(-1,): ZERO, (0,): ZERO, (1,): ZERO}
    for e in spec.stencil:
        if e.offset not in coeffs:
            return None
        coeffs[e.offset] = e.coeff
    return coeffs[(-1,)], coeffs[(0,)], coeffs[(1,)]


def one_row_spec(coeffs: Sequence[Fraction], m: int) -> EquationSpec:
    """U[i+m, j+1] = c_1 U[i, j] + c_2 U[i+1, j] + ... + c_n U[i+n-1, j]."""
    entries = [StencilEntry((r,), 0, Fraction(c)) for r, c in enumerate(coeffs)]
    return EquationSpec(1, 1, (m,), tuple(entries))


def as_one_row(spec: EquationSpec) -> tuple[list[Fraction], int] | None:
    if spec.implicit_corner or spec.spatial_dim != 1 or spec.time_order != 1:
        return None
    if any(e.offset[0] < 0 for e in spec.stencil):
        return None
    n = max(e.offset[0] for e in spec.stencil) + 1
    coeffs = [ZERO] * n
    for e in spec.stencil:
        coeffs[e.offset[0]] = e.coeff
    return coeffs, spec.spatial_shift[0]


# 3x3 neighbourhood in the fixed coefficient order of ninepoint_spec:
# dy in (-1, 0, 1), dx in (-1, 0, 1), dx fastest.
NINEPOINT_OFFSETS: tuple[Point, ...] = tuple(
    (dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


def ninepoint_spec(coeffs: Sequence[Fraction]) -> EquationSpec:
    if len(coeffs) != 9:
        raise SpecError("ninepoint spec needs exactly 9 coefficients")
    entries = [StencilEntry(off, 0, Fraction(c))
               for off, c in zip(NINEPOINT_OFFSETS, coeffs)]
    return EquationSpec(2, 1, (0, 0), tuple(entries))


def as_ninepoint(spec: EquationSpec) -> list[Fraction] | None:
    if (spec.implicit_corner or spec.spatial_dim != 2 or spec.time_order != 1
            or spec.spatial_shift != (0, 0)):
        return None
    coeffs = {off: ZERO for off in NINEPOINT_OFFSETS}
    for e in spec.stencil:
        if e.offset not in coeffs:
            return None
        coeffs[e.offset] = e.coeff
    return [coeffs[off] for off in NINEPOINT_OFFSETS]


def grid_2d_spec(coeffs: Sequence[Sequence[Fraction]], s: int, t: int) -> EquationSpec:
    """U[i+s, j+t, k+1] = sum_{u=1..n} sum_{v=1..m} c[u][v] U[i+u-1, j+v-1, k]."""
    entries = [StencilEntry((u, v), 0, Fraction(c))
               for u, row in enumerate(coeffs) for v, c in enumerate(row)]
    return EquationSpec(2, 1, (s, t), tuple(entries))


def as_grid_2d(spec: EquationSpec) -> tuple[list[list[Fraction]], int, int] | None:
    if spec.implicit_corner or spec.spatial_dim != 2 or spec.time_order != 1:
        return None
    if any(e.offset[0] < 0 or e.offset[1] < 0 for e in spec.stencil):
        return None
    n = max(e.offset[0] for e in spec.stencil) + 1
    m = max(e.offset[1] for e in spec.stencil) + 1
    coeffs = [[ZERO] * m for _ in range(n)]
    for e in spec.stencil:
        coeffs[e.offset[0]][e.offset[1]] = e.coeff
    return coeffs, spec.spatial_shift[0], spec.spatial_shift[1]


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


# ---------------------------------------------------------------------------
# one-step explicit family
# ---------------------------------------------------------------------------

def eval_nd(spec: EquationSpec, psi: FieldRow, query: Point, time: int) -> Fraction:
    """Value at (query, time) of the one-step equation with row 0 equal to psi.

    Sum over compositions r of `time` over the stencil entries of

        multinomial(time, r) * prod(coeff**r) * psi(query - a(r))

    where a(r) accumulates r copies of (spatial_shift - offset) per entry.
    """
    if spec.implicit_corner:
        raise SpecError("eval_nd does not handle the corner-implicit form")
    if spec.time_order != 1:
        raise SpecError("eval_nd requires time_order 1")
    if psi.dim != spec.spatial_dim:
        raise SpecError(f"psi dim {psi.dim} != spec spatial_dim {spec.spatial_dim}")
    if time < 0:
        raise SpecError("time must be >= 0")
    steps = stencil_symbol_steps(spec)
    dim = spec.spatial_dim
    query = tuple(query)
    total = ZERO
    for r in compositions(len(steps), time):
        disp = [0] * dim
        for mult, (_, xstep, _) in zip(r, steps):
            if mult:
                for i in range(dim):
                    disp[i] += mult * xstep[i]
        sample = psi.get(tuple(q - d for q, d in zip(query, disp)))
        if sample == 0:
            continue
        weight = Fraction(multinomial(time, r))
        for mult, (coeff, _, _) in zip(r, steps):
            if mult:
                weight *= coeff ** mult
        total += weight * sample
    return total


def eval_tridiagonal(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                     i: int, j: int, c_exponent: str = "j-m") -> Fraction:
    """Double binomial sum for the three-point stencil:

        sum_{m=0..j} sum_{n=0..m} C(j,m) C(m,n) a^n b^(m-n) c^(j-m) psi(i+j-m-n)

    ``c_exponent`` selects the exponent of c: "j-m" (the self-consistent
    form) or "j-n" (a known-inconsistent variant kept as a negative control;
    it disagrees with the iteration oracle already at j=1).
    """
    if c_exponent not in ("j-m", "j-n"):
        raise SpecError("c_exponent must be 'j-m' or 'j-n'")
    if j < 0:
        raise SpecError("time must be >= 0")
    total = ZERO
    for m in range(j + 1):
        for n in range(m + 1):
            sample = psi.get((i + j - m - n,))
            if sample == 0:
                continue
            exp_c = j - m if c_exponent == "j-m" else j - n
            total += (comb(j, m) * comb(m, n)
                      * a ** n * b ** (m - n) * c ** exp_c * sample)
    return total


# ---------------------------------------------------------------------------
# corner-implicit family
# ---------------------------------------------------------------------------

def backward_difference(psi: FieldRow, a: Fraction) -> FieldRow:
    """The row k -> psi(k) - a * psi(k-1), finite-support like psi."""
    if psi.dim != 1:
        raise SpecError("backward_difference is defined for 1D rows")
    out: dict[Point, Fraction] = {}
    for (k,), v in psi.values.items():
        out[(k,)] = out.get((k,), ZERO) + v
        out[(k + 1,)] = out.get((k + 1,), ZERO) - a * v
    return FieldRow(1, out)


def corner_kernel(s: int, j: int, a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """Coefficient of x^s y^j in sum_J (a x + b y + c x y)^J:

        sum_{g=0..min(s,j)} multinomial(s+j-g; s-g, j-g, g) a^(s-g) b^(j-g) c^g
    """
    if s < 0 or j < 0:
        raise SpecError("kernel indices must be >= 0")
    total = ZERO
    for g in range(min(s, j) + 1):
        weight = Fraction(multinomial(s + j - g, (s - g, j - g, g)))
        total += weight * a ** (s - g) * b ** (j - g) * c ** g
    return total


def eval_implicit(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                  i: int, j: int) -> Fraction:
    """Left-vanishing particular solution of the corner form at (i, j):

        sum_{s >= 0} (psi - a shift(psi))(i - s) * corner_kernel(s, j)

    The sum is finite because the differenced row has finite support.
    """
    om = backward_difference(psi, a)
    total = ZERO
    for (k,), v in om.values.items():
        s = i - k
        if s < 0:
            continue
        total += v * corner_kernel(s, j, a, b, c)
    return total


# ---------------------------------------------------------------------------
# every explicit equation: U = Q / (1 - S)
# ---------------------------------------------------------------------------

def _accumulate(acc: dict[Point, Fraction], psi: FieldRow, shift: Point,
                factor: Fraction) -> None:
    if factor == 0:
        return
    for p, v in psi.values.items():
        key = tuple(c + s for c, s in zip(p, shift))
        acc[key] = acc.get(key, ZERO) + factor * v


def source_rows(spec: EquationSpec, initial: InitialData) -> list[FieldRow]:
    """Q_0..Q_{k-1}, the numerator of the generating function U = Q / (1 - S).

    Q_s is initial row s minus every stencil term that reaches row s from an
    earlier initial row: coeff * (row s - (k - level)) shifted by
    spatial_shift - offset.  For time_order 1, Q_0 is row 0 itself.
    """
    initial.check_matches(spec)
    steps = stencil_symbol_steps(spec)
    out = []
    for s, row in enumerate(initial.rows):
        acc = dict(row.values)
        for coeff, xstep, ystep in steps:
            if s - ystep >= 0:
                _accumulate(acc, initial.rows[s - ystep], xstep, -coeff)
        out.append(FieldRow(spec.spatial_dim, acc))
    return out


def eval_multistep(spec: EquationSpec, initial: InitialData, point: Point,
                   time: int) -> Fraction:
    """Value at (point, time) of any explicit equation: the coefficient of
    x^point y^time in sum_J S^J Q.

    Sum over J and compositions r of J over the stencil entries whose time
    exponent b(r) lies in (time - k, time] of

        multinomial(J, r) * prod(coeff**r) * Q_{time - b(r)}(point - a(r)).

    Each entry adds at least 1 and at most k to b(r), so J runs from
    time // k to time.
    """
    return _multistep_sum(spec, source_rows(spec, initial), point, time)


def _multistep_sum(spec: EquationSpec, q: Sequence[FieldRow], point: Point,
                   time: int) -> Fraction:
    """eval_multistep's composition sum over the source rows q."""
    if time < 0:
        raise SpecError("time must be >= 0")
    steps = stencil_symbol_steps(spec)
    k = spec.time_order
    total = ZERO
    for j_order in range(time // k, time + 1):
        for r in compositions(len(steps), j_order):
            s = time - sum(mult * ystep for mult, (_, _, ystep) in zip(r, steps))
            if not 0 <= s < k:
                continue
            sample = q[s].get(tuple(
                c - sum(mult * xstep[i] for mult, (_, xstep, _) in zip(r, steps))
                for i, c in enumerate(point)))
            if sample == 0:
                continue
            weight = Fraction(multinomial(j_order, r))
            for mult, (coeff, _, _) in zip(r, steps):
                if mult:
                    weight *= coeff ** mult
            total += weight * sample
    return total


def closed_rows(spec: EquationSpec, initial: InitialData, t_max: int) -> list[FieldRow]:
    """Rows 0..t_max of U = Q / (1 - S) for any explicit spec: row j sums,
    over s < k, the terms of sum_J S^J at time exponent j - s applied to Q_s.

    One pass of the multinomial kernel gives every term of sum_J S^J up to
    time exponent t_max as an integer W over D**e.  With the Q rows scaled to
    integers N_s by L, the lcm of their denominators, row j at p is

        sum_s sum_a D**s * W[j - s, a] * N_s(p - a)  /  (D**j * L)

    with the numerators added as ints; a time exponent's terms are dropped
    after the last row that reads them.  The corner-implicit solution has
    unbounded rightward support, so it has no row representation here;
    evaluate it pointwise instead.
    """
    if spec.implicit_corner:
        raise SpecError("corner-implicit rows have infinite support; evaluate pointwise")
    q = source_rows(spec, initial)
    k, dim = spec.time_order, spec.spatial_dim
    lcd = lcm(*(v.denominator for qs in q for v in qs.values.values()))
    nums = [[(p, v.numerator * (lcd // v.denominator)) for p, v in qs.values.items()]
            for qs in q]
    scale, weights = _multinomial_weights(spec, max(t_max, 0), series=True)
    # time exponent -> [(spatial exponents, W)]
    by_time: dict[int, list[tuple[Point, int]]] = {}
    for exps, weight in weights.items():
        by_time.setdefault(exps[dim], []).append((exps[:dim], weight))
    del weights
    rows = []
    for j in range(t_max + 1):
        acc: dict[Point, int] = {}
        for s, ns in enumerate(nums):
            lift = scale ** s
            for a, weight in by_time.get(j - s, ()):
                weight *= lift
                for p, v in ns:
                    key = tuple(map(add, p, a))
                    acc[key] = acc.get(key, 0) + weight * v
        denom = scale ** j * lcd
        rows.append(FieldRow(dim, {p: Fraction(v, denom) for p, v in acc.items() if v}))
        by_time.pop(j - k + 1, None)
    return rows


def closed_getter(spec: EquationSpec, initial: InitialData, t_max: int,
                  evaluator: str = "auto") -> Callable[[Point, int], Fraction]:
    """(point, time) -> closed-form value for times up to t_max.  "auto"
    reads rows built by closed_rows, or evaluates the corner-implicit form
    pointwise; any other name is looked up in EVALUATORS."""
    if evaluator == "auto":
        if spec.implicit_corner:
            return pointwise(spec, initial, "implicit")
        rows = closed_rows(spec, initial, t_max)
        return lambda p, t: rows[t].get(p)
    return pointwise(spec, initial, evaluator)


def _nd_getter(spec: EquationSpec, initial: InitialData):
    psi = initial.rows[0]
    return lambda p, t: eval_nd(spec, psi, p, t)


def _tridiagonal_getter(c_exponent: str):
    def make(spec: EquationSpec, initial: InitialData):
        a, b, c = as_tridiagonal(spec)
        psi = initial.rows[0]
        return lambda p, t: eval_tridiagonal(a, b, c, psi, p[0], t, c_exponent=c_exponent)
    return make


def _multistep_getter(spec: EquationSpec, initial: InitialData):
    q = source_rows(spec, initial)
    return lambda p, t: _multistep_sum(spec, q, p, t)


def _implicit_getter(spec: EquationSpec, initial: InitialData):
    a, b, c = spec.corner_coefficients()
    psi = initial.rows[0]
    return lambda p, t: eval_implicit(a, b, c, psi, p[0], t)


def _is_one_step(spec: EquationSpec) -> bool:
    return not spec.implicit_corner and spec.time_order == 1


def _is_two_row(spec: EquationSpec) -> bool:
    return not spec.implicit_corner and spec.time_order == 2 and spec.spatial_dim == 1


_THREE_POINT = "a three-point one-step 1D stencil"

# evaluator name -> (shape check, the shape it names on failure, maker of the
# (point, time) -> value callable).  The shifted-row, 3x3 and corner-stencil
# names only check the shape; eval_nd evaluates all three.  "two-row" checks
# the shape and evaluates with eval_multistep.
EVALUATORS = {
    "nd": (_is_one_step, "a one-step explicit stencil", _nd_getter),
    "tridiagonal": (as_tridiagonal, _THREE_POINT, _tridiagonal_getter("j-m")),
    "tridiagonal-j-n": (as_tridiagonal, _THREE_POINT, _tridiagonal_getter("j-n")),
    "one-row": (as_one_row, "a shifted-row 1D one-step stencil", _nd_getter),
    "ninepoint": (as_ninepoint, "a 3x3 one-step 2D stencil", _nd_getter),
    "grid-2d": (as_grid_2d, "an n-by-m one-step 2D corner stencil", _nd_getter),
    "two-row": (_is_two_row, "a two-step-in-time 1D stencil", _multistep_getter),
    "implicit": (lambda spec: spec.implicit_corner, "a corner-implicit 1D stencil",
                 _implicit_getter),
}


def pointwise(spec: EquationSpec, initial: InitialData,
              evaluator: str) -> Callable[[Point, int], Fraction]:
    """(point, time) -> value callable of a named evaluator; SpecError when
    the spec does not have the evaluator's shape."""
    if evaluator not in EVALUATORS:
        raise SpecError(f"unknown evaluator {evaluator!r}")
    recognise, shape, make = EVALUATORS[evaluator]
    if not recognise(spec):
        raise SpecError(f"spec is not {shape}")
    initial.check_matches(spec)
    return make(spec, initial)


def closed_value(spec: EquationSpec, initial: InitialData, point: Point,
                 time: int) -> Fraction:
    """Single-point closed-form value: the corner-implicit sum, eval_nd for
    one-step equations, eval_multistep for every other explicit equation."""
    if spec.implicit_corner:
        return pointwise(spec, initial, "implicit")(point, time)
    if spec.time_order == 1:
        return pointwise(spec, initial, "nd")(point, time)
    return eval_multistep(spec, initial, point, time)
