"""Closed-form evaluators for the supported equation families.

Every explicit equation has the generating function U = Q / (1 - S): S is
the stencil symbol and Q holds the initial rows less the stencil terms that
reach them from earlier initial rows.  Under finite-support initial data
every evaluator reduces to an exact finite sum, so results are exact
rationals.  Evaluators:

* ``eval_multistep``     -- any explicit equation of any time order and
                            spatial dimension: one sum over compositions of
                            the powers of S, sampling Q.
* ``eval_nd``            -- the same sum for a one-step equation, with row 0
                            as Q.  Shifted-row, 3x3, n-by-m and two-step
                            shapes are all instances of this one family.
* ``eval_tridiagonal``   -- 1D three-point stencil U[i,j+1] = a U[i-1,j] + b U[i,j] + c U[i+1,j]
                            as a double binomial sum, with a known-inconsistent
                            exponent variant kept as a negative control.
* ``eval_implicit``      -- 1D corner form whose right side references the
                            unknown time level; returns the particular
                            solution vanishing left of the initial support.

``EVALUATORS`` maps each evaluator name to its shape check and evaluator:
"nd" for every explicit spec, and one name for each formula that differs in
structure (the three-point sum, its negative control, the corner kernel).

``closed_rows`` and ``closed_value`` read the powers of a one-step equation
of any dimension, U(t) = S^t psi with S a polynomial in x alone, from
Miller's power recurrence (``combinatorics._symbol_power``): row t from the
coefficients of S^t convolved with psi, a point from the coefficients up to
the farthest one it needs.  Only time order >= 2 takes the series pass:
``closed_rows`` builds whole rows of Q / (1 - S) from one integer pass over
sum_J S^J, adding up each row in integers.  ``eval_nd`` keeps the
composition sum for one-step equations too, as a pointwise witness.  The
test suite checks every evaluator against the iteration oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, mul
from typing import Callable, Sequence

from .combinatorics import (_multinomial_weights, _symbol_power, compositions,
                            multinomial, stencil_symbol_steps)
from .exactnum import ZERO
from .lattice import EquationSpec, FieldRow, InitialData, Point, SpecError, StencilEntry


# ---------------------------------------------------------------------------
# spec constructors / recognizers
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
    return _composition_sum(spec, (psi,), query, time)


def eval_tridiagonal(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                     i: int, j: int, c_exponent: str = "j-m") -> Fraction:
    """Double binomial sum for the three-point stencil:

        sum_{m=0..j} sum_{n=0..m} C(j,m) C(m,n) a^n b^(m-n) c^(j-m) psi(i+j-m-n)

    ``c_exponent`` selects the exponent of c: "j-m" (the self-consistent
    form) or "j-n" (a known-inconsistent variant kept as a negative control;
    it disagrees with the iteration oracle already at j=1).

    Only the pairs that land on psi's support are visited: for a support
    point q, m + n = r = i+j-q, so m runs over ceil(r/2)..min(j, r).  The
    sum is taken in integers, as in corner_kernel: with D the lcm of the
    denominators of a, b, c and A = D a, B = D b, C = D c, the power product
    is A^n B^(m-n) C^e / D^(m+e), where m+e is j for "j-m" and at most 2j
    for "j-n"; every term goes over one D^top, and psi over the lcm of its
    denominators.
    """
    if c_exponent not in ("j-m", "j-n"):
        raise SpecError("c_exponent must be 'j-m' or 'j-n'")
    if j < 0:
        raise SpecError("time must be >= 0")
    if psi.dim != 1:
        raise SpecError("eval_tridiagonal is defined for 1D rows")
    scale = lcm(a.denominator, b.denominator, c.denominator)
    na, nb, nc = (v.numerator * (scale // v.denominator) for v in (a, b, c))
    row_den = lcm(*(v.denominator for v in psi.values.values()))
    top = j if c_exponent == "j-m" else 2 * j
    total = 0
    for (q,), v in psi.values.items():
        sample = v.numerator * (row_den // v.denominator)
        r = i + j - q
        for m in range(max((r + 1) // 2, 0), min(j, r) + 1):
            n = r - m
            e = j - m if c_exponent == "j-m" else j - n
            total += (comb(j, m) * comb(m, n) * na ** n * nb ** (m - n) * nc ** e
                      * scale ** (top - m - e) * sample)
    return Fraction(total, scale ** top * row_den)


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

    summed in integers: with D the lcm of the denominators of a, b, c, the
    term is M_g A^(s-g) B^(j-g) (C D)^g / D^(s+j) for A = D a, B = D b,
    C = D c.  M_0 = C(s+j, s), and M_g steps from M_{g-1} by the ratio
    (s-g+1)(j-g+1) / ((s+j-g+1) g), an exact division.
    """
    if s < 0 or j < 0:
        raise SpecError("kernel indices must be >= 0")
    scale = lcm(a.denominator, b.denominator, c.denominator)
    na, nb, nc = (v.numerator * (scale // v.denominator) for v in (a, b, c))
    nc *= scale
    weight = comb(s + j, s)
    total = 0
    for g in range(min(s, j) + 1):
        if g:
            weight = weight * (s - g + 1) * (j - g + 1) // ((s + j - g + 1) * g)
        total += weight * na ** (s - g) * nb ** (j - g) * nc ** g
    return Fraction(total, scale ** (s + j))


def eval_implicit(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                  i: int, j: int) -> Fraction:
    """Left-vanishing particular solution of the corner form at (i, j):

        sum_{s >= 0} (psi - a shift(psi))(i - s) * corner_kernel(s, j)

    The sum is finite because the differenced row has finite support.
    """
    if j < 0:
        raise SpecError("time must be >= 0")
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
                for p, v in initial.rows[s - ystep].values.items():
                    key = tuple(map(add, p, xstep))
                    acc[key] = acc.get(key, ZERO) - coeff * v
        out.append(FieldRow._trusted(spec.spatial_dim, {p: v for p, v in acc.items() if v}))
    return out


def eval_multistep(spec: EquationSpec, initial: InitialData, point: Point,
                   time: int) -> Fraction:
    """Value at (point, time) of any explicit equation: the coefficient of
    x^point y^time in sum_J S^J Q."""
    return _composition_sum(spec, source_rows(spec, initial), point, time)


def _check_query(spec: EquationSpec, point: Point, time: int) -> None:
    if time < 0:
        raise SpecError("time must be >= 0")
    if len(point) != spec.spatial_dim:
        raise SpecError(
            f"point of length {len(point)} queried in a dim-{spec.spatial_dim} field")


def _power_row(spec: EquationSpec, psi: FieldRow, j: int,
               point: Point | None = None) -> FieldRow:
    """Row j of a one-step equation from row 0 psi, or with `point` that
    cell of it alone: (D S)^j from Miller's recurrence times psi scaled to
    integers by L, the lcm of its denominators, over D^j * L, one Fraction
    per cell."""
    lcd = lcm(*(v.denominator for v in psi.values.values()))
    nums = [(p, v.numerator * (lcd // v.denominator)) for p, v in psi.values.items()]
    terms = [(coeff, xstep) for coeff, xstep, _ in stencil_symbol_steps(spec)]
    scale, cells = _symbol_power(terms, j, nums, point)
    denom = scale ** j * lcd
    return FieldRow._trusted(spec.spatial_dim, {p: Fraction(v, denom) for p, v in cells.items()})


def _composition_sum(spec: EquationSpec, q: Sequence[FieldRow], point: Point,
                     time: int) -> Fraction:
    """The one pointwise sum over the source rows q = Q_0..Q_{k-1}: over J
    and the compositions r of J over the stencil entries whose time exponent
    b(r) lies in (time - k, time], the terms

        multinomial(J, r) * prod(coeff**r) * Q_{time - b(r)}(point - a(r)).

    Each entry adds at least 1 and at most k to b(r), so J runs from
    time // k to time; for k = 1 only J = time is summed.  A composition's
    displacement and weight are only worked out once its time exponent
    lands on a source row.
    """
    _check_query(spec, point, time)
    steps = stencil_symbol_steps(spec)
    coeffs = [coeff for coeff, _, _ in steps]
    ysteps = [ystep for _, _, ystep in steps]
    # per spatial axis, that axis's step of every entry
    axes = list(zip(*(xstep for _, xstep, _ in steps)))
    k = spec.time_order
    total = ZERO
    for j_order in range(time // k, time + 1):
        for r in compositions(len(steps), j_order):
            s = time - sum(map(mul, r, ysteps))
            if not 0 <= s < k:
                continue
            sample = q[s].values.get(
                tuple(c - sum(map(mul, r, axis)) for c, axis in zip(point, axes)))
            if sample is None:
                continue
            weight = Fraction(multinomial(j_order, r))
            for mult, coeff in zip(r, coeffs):
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
    after the last row that reads them.  A one-step equation skips the
    series pass: each row reads S^j from Miller's recurrence instead
    (``_power_row``).  The corner-implicit solution has
    unbounded rightward support, so it has no row representation here;
    evaluate it pointwise instead.
    """
    if t_max < 0:
        raise SpecError("t_max must be >= 0")
    if spec.implicit_corner:
        raise SpecError("corner-implicit rows have infinite support; evaluate pointwise")
    q = source_rows(spec, initial)
    if spec.time_order == 1:
        return [_power_row(spec, q[0], j) for j in range(t_max + 1)]
    k, dim = spec.time_order, spec.spatial_dim
    lcd = lcm(*(v.denominator for qs in q for v in qs.values.values()))
    nums = [[(p, v.numerator * (lcd // v.denominator)) for p, v in qs.values.items()]
            for qs in q]
    scale, weights = _multinomial_weights(spec, t_max)
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
        rows.append(FieldRow._trusted(dim, {p: Fraction(v, denom) for p, v in acc.items() if v}))
        by_time.pop(j - k + 1, None)
    return rows


def _tridiagonal_getter(c_exponent: str):
    def make(spec: EquationSpec, initial: InitialData):
        a, b, c = as_tridiagonal(spec)
        psi = initial.rows[0]
        return lambda p, t: eval_tridiagonal(a, b, c, psi, p[0], t, c_exponent=c_exponent)
    return make


def _composition_getter(spec: EquationSpec, initial: InitialData):
    q = source_rows(spec, initial)
    return lambda p, t: _composition_sum(spec, q, p, t)


def _implicit_getter(spec: EquationSpec, initial: InitialData):
    a, b, c = spec.corner_coefficients()
    psi = initial.rows[0]
    return lambda p, t: eval_implicit(a, b, c, psi, p[0], t)


_THREE_POINT = "a three-point one-step 1D stencil"

# evaluator name -> (shape check, the shape it names on failure, maker of the
# (point, time) -> value callable); closed_getter is the one lookup.  Only
# formulas that differ in structure have a name: "nd" is the one composition
# sum of every explicit equation.
EVALUATORS = {
    "nd": (lambda spec: not spec.implicit_corner, "an explicit stencil",
           _composition_getter),
    "tridiagonal": (as_tridiagonal, _THREE_POINT, _tridiagonal_getter("j-m")),
    "tridiagonal-j-n": (as_tridiagonal, _THREE_POINT, _tridiagonal_getter("j-n")),
    "implicit": (lambda spec: spec.implicit_corner, "a corner-implicit 1D stencil",
                 _implicit_getter),
}


def closed_getter(spec: EquationSpec, initial: InitialData, t_max: int,
                  evaluator: str = "auto") -> Callable[[Point, int], Fraction]:
    """(point, time) -> closed-form value for times up to t_max.  "auto"
    reads rows built by closed_rows, or takes "implicit" for the
    corner-implicit form; any other name is looked up in EVALUATORS, and
    SpecError is raised when the spec does not have that evaluator's shape."""
    if evaluator == "auto":
        if not spec.implicit_corner:
            rows = closed_rows(spec, initial, t_max)
            return lambda p, t: rows[t].get(p)
        evaluator = "implicit"
    if evaluator not in EVALUATORS:
        raise SpecError(f"unknown evaluator {evaluator!r}")
    recognise, shape, make = EVALUATORS[evaluator]
    if not recognise(spec):
        raise SpecError(f"spec is not {shape}")
    initial.check_matches(spec)
    return make(spec, initial)


def closed_value(spec: EquationSpec, initial: InitialData, point: Point,
                 time: int) -> Fraction:
    """Single-point closed-form value: the corner-implicit sum, Miller's
    power recurrence for a one-step equation, or the one composition sum of
    every other explicit equation."""
    _check_query(spec, point, time)
    if spec.implicit_corner or spec.time_order != 1:
        evaluator = "implicit" if spec.implicit_corner else "nd"
        return closed_getter(spec, initial, time, evaluator)(point, time)
    initial.check_matches(spec)
    return _power_row(spec, initial.rows[0], time, tuple(point)).get(point)
