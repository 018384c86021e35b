"""Closed-form evaluators for the supported equation families.

Every explicit equation has the generating function U = Q / (1 - S): S is
the stencil symbol and Q holds the initial rows less the stencil terms that
reach them from earlier initial rows.  The corner-implicit form has
omega / (1 - a x - b y - c x y), with omega = psi - a shift(psi).  Under
finite-support initial data every evaluator reduces to an exact finite sum,
so results are exact rationals.  Evaluators:

* ``eval_nd``            -- one sum over compositions of the powers of S
                            sampling Q, the "nd" evaluator of every explicit
                            equation; ``eval_nd`` takes row 0 as Q.
* ``eval_tridiagonal``   -- 1D three-point stencil U[i,j+1] = a U[i-1,j] + b U[i,j] + c U[i+1,j]
                            as a double binomial sum; its negative control
                            "tridiagonal-j-n" is the same sum at (a, b c, c).
* ``eval_implicit``      -- 1D corner form whose right side references the
                            unknown time level; returns the particular
                            solution vanishing left of the initial support.

The three-point sum is evaluated in integers by Horner's rule.  The corner
form's kernel row j, (b + c x)^j / (1 - a x)^(j+1), and psi's multiplier
for row j, (b + c x)^j / (1 - a x)^j, are powers R^i / (1 - P)^e of one
quotient, read by Miller's recurrence (``combinatorics._miller``): they
give ``corner_kernel``, ``eval_implicit`` and the corner form's rows
(_corner_rows).  ``EVALUATORS`` maps each evaluator name to its shape
check and evaluator: "nd" for every explicit spec, and one name for each
formula that differs in structure (the three-point sum, the corner
kernel), plus the three-point sum's negative control "tridiagonal-j-n",
which is that sum with b c in place of b; ``closed_getter`` is the one
lookup.  "auto" is no evaluator: it names verify's comparison of whole
rows.

A one-step equation's rows and points, U(t) = S^t psi, come from Miller's
power recurrence (``combinatorics._symbol_powers``, one set-up for every
row of a sweep, halved for a centrally symmetric S) through _power_rows;
time order >= 2 takes the integer series sum_J S^J, rows and points
alike.  A 1D symbol whose x-steps are 0 and one sign reads it one column
per power of x (``combinatorics._column_weights``): its rows from every
column, its points (_series_value) from the columns the source rows
reach.  Any other symbol's rows and points take one multinomial pass over
the whole series.  The composition sum is "nd" and ``eval_nd``, a
witness no other path reads.  Every row builder gives integer rows (den,
{key: nonzero numerator}), not reduced, keyed in the query's one packing
(``lattice.query_packing``), which the oracle's rows share;
``closed_rows`` and ``random_walk_distribution`` unpack the keys and
build a Fraction per cell.  The pointwise paths
(``closed_value``, the ``eval_*`` sums) build no packing.  The test suite
checks every evaluator against the iteration oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub

from .combinatorics import (_column_sign, _column_weights, _miller, _multinomial_weights,
                            _symbol_powers, compositions, multinomial, stencil_symbol_steps)
from .exactnum import ZERO
from .lattice import (EquationSpec, FieldRow, InitialData, Packing, Point, SpecError,
                      StencilEntry, _as_count, _as_fraction, _as_int, _as_ints,
                      query_packing)


# ---------------------------------------------------------------------------
# spec constructors / recognizers
# ---------------------------------------------------------------------------

def tridiagonal_spec(a: Fraction, b: Fraction, c: Fraction) -> EquationSpec:
    """U[i, j+1] = a U[i-1, j] + b U[i, j] + c U[i+1, j]."""
    return EquationSpec(1, 1, (0,), tuple(
        StencilEntry((x,), 0, _as_fraction(v, f"coefficient {n}"))
        for x, n, v in ((-1, "a", a), (0, "b", b), (1, "c", c))))


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


def _integer_rows(rows: Sequence[FieldRow]) -> tuple[int, list[dict[Point, int]]]:
    """L, the lcm of every denominator in rows, and each row times L."""
    lcd = lcm(*(v.denominator for row in rows for v in row.values.values()))
    return lcd, [{p: v.numerator * (lcd // v.denominator) for p, v in row.values.items()}
                 for row in rows]


def _scaled(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int, int, int]:
    """D, the lcm of the denominators of a, b, c, and D a, D b, D c, the
    coefficients read by _as_fraction unless all three are Fractions."""
    if not type(a) is type(b) is type(c) is Fraction:
        a, b, c = (_as_fraction(v, f"coefficient {n}") for n, v in zip("abc", (a, b, c)))
    scale = lcm(a.denominator, b.denominator, c.denominator)
    return scale, *(v.numerator * (scale // v.denominator) for v in (a, b, c))


def eval_tridiagonal(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                     i: int, j: int) -> Fraction:
    """Double binomial sum for the three-point stencil:

        sum_{m=0..j} sum_{n=0..m} C(j,m) C(m,n) a^n b^(m-n) c^(j-m) psi(i+j-m-n)

    Only the pairs that land on psi's support are visited: for a support
    point q, m + n = r = i+j-q, so m runs over m0 = max(ceil(r/2), 0) up to
    m1 = min(j, r).  The sum is taken in integers: with D the lcm of the
    denominators of a, b, c and A = D a, B = D b, C = D c, the term at m is
    w_m A^(r-m) B^(2m-r) C^(j-m) over D^j, with w_m = C(j,m) C(m,r-m).  From
    one m to the next the power part changes by the fixed ratio A C / B^2,
    so the terms are summed by Horner's rule with m running down from m1:
    acc = acc B^2 + w_m P, P = P A C.  The weight steps down by the exact
    division

        w_m = w_{m+1} (2m+2-r)(2m+1-r) // ((j-m)(r-m))

    and the powers left over at m0, A^(r-m1) B^(2m0-r) C^(j-m1), multiply
    the sum once.  No power table is built: a query holds a few integers at
    a time.  psi goes over L, the lcm of its denominators, and the value
    over D^j L.  A coefficient that is not an int or a Fraction is a
    SpecError.
    """
    # an identity test first, so that an int pays no call
    if type(i) is not int:
        i = _as_int(i, "point")
    if type(j) is not int or j < 0:
        j = _as_count(j, "time")
    if psi.dim != 1:
        raise SpecError("eval_tridiagonal is defined for 1D rows")
    scale, na, nb, nc = _scaled(a, b, c)
    lcd, (nums,) = _integer_rows([psi])
    x, y, total = nb * nb, na * nc, 0
    for (q,), n in nums.items():
        r = i + j - q
        m0, m1 = max((r + 1) // 2, 0), min(j, r)
        if m0 > m1:
            continue
        weight = comb(j, m1) * comb(m1, r - m1)
        acc, power = weight, y
        for m in range(m1 - 1, m0 - 1, -1):
            weight = weight * (2 * m + 2 - r) * (2 * m + 1 - r) // ((j - m) * (r - m))
            acc = acc * x + weight * power
            power *= y
        total += acc * na ** (r - m1) * nb ** (2 * m0 - r) * nc ** (j - m1) * n
    return Fraction(total, scale ** j * lcd)


# ---------------------------------------------------------------------------
# corner-implicit family
# ---------------------------------------------------------------------------

def _kernel_values(j: int, ss, na: int, nb: int, nc: int, d: int) -> dict[int, int]:
    """{s: k_s} of kernel row j for s in ss, k_s = corner_kernel(s, j) D^(s+j):
    A^(s-m) B^(j-m) r, m = min(s, j), with A = D a, B = D b, C = D c and r
    the value at m of row max(s, j) of (1 + C D x)^i / (1 - A B x)^(i+1)
    (_miller).  One pass of row j serves every s when none passes j."""
    r, p = [(0, 1), (1, nc * d)], [(1, na * nb)]
    if max(ss) <= j:
        (rs,) = _miller(r, p, [(j, j + 1, max(ss))])
        return {s: rs[s] * nb ** (j - s) for s in ss}
    rows = _miller(r, p, [(max(s, j), max(s, j) + 1, min(s, j)) for s in ss])
    return {s: row[-1] * na ** max(s - j, 0) * nb ** max(j - s, 0)
            for s, row in zip(ss, rows)}


def corner_kernel(s: int, j: int, a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """Coefficient of x^s y^j in sum_J (a x + b y + c x y)^J:

        sum_{g=0..min(s,j)} multinomial(s+j-g; s-g, j-g, g) a^(s-g) b^(j-g) c^g

    from the kernel rows' recurrence over D^(s+j), D the lcm of the
    denominators of a, b, c (_kernel_values)."""
    s, j = _as_count(s, "kernel index"), _as_count(j, "kernel index")
    scale, na, nb, nc = _scaled(a, b, c)
    return Fraction(_kernel_values(j, (s,), na, nb, nc, scale)[s], scale ** (s + j))


def eval_implicit(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow,
                  i: int, j: int) -> Fraction:
    """Left-vanishing particular solution of the corner form at (i, j):

        sum_{s >= 0} (psi - a shift(psi))(i - s) * corner_kernel(s, j)

    The sum is finite because the differenced row has finite support.  It is
    taken in integers: with smax = i - k for the leftmost k of psi's
    support, every term goes over D^(smax+j+1) L, and one Fraction is built.
    """
    if type(i) is not int:
        i = _as_int(i, "point")
    if type(j) is not int or j < 0:
        j = _as_count(j, "time")
    if psi.dim != 1:
        raise SpecError("eval_implicit is defined for 1D rows")
    scale, na, nb, nc = _scaled(a, b, c)
    lcd, (nums,) = _integer_rows([psi])
    # psi - a shift(psi) over D L is D N(k) - A N(k-1) at k, psi = N / L:
    # a cell k of N gives D N(k) to s = i - k and -A N(k) to s - 1
    terms: dict[int, int] = {}
    for (k,), n in nums.items():
        if (s := i - k) >= 0:
            terms[s] = terms.get(s, 0) + scale * n
            if s:
                terms[s - 1] = terms.get(s - 1, 0) - na * n
    terms = {s: n for s, n in terms.items() if n}
    if not terms:
        return ZERO
    s_max = max(terms)
    kernel = _kernel_values(j, terms, na, nb, nc, scale)
    return Fraction(sum(n * kernel[s] * scale ** (s_max - s) for s, n in terms.items()),
                    scale ** (s_max + j + 1) * lcd)


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


def _check_query(spec: EquationSpec, point: Point, time: int) -> tuple[Point, int]:
    """The point as a tuple of ints and the time as an int, checked."""
    point, time = _as_ints(point, "point"), _as_count(time, "time")
    if len(point) != spec.spatial_dim:
        raise SpecError(
            f"point of length {len(point)} queried in a dim-{spec.spatial_dim} field")
    return point, time


def _power_rows(spec: EquationSpec, psi: FieldRow, times: Sequence[int],
                packing: Packing | None = None,
                point: Point | None = None) -> Iterator[tuple[int, dict]]:
    """Rows `times` of a one-step equation from row 0 psi as integer rows
    keyed in packing, or with `point` that cell of each alone: (D S)^j from
    Miller's recurrence times psi times L, its lcd, over D^j L, every row
    on the one set-up of _symbol_powers."""
    lcd, (nums,) = _integer_rows([psi])
    row = list(nums.items()) if point else [(packing.key(p), n) for p, n in nums.items()]
    terms = [(coeff, xstep) for coeff, xstep, _ in stencil_symbol_steps(spec)]
    powers = _symbol_powers(terms, times, row, packing and packing.units, point)
    for j, (scale, cells) in zip(times, powers):
        yield scale ** j * lcd, cells


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
    point, time = _check_query(spec, point, time)
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


def _rows(spec: EquationSpec, initial: InitialData, t_max: int,
          packing: Packing) -> Iterator[tuple[int, dict[int, int]]]:
    """Rows 0..t_max of U = Q / (1 - S) as integer rows (den, {key:
    nonzero numerator}) keyed in packing, the query's (query_packing, which
    checks the arguments), built as they are read.  A one-step equation
    reads each row from Miller's recurrence (_power_rows), any other the
    series pass (_series_rows); the corner form's rows are _corner_rows."""
    q = source_rows(spec, initial)
    if spec.time_order == 1:
        return _power_rows(spec, q[0], range(t_max + 1), packing)
    return _series_rows(spec, q, t_max, packing)


def _corner_rows(a: Fraction, b: Fraction, c: Fraction, psi: FieldRow, packing: Packing,
                 t_max: int) -> Iterator[tuple[int, dict[int, int]]]:
    """Rows 0..t_max of the corner form from the nonzero row 0 psi, keyed in
    packing, from psi's left end m to the packing's right end R >= m.  Row
    j+1 reads (1 - a x) U_(j+1)(x) = (b + c x) U_j(x), so row j is psi times
    (b + c x)^j / (1 - a x)^j: with A = D a, B = D b, C = D c, row j of
    (B + C D x)^j / (1 - A x)^j (_miller), all rows on one set-up, over
    D^(R - m + j) L, L psi's lcd."""
    scale, na, nb, nc = _scaled(a, b, c)
    lcd, (nums,) = _integer_rows([psi])
    (m,), right_edge = min(nums), packing.box.hi[0]
    span, first = right_edge - m, packing.key((m,))
    lifts = [scale ** (span - s) for s in range(span + 1)]
    terms = [(k - m, n) for (k,), n in nums.items() if k <= right_edge]
    rows = _miller([(0, nb), (1, nc * scale)], [(1, na)],
                   ((j, j, span) for j in range(t_max + 1)))
    for j, row in enumerate(rows):
        kernel = list(map(mul, row, lifts))
        acc = [0] * (span + 1)
        for off, n in terms:
            acc[off:] = map(add, acc[off:], map(n.__mul__, kernel))
        yield scale ** (span + j) * lcd, {first + x: v for x, v in enumerate(acc) if v}


def _series_rows(spec: EquationSpec, q: Sequence[FieldRow], t_max: int,
                 packing: Packing) -> Iterator[tuple[int, dict[int, int]]]:
    """Rows 0..t_max of U = Q / (1 - S) from the source rows q of a spec of
    time order k >= 2, keyed in packing: row j sums, over s < k, the terms
    of sum_J S^J at time exponent j - s applied to Q_s.  One kernel call
    gives every term of sum_J S^J up to time exponent t_max as an integer W
    over D**e: the columns (_column_weights) when the x-steps are 0 and one
    sign (_column_sign), else the multinomial pass over the whole symbol
    (_multinomial_weights).  With the Q rows scaled to integers N_s by L,
    the lcm of their denominators, row j at p is

        sum_s sum_a D**s * W[j - s, a] * N_s(p - a)  /  (D**j * L)

    with the numerators added as ints, keys shifted by the packed a; a time
    exponent's terms are dropped after the last row that reads them.  Only
    the Q rows read up to t_max, whose cells the packing holds, are packed."""
    k = spec.time_order
    lcd, nums = _integer_rows(q)
    nums = [[(packing.key(p), n) for p, n in ns.items()] for ns in nums[:t_max + 1]]
    kernel = _column_weights if _column_sign(spec) else _multinomial_weights
    scale, weights = kernel(spec, t_max)
    # time exponent -> [(packed spatial exponents, W)]
    by_time: dict[int, list[tuple[int, int]]] = {}
    for exps, weight in weights.items():
        by_time.setdefault(exps[-1], []).append((packing.step(exps[:-1]), weight))
    del weights
    for j in range(t_max + 1):
        acc: dict[int, int] = {}
        for s, ns in enumerate(nums):
            lift = scale ** s
            for a, weight in by_time.get(j - s, ()):
                weight *= lift
                for p, v in ns:
                    key = p + a
                    acc[key] = acc.get(key, 0) + weight * v
        yield scale ** j * lcd, {p: v for p, v in acc.items() if v}
        by_time.pop(j - k + 1, None)


def closed_rows(spec: EquationSpec, initial: InitialData, t_max: int) -> list[FieldRow]:
    """Rows 0..t_max of U = Q / (1 - S) for any explicit spec.  Each
    integer row of _rows becomes a FieldRow, unpacked, as it is built.  The
    corner-implicit solution has unbounded rightward support, so it has no
    row representation here; evaluate it pointwise instead."""
    packing = query_packing(spec, initial, t_max)
    return [FieldRow._over(packing, den, nums)
            for den, nums in _rows(spec, initial, t_max, packing)]


def _tridiagonal_getter(spec: EquationSpec, initial: InitialData, control: bool = False):
    """The three-point sum; the control's has b c in place of b, b c taken
    once per query."""
    (a, b, c), psi = as_tridiagonal(spec), initial.rows[0]
    if control:
        b *= c
    return lambda p, t: eval_tridiagonal(a, b, c, psi, p[0], t)


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
    "tridiagonal": (as_tridiagonal, _THREE_POINT, _tridiagonal_getter),
    # the negative control: the double binomial sum with c^(j-n) in place of
    # c^(j-m).  As c^(j-n) = c^(j-m) c^(m-n), that is the sum with b c in
    # place of b, the solution of the equation at (a, b c, c), which differs
    # from the oracle's wherever b (c - 1) != 0 reaches a queried cell.
    "tridiagonal-j-n": (as_tridiagonal, _THREE_POINT,
                        lambda spec, initial: _tridiagonal_getter(spec, initial, True)),
    "implicit": (lambda spec: spec.implicit_corner, "a corner-implicit 1D stencil",
                 _implicit_getter),
}


def closed_getter(spec: EquationSpec, initial: InitialData,
                  evaluator: str) -> Callable[[Point, int], tuple[int, int]]:
    """(point, time) -> the value of the pointwise evaluator named in
    EVALUATORS as (numerator, positive denominator): its Fraction v enters
    as (v.numerator, v.denominator).  SpecError is raised for an unknown
    name, and when the spec does not have that evaluator's shape."""
    if evaluator not in EVALUATORS:
        raise SpecError(f"unknown evaluator {evaluator!r}")
    recognise, shape, make = EVALUATORS[evaluator]
    if not recognise(spec):
        raise SpecError(f"spec is not {shape}")
    initial.check_matches(spec)
    value = make(spec, initial)
    return lambda p, t: value(p, t).as_integer_ratio()


def _series_value(spec: EquationSpec, q: Sequence[FieldRow], point: Point,
                  time: int) -> Fraction:
    """U(point, time) from the source rows q of a spec of time order >= 2,
    from the series kernel its rows use (_series_rows): a cell c of Q_s
    reads the term of sum_J S^J at (point - c, time - s).  A spec with a
    _column_sign sigma builds only the columns (point - c) sigma >= 0 read,
    each to the largest time - s read from it (_column_weights); any other
    takes the multinomial pass to time exponent time (_multinomial_weights).
    The terms go over D**time L, L the lcm of q's denominators."""
    sign = _column_sign(spec)
    lcd, nums = _integer_rows(q[:time + 1])
    reads, columns = [], {}
    for s, ns in enumerate(nums):
        for c, n in ns.items():
            a = tuple(map(sub, point, c))
            if sign:
                if (i := a[0] * sign) < 0:
                    continue
                columns[i] = max(columns.get(i, 0), time - s)
            reads.append(((*a, time - s), s, n))
    scale, weights = (_column_weights(spec, time, columns) if sign
                      else _multinomial_weights(spec, time))
    return Fraction(sum(n * weights.get(key, 0) * scale ** s for key, s, n in reads),
                    scale ** time * lcd)


def closed_value(spec: EquationSpec, initial: InitialData, point: Point,
                 time: int) -> Fraction:
    """Single-point closed-form value: the corner-implicit sum
    (eval_implicit), Miller's power recurrence for a one-step equation, or
    the series kernel of the rows for every other explicit equation
    (_series_value)."""
    point, time = _check_query(spec, point, time)
    initial.check_matches(spec)
    if spec.implicit_corner:
        return eval_implicit(*spec.corner_coefficients(), initial.rows[0], point[0], time)
    if spec.time_order != 1:
        return _series_value(spec, source_rows(spec, initial), point, time)
    den, cells = next(_power_rows(spec, initial.rows[0], (time,), point=point))
    return Fraction(cells.get(point, 0), den)
