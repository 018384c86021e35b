"""Compositions, multinomial coefficients, and stencil-symbol expansions.

The closed-form evaluators all share one combinatorial core: the stencil
symbol

    S(x, y) = sum over entries of  coeff * x^(spatial_shift - offset) * y^(time_order - time_level)

raised to a power, or summed over every power as the series sum_J S^J of
U = Q / (1 - S), with like terms collected.  Every power, in any number of
axes, comes from a Kronecker substitution followed by J. C. P. Miller's
recurrence (Knuth, TAOCP Vol. 2, 4.7): ``_symbol_power`` packs each exponent
vector into one power of a single variable z, wide enough that no digit
carries, and gives each coefficient of the univariate (D S(z))^t from the
ones below it in O(entries) integer operations, without forming S^(t-1).
``expand_stencil_power`` reads it with y as one more axis, and the rows and
points of every one-step equation (``closed_form.closed_rows``,
``closed_form.closed_value``, ``models.random_walk_distribution``) read it
in x alone.  Only time order >= 2 needs the series: ``_multinomial_weights``
applies the multinomial theorem one stencil entry at a time on
integer-scaled coefficients, merging like terms after each entry, and leaves
the division by the common denominator to the caller, once per row cell
(``closed_form.closed_rows``).  ``compositions`` and ``multinomial`` serve
the pointwise evaluators, which sum over compositions directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul, sub
from typing import Iterator, Sequence

from .lattice import EquationSpec, SpecError

def compositions(parts_count: int, total: int) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of `parts_count` nonnegative ints summing to `total`,
    in ascending lexicographic order, each exactly once."""
    if parts_count < 1:
        raise SpecError("parts_count must be >= 1")
    if total < 0:
        raise SpecError("total must be >= 0")
    # Stars and bars: the parts_count - 1 ascending cut points in [0, total]
    # are the running sums of the parts, and they come out of
    # combinations_with_replacement in the parts' lexicographic order.
    end = (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts_count - 1):
        yield tuple(map(sub, cuts + end, (0,) + cuts))


def multinomial(total: int, parts: Sequence[int]) -> int:
    """total! / prod(part!) computed exactly via a product of binomials."""
    if sum(parts) != total:
        raise SpecError(f"multinomial parts {tuple(parts)} do not sum to {total}")
    result = 1
    running = 0
    for part in parts:
        running += part
        result *= math.comb(running, part)
    return result


def stencil_symbol_steps(spec: EquationSpec) -> list[tuple[Fraction, tuple[int, ...], int]]:
    """Per stencil entry: (coeff, spatial exponent step, time exponent step)
    of the symbol S(x, y)."""
    if spec.implicit_corner:
        raise SpecError("the corner-implicit form has no stencil symbol of this shape")
    return [
        (e.coeff,
         tuple(map(sub, spec.spatial_shift, e.offset)),
         spec.time_order - e.time_level)
        for e in spec.stencil
    ]


def _symbol_power(terms: Sequence[tuple[Fraction, tuple[int, ...]]], t: int,
                  row: Sequence[tuple[tuple[int, ...], int]],
                  point: tuple[int, ...] | None = None) -> tuple[int, dict[tuple[int, ...], int]]:
    """The integer coefficients of (D A)**t * N by Miller's power recurrence,
    for A = sum of coeff * x**exps over `terms` (distinct exponent vectors,
    nonzero coefficients), D the lcm of their denominators and N the row of
    integer (point, value) pairs `row`.

    Shifted by its lowest exponent on each axis, A has digits in
    [0, width], so (D A)**t * N has digits in [0, t * width + span], with
    span the row's extent on that axis.  A Kronecker substitution
    x_i = z**u_i, with the last axis on top and each lower axis's radix
    t * width + span + 1, packs every exponent vector that occurs into a
    distinct power of z without a carry, and A becomes a univariate
    polynomial A(z).  For P = (D A(z))**t, z A P' = t P z A' gives, with m0
    the least exponent of A(z),

        A_m0 (k - t m0) P_k = sum_{a != m0} A_a P_{k+m0-a} ((t+1)(a - m0) - (k - t m0)),

    so P_{t m0} = A_m0**t and every later coefficient, up to t times the
    highest exponent, comes from lower ones in O(terms) integer operations
    and an exact division.  A read below key 0 wraps to the top of the
    list, which is not yet written.  The row's points pack the same way, so
    N's product adds keys.

    Returns D and a map from each cell of (D A)**t * N to its nonzero
    coefficient; with `point`, from that cell alone, the recurrence stopping
    at the farthest key it reads.
    """
    scale = math.lcm(*[coeff.denominator for coeff, _ in terms])
    if not row:
        return scale, {}
    axes = list(zip(*[exps for _, exps in terms]))
    low = list(map(min, axes))
    widths = list(map(sub, map(max, axes), low))
    row_axes = list(zip(*[p for p, _ in row]))
    row_low = list(map(min, row_axes))
    units, radices = [1], []
    for w, lo, axis in zip(widths, row_low, row_axes[:-1]):
        radices.append(t * w + max(axis) - lo + 1)
        units.append(units[-1] * radices[-1])
    offset = sum(map(mul, low, units))
    coded = sorted([(sum(map(mul, exps, units)) - offset,
                     coeff.numerator * (scale // coeff.denominator))
                    for coeff, exps in terms])
    m0, a0 = coded[0]
    base = t * m0
    top = t * coded[-1][0]
    row_offset = sum(map(mul, row_low, units))
    shifts = [(sum(map(mul, p, units)) - row_offset, v) for p, v in row]
    origin = [t * lo + q for lo, q in zip(low, row_low)]
    stop = top + 1
    if point is not None:
        digits = list(map(sub, point, origin))
        # a lower digit outside [0, radix) would carry into the next axis
        if not all(0 <= d < radix for d, radix in zip(digits, radices)):
            return scale, {}
        target = sum(map(mul, digits, units))
        hits = [(target - s, v) for s, v in shifts if 0 <= target - s <= top]
        if not hits:
            return scale, {}
        stop = max(hits)[0] + 1
    coeffs = [0] * (top + 1)
    coeffs[base] = a0 ** t
    # per other term: its lag a - m0, coefficient and (t+1) * lag + base
    lags = [(a - m0, n, (t + 1) * (a - m0) + base) for a, n in coded[1:]]
    for k in range(base + 1, stop):
        total = 0
        for lag, n, c in lags:
            total += (c - k) * n * coeffs[k - lag]
        coeffs[k] = total // (a0 * (k - base))
    if point is not None:
        total = sum(coeffs[k] * v for k, v in hits)
        return scale, {point: total} if total else {}
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c]
    out = [0] * (len(coeffs) + max(s for s, _ in shifts))
    for s, v in shifts:
        for k, c in nonzero:
            out[k + s] += c * v
    cells = [k for k, v in enumerate(out) if v]
    # unpack each cell's digits, axis by axis, and zip them into points
    columns = [[k // u % radix + o for k in cells]
               for u, radix, o in zip(units, radices, origin)]
    columns.append([k // units[-1] + origin[-1] for k in cells])
    return scale, dict(zip(zip(*columns), [out[k] for k in cells]))


def _multinomial_weights(spec: EquationSpec, limit: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """The terms of sum_J S**J with time exponent e <= limit by the
    multinomial theorem applied one stencil entry at a time in integers: the
    series behind the rows of time order >= 2.

    With D the lcm of the coefficient denominators and n_u = D * coeff_u, the
    state maps (exponent vector, parts used) to an integer weight.  Entry u's
    factor is f_u = n_u * D**(ystep_u - 1), an integer since every time step
    is >= 1.  Entry u taking k parts adds k * (spatial step, time step) to
    the exponents and multiplies the weight by C(used + k, k) * f_u**k, so a
    finished state carries multinomial(J, r) * prod(f_u**r_u) for the
    composition r of its J parts, and prod(coeff_u**r_u) =
    prod(f_u**r_u) / D**e with e = sum(r_u * ystep_u).  States with equal
    keys merge after each entry, and a state stops taking parts once its
    time exponent would pass limit.

    Returns D and a map from exponent vector (spatial exponents..., time
    exponent) to integer weight W, each coefficient W / D**e, zeros dropped.
    """
    steps = stencil_symbol_steps(spec)
    scale = math.lcm(*(coeff.denominator for coeff, _, _ in steps))
    dim = spec.spatial_dim
    # A state key packs the spatial exponents as base-`radix` digits offset
    # by `bound`, which no spatial exponent of at most `limit` parts exceeds
    # in absolute value, the time exponent (< radix) above them and the parts
    # used on top: adding k parts of an entry is one integer addition, and
    # keys hash as small ints.
    bound = limit * max(abs(e) for _, xstep, ystep in steps for e in (*xstep, ystep))
    radix = 2 * bound + 1
    time_unit = radix ** dim
    used_unit = time_unit * radix
    entries = []
    for coeff, xstep, ystep in steps:
        n = coeff.numerator * (scale // coeff.denominator)
        code = sum(d * radix ** i for i, d in enumerate(xstep)) + ystep * time_unit + used_unit
        entries.append((n * scale ** (ystep - 1), code, ystep))

    states = {sum(bound * radix ** i for i in range(dim)): 1}
    last = len(entries) - 1
    for u, (n, code, cost) in enumerate(entries):
        merged: dict[int, int] = {}
        if u == last:
            # the series files its terms without the parts used, merging
            # every J
            code -= used_unit
        for key, weight in states.items():
            used = key // used_unit
            room = (limit - key // time_unit % radix) // cost
            if u == last:
                key -= used * used_unit
            merged[key] = merged.get(key, 0) + weight
            for k in range(1, room + 1):
                # C(used+k, k) n**k from C(used+k-1, k-1) n**(k-1); the division is exact
                weight = weight * n * (used + k) // k
                key += code
                merged[key] = merged.get(key, 0) + weight
        states = {key: w for key, w in merged.items() if w}

    terms = {}
    for code, weight in states.items():
        exps = []
        for _ in range(dim):
            code, d = divmod(code, radix)
            exps.append(d - bound)
        exps.append(code)
        terms[tuple(exps)] = weight
    return scale, terms


def expand_stencil_power(spec: EquationSpec, j: int) -> dict[tuple[int, ...], Fraction]:
    """S(x, y)**j as exponent vector (spatial exponents..., time exponent)
    -> coefficient, with like terms combined and zeros dropped, read from
    Miller's recurrence with y as one more axis, over D**j."""
    if j < 0:
        raise SpecError("power must be >= 0")
    terms = [(coeff, (*xstep, ystep)) for coeff, xstep, ystep in stencil_symbol_steps(spec)]
    scale, weights = _symbol_power(terms, j, [((0,) * (spec.spatial_dim + 1), 1)])
    denom = scale ** j
    return {exps: Fraction(weight, denom) for exps, weight in weights.items()}
