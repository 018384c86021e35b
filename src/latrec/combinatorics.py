"""Compositions, multinomial coefficients, and stencil-symbol expansions.

The closed-form evaluators all share one combinatorial core: the stencil
symbol

    S(x, y) = sum over entries of  coeff * x^(spatial_shift - offset) * y^(time_order - time_level)

raised to a power, or summed over every power as the series sum_J S^J of
U = Q / (1 - S), with like terms collected.  One kernel does both: it
applies the multinomial theorem one stencil entry at a time on
integer-scaled coefficients, merging like terms after each entry, and
leaves the division by the common denominator to the caller, once per term
(``expand_stencil_power``) or once per row cell (``closed_form.closed_rows``).
``compositions`` and ``multinomial`` serve the pointwise evaluators, which
sum over compositions directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator, Sequence

from .lattice import EquationSpec, SpecError

# exponent vector (spatial exponents..., time exponent) -> coefficient
TermMap = dict[tuple[int, ...], Fraction]


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
         tuple(s - o for s, o in zip(spec.spatial_shift, e.offset)),
         spec.time_order - e.time_level)
        for e in spec.stencil
    ]


def _multinomial_weights(spec: EquationSpec, limit: int,
                         series: bool) -> tuple[int, dict[tuple[int, ...], int]]:
    """The multinomial theorem applied one stencil entry at a time in
    integers: the one kernel behind every stencil-symbol expansion.

    With D the lcm of the coefficient denominators and n_u = D * coeff_u, the
    state maps (exponent vector, parts used) to an integer weight.  Entry u
    taking k parts adds k * (spatial step, time step) to the exponents and
    multiplies the weight by C(used + k, k) * n_u**k, so a finished state
    carries multinomial(J, r) * prod(n_u**r_u) for the composition r of its
    J parts.  States with equal keys merge after each entry.

    Returns D and a map from exponent vector (spatial exponents..., time
    exponent) to integer weight W, zeros dropped:

    * ``series=False``: the terms of S**limit, each coefficient W / D**limit.
      The last entry takes every remaining part.
    * ``series=True``: the terms of sum_J S**J with time exponent
      e <= limit, each coefficient W / D**e.  Entry u's factor is
      n_u * D**(ystep_u - 1), an integer since every time step is >= 1, so
      that prod(coeff_u**r_u) = prod(factor_u**r_u) / D**e with
      e = sum(r_u * ystep_u).  A state stops taking parts once its time
      exponent would pass limit.
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
    # Parts of an entry spend `limit`: one each in a power, their time step
    # each in the series.
    spent_unit = time_unit if series else used_unit
    entries = []
    for coeff, xstep, ystep in steps:
        n = coeff.numerator * (scale // coeff.denominator)
        code = sum(d * radix ** i for i, d in enumerate(xstep)) + ystep * time_unit + used_unit
        entries.append((n * scale ** (ystep - 1), code, ystep) if series else (n, code, 1))

    states = {sum(bound * radix ** i for i in range(dim)): 1}
    last = len(entries) - 1
    for u, (n, code, cost) in enumerate(entries):
        merged: dict[int, int] = {}
        if u == last and not series:
            # a power's last entry takes every remaining part, and its terms
            # drop the `limit` parts used
            tail = [math.comb(limit, k) * n ** k for k in range(limit + 1)]
            for key, weight in states.items():
                room = limit - key // used_unit
                key += room * code - limit * used_unit
                merged[key] = merged.get(key, 0) + weight * tail[room]
        else:
            if u == last:
                # the series files its terms without the parts used, merging
                # every J
                code -= used_unit
            for key, weight in states.items():
                used = key // used_unit
                room = (limit - key // spent_unit % radix) // cost
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


def expand_stencil_power(spec: EquationSpec, j: int) -> TermMap:
    """TermMap of S(x, y)**j with like terms combined and zeros dropped,
    read from the multinomial kernel's integer weights over D**j."""
    if j < 0:
        raise SpecError("power must be >= 0")
    scale, weights = _multinomial_weights(spec, j, series=False)
    denom = scale ** j
    return {exps: Fraction(weight, denom) for exps, weight in weights.items()}
