"""Compositions, multinomial coefficients, and stencil-symbol powers.

The closed-form evaluators all share one combinatorial core: raise the
stencil symbol

    S(x, y) = sum over entries of  coeff * x^(spatial_shift - offset) * y^(time_order - time_level)

to an integer power and collect like terms.  The expansion applies the
multinomial theorem one stencil entry at a time on integer-scaled
coefficients, merging like terms after each entry, and divides by the common
denominator once per term.  ``compositions`` and ``multinomial`` serve the
pointwise evaluators, which sum over compositions directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
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

    def rec(remaining_parts: int, remaining_total: int):
        if remaining_parts == 1:
            yield (remaining_total,)
            return
        for first in range(remaining_total + 1):
            for rest in rec(remaining_parts - 1, remaining_total - first):
                yield (first,) + rest

    yield from rec(parts_count, total)


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


def expand_stencil_power(spec: EquationSpec, j: int) -> TermMap:
    """TermMap of S(x, y)**j with like terms combined and zeros dropped.

    The multinomial theorem, applied one stencil entry at a time in
    integers.  With D the lcm of the coefficient denominators and
    n_u = D * coeff_u, the state maps (exponent vector, parts used) to an
    integer weight.  Entry u takes k of the rem = j - used remaining parts,
    adding k * (spatial step, time step) to the exponents and multiplying the
    weight by C(rem, k) * n_u**k; the last entry takes every remaining part.
    States with equal keys merge after each entry, and each final weight w
    becomes the coefficient w / D**j.
    """
    if j < 0:
        raise SpecError("power must be >= 0")
    steps = stencil_symbol_steps(spec)
    scale = math.lcm(*(coeff.denominator for coeff, _, _ in steps))
    scaled = [coeff.numerator * (scale // coeff.denominator) for coeff, _, _ in steps]
    # A state key packs the exponent vector as base-`radix` digits offset by
    # `bound`, which no exponent of a product of at most j factors exceeds in
    # absolute value, with the parts used above them: adding k copies of an
    # entry is then one integer addition, and keys hash as small ints.
    width = spec.spatial_dim + 1
    bound = j * max(abs(e) for _, xstep, ystep in steps for e in (*xstep, ystep))
    radix = 2 * bound + 1
    used_unit = radix ** width

    def pack(digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * radix + d
        return code

    states = {pack((bound,) * width): 1}
    for n, (_, xstep, ystep) in zip(scaled[:-1], steps):
        step = pack((*xstep, ystep)) + used_unit
        merged: dict[int, int] = {}
        for key, weight in states.items():
            rem = j - key // used_unit
            for k in range(rem + 1):
                merged[key] = merged.get(key, 0) + weight
                # C(rem, k+1) n**(k+1) from C(rem, k) n**k; the division is exact
                weight = weight * n * (rem - k) // (k + 1)
                if not weight:
                    break
                key += step
        states = {key: w for key, w in merged.items() if w}

    _, xstep, ystep = steps[-1]
    step = pack((*xstep, ystep))
    collected: dict[int, int] = {}
    for key, weight in states.items():
        used, exps = divmod(key, used_unit)
        exps += (j - used) * step
        collected[exps] = collected.get(exps, 0) + weight * scaled[-1] ** (j - used)

    denom = scale ** j
    terms: TermMap = {}
    for code, weight in collected.items():
        if weight:
            exps = []
            for _ in range(width):
                code, d = divmod(code, radix)
                exps.append(d - bound)
            terms[tuple(exps)] = Fraction(weight, denom)
    return terms
