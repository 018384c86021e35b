"""The per-row stencil power that built the one-step rows before a sweep's
rows shared one set-up, kept as a witness for the row path's tests: each
call packs A for its own t, runs Miller's recurrence to the last
coefficient and multiplies N in one dict update per (cell, point) pair."""

import math
from operator import mul, sub

from latrec.combinatorics import _miller


def reference_symbol_power(terms, t, row, out_units=None, point=None):
    """(D A)**t * N as the row path's contract states it, for A the
    (coeff, exponent vector) pairs `terms` and N the integer (key, value)
    pairs `row` keyed in out_units, or points with `point`: D and a map
    from each cell's key to its nonzero coefficient.  A is packed by the
    radices t * width + 1, P = (D A)**t is one Miller power run to its last
    coefficient, or to the farthest key a point reads, and P's nonzero
    cells, repacked into out_units, meet N's points in a dict."""
    scale = math.lcm(*[coeff.denominator for coeff, _ in terms])
    if not row:
        return scale, {}
    axes = list(zip(*[exps for _, exps in terms]))
    low = list(map(min, axes))
    # per axis, the largest digit of P
    reach = [t * (hi - lo) for hi, lo in zip(map(max, axes), low)]
    units = [1]
    for r in reach[:-1]:
        units.append(units[-1] * (r + 1))
    offset = sum(map(mul, low, units))
    coded = sorted([(sum(map(mul, exps, units)) - offset,
                     coeff.numerator * (scale // coeff.denominator))
                    for coeff, exps in terms])
    n = t * coded[-1][0]
    origin = [t * lo for lo in low]
    if point is not None:
        hits = []
        for q, v in row:
            digits = list(map(sub, map(sub, point, q), origin))
            if all(0 <= d <= r for d, r in zip(digits, reach)):
                key = sum(map(mul, digits, units))
                if key <= n:
                    hits.append((key, v))
        if not hits:
            return scale, {}
        n = max(hits)[0]
    (coeffs,) = _miller(coded, (), [(t, 0, n)])
    if point is not None:
        total = sum(coeffs[k] * v for k, v in hits)
        return scale, {point: total} if total else {}
    # P's nonzero cells, repacked axis by axis unless the packings agree,
    # as on one axis; a cell's digits are its exponents less the origin's
    keys = [k for k, c in enumerate(coeffs) if c]
    values = [c for c in coeffs if c]
    if list(out_units) == units:
        moved = keys
    else:
        moved = [k // units[-1] * out_units[-1] for k in keys]
        for u, r, v in zip(units[:-1], reach[:-1], out_units[:-1]):
            moved = [m + k // u % (r + 1) * v for m, k in zip(moved, keys)]
    shift = sum(map(mul, origin, out_units))
    (s, v), *shifts = [(k + shift, v) for k, v in row]
    out = {k + s: c * v for k, c in zip(moved, values)}
    get = out.get
    for s, v in shifts:
        for k, c in zip(moved, values):
            k += s
            out[k] = get(k, 0) + c * v
    return scale, {k: v for k, v in out.items() if v}

