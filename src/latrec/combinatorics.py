"""Compositions, multinomial coefficients, and stencil-symbol expansions.

The closed-form evaluators all share one combinatorial core: the stencil
symbol

    S(x, y) = sum over entries of  coeff * x^(spatial_shift - offset) * y^(time_order - time_level)

raised to a power, or summed over every power as the series sum_J S^J of
U = Q / (1 - S), with like terms collected.  Every power is read by one
routine, ``_miller``: the coefficients of R^i / (1 - P)^e for integer
polynomials R and P, by J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2,
4.7), each from the ones below it in O(terms of R (1 - P)) integer
operations.  Its callers give only R, P, i and e; the corner form's kernel
rows (``closed_form``) read it too.  ``_symbol_powers`` packs each
exponent vector into one power of a single variable z, wide enough that
no digit carries, reads the univariate (D S(z))^t without forming
S^(t-1), to its middle coefficient when S is centrally symmetric, and
keys the product's cells in the caller's packing (``lattice.Packing``)
without unpacking them, by list slices in 1D; a sweep over t sets up once.
``expand_stencil_power`` reads one power with y as one more axis, and the
one-step equations' rows and points (``closed_form._power_rows``) a
sweep in x alone.  Only time order >= 2
needs the series: ``_multinomial_weights`` applies the multinomial theorem
one stencil entry at a time on integer-scaled coefficients, merging like
terms after each entry, about T^4 states to time exponent T.  When the
symbol is 1D with x-steps 0 and one sign sigma (``_column_sign``), S =
S0(y) + x^sigma S1(y) and ``_column_weights`` reads the same terms one
column S1^i / (1 - S0)^(i+1) per power of x in O(T^2) steps: column 0 is
the multinomial pass over S0's entries alone, every other column one
``_miller`` power, none read from another.  ``compositions`` and
``multinomial`` serve the pointwise evaluators, which sum over
compositions directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, mul, neg, sub

from .lattice import Box, EquationSpec, Packing, SpecError, _as_int

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


def _miller(r: Sequence[tuple[int, int]], p: Sequence[tuple[int, int]],
            powers: Iterable[tuple[int, int, int]]) -> Iterator[list[int]]:
    """k_0..k_n of K = R**i / (1 - P)**e for each (i, e, n) in powers, by
    J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), for integer
    polynomials R and P as (exponent, coefficient) pairs: R's sorted, P's
    without a constant term.  R**0 is 1, also for R = 0.

    With R = x**v R~, R~_0 != 0, K is x**(v i) zeros and then the series
    R~**i / (1 - P)**e, which solves F K' = G K for F = R~ (1 - P),
    C = P' R~ and G = i F' + (i + e) C, from R~_0**i:

        F_0 s k_s = sum over l >= 1 of ((i + 1) l F_l + (i + e) C_(l-1) - F_l s) k_(s-l),

    divided exactly.  F and C are worked out once for all the powers."""
    if r and not r[0][1]:
        r = [term for term in r if term[1]]
    zero = not r
    if zero:
        r = [(0, 1)]
    v, f0 = r[0]
    f = {a - v: c for a, c in r}
    c_lag: dict[int, int] = {}  # l -> C_(l-1)
    for b, q in p:
        for a, c in r:
            l = a - v + b
            f[l] = f.get(l, 0) - q * c
            c_lag[l] = c_lag.get(l, 0) + b * q * c
    get = c_lag.get
    reach = max(f)
    for i, e, n in powers:
        front = v * i
        if front > n or zero and i:
            yield [0] * (n + 1)
            continue
        lags = [(l, (i + 1) * l * fl + (i + e) * cl, fl) for l, fl in f.items()
                if l and ((cl := get(l, 0)) or fl)]
        m = n - front
        # a read below k_0 lands in the zeros past k_m
        ks = [f0 ** i] + [0] * (m + reach)
        for s in range(1, m + 1):
            total = 0
            for l, u, w in lags:
                total += (u - w * s) * ks[s - l]
            ks[s] = total // (f0 * s)
        del ks[m + 1:]
        yield [0] * front + ks if front else ks


def _symbol_powers(terms: Sequence[tuple[Fraction, tuple[int, ...]]], times: Iterable[int],
                   row: Sequence[tuple], out_units: Sequence[int] | None = None,
                   point: tuple[int, ...] | None = None) -> Iterator[tuple[int, dict]]:
    """For each t of times, the integer coefficients of (D A)**t * N by
    Miller's recurrence (_miller), for A = sum of coeff * x**exps over
    `terms` (distinct exponent vectors, nonzero coefficients), D the lcm of
    their denominators and N the integer (key, value) pairs `row`, keys
    packed in the caller's out_units (lattice.Packing) whose box holds N and
    every product, or points with `point`.

    Shifted by its lowest exponent on each axis, A has digits in
    [0, width], so P = (D A)**t has digits in [0, t * width].  A Kronecker
    substitution x_i = z**u_i, with the last axis on top and each lower
    axis's radix t * width + 1, packs every exponent vector of P into a
    distinct power of z without a carry, and A becomes a univariate
    polynomial A(z).  P is R**t for R = D A(z), one _miller power with no
    denominator, its first t v coefficients zero for A's least packed
    exponent v.  N's extent never enters P's packing, so points of N far
    apart cost no coefficients.

    What does not depend on t is worked out once per sweep: D, the integer
    coefficients, the per-axis bounds, whether A is centrally symmetric,
    N sorted, and in 1D, where no radix enters, the packed R.  A centrally
    symmetric A (about any point, so with drift too) packs, past its
    leading zeros, into a palindrome at every t, and so does R**t:
    Miller's recurrence runs to the middle coefficient and the rest are
    its mirror image.

    In 1D the two packings agree, and N multiplies P in by list slices: one
    dense accumulator per cluster of N's points, split wherever consecutive
    points lie more than len(P) apart, so a row costs at most |N| len(P)
    cells however far apart N's points are.  On more axes P's nonzero
    cells are repacked, axis by axis, into out_units, and N multiplies them
    into a dict, which costs the product's terms.  Either way the cells
    that cancel are dropped and no key is unpacked.

    Yields D and a map from each cell's key in out_units to its nonzero
    coefficient in (D A)**t * N; with `point`, from that point alone, the
    recurrence stopping at the farthest key it reads, never mirrored.
    """
    scale = math.lcm(*[coeff.denominator for coeff, _ in terms])
    ints = [coeff.numerator * (scale // coeff.denominator) for coeff, _ in terms]
    axes = list(zip(*[exps for _, exps in terms]))
    low = list(map(min, axes))
    width = list(map(sub, map(max, axes), low))
    line = len(low) == 1
    if line:
        coded = sorted(zip([e - low[0] for e in axes[0]], ints))
    else:
        digits = [(tuple(map(sub, exps, low)), c) for (_, exps), c in zip(terms, ints)]
    if point is None:
        row = sorted(row)
        # A is centrally symmetric when the cell at digits d holds what the
        # cell at width - d holds
        cells = [((k,), c) for k, c in coded] if line else sorted(digits)
        mirrored = cells == sorted([(tuple(map(sub, width, d)), c) for d, c in cells])
    for t in times:
        if not row:
            yield scale, {}
            continue
        # per axis, the largest digit of P
        reach = [t * w for w in width]
        units = [1]
        for r in reach[:-1]:
            units.append(units[-1] * (r + 1))
        if not line:
            coded = sorted([(sum(map(mul, d, units)), c) for d, c in digits])
        n = t * coded[-1][0]
        origin = [t * lo for lo in low]
        if point is not None:
            hits = []
            for q, value in row:
                ds = list(map(sub, map(sub, point, q), origin))
                if all(0 <= d <= r for d, r in zip(ds, reach)):
                    key = sum(map(mul, ds, units))
                    if key <= n:
                        hits.append((key, value))
            if not hits:
                yield scale, {}
                continue
            (coeffs,) = _miller(coded, (), [(t, 0, max(hits)[0])])
            total = sum(coeffs[k] * value for k, value in hits)
            yield scale, {point: total} if total else {}
            continue
        if mirrored:
            # P is t v zeros, v A's least packed exponent, then a palindrome
            # of m + 1 coefficients: the first half + 1, then the rest mirrored
            front = t * coded[0][0]
            half = (n - front) // 2
            (coeffs,) = _miller(coded, (), [(t, 0, front + half)])
            coeffs += coeffs[front:n - half][::-1]
        else:
            (coeffs,) = _miller(coded, (), [(t, 0, n)])
        shift = sum(map(mul, origin, out_units))
        if line:
            yield scale, _slice_product(coeffs, row, shift)
            continue
        # P's nonzero cells, repacked axis by axis; a cell's digits are its
        # exponents less the origin's
        keys = [k for k, c in enumerate(coeffs) if c]
        values = [c for c in coeffs if c]
        moved = [k // units[-1] * out_units[-1] for k in keys]
        for u, r, o in zip(units[:-1], reach[:-1], out_units[:-1]):
            moved = [m + k // u % (r + 1) * o for m, k in zip(moved, keys)]
        (s, value), *shifts = [(k + shift, value) for k, value in row]
        out = {k + s: c * value for k, c in zip(moved, values)}
        get = out.get
        for s, value in shifts:
            for k, c in zip(moved, values):
                k += s
                out[k] = get(k, 0) + c * value
        yield scale, {k: value for k, value in out.items() if value}


def _slice_product(coeffs: list[int], row: Sequence[tuple[int, int]], shift: int) -> dict:
    """The nonzero cells of P * N on one axis, for P's coefficients `coeffs`
    from key `shift` and N the sorted integer (key, value) pairs `row`.
    Each cluster of N's points, a new one wherever a point lies more than
    len(coeffs) past the one before it, fills one dense list: its first
    point's multiple of P, then each other point's added or subtracted by
    a slice.  P is scaled once per distinct magnitude of N's values."""
    span = len(coeffs)
    scaled = {1: coeffs}
    clusters = []
    first = 0
    for last in range(1, len(row) + 1):
        if last < len(row) and row[last][0] - row[last - 1][0] <= span:
            continue
        lo = row[first][0]
        acc = None
        for q, value in row[first:last]:
            part = scaled.get(m := abs(value))
            if part is None:
                part = scaled[m] = list(map(m.__mul__, coeffs))
            if acc is None:
                acc = part[:] if value > 0 else list(map(neg, part))
                acc += [0] * (row[last - 1][0] - lo)
            else:
                o = q - lo
                acc[o:o + span] = map(add if value > 0 else sub, acc[o:o + span], part)
        clusters.append((lo + shift, acc))
        first = last
    return {base + i: c for base, acc in clusters for i, c in enumerate(acc) if c}


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


def _column_sign(spec: EquationSpec) -> int | None:
    """sigma when the spec is explicit and 1D and its entries' x-steps take
    exactly the two values 0 and sigma = +1 or -1, so that
    S = S0(y) + x**sigma S1(y); None for any other spec."""
    if spec.implicit_corner or spec.spatial_dim != 1:
        return None
    (shift,) = spec.spatial_shift
    xsteps = {shift - e.offset[0] for e in spec.stencil}
    return 1 if xsteps == {0, 1} else -1 if xsteps == {0, -1} else None


def _column_weights(spec: EquationSpec, limit: int, columns: dict[int, int] | None = None
                    ) -> tuple[int, dict[tuple[int, int], int]]:
    """The terms of sum_J S**J with time exponent e <= limit, as
    _multinomial_weights gives them, for a spec with a _column_sign sigma:
    S = S0(y) + x**sigma S1(y), so that

        [x**(sigma i)] sum_J S**J = S1**i / (1 - S0)**(i+1).

    y is scaled as there: with f_u = n_u * D**(ystep_u - 1), S0 and S1 have
    integer coefficients and every coefficient is W / D**e.  Column 0,
    1 / (1 - S0), is _multinomial_weights over the x-step-0 entries alone,
    over D0**e, lifted by (D / D0)**e.  Columns i >= 1 are the powers
    (R, P, i, e) = (S1, S0, i, i + 1) of one _miller call.  No column reads
    another, and Miller's steps carry step-dependent coefficients and an
    exact division, so this is not the iteration U = Q + S U; it is the
    corner kernel's (b + c x)**j / (1 - a x)**(j+1) with y in place of x.
    Rows cost O(limit**2) steps against the multinomial pass's O(limit**4)
    states.

    `columns` maps each column i wanted to the largest time exponent it is
    read to (default: every column, each to `limit`).  Returns D and a map
    from (sigma i, e) to W, zeros dropped.
    """
    sign = _column_sign(spec)
    steps = stencil_symbol_steps(spec)
    scale = math.lcm(*(coeff.denominator for coeff, _, _ in steps))
    s0, r = [], []
    for coeff, (xstep,), ystep in steps:
        (r if xstep else s0).append(
            (ystep, coeff.numerator * (scale // coeff.denominator) * scale ** (ystep - 1)))
    r.sort()
    v = r[0][0]
    if columns is None:
        columns = dict.fromkeys(range(limit // v + 1), limit)
    terms = {}
    if 0 in columns:
        zero = EquationSpec(1, spec.time_order, spec.spatial_shift,
                            tuple(e for e in spec.stencil if e.offset == spec.spatial_shift))
        zero_scale, weights = _multinomial_weights(zero, columns[0])
        lift = scale // zero_scale
        for (_, e), weight in weights.items():
            terms[0, e] = weight * lift ** e
    wanted = [i for i in columns if i]
    for i, ks in zip(wanted, _miller(r, s0, [(i, i + 1, columns[i]) for i in wanted])):
        for e, k in enumerate(ks):
            if k:
                terms[sign * i, e] = k
    return scale, terms


def expand_stencil_power(spec: EquationSpec, j: int) -> dict[tuple[int, ...], Fraction]:
    """S(x, y)**j as exponent vector (spatial exponents..., time exponent)
    -> coefficient, with like terms combined and zeros dropped, read from
    Miller's recurrence with y as one more axis, over D**j, its keys packed
    in j times the box of S's exponents."""
    if (j := _as_int(j, "power")) < 0:
        raise SpecError("power must be >= 0")
    terms = [(coeff, (*xstep, ystep)) for coeff, xstep, ystep in stencil_symbol_steps(spec)]
    axes = list(zip(*[exps for _, exps in terms]))
    packing = Packing(Box(tuple(j * min(a) for a in axes), tuple(j * max(a) for a in axes)))
    # N is 1 at the origin, whose key is -base
    scale, weights = next(_symbol_powers(terms, (j,), [(-packing.base, 1)], packing.units))
    denom = scale ** j
    return {exps: Fraction(weight, denom)
            for exps, weight in zip(packing.points(weights), weights.values())}
