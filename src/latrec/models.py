"""Model presets: 1D lattice random walk and discrete heat flow.

Both are three-point one-step equations; the physics lives in the parameter
constraints, not in the evaluators.  A walker stays put with probability d
and moves one unit right/left with probabilities p/q, so the occupation
probabilities follow

    a[i, j+1] = p a[i-1, j] + d a[i, j] + q a[i+1, j].

Discrete heat flow with transfer coefficient r exchanges r times the
temperature difference with each neighbour per step, giving coefficients
(r, 1 - 2r, r); total temperature is conserved and 0 < r <= 1/2 keeps the
update a convex average (stable).

The walk's distribution after j steps is the coefficient list of its
stencil symbol's j-th power, read from Miller's power recurrence, the one
routine behind the powers of every one-step equation
(``closed_form._power_rows``); the heat profile iterates.  Both build a
Fraction per cell from the engines' integer rows; ``latrec demo`` writes
those rows' text without them.
"""

from __future__ import annotations

from fractions import Fraction

from .closed_form import _power_rows, tridiagonal_spec
from .lattice import (Box, EquationSpec, FieldRow, InitialData, Packing, Record, SpecError,
                      _as_count, _as_fraction, _set)
from .oracle import oracle_evolve


class RandomWalkParams(Record):
    """Step probabilities of a walker: p right, d stay, q left."""
    __slots__ = ("p", "d", "q")

    def __init__(self, p: Fraction, d: Fraction, q: Fraction):
        _set(self, "p", p)
        _set(self, "d", d)
        _set(self, "q", q)
        for name in ("p", "d", "q"):
            value = _as_fraction(getattr(self, name), f"probability {name}")
            object.__setattr__(self, name, value)
            if value < 0:
                raise SpecError(f"probability {name} must be >= 0, got {value}")
        if self.p + self.d + self.q != 1:
            raise SpecError(
                f"probabilities must sum to 1 exactly, got {self.p + self.d + self.q}")


class HeatParams(Record):
    """The transfer coefficient r of discrete heat flow."""
    __slots__ = ("r",)

    def __init__(self, r: Fraction):
        _set(self, "r", _as_fraction(r, "transfer coefficient r"))
        if self.r <= 0:
            raise SpecError(f"transfer coefficient r must be > 0, got {self.r}")

    @property
    def stable(self) -> bool:
        return self.r <= Fraction(1, 2)


def random_walk_spec(params: RandomWalkParams) -> EquationSpec:
    return tridiagonal_spec(params.p, params.d, params.q)


def heat_spec(params: HeatParams) -> EquationSpec:
    r = params.r
    return tridiagonal_spec(r, 1 - 2 * r, r)


def random_walk_distribution(params: RandomWalkParams, j: int) -> FieldRow:
    """Occupation probabilities after j steps from the origin.

    The walker starts at 0 with probability 1, so the row after j steps is
    the coefficient list of the stencil symbol raised to the power j; its
    support is within [-j, j]."""
    j = _as_count(j, "step count")
    packing = Packing(Box((-j,), (j,)))
    den, nums = next(_power_rows(random_walk_spec(params), FieldRow.delta(1), (j,), packing))
    return FieldRow._over(packing, den, nums)


def heat_profile(params: HeatParams, psi: FieldRow, j_max: int) -> list[FieldRow]:
    """Temperature rows 0..j_max from the profile psi, by direct iteration."""
    spec = heat_spec(params)
    return oracle_evolve(spec, InitialData((psi,)), j_max)
