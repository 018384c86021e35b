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
(``closed_form._power_row``); the heat profile iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closed_form import _power_row, tridiagonal_spec
from .lattice import EquationSpec, FieldRow, InitialData, SpecError
from .oracle import oracle_evolve


@dataclass(frozen=True)
class RandomWalkParams:
    p: Fraction
    d: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("p", "d", "q"):
            value = Fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 0:
                raise SpecError(f"probability {name} must be >= 0, got {value}")
        if self.p + self.d + self.q != 1:
            raise SpecError(
                f"probabilities must sum to 1 exactly, got {self.p + self.d + self.q}")


@dataclass(frozen=True)
class HeatParams:
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
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
    if j < 0:
        raise SpecError("step count must be >= 0")
    return _power_row(random_walk_spec(params), FieldRow.delta(1), j)


def heat_profile(params: HeatParams, psi: FieldRow, j_max: int) -> list[FieldRow]:
    """Temperature rows 0..j_max from the profile psi, by direct iteration."""
    spec = heat_spec(params)
    return oracle_evolve(spec, InitialData((psi,)), j_max)
