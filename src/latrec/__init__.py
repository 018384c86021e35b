"""Exact solutions of linear constant-coefficient partial difference
equations on integer lattices.

Closed-form evaluators (finite multinomial sums over exact rationals) and a
direct recurrence-iteration oracle, built to agree bit-for-bit on
finite-support initial data.
"""

from .exactnum import ParseError, format_rational, parse_rational
from .lattice import (Box, EquationSpec, FieldRow, InitialData, Point,
                      SpecError, StencilEntry)
from .combinatorics import expand_stencil_power
from .closed_form import (as_tridiagonal, closed_rows, closed_value,
                          corner_kernel, eval_implicit, eval_nd,
                          eval_tridiagonal, source_rows, tridiagonal_spec)
from .oracle import (EvolutionState, Mismatch, Region, VerifyReport,
                     auto_window, oracle_evolve, oracle_step,
                     oracle_sweep_implicit, verify_closed_vs_oracle,
                     verify_recurrence)
from .models import (HeatParams, RandomWalkParams, heat_profile, heat_spec,
                     random_walk_distribution, random_walk_spec)
from .config import ConfigError, RunConfig, load_config, parse_config, spec_hash

__all__ = [
    "Box", "ConfigError", "EquationSpec", "EvolutionState", "FieldRow",
    "HeatParams", "InitialData", "Mismatch", "ParseError", "Point",
    "RandomWalkParams", "Region", "RunConfig", "SpecError",
    "StencilEntry", "VerifyReport", "as_tridiagonal", "auto_window",
    "closed_rows", "closed_value", "corner_kernel", "eval_implicit", "eval_nd",
    "eval_tridiagonal", "expand_stencil_power", "format_rational",
    "heat_profile", "heat_spec", "load_config", "oracle_evolve", "oracle_step",
    "oracle_sweep_implicit", "parse_config", "parse_rational",
    "random_walk_distribution", "random_walk_spec", "source_rows", "spec_hash",
    "tridiagonal_spec", "verify_closed_vs_oracle", "verify_recurrence",
]
