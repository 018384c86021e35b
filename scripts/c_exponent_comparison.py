#!/usr/bin/env python3
"""Compare the two c-exponent variants of the three-point closed form
against the iteration oracle on a small grid.

The double binomial sum for U[i,j+1] = a U[i-1,j] + b U[i,j] + c U[i+1,j]
carries a factor c**e per term.  Tying e to the outer summation index
("j-m") satisfies the recurrence; tying it to the inner one ("j-n") does
not, and this script prints exactly where the two diverge, starting at the
very first time step.  The inner-index variant is read as verify's
"tridiagonal-j-n" control reads it (closed_getter).  As c^(j-n) =
c^(j-m) c^(m-n), it is the outer-index sum with b c in place of b, so it
must equal the oracle of (a, b c, c) everywhere: the script exits 1 naming
the first cell where either variant misses its oracle, and when the
control agrees with the oracle of (a, b, c) everywhere.
"""

import sys
from fractions import Fraction

from latrec import (FieldRow, InitialData, eval_tridiagonal, oracle_evolve,
                    tridiagonal_spec)
from latrec.closed_form import closed_getter

A, B, C = Fraction(1), Fraction(2), Fraction(3)
T_MAX = 4


def main() -> int:
    delta = FieldRow.delta(1)
    spec, initial = tridiagonal_spec(A, B, C), InitialData((delta,))
    rows = oracle_evolve(spec, initial, T_MAX)
    control = closed_getter(spec, initial, "tridiagonal-j-n")
    control_rows = oracle_evolve(tridiagonal_spec(A, B * C, C), initial, T_MAX)

    print(f"stencil (a, b, c) = ({A}, {B}, {C}), initial data: unit mass at 0")
    print(f"{'i':>4} {'j':>3} {'oracle':>10} {'c^(j-m)':>10} {'c^(j-n)':>10}  verdict")
    divergences = 0
    for j in range(T_MAX + 1):
        for i in range(-j, j + 1):
            ov = rows[j].get((i,))
            good = eval_tridiagonal(A, B, C, delta, i, j)
            bad = Fraction(*control((i,), j))
            verdict = "ok" if bad == ov else "j-n diverges"
            if bad != ov:
                divergences += 1
            print(f"{i:>4} {j:>3} {str(ov):>10} {str(good):>10} {str(bad):>10}  {verdict}")
            if good != ov:
                print(f"outer-index variant differs from the oracle at i={i}, j={j}")
                return 1
            if bad != control_rows[j].get((i,)):
                print(f"inner-index variant differs from the oracle of (a, b c, c) = "
                      f"({A}, {B * C}, {C}) at i={i}, j={j}")
                return 1
    print()
    if not divergences:
        print("the inner-index control agrees with the oracle everywhere")
        return 1
    print(f"outer-index variant: exact everywhere; "
          f"inner-index variant: {divergences} divergent points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
