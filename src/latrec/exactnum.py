"""Exact rational scalars.

Every coefficient, field value and combinatorial weight in this package is an
arbitrary-precision rational.  The scalar type is the stdlib
``fractions.Fraction``, which already keeps values canonical (positive
denominator, fully reduced), so equality is structural and arithmetic is
exact.  This module adds the strict text format used by config files and CSV
output.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Malformed rational text; carries the offending text and position."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"cannot parse rational {text!r} at position {position}: {reason}")


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` (den positive, no whitespace) exactly.

    Stricter than the Fraction constructor: decimals, exponents, whitespace
    and digits other than ASCII 0-9 are rejected, and so is a part longer
    than the interpreter's limit on int() digits.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        # Locate the first character that breaks the grammar for the error.
        pos = 0
        for pos, ch in enumerate(text):
            if not (ch in "0123456789" or (ch == "-" and pos == 0) or ch == "/"):
                break
        raise ParseError(text, pos, "expected digits or digits/digits")
    num = _part(text, m, 1)
    den = _part(text, m, 2) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(text, text.index("/") + 1, "zero denominator")
    return Fraction(num, den)


def _part(text: str, m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # the only ValueError of int() on [0-9]+ is its digit limit
        raise ParseError(text, m.start(group),
                         f"more than {sys.get_int_max_str_digits()} digits") from None


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: ``num`` when the denominator is 1, else ``num/den``."""
    return str(x)

