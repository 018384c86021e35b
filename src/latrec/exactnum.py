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
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class ParseError(ValueError):
    """Malformed rational text; carries the offending text and position."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"cannot parse rational {text!r} at position {position}: {reason}")


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` (den positive, no whitespace) exactly.

    Stricter than the Fraction constructor: decimals, exponents and
    whitespace are rejected.
    """
    m = _RATIONAL_RE.match(text)
    if m is None:
        # Locate the first character that breaks the grammar for the error.
        pos = 0
        for pos, ch in enumerate(text):
            if not (ch.isdigit() or (ch == "-" and pos == 0) or ch == "/"):
                break
        raise ParseError(text, pos, "expected digits or digits/digits")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError(text, text.index("/") + 1, "zero denominator")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: ``num`` when the denominator is 1, else ``num/den``."""
    return str(x)

