"""Exact rational scalars.

Every coefficient, field value and combinatorial weight in this package is an
arbitrary-precision rational.  The scalar type is the stdlib
``fractions.Fraction``, which already keeps values canonical (positive
denominator, fully reduced), so equality is structural and arithmetic is
exact.  This module adds the strict text format used by config files and CSV
output, and ``rational_texts``, which writes that format from an integer
numerator over an unreduced denominator without building a Fraction.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from fractions import Fraction
from math import gcd

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# texts longer than this are quoted in a ParseError message by their first
# and last _EXCERPT characters and their length
_QUOTE_LIMIT = 40
_EXCERPT = 12


class ParseError(ValueError):
    """Malformed rational text; carries the offending text and position.
    The message quotes a long text by its ends and its length."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        if len(text) > _QUOTE_LIMIT:
            quoted = (f"{text[:_EXCERPT]!r}...{text[-_EXCERPT:]!r} "
                      f"({len(text)} characters)")
        else:
            quoted = repr(text)
        super().__init__(f"cannot parse rational {quoted} at position {position}: {reason}")


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



def rational_texts(base: int) -> Callable[[int, int], str]:
    """(n, den) -> format_rational(Fraction(n, den)) for den > 0, fast when
    every prime of den divides `base`.

    Per distinct den it keeps b = gcd(den, base) and the text "/den".  When
    b holds every prime of den, a numerator with gcd(n, b) == 1 shares no
    prime with den, so n/den is already reduced and is written as it
    stands; only the other numerators pay a full gcd(n, den).  Should den
    have a prime that base lacks, b is den itself, which is exact too.
    """
    rows: dict[int, tuple[int, str]] = {}

    def text(n: int, den: int) -> str:
        if not n:
            return "0"
        row = rows.get(den)
        if row is None:
            b = gcd(den, base)
            # strip b's primes from den, doubling the powers taken each round
            rest, g = den, b
            while g > 1:
                rest //= g
                g = gcd(rest, g * g)
            row = rows[den] = (b if rest == 1 else den, "" if den == 1 else f"/{den}")
        b, tail = row
        if gcd(n, b) == 1:
            return f"{n}{tail}"
        g = gcd(n, den)
        n, den = n // g, den // g
        return f"{n}" if den == 1 else f"{n}/{den}"

    return text
