"""Exact rational scalars.

Every coefficient, field value and combinatorial weight in this package is an
arbitrary-precision rational.  The scalar type is the stdlib
``fractions.Fraction``, which already keeps values canonical (positive
denominator, fully reduced), so equality is structural and arithmetic is
exact.  This module adds the strict text format used by config files and CSV
output, and ``rational_texts``, which writes that format from an integer
numerator over an unreduced denominator without building a Fraction: over
a power of one prime it cancels the prime's valuation, and over any other
denominator a gcd.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from fractions import Fraction
from math import gcd, log

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
    """Inverse of parse_rational: ``num`` when the denominator is 1, else
    ``num/den``, either part of any length (_decimal)."""
    try:
        return str(x)
    except ValueError:  # a part past the interpreter's digit limit
        num = _decimal(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  Past the interpreter's limit on the
    digits of an int's text (Python 3.10.7 and later), n is split by a
    power of 10 into halves that are each texted the same way; the limit
    is neither read nor changed."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    # about half of n's digits: log10(2) is just over 3/10
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)



def rational_texts(base: int) -> Callable[[int, int], str]:
    """(n, den) -> format_rational(Fraction(n, den)) for den > 0, fast when
    every prime of den divides `base`.

    Per distinct den it keeps a row: b = gcd(den, base), the text "/den",
    and whether den is p**e for one prime p of b.  For such a den, a
    numerator that p does not divide is written as it stands; any other is
    divided by p**v, v its valuation at p capped at e and counted by
    one-digit divisions, and the text of den / p**v is kept per v.  For
    any other den, when b holds every prime of den, a numerator with
    gcd(n, b) == 1 shares no prime with den, so n/den is already reduced
    and is written as it stands; only the other numerators pay a full
    gcd(n, den).  Should den have a prime that base lacks, b is den
    itself, which is exact too.
    """
    # den -> (b, "/den"), or, when den = p**e, (None, (p, e, "/den", tails))
    # with tails[v] the tail of den / p**v ("" at v = e)
    rows: dict[int, tuple] = {}

    def keep(den: int) -> tuple:
        b = gcd(den, base)
        p, tail = _prime_of(b), "" if den == 1 else "/" + _decimal(den)
        if p is not None:
            # den's primes are all p's only when den is this power of p
            e = round(log(den, p))
            if p ** e == den:
                return None, (p, e, tail, {})
        # strip b's primes from den, doubling the powers taken each round
        rest, g = den, b
        while g > 1:
            rest //= g
            g = gcd(rest, g * g)
        return (b if rest == 1 else den), tail

    def text(n: int, den: int) -> str:
        if not n:
            return "0"
        row = rows.get(den)
        if row is None:
            row = rows[den] = keep(den)
        b, tail = row
        try:
            if b is not None:
                if gcd(n, b) == 1:
                    return f"{n}{tail}"
                g = gcd(n, den)
                return f"{n // g}" if den == g else f"{n // g}/{den // g}"
            p, e, tail, tails = tail
            if n % p:
                return f"{n}{tail}"
            m, v = n // p, 1
            while v < e and not m % p:
                m //= p
                v += 1
            s = tails.get(v)
            if s is None:
                s = tails[v] = "" if v == e else "/" + _decimal(den // p ** v)
            return f"{m}{s}"
        except ValueError:  # a part past the interpreter's digit limit
            return format_rational(Fraction(n, den))

    return text


# _prime_of seeks a factor of b by trial division below this bound, so the
# p it gives is below _TRIAL**2 and dividing by it takes one digit of an int
_TRIAL = 1 << 10


def _prime_of(b: int) -> int | None:
    """p when b is a power of one prime p, else None.  A b past _TRIAL**2
    with no factor below _TRIAL is not tested further and gives None."""
    if b < 2:
        return None
    p = 2
    while b % p:
        p += 1
        if p * p > b:
            return b
        if p == _TRIAL:
            return None
    while not b % p:
        b //= p
    return p if b == 1 else None
