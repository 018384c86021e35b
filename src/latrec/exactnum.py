"""Exact rational scalars: ``fractions.Fraction``, canonical and exact.

This module adds the strict text format of config files and output, and
``rational_texts``, which writes it for a row of integer numerators over
one unreduced denominator without building a Fraction.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import gcd, log

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# a ParseError quotes a longer text by its ends and its length
_QUOTE_LIMIT = 40
_EXCERPT = 12


class ParseError(ValueError):
    """Malformed rational text; carries the offending text and position."""

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
    """Parse ``num`` or ``num/den`` (den positive) exactly.  Decimals,
    exponents, whitespace, non-ASCII digits and a part past the
    interpreter's int() digit limit are rejected."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
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
    except ValueError:  # int()'s digit limit
        raise ParseError(text, m.start(group),
                         f"more than {sys.get_int_max_str_digits()} digits") from None


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational: ``num`` when the denominator is 1, else
    ``num/den``."""
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


def _decimal(n: int) -> str:
    """str(n) for an int of any size: past the interpreter's digit limit
    (Python 3.10.7 and later), which it neither reads nor changes, n is
    split into halves by a power of 10."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def rational_texts(base: int) -> Callable[[int, Sequence[int]], list[str]]:
    """A row texter: (den, numerators) -> [format_rational(Fraction(n, den))
    for n in numerators] for den > 0, fast when every prime of den divides
    `base`.  den's kept row is looked up once per call, and the numerators
    are texted in one comprehension.

    Over den = p**e, n is divided by p**v, v its valuation at p capped at
    e.  Over any other den, b = gcd(den, base) when b holds every prime of
    den, else den: n with gcd(n, b) == 1 is already reduced, and only the
    other numerators pay gcd(n, den).  A row with a text past the
    interpreter's digit limit is texted by format_rational.
    """
    # den -> (b, "/den"), or, when den = p**e, (None, (p, e, "/den", tails))
    # with tails[v] the text of den / p**v
    rows: dict[int, tuple] = {}

    def keep(den: int) -> tuple:
        b = gcd(den, base)
        p, tail = _prime_of(b), "" if den == 1 else "/" + _decimal(den)
        if p is not None:
            e = round(log(den, p))
            if p ** e == den:
                return None, (p, e, tail, {})
        # strip b's primes from den
        rest, g = den, b
        while g > 1:
            rest //= g
            g = gcd(rest, g * g)
        return (b if rest == 1 else den), tail

    def shifted(n: int, p: int, e: int, den: int, tails: dict[int, str]) -> str:
        # n / den over den = p**e, p dividing n
        m, v = n // p, 1
        while v < e and not m % p:
            m //= p
            v += 1
        s = tails.get(v)
        if s is None:
            s = tails[v] = "" if v == e else "/" + _decimal(den // p ** v)
        return f"{m}{s}"

    def texts(den: int, numerators: Sequence[int]) -> list[str]:
        row = rows.get(den)
        if row is None:
            row = rows[den] = keep(den)
        b, tail = row
        try:
            if b is not None:
                # gcd(0, b) == b, which is 1 only for den == 1
                return [f"{n}{tail}" if gcd(n, b) == 1
                        else f"{n // g}" if (g := gcd(n, den)) == den
                        else f"{n // g}/{den // g}" for n in numerators]
            p, e, tail, tails = tail
            return [f"{n}{tail}" if n % p else shifted(n, p, e, den, tails)
                    for n in numerators]
        except ValueError:  # past the interpreter's digit limit
            return [format_rational(Fraction(n, den)) for n in numerators]

    return texts


# _prime_of's trial-division bound: its p is below _TRIAL**2, so dividing
# by p is a one-digit int division
_TRIAL = 1 << 10


def _prime_of(b: int) -> int | None:
    """p when b is a power of one prime p, else None; None too for a b
    past _TRIAL**2 with no factor below _TRIAL."""
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
