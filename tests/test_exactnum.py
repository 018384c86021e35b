import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latrec import exactnum
from latrec.exactnum import ParseError, format_rational, parse_rational, rational_texts


def test_parse_canonicalizes():
    assert parse_rational("3/9") == Fraction(1, 3)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational("0/7") == 0


def test_parse_zero_denominator():
    with pytest.raises(ParseError) as exc:
        parse_rational("1/0")
    assert exc.value.position == 2


@pytest.mark.parametrize("text", ["", "1.5", "1e3", " 1", "1/ 2", "--3", "2/-3", "a"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_rational(text)


# only ASCII digits count, and a part past int()'s digit limit is an error
# at that part
@pytest.mark.parametrize("text, position", [
    ("1\n", 1), ("\u0661/\u0662", 0), ("12/\u0663", 3),
    ("1" * 5000, 0), ("-" + "1" * 5000, 0), ("1/" + "2" * 5000, 2)],
    ids=["trailing-newline", "arabic-indic", "arabic-indic-denominator",
         "long-numerator", "long-negative-numerator", "long-denominator"])
def test_parse_error_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_rational(text)
    assert exc.value.position == position


def test_parse_error_quotes_long_text_by_its_ends():
    text = "1/" + "3" * 5000
    with pytest.raises(ParseError) as exc:
        parse_rational(text)
    assert exc.value.text == text
    assert exc.value.position == 2
    assert exc.value.reason.startswith("more than ")
    message = str(exc.value)
    assert len(message) < 120
    assert message.startswith("cannot parse rational '1/3333333333'...'333333333333' "
                              "(5002 characters) at position 2: more than ")
    # a short text is quoted whole
    with pytest.raises(ParseError) as exc:
        parse_rational("12x")
    assert str(exc.value) == ("cannot parse rational '12x' at position 2: "
                              "expected digits or digits/digits")


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


PRIMES = (2, 3, 5, 7)


@st.composite
def texts_cases(draw):
    """A base over some of PRIMES, half the time a power of one of them, a
    denominator over base's primes (times 11 or 13 now and then, a prime
    base lacks) and numerators: zero, negative, and sharing powers of the
    denominator's primes up to and past their exponent in it, and past
    the largest power of 3 and of 7 below 2**30."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(PRIMES)) ** draw(st.integers(1, 3))
    else:
        base = 1
        for p in draw(st.lists(st.sampled_from(PRIMES), max_size=4)):
            base *= p
    den = draw(st.sampled_from((1, 1, 1, 11, 13)))
    for p in PRIMES:
        if base % p == 0:
            den *= p ** draw(st.integers(0, 60))
    numerators = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(-10 ** 9, 10 ** 9))
        for p in (*PRIMES, 11, 13):
            n *= p ** draw(st.sampled_from((0, 0, 1, 2, 11, 20, 59, 60, 61)))
        numerators.append(n)
    return base, den, numerators


@given(texts_cases())
@example((1, 1, [0, 5, -5]))
@example((6, 2 ** 40 * 3 ** 7, [0, -(2 ** 40) * 3 ** 9, 2 ** 41, -(3 ** 7), 5 ** 30]))
@example((7, 7 ** 120, [7 ** 120, -(7 ** 121), 7 ** 119 * 2, 3]))
@example((2, 2 * 11, [11, -22, 3]))
# p = 2, negative numerators, their valuation below, at and past the exponent
@example((8, 2 ** 40, [-1, -6, -(2 ** 39) * 7, -(2 ** 40), -(2 ** 45) * 3]))
# odd p, valuations past 7**10 and 3**18 (the largest powers below 2**30)
# and past the denominator's exponent
@example((7, 7 ** 30, [7 ** 11 * 2, -(7 ** 11), 7 ** 29 * 4, 7 ** 31 * 3]))
@example((9, 3 ** 25, [3 ** 20, -(3 ** 20) * 2, 3 ** 19 * 5, 3 ** 26]))
@example((3, 3 ** 5, [3 ** 20, -(3 ** 5), 3 ** 4 * 2]))
# a prime-power base whose denominator carries a prime it lacks
@example((7, 7 ** 5 * 11, [11, 7 * 11, 7 ** 6 * 11, -(7 ** 2), 2]))
@example((4, 2 ** 9 * 13, [13 * 2 ** 10, -26, 2 ** 3, 3]))
# base 1: every denominator but 1 has primes base lacks
@example((1, 11 ** 3, [11, -(11 ** 2) * 5, 2, 11 ** 4]))
@example((1, 2 ** 5 * 7, [2 ** 6 * 7, -14, 3]))
def test_rational_texts_equal_format_rational(case):
    base, den, numerators = case
    text = rational_texts(base)
    for _ in range(2):  # the second pass reads the denominator's kept row
        for n in numerators:
            assert text(n, den) == format_rational(Fraction(n, den))


@pytest.mark.parametrize("base, den, prime, wide", [
    (7, 7 ** 120, 7, False), (4, 2 ** 300, 2, False), (60, 60 ** 40, 2, True)],
    ids=["7^120", "2^300", "60^40"])
def test_rational_texts_over_a_prime_power_take_no_wide_gcd(monkeypatch, base, den,
                                                             prime, wide):
    """Over p**e, texting takes no gcd whose two arguments both reach 2**64;
    over the composite 60**40 a numerator that shares a prime takes one, so
    the count can fail."""
    calls = []

    def counted(a, b):
        if abs(a) >= 1 << 64 and abs(b) >= 1 << 64:
            calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(exactnum, "gcd", counted)
    rng = random.Random(den.bit_length())
    text = rational_texts(base)
    for v in (0, 0, 1, 2, 5, 39, 40, 41, 119, 120, 121, 300, 303):
        for sign in (1, -1):
            n = sign * rng.getrandbits(330) * prime ** v
            assert text(n, den) == format_rational(Fraction(n, den))
    assert bool(calls) == wide


# Decimal texts an int without the interpreter's limit on int-to-str digits,
# so it is the reference past that limit (4,300 digits by default)
def decimal_text(x):
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def digit_limit():
    """The interpreter's limit on int-to-str digits; None before 3.10.7."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get and get()


# bit lengths around 4,300 digits (14,284 bits) and well past it
BIG_BITS = st.sampled_from([1, 64, 14_280, 14_284, 14_285, 14_300, 30_000, 70_000])


@given(BIG_BITS, st.integers(0, 2 ** 64), st.booleans(), st.integers(0, 3))
@example(14_284, 0, False, 0)
@example(1, 0, False, 0)
@settings(deadline=None)
def test_decimal_texts_an_int_of_any_size(bits, low, negative, tens):
    # ints near a power of 2 or of 10, so halves with leading zeros come up
    for n in (2 ** bits - low, 2 ** bits + low, 10 ** (bits * 3 // 10 + tens) + low):
        n = -n if negative else n
        assert exactnum._decimal(n) == str(Decimal(n))


@given(BIG_BITS, BIG_BITS, st.integers(-5, 5), st.integers(0, 3))
@example(14_300, 1, 1, 0)
@example(1, 14_300, -1, 0)
@settings(deadline=None)
def test_writers_text_values_past_the_digit_limit(num_bits, den_bits, sign, v):
    # every branch of rational_texts: a numerator that shares no prime with
    # den, one reduced by a gcd, and, over a power of 7, one that 7 does not
    # divide (v = 0) or one divided by 7**v (2**k + 1 is never a multiple of 7)
    limit = digit_limit()
    num = (2 ** num_bits + 1) * sign
    den = 3 ** (den_bits // 2 + 1) * 5
    for base, den, n in ((15, den, num), (15, den, num * 3 ** 4),
                         (7, 7 ** (den_bits // 3 + 1), num * 7 ** v)):
        if not n:
            continue
        want = decimal_text(Fraction(n, den))
        assert format_rational(Fraction(n, den)) == want
        text = rational_texts(base)
        assert [text(n, den), text(n, den)] == [want, want]
    assert digit_limit() == limit


def test_writers_need_no_digit_limit_setting(monkeypatch):
    # Python 3.10.0 to 3.10.6 have neither sys.set_int_max_str_digits nor
    # the limit; the writers read and set neither attribute
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    value = Fraction(-(10 ** 5000) - 1, 7 ** 6000)
    want = decimal_text(value)
    assert format_rational(value) == want
    assert rational_texts(7)(value.numerator, value.denominator) == want


def test_field_axioms_on_random_triples():
    rng = random.Random(20260810)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(1000):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1
