import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latrec.exactnum import ParseError, format_rational, parse_rational


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


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


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
