import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtrel.core import (
    Z,
    ZGEQ0,
    ZGT0,
    diff_in,
    format_rational,
    parse_rational,
    rational_sqrt,
)
from oracles import parse_rational_by_fraction


class NotInZ:
    """Tag for a rational that is not an integer."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, NotInZ)

    def __hash__(self):
        return hash("NotInZ")

    def __repr__(self):
        return "NotInZ"


class InZ:
    """Tag for an integer value, carrying the integer."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = int(value)

    def __eq__(self, other):
        return isinstance(other, InZ) and self.value == other.value

    def __hash__(self):
        return hash(("InZ", self.value))

    def __repr__(self):
        return "InZ(%d)" % self.value


def classify_integer(r):
    """Return InZ(v) when r is the integer v, NotInZ otherwise."""
    r = Fraction(r)
    if r.denominator == 1:
        return InZ(r.numerator)
    return NotInZ()

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


@given(rationals)
def test_parse_format_round_trip(r):
    assert parse_rational(format_rational(r)) == r


def test_parse_rational_examples():
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("4") == Fraction(4)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def _parsed(parse, s):
    """The value of parse(s), or the type and message of its error."""
    try:
        return parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _small_exponent(s):
    """No exponent of four or more digits: Fraction("1e9999999999") builds
    10**9999999999 and never returns within a test run."""
    return re.search(r"e[-+]?[0-9_]{4,}", s) is None


# every character the fast path could see, in every order: digits, signs,
# slashes, spaces, underscores, a decimal point and an exponent
RATIONAL_TEXT = st.text(alphabet="0123456789+-/ _.e", max_size=12).filter(
    _small_exponent
) | st.builds(
    "{}{}/{}{}".format,
    st.sampled_from(("", "-", "+", "--", " ")),
    st.integers(0, 10**6),
    st.sampled_from(("", "-", "+", " ")),
    st.integers(0, 10**6),
)


@settings(max_examples=1000)
@given(RATIONAL_TEXT)
def test_parse_rational_matches_fraction_behind_the_denominator_check(s):
    assert _parsed(parse_rational, s) == _parsed(parse_rational_by_fraction, s)


def test_parse_rational_keeps_fractions_errors():
    for s in ("--3", "1/2/3", "-", "", "1/0", "1/-2", "٣", "3/٣"):
        assert _parsed(parse_rational, s) == _parsed(parse_rational_by_fraction, s), s
    assert _parsed(parse_rational, "--3") == (
        ValueError,
        "Invalid literal for Fraction: '--3'",
    )


@given(rationals, rationals)
def test_diff_classes_consistent(a, b):
    d = a - b
    integral = d.denominator == 1
    assert diff_in(a, b, Z) == integral
    assert diff_in(a, b, ZGEQ0) == (integral and d >= 0)
    assert diff_in(a, b, ZGT0) == (integral and d > 0)


@given(rationals)
def test_rational_sqrt(r):
    s = rational_sqrt(r * r)
    assert s is not None and s * s == r * r and s >= 0


def test_rational_sqrt_non_square():
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)


def test_classify_integer():
    assert classify_integer(Fraction(3)) == InZ(3)
    assert classify_integer(Fraction(1, 2)) == NotInZ()
