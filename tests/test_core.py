from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.classify import HWCase, Sl2InducedParams
from gtrel.core import (
    Z,
    ZGEQ0,
    ZGT0,
    Record,
    diff_in,
    format_rational,
    parse_rational,
    rational_sqrt,
)
from gtrel.localization import LocalizationSpec
from gtrel.minimal_orbit import InducedModule, Level, MinOrbitWeight
from oracles import format_rational_by_fraction, parse_rational_by_fraction


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


# every character the fast path could see, in every order: digits, signs,
# slashes, spaces, underscores, a decimal point and an exponent, however
# large (both sides reject any exponent before Fraction reads it)
RATIONAL_TEXT = st.text(alphabet="0123456789+-/ _.eE", max_size=12) | st.builds(
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


# what format_rational takes: ints (past the 4,300 digits str() writes
# too), bools, Fractions, and the floats and strings Fraction reads
FORMAT_INPUTS = (
    st.integers()
    | st.sampled_from([10**4300, -(10**5000)])
    | st.booleans()
    | st.fractions()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.fractions().map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds(" {} ".format, st.integers())
)


@settings(max_examples=1000)
@given(FORMAT_INPUTS)
def test_format_rational_matches_formatting_through_fraction(r):
    assert _parsed(format_rational, r) == _parsed(format_rational_by_fraction, r)


def test_parse_rational_rejects_exponents_at_once():
    for s in ("1e9999999999", "1E9999999999", "-2.5e+99999999", "3e-9999999999/2", "7e٣"):
        with pytest.raises(ValueError, match="exponents are not accepted"):
            parse_rational(s)
    # an "e" that starts no exponent keeps Fraction's own message
    assert _parsed(parse_rational, "1e") == (
        ValueError,
        "Invalid literal for Fraction: '1e'",
    )
    assert parse_rational("2.5") == Fraction(5, 2)


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


def test_diff_in_rejects_an_unknown_class():
    with pytest.raises(ValueError) as err:
        diff_in(Fraction(1), Fraction(0), "ZLT0")
    assert str(err.value) == "unknown class 'ZLT0'"


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


# ---------------------------------------------------------------------------
# the frozen value classes, all on Record


def _hw():
    return g.hw_module_of((Fraction(-1, 2), Fraction(-1, 3)))


def _induced():
    lvl, rep = Level(2, 3, 2), MinOrbitWeight((0, 0), 1)
    branch = g.hw_orbit_list(lvl, rep)[0][0]
    return g.build_sl2_induced_minimal(lvl, rep, branch, Fraction(1, 3))


# one constructor per value class; each call builds a new, equal record
RECORDS = {
    g.Tableau: lambda: g.tableau(1, [["1/2"], [0, 1]]),
    g.RelationSet: lambda: g.relation_set(1, [((2, 1), (1, 1))]),
    g.GTModule: _hw,
    HWCase: lambda: HWCase("CaseB", 1, 2),
    Sl2InducedParams: lambda: Sl2InducedParams(Fraction(1, 4), (Fraction(1), Fraction(2))),
    Level: lambda: Level(2, 3, 2),
    MinOrbitWeight: lambda: MinOrbitWeight((0, 0), 1),
    InducedModule: _induced,
    LocalizationSpec: lambda: LocalizationSpec((3, 1, 3)),
}


class LevelLookalike(Record):
    """A record with Level's fields and values, of another class."""

    _fields = ("n", "p", "q")

    def __init__(self, n, p, q):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def test_records_equal_only_records_of_their_class_with_equal_fields():
    assert len(RECORDS) == 9
    for cls, make in RECORDS.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b and hash(a) == hash(b), cls
        fields = tuple(getattr(a, f) for f in cls._fields)
        assert a != fields and fields != a, cls
        assert all(a != other() for c, other in RECORDS.items() if c is not cls), cls
    lvl = Level(2, 3, 2)
    assert lvl != (2, 3, 2) and lvl != MinOrbitWeight((2, 3), 2)
    assert lvl != LevelLookalike(2, 3, 2) and LevelLookalike(2, 3, 2) != lvl
    assert lvl != Level(2, 5, 2) and {lvl, Level(2, 3, 2)} == {lvl}
    assert HWCase("CaseA") != HWCase("CaseA", 1)


def test_records_refuse_assignment_and_deletion():
    for cls, make in RECORDS.items():
        a = make()
        for f in cls._fields:
            before = getattr(a, f)
            with pytest.raises(AttributeError, match="cannot assign to field '%s'" % f):
                setattr(a, f, None)
            with pytest.raises(AttributeError, match="cannot delete field '%s'" % f):
                delattr(a, f)
            assert getattr(a, f) is before
    with pytest.raises(AttributeError, match="cannot assign to field 'memo'"):
        _hw().memo = {}


def test_record_reprs_name_their_fields():
    assert repr(Level(2, 3, 2)) == "Level(n=2, p=3, q=2)"
    assert repr(HWCase("CaseA")) == "HWCase(tag='CaseA', i=0, j=0)"
    assert repr(MinOrbitWeight((0, 1), 2)) == "MinOrbitWeight(lambda_bar=(0, 1), a=2)"
    assert repr(LocalizationSpec((3, 1, 3))) == "LocalizationSpec(targets=(1, 3), twist=None)"
    assert repr(LocalizationSpec([2], "1/3")) == "LocalizationSpec(targets=(2,), twist=Fraction(1, 3))"
    assert repr(Sl2InducedParams(Fraction(1, 4), (1,))) == "Sl2InducedParams(gamma=Fraction(1, 4), mu=(1,))"
    T = g.tableau(1, [["1/2"], [0, 1]])
    rows = "((Fraction(1, 2),), (Fraction(0, 1), Fraction(1, 1)))"
    assert repr(T) == "Tableau(n=1, rows=%s)" % rows
    C = g.relation_set(1, [((2, 1), (1, 1))])
    assert repr(C) == "RelationSet(n=1, relations=frozenset({((2, 1), (1, 1))}))"
    M = _hw()
    assert repr(M) == "GTModule(n=2, seed=%r, C=%r, sigma=(1, 2, 3), normalization='hw')" % (
        M.seed,
        M.C,
    )
    ind = _induced()
    assert repr(ind) == (
        "InducedModule(module=%r, branch=%r, x=Fraction(1, 3), gamma=%r, mu=%r)"
        % (ind.module, ind.branch, ind.gamma, ind.mu)
    )


def test_record_defaults_and_keywords():
    assert HWCase("CaseA") == HWCase(tag="CaseA", i=0, j=0)
    spec = LocalizationSpec((3, 1, 3))
    assert spec.targets == (1, 3) and spec.twist is None
    assert LocalizationSpec(targets=["2"], twist="1/3").twist == Fraction(1, 3)
    M = _hw()
    assert g.GTModule(n=2, seed=M.seed, C=M.C) == M
    assert (M.sigma, M.normalization) == ((1, 2, 3), "hw")


def test_record_replace_validates_again():
    M = _hw()
    with pytest.raises(ValueError, match="sigma must be a permutation"):
        M.replace(sigma=(1, 1, 2))
    flipped = M.replace(sigma=(2, 1, 3))
    assert flipped.sigma == (2, 1, 3) and flipped != M
    assert (flipped.seed, flipped.C) == (M.seed, M.C) and M.sigma == (1, 2, 3)
    with pytest.raises(ValueError, match="need p >= n"):
        Level(2, 3, 2).replace(q=0)
    assert Level(2, 3, 2).replace(p=5) == Level(2, 5, 2)
    assert LocalizationSpec((3,)).replace(targets=(3, 2, 2)).targets == (2, 3)
    with pytest.raises(TypeError):
        HWCase("CaseA").replace(k=1)
