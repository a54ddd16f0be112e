"""Exact rational scalars and the integrality predicates the whole
classification machinery is phrased in.

Every tableau entry, coefficient and twist parameter is a
fractions.Fraction; there is no floating point anywhere in the package.
"""

from fractions import Fraction
from math import isqrt

Rational = Fraction


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


# difference classes accepted by diff_in
ZGEQ0 = "ZGeq0"
ZGT0 = "ZGt0"
Z = "Z"
NOTZ = "NotZ"


def diff_in(a, b, cls):
    """Test whether a - b lies in the named class of integers; a and b are
    Fractions or ints."""
    d = a - b
    if not isinstance(d, Fraction):
        d = Fraction(d)
    integral = d.denominator == 1
    if cls == ZGEQ0:
        return integral and d >= 0
    if cls == ZGT0:
        return integral and d > 0
    if cls == Z:
        return integral
    if cls == NOTZ:
        return not integral
    raise ValueError("unknown class %r" % (cls,))


def parse_rational(s):
    """Parse "a" or "a/b" into a Fraction; b must be positive."""
    if not isinstance(s, str):
        raise ValueError("expected a rational string, got %r" % (s,))
    s = s.strip()
    if "/" in s:
        den = s.split("/")[1].strip()
        if not den.lstrip("+").isdigit() or int(den) <= 0:
            raise ValueError("denominator must be positive: %r" % s)
    return Fraction(s)


def json_int(x, what):
    """x when it is a JSON integer; ValueError otherwise."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("%s must be an integer, got %r" % (what, x))


def json_list(x, what):
    """x when it is a JSON array; ValueError otherwise."""
    if isinstance(x, (list, tuple)):
        return x
    raise ValueError("%s must be a list, got %r" % (what, x))


def json_object(x, what):
    """x when it is a JSON object; ValueError otherwise."""
    if isinstance(x, dict):
        return x
    raise ValueError("%s must be an object, got %r" % (what, x))


def format_rational(r):
    """Canonical "a" / "a/b" string with positive denominator."""
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def rational_sqrt(r):
    """Exact square root of a nonnegative rational, or None."""
    r = Fraction(r)
    if r < 0:
        return None
    pn, pd = isqrt(r.numerator), isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None
