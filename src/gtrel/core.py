"""Exact rational scalars and the integrality predicates the whole
classification machinery is phrased in.

Every tableau entry, coefficient and twist parameter is a
fractions.Fraction; there is no floating point anywhere in the package.
"""

from fractions import Fraction
from math import isqrt

# difference classes accepted by diff_in
ZGEQ0 = "ZGeq0"
ZGT0 = "ZGt0"
Z = "Z"


def diff_in(a, b, cls):
    """Test whether a - b lies in the named class of integers; a and b are
    Fractions or ints."""
    # in lowest terms, a - b is an integer iff the denominators agree and
    # the numerators agree modulo them; its sign is that of the numerators'
    q, p = a.denominator, a.numerator - b.numerator
    integral = q == b.denominator and p % q == 0
    if cls == ZGEQ0:
        return integral and p >= 0
    if cls == ZGT0:
        return integral and p > 0
    if cls == Z:
        return integral
    raise ValueError("unknown class %r" % (cls,))


def parse_rational(s):
    """Parse "a" or "a/b" into a Fraction; b must be positive."""
    if not isinstance(s, str):
        raise ValueError("expected a rational string, got %r" % (s,))
    s = s.strip()
    # plain ASCII "a", "-a", "a/b", "-a/b" with b > 0: integers straight into
    # Fraction; anything else takes the checks below and Fraction's parser
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit() and (
        not slash or (den.isascii() and den.isdigit())
    ):
        b = int(den) if slash else 1
        if b > 0:
            a = int(digits)
            return Fraction(-a if num[0] == "-" else a, b)
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
