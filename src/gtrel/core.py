"""Exact rational scalars and the integrality predicates the whole
classification machinery is phrased in.

Every tableau entry, coefficient and twist parameter is a
fractions.Fraction; there is no floating point anywhere in the package.
"""

import re
from fractions import Fraction
from math import isqrt
from operator import attrgetter

# difference classes accepted by diff_in
ZGEQ0 = "ZGeq0"
ZGT0 = "ZGt0"
Z = "Z"

# an exponent as Fraction's parser reads one: "e" or "E", a sign, a digit
_EXPONENT = re.compile(r"[eE][-+]?\d")


class Record:
    """Base of the package's frozen value classes.

    A subclass names its fields in `_fields` and sets each once, in its
    own `__init__`, with object.__setattr__; any other attribute it sets
    there (a table, a checker) stays out of equality, hash and repr.
    Records are equal when they are of the same class with equal fields,
    hash as the tuple of their fields, print as Name(field=value, ...),
    and refuse assignment and deletion.  `replace` builds a new record
    through `__init__`, so it validates again."""

    def __init_subclass__(cls):
        # one C-level read of all the fields, for == and hash
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def replace(self, **kw):
        for f in self._fields:
            if f not in kw:
                kw[f] = getattr(self, f)
        return type(self)(**kw)


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
    """Parse "a" or "a/b" into a Fraction; b must be positive.  Text with
    an exponent is rejected: Fraction("1e9999999999") would build
    10**9999999999."""
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
    if _EXPONENT.search(s):
        raise ValueError("exponents are not accepted: %r" % s)
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
