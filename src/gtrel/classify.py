"""Decision procedures on weights: which highest weights give relation /
bounded / Verma-simple realizations, and the (gamma, mu) <-> (lambda, x)
dictionary for modules induced from a dense sl2 module.

Weights are H-eigenvalue coordinate tuples; the pairing with the coroot
of alpha_{r,s} = alpha_r + ... + alpha_s is sum_{k=r..s}(coords[k] + 1).
"""

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .core import ZGEQ0, Record, diff_in, rational_sqrt
from .errors import DegenerateDense, NonSquareGamma


def _scaled_prefix(lam):
    """(d, prefix): the least common denominator d of the coordinates and
    prefix[s] = d * sum_{k<=s}(lam_k + 1) as ints, so that
    d * <lam + rho, alpha_{r,s}^vee> = prefix[s] - prefix[r-1] and a
    pairing is an integer iff d divides that difference.  Coordinates may
    be Fractions, ints or "a/b" strings; an empty weight is rejected."""
    if not lam:
        raise ValueError("rank must be >= 1, got 0")
    lam = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in lam]
    d = lcm(*[x.denominator for x in lam])
    scaled = (x.numerator * d // x.denominator + d for x in lam)
    return d, list(accumulate(scaled, initial=0))


def _positive(p, d):
    """Whether p / d is a positive integer."""
    return p > 0 and p % d == 0


def _nonpositive(p, d):
    """Whether p / d is a nonpositive integer."""
    return p <= 0 and p % d == 0


def pairing(lam, r, s):
    """<lam + rho, alpha_{r,s}^vee> as a Fraction, for 1 <= r <= s <= n."""
    if not 1 <= r <= s <= len(lam):
        raise ValueError("no root alpha_{%r,%r} for rank %d" % (r, s, len(lam)))
    d, prefix = _scaled_prefix(lam)
    return Fraction(prefix[s] - prefix[r - 1], d)


class HWCase(Record):
    _fields = ("tag", "i", "j")

    def __init__(self, tag, i=0, j=0):
        object.__setattr__(self, "tag", tag)  # CaseA | CaseB | NotRelation
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)


def hw_relation_case(lam):
    """Classify a weight per the highest-weight realization criterion.

    Let bad be the roots alpha_{r,s} with a nonpositive-integer pairing.
    Case a: every bad root is a last-column root (s = n).  Case b with
    (i, j): bad lies in {alpha_{i,k} : k >= j} and holds alpha_{i,n}, and
    alpha_k pairs to a positive integer for every k > j; the criterion
    asks for exactly one such j.  Each such j is at most the least s of
    bad, m, and m is one whenever any j is; a smaller one would need
    alpha_m to pair to a positive integer, which makes alpha_{i,m-1} bad.
    So m is the only candidate."""
    d, prefix = _scaled_prefix(lam)
    n = len(prefix) - 1
    bad = [
        (r, s)
        for r in range(1, n + 1)
        for s in range(r, n + 1)
        if _nonpositive(prefix[s] - prefix[r - 1], d)
    ]
    if all(s == n for _, s in bad):
        return HWCase("CaseA")
    # bad is listed by r, then s: the first root has the least r, and the
    # least s if every root shares that r
    i, j = bad[0]
    if (
        all(r == i for r, _ in bad)
        and bad[-1][1] == n
        and all(_positive(prefix[k] - prefix[k - 1], d) for k in range(j + 1, n + 1))
    ):
        return HWCase("CaseB", i, j)
    return HWCase("NotRelation")


def bounded_case(lam):
    """Matching clause (a-e) of the bounded infinite-dimensional
    criterion, or None.

    Every clause asks alpha_k to pair to a positive integer for all k but
    one or two, which it names, so the clause is read off the list of the
    other k.  Given that list, some of a clause's conditions follow from
    the rest and are not tested: in d, <lam + rho, alpha_{i,n}> in Z_{<=0}
    makes alpha_i pair to a negative integer; in c, alpha_1 pairs to an
    integer < 0 once it is an integer and alpha_{1,n} pairs to one <= 0;
    in e, alpha_i and alpha_{i+1} pair to non-integers once their sum is a
    positive integer."""
    d, prefix = _scaled_prefix(lam)
    n = len(prefix) - 1

    def pair(r, s):
        return prefix[s] - prefix[r - 1]

    others = [k for k in range(1, n + 1) if not _positive(pair(k, k), d)]
    if others == [n]:
        return "a"
    if others == [1]:
        if pair(1, 1) % d:
            return "b"
        if _nonpositive(pair(1, n), d):
            return "c"
    elif len(others) == 1:
        i = others[0]  # 1 < i < n
        if _positive(pair(i - 1, i), d) and _nonpositive(pair(i, n), d):
            return ("d", i)
    elif len(others) == 2:
        i, k = others
        if k == i + 1 and _positive(pair(i, k), d):
            return ("e", i)
    return None


def verma_simple_relation(lam):
    """True when the Verma module of lam is itself a simple relation
    module (fully generic off the last-column roots)."""
    d, prefix = _scaled_prefix(lam)
    n = len(prefix) - 1
    for r in range(1, n + 1):
        low = prefix[r - 1]
        if _positive(prefix[n] - low, d):
            return False
        if any((prefix[s] - low) % d == 0 for s in range(r, n)):
            return False
    return True


def _dense_twist(x, p1):
    """Whether the twist x of a highest weight with alpha_1 pairing p1
    gives a dense sl2 module: x avoids Z and -p1 + Z."""
    return x.denominator != 1 and (x + p1).denominator != 1


class Sl2InducedParams(Record):
    _fields = ("gamma", "mu")

    def __init__(self, gamma, mu):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "mu", mu)


def resolve_sl2_induced(params):
    """All (lambda, x) branches realizing the induced module with Casimir
    eigenvalue gamma and weight mu; each branch is tagged with its
    highest-weight case."""
    gamma = Fraction(params.gamma)
    mu = tuple(Fraction(m) for m in params.mu)
    if len(mu) < 2:
        raise ValueError("mu needs at least two coordinates")
    r = rational_sqrt(gamma)
    if r is None:
        raise NonSquareGamma("gamma is not the square of a rational")
    mu1 = mu[0]
    # the branch of sign s has alpha_1 pairing s r and twist
    # x_s = (mu_1 + 1 - s r) / 2, and x_s + s r = x_{-s}: both branches
    # are dense exactly when the one of sign +1 is
    if not _dense_twist((mu1 + 1 - r) / 2, r):
        raise DegenerateDense("gamma hits the non-dense lattice (mu_1 - 2k + 1)^2")
    branches = []
    for sign in ((1, -1) if r != 0 else (1,)):
        lam1 = sign * r - 1
        if diff_in(lam1 + 1, 0, ZGEQ0):
            continue
        x = (mu1 - lam1) / 2
        lam = (lam1, mu[1] + x) + mu[2:]
        branches.append((lam, x, hw_relation_case(lam)))
    return branches


def family_is_simple(u):
    """Simplicity of the dense family module: consecutive u_i differ by a
    non-integer."""
    u = [Fraction(x) for x in u]
    return all((u[i] - u[i + 1]).denominator != 1 for i in range(len(u) - 1))
