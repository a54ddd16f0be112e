"""Decision procedures on weights: which highest weights give relation /
bounded / Verma-simple realizations, and the (gamma, mu) <-> (lambda, x)
dictionary for modules induced from a dense sl2 module.

Weights are H-eigenvalue coordinate tuples; the pairing with the coroot
of alpha_{r,s} = alpha_r + ... + alpha_s is sum_{k=r..s}(coords[k] + 1).
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import ZGEQ0, ZGT0, Z, diff_in, rational_sqrt
from .errors import DegenerateDense, NonSquareGamma


def pairing(lam, r, s):
    """<lam + rho, alpha_{r,s}^vee> as a Fraction."""
    return sum((Fraction(lam[k - 1]) + 1 for k in range(r, s + 1)), Fraction(0))


@dataclass(frozen=True)
class HWCase:
    tag: str  # CaseA | CaseB | NotRelation
    i: int = 0
    j: int = 0


def hw_relation_case(lam):
    """Classify a weight per the highest-weight realization criterion."""
    n = len(lam)
    # prefix[s] - prefix[r-1] is pairing(lam, r, s)
    prefix = [Fraction(0)]
    for x in lam:
        prefix.append(prefix[-1] + Fraction(x) + 1)

    def nonpositive(r, s):
        return diff_in(0, prefix[s] - prefix[r - 1], ZGEQ0)

    def positive(k):
        return diff_in(prefix[k] - prefix[k - 1], 0, ZGT0)

    roots = [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]
    # case a: no nonpositive-integer pairing outside the last-column roots
    if not any(nonpositive(r, s) for r, s in roots if s != n):
        return HWCase("CaseA")
    bad = {root for root in roots if nonpositive(*root)}
    found = []
    for i in range(1, n):
        if (i, n) not in bad:
            continue
        for j in range(i, n):
            allowed = {(i, k) for k in range(j, n + 1)}
            if bad <= allowed and all(positive(k) for k in range(j + 1, n + 1)):
                found.append((i, j))
    if len(found) == 1:
        return HWCase("CaseB", *found[0])
    return HWCase("NotRelation")


def bounded_case(lam):
    """Matching clause (a-e) of the bounded infinite-dimensional
    criterion, or None."""
    n = len(lam)
    a = [None] + [pairing(lam, k, k) for k in range(1, n + 1)]

    def positive(k):
        return diff_in(a[k], 0, ZGT0)

    if not positive(n) and all(positive(k) for k in range(1, n)):
        return "a"
    if not diff_in(a[1], 0, Z) and all(positive(k) for k in range(2, n + 1)):
        return "b"
    if (
        diff_in(0, a[1], ZGT0)
        and diff_in(0, pairing(lam, 1, n), ZGEQ0)
        and all(positive(k) for k in range(2, n + 1))
    ):
        return "c"
    d_hits = [
        i
        for i in range(2, n)
        if diff_in(0, a[i], ZGT0)
        and diff_in(pairing(lam, i - 1, i), 0, ZGT0)
        and diff_in(0, pairing(lam, i, n), ZGEQ0)
        and all(positive(k) for k in range(1, n + 1) if k != i)
    ]
    if len(d_hits) == 1:
        return ("d", d_hits[0])
    e_hits = [
        i
        for i in range(1, n)
        if not diff_in(a[i], 0, Z)
        and not diff_in(a[i + 1], 0, Z)
        and diff_in(pairing(lam, i, i + 1), 0, ZGT0)
        and all(positive(k) for k in range(1, n + 1) if k not in (i, i + 1))
    ]
    if len(e_hits) == 1:
        return ("e", e_hits[0])
    return None


def verma_simple_relation(lam):
    """True when the Verma module of lam is itself a simple relation
    module (fully generic off the last-column roots)."""
    n = len(lam)
    for r in range(1, n + 1):
        for s in range(r, n + 1):
            p = pairing(lam, r, s)
            if s == n:
                if diff_in(p, 0, ZGT0):
                    return False
            elif diff_in(p, 0, Z):
                return False
    return True


@dataclass(frozen=True)
class Sl2InducedParams:
    gamma: Fraction
    mu: tuple


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
    for sign in (1, -1):
        k2 = mu1 + 1 - sign * r
        if (k2 / 2).denominator == 1:
            raise DegenerateDense("gamma hits the non-dense lattice (mu_1 - 2k + 1)^2")
    branches = []
    for sign in ((1, -1) if r != 0 else (1,)):
        lam1 = sign * r - 1
        if diff_in(lam1 + 1, 0, ZGEQ0):
            continue
        x = (mu1 - lam1) / 2
        if diff_in(x, 0, Z):
            continue
        if diff_in(x, mu1 + 1, Z):
            continue
        lam = (lam1, mu[1] + x) + mu[2:]
        branches.append((lam, x, hw_relation_case(lam)))
    return branches


def family_is_simple(u):
    """Simplicity of the dense family module: consecutive u_i differ by a
    non-integer."""
    u = [Fraction(x) for x in u]
    return all((u[i] - u[i + 1]).denominator != 1 for i in range(len(u) - 1))
