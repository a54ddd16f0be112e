"""Admissible levels, minimal-orbit weight representatives, Weyl dot
action, and construction of the induced modules attached to them."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .action import module
from .classify import hw_relation_case, pairing
from .errors import BadTwist, BranchNotLocalizable
from .localization import twist_e21
from .tableau import _hw_seed


@dataclass(frozen=True)
class Level:
    """An admissible level k = p/q - n - 1 in lowest terms."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")
        if self.p < self.n + 1 or self.q < 1:
            raise ValueError("need p >= n+1 and q >= 1")

    @property
    def k(self):
        return Fraction(self.p, self.q) - self.n - 1


@dataclass(frozen=True)
class MinOrbitWeight:
    """A representative (lambda_bar, a) of a minimal-orbit class."""

    lambda_bar: tuple
    a: int


def admissible_level(n, k):
    """(p, q) with k + n + 1 = p/q in lowest terms, if admissible; the
    rank n must be >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    f = Fraction(k) + n + 1
    p, q = f.numerator, f.denominator
    if p >= n + 1 and q >= 1:
        return (p, q)
    return None


def rep_weight(lvl, rep):
    """H-coordinates of the weight realized by a representative."""
    lam = [Fraction(x) for x in rep.lambda_bar]
    lam[0] -= Fraction(rep.a * lvl.p, lvl.q)
    return tuple(lam)


def minimal_orbit_reps(lvl):
    """All (rep, weight) pairs; empty when q = 1."""
    n, p, q = lvl.n, lvl.p, lvl.q

    def bars(slots, budget):
        if slots == 0:
            yield ()
            return
        for first in range(budget + 1):
            for rest in bars(slots - 1, budget - first):
                yield (first,) + rest

    for a in range(1, q):
        for bar in bars(n, p - n - 1):
            rep = MinOrbitWeight(bar, a)
            yield rep, rep_weight(lvl, rep)


def dot_action(word, lam):
    """w . lam = w(lam+rho) - rho, word applied right to left."""
    c = [Fraction(x) + 1 for x in lam]
    for k in reversed(list(word)):
        if not 1 <= k <= len(c):
            raise ValueError("reflection index out of range")
        ck = c[k - 1]
        c[k - 1] = -ck
        if k >= 2:
            c[k - 2] += ck
        if k < len(c):
            c[k] += ck
    return tuple(x - 1 for x in c)


def hw_orbit_list(lvl, rep):
    """The chain Lambda_1, s_1.Lambda_1, ..., s_n...s_1.Lambda_1 with
    highest-weight case tags."""
    lam = rep_weight(lvl, rep)
    out = [(lam, hw_relation_case(lam))]
    for i in range(1, lvl.n + 1):
        lam = dot_action([i], lam)
        out.append((lam, hw_relation_case(lam)))
    return out


def sl2_dense_admissible(lvl, lam1, a, x):
    """Whether the dense sl2 data survives induction at this level."""
    x = Fraction(x)
    if not (0 <= lam1 <= lvl.p - 2):
        return False
    if not (1 <= a <= lvl.q - 1):
        return False
    if x.denominator == 1:
        return False
    if (x - Fraction(a * lvl.p, lvl.q)).denominator == 1:
        return False
    return True


@dataclass(frozen=True)
class InducedModule:
    """A twisted localization of a highest-weight module, carrying the
    dense-sl2 parameters it realizes."""

    module: object
    branch: tuple
    x: Fraction
    gamma: Fraction
    mu: tuple


def hw_module_of(lam, normalization="hw"):
    """Module of the highest-weight constructor matching the case of lam:
    the weight is classified once, and the seed and its maximal set are
    validated once, by the module."""
    case = hw_relation_case(lam)
    if case.tag == "NotRelation":
        raise BranchNotLocalizable("weight admits no relation realization")
    T = _hw_seed(lam, case, normalization)
    return module(T, T.maximal_set, normalization=normalization)


def build_sl2_induced_minimal(lvl, rep, branch, x):
    """Twisted localization of the highest-weight module of a branch
    weight from the orbit chain."""
    if lvl.n < 2:
        raise ValueError("the sl2-induced construction needs n >= 2")
    branch = tuple(Fraction(b) for b in branch)
    x = Fraction(x)
    chain = [w for w, _ in hw_orbit_list(lvl, rep)]
    if branch not in chain:
        raise BranchNotLocalizable("branch is not in the orbit chain")
    p1 = pairing(branch, 1, 1)
    if p1.denominator == 1:
        raise BranchNotLocalizable("alpha_1 pairing is integral")
    if x.denominator == 1 or (x + p1).denominator == 1:
        raise BadTwist("x must avoid Z and -<branch+rho,a1>+Z")
    M = twist_e21(hw_module_of(branch), x)
    mu = (branch[0] + 2 * x, branch[1] - x) + branch[2:]
    return InducedModule(module=M, branch=branch, x=x, gamma=p1 * p1, mu=mu)
