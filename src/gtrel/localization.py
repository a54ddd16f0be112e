"""Localization transforms: injectivity/surjectivity predicates for the
lowering operators E_{21} and E_{m1}, localization and twisted
localization as relation-set surgery plus a rational shift of the
top-left entry, simple quotients, and flag permutation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadTwist,
    IncompatiblePair,
    NotARealization,
    NotInjective,
    WrongShape,
)
from .relations import is_noncritical_for
from .tableau import apply_rational_shift, apply_shift, unit_shift

E21_DOWN = frozenset({((2, 1), (1, 1)), ((2, 2), (1, 1))})
E21_UP = frozenset({((1, 1), (2, 1)), ((1, 1), (2, 2))})


@dataclass(frozen=True)
class LocalizationSpec:
    """Targets m_i of the multiplicative set {E_{m_i,1}} plus an
    optional twist."""

    targets: tuple
    twist: object = None

    def __post_init__(self):
        t = tuple(sorted(set(int(m) for m in self.targets)))
        if not t:
            raise ValueError("targets must be nonempty")
        object.__setattr__(self, "targets", t)
        if self.twist is not None:
            object.__setattr__(self, "twist", Fraction(self.twist))


def spec_to_json(spec):
    from .core import format_rational

    out = {"targets": list(spec.targets)}
    if spec.twist is not None:
        out["x"] = format_rational(spec.twist)
    return out


def spec_from_json(obj):
    from .core import parse_rational

    x = obj.get("x")
    return LocalizationSpec(
        tuple(obj["targets"]), parse_rational(x) if x is not None else None
    )


def _noncritical_realization(C, T):
    """Whether T is a noncritical C-realization."""
    try:
        return is_noncritical_for(C, T)
    except NotARealization:
        return False


# ---------------------------------------------------------------------------
# E21


def e21_injective(C):
    return not (E21_UP & C.relations)


def e21_surjective(C):
    return not (E21_DOWN & C.relations)


def localize_e21(M):
    """Drop the relations bounding the top-left entry from below."""
    if not e21_injective(M.C):
        raise NotInjective("E21 is not injective on this module")
    D = M.C.difference(E21_DOWN)
    return M.replace(C=D)


def twist_e21(M, x):
    """Localized module with seed entry (1,1) shifted by x."""
    loc = localize_e21(M)
    seed = apply_rational_shift(M.seed, 1, 1, x)
    if not _noncritical_realization(loc.C, seed):
        raise NotARealization("shifted seed is not a noncritical realization")
    return loc.replace(seed=seed)


def quotient_top(M_loc, M_sub):
    """The simple top of the localized module over the original one."""
    diff = M_sub.C.relations - M_loc.C.relations
    if not diff or not diff <= E21_DOWN or not M_loc.C.relations <= M_sub.C.relations:
        raise IncompatiblePair("expected the un-localized set over the localized one")
    if M_sub.seed != M_loc.seed:
        raise IncompatiblePair("modules must share the seed tableau")
    C1 = M_loc.C.union({((1, 1), (2, 1))})
    seed = apply_shift(M_loc.seed, unit_shift(M_loc.n, 1, 1))
    return M_loc.replace(C=C1, seed=seed)


# ---------------------------------------------------------------------------
# E_{m1} on the dense-family shape


def _check_family_shape(M):
    """First column free, interior columns constant; C contains the
    family arrows Q."""
    T = M.seed
    n = M.n
    for r in range(2, n + 2):
        for s in range(2, r + 1):
            if T.entry(r, s) != T.entry(s, s):
                raise WrongShape("interior columns are not constant")
    for i in range(2, n + 1):
        for j in range(2, i + 1):
            if ((i + 1, j), (i, j)) not in M.C or ((i, j), (i + 1, j + 1)) not in M.C:
                raise WrongShape("relation set does not contain the family arrows")


def em1_injective(M, m):
    _check_family_shape(M)
    if not 2 <= m <= M.n + 1:
        raise ValueError("m out of range")
    return ((m - 1, 1), (m, 1)) not in M.C


def em1_surjective(M, m):
    _check_family_shape(M)
    if not 2 <= m <= M.n + 1:
        raise ValueError("m out of range")
    return ((m, 1), (m - 1, 1)) not in M.C


def localize_family(M, spec):
    """Drop the first-column descending arrow at each target; optionally
    shift the seed entries (m-1, 1) by the twist."""
    for m in spec.targets:
        if not em1_injective(M, m):
            raise NotInjective("E(%d,1) is not injective" % m)
        if em1_surjective(M, m):
            raise NotInjective("E(%d,1) is already bijective" % m)
    D = M.C.difference({((m, 1), (m - 1, 1)) for m in spec.targets})
    seed = M.seed
    if spec.twist is not None:
        for m in spec.targets:
            seed = apply_rational_shift(seed, m - 1, 1, spec.twist)
        if not _noncritical_realization(D, seed):
            raise BadTwist("twisted seed is not a noncritical realization")
    return M.replace(C=D, seed=seed)


def permute_flag(M, sigma):
    """Compose a permutation of 1..n+1 into the module's flag twist."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, M.n + 2)):
        raise ValueError("sigma must be a permutation of 1..n+1")
    composed = tuple(M.sigma[sigma[i] - 1] for i in range(M.n + 1))
    return M.replace(sigma=composed)
