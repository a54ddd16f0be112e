"""The module structure: generator actions on basis tableaux, axiom
verification, highest weight detection, simplicity and Casimir.

A GTVector is a finitely supported map shift-vector -> Fraction over the
basis B_C(seed); the action formulas drop any term whose target shift
falls outside the basis.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import format_rational, parse_rational
from .errors import CriticalDenominator, UnsupportedGenerator
from .relations import (
    is_admissible,
    is_noncritical_for,
    reduce_relations,
    satisfied_relations,
)
from .tableau import (
    BasisChecker,
    apply_shift,
    enumerate_basis_box,
    enumerate_weight_space,
    shift_add,
    shift_from_json,
    shift_to_json,
    unit_shift,
    weight_of,
    zero_shift,
)


class GTVector(dict):
    """Sparse rational linear combination of shift vectors."""

    def __init__(self, data=()):
        super().__init__()
        items = data.items() if isinstance(data, dict) else data
        for k, x in items:
            self.iadd(k, x)

    def iadd(self, key, coeff):
        coeff = Fraction(coeff)
        new = self.get(key, Fraction(0)) + coeff
        if new == 0:
            self.pop(key, None)
        else:
            self[key] = new

    def __add__(self, other):
        out = GTVector(self)
        for k, x in other.items():
            out.iadd(k, x)
        return out

    def __sub__(self, other):
        out = GTVector(self)
        for k, x in other.items():
            out.iadd(k, -x)
        return out

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return GTVector()
        return GTVector((k, c * x) for k, x in self.items())

    def is_zero(self):
        return not self


def basis_vector(z, coeff=1):
    return GTVector(((z, Fraction(coeff)),))


def gen_E(i, j):
    return ("E", i, j)


def gen_H(k):
    return ("H", k)


def ERaise(k):
    return ("E", k, k + 1)


def ELower(k):
    return ("E", k + 1, k)


@dataclass(frozen=True)
class GTModule:
    """A computable description of the relation module V_C(seed)."""

    n: int
    seed: object
    C: object
    sigma: tuple = None
    normalization: str = "hw"
    checker: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        sigma = self.sigma or tuple(range(1, self.n + 2))
        if sorted(sigma) != list(range(1, self.n + 2)):
            raise ValueError("sigma must be a permutation of 1..n+1")
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "checker", BasisChecker(self.C, self.seed))
        if not is_admissible(self.C):
            raise ValueError("relation set is not admissible")
        if not is_noncritical_for(self.C, self.seed):
            raise ValueError("seed is critical for the relation set")

    def entries(self, z):
        return apply_shift(self.seed, z)

    def in_basis(self, z):
        return self.checker.check(z)

    def replace(self, **kw):
        params = dict(
            n=self.n,
            seed=self.seed,
            C=self.C,
            sigma=self.sigma,
            normalization=self.normalization,
        )
        params.update(kw)
        return GTModule(**params)


def module(seed, C, sigma=None, normalization="hw"):
    return GTModule(n=C.n, seed=seed, C=C, sigma=sigma, normalization=normalization)


# ---------------------------------------------------------------------------
# primitive actions on one basis tableau


def _entry(T, k, i):
    return T.rows[k - 1][i - 1]


def _h_eigenvalue(T, k):
    n = T.n
    s_k = sum(T.rows[k - 1])
    s_dn = sum(T.rows[k - 2]) if k >= 2 else 0
    s_up = sum(T.rows[k])
    return 2 * s_k - s_dn - s_up - 1


def _act_raise(M, k, z, out, coeff):
    """E_{k,k+1} on T(seed+z)."""
    T = M.entries(z)
    for i in range(1, k + 1):
        num = Fraction(1)
        for j in range(1, k + 2):
            num *= _entry(T, k, i) - _entry(T, k + 1, j)
        den = Fraction(1)
        for j in range(1, k + 1):
            if j != i:
                den *= _entry(T, k, i) - _entry(T, k, j)
        if den == 0:
            raise CriticalDenominator("zero denominator in row %d" % k)
        target = shift_add(z, unit_shift(M.n, k, i))
        if M.in_basis(target):
            out.iadd(target, -coeff * num / den)


def _act_lower(M, k, z, out, coeff):
    """E_{k+1,k} on T(seed+z)."""
    T = M.entries(z)
    for i in range(1, k + 1):
        num = Fraction(1)
        for j in range(1, k):
            num *= _entry(T, k, i) - _entry(T, k - 1, j)
        den = Fraction(1)
        for j in range(1, k + 1):
            if j != i:
                den *= _entry(T, k, i) - _entry(T, k, j)
        if den == 0:
            raise CriticalDenominator("zero denominator in row %d" % k)
        delta = unit_shift(M.n, k, i)
        target = shift_add(z, tuple(tuple(-x for x in row) for row in delta))
        if M.in_basis(target):
            out.iadd(target, coeff * num / den)


def _em1_tuples(m):
    """All (i_1..i_{m-1}) with 1 <= i_s <= s."""
    tuples = [()]
    for s in range(1, m):
        tuples = [t + (i,) for t in tuples for i in range(1, s + 1)]
    return tuples


def _act_em1(M, m, z, out, coeff):
    """E_{m,1} (m >= 3) on T(seed+z) via the closed-form sum."""
    T = M.entries(z)
    for idx in _em1_tuples(m):
        target = z
        for s, i_s in enumerate(idx, start=1):
            delta = unit_shift(M.n, s, i_s)
            target = shift_add(target, tuple(tuple(-x for x in row) for row in delta))
        if not M.in_basis(target):
            continue
        a = Fraction(1)
        for s in range(2, m):
            i_s = idx[s - 1]
            i_prev = idx[s - 2]
            num = Fraction(1)
            for t in range(1, s):
                if t != i_prev:
                    num *= _entry(T, s, i_s) - _entry(T, s - 1, t)
            den = Fraction(1)
            for t in range(1, s + 1):
                if t != i_s:
                    den *= _entry(T, s, i_s) - _entry(T, s, t)
            if den == 0:
                raise CriticalDenominator("zero denominator in row %d" % s)
            a *= num / den
        out.iadd(target, coeff * a)


def _resolve_sigma(M, g):
    """Push the flag permutation into the generator; returns a list of
    (sign, generator) over the E/H basis."""
    sigma = M.sigma
    if g[0] == "H":
        k = g[1]
        a, b = sigma[k - 1], sigma[k]
        if a < b:
            return [(1, ("H", t)) for t in range(a, b)]
        return [(-1, ("H", t)) for t in range(b, a)]
    if g[0] != "E" or len(g) != 3:
        raise UnsupportedGenerator(repr(g))
    _, i, j = g
    return [(1, ("E", sigma[i - 1], sigma[j - 1]))]


def _act_primitive(M, g, v):
    """Action of an unpermuted generator on a vector."""
    out = GTVector()
    if g[0] == "H":
        k = g[1]
        if not 1 <= k <= M.n:
            raise UnsupportedGenerator("H(%d) out of range" % k)
        for z, c in v.items():
            out.iadd(z, c * _h_eigenvalue(M.entries(z), k))
        return out
    _, i, j = g
    if i == j or not (1 <= i <= M.n + 1 and 1 <= j <= M.n + 1):
        raise UnsupportedGenerator("E(%d,%d)" % (i, j))
    if j == i + 1:
        for z, c in v.items():
            _act_raise(M, i, z, out, c)
        return out
    if i == j + 1:
        for z, c in v.items():
            _act_lower(M, j, z, out, c)
        return out
    if j == 1 and i >= 3:
        for z, c in v.items():
            _act_em1(M, i, z, out, c)
        return out
    if j > i + 1:
        a, b = ("E", i, i + 1), ("E", i + 1, j)
    else:
        a, b = ("E", i, i - 1), ("E", i - 1, j)
    return _act_primitive(M, a, _act_primitive(M, b, v)) - _act_primitive(
        M, b, _act_primitive(M, a, v)
    )


def act(M, g, v):
    """Linear action of a generator, resolved through the flag twist."""
    out = GTVector()
    for sign, g2 in _resolve_sigma(M, g):
        part = _act_primitive(M, g2, v)
        for z, c in part.items():
            out.iadd(z, sign * c)
    return out


def em1_bracket(M, m, v):
    """E_{m,1} via the nested-commutator ladder (test oracle)."""
    if m == 2:
        return _act_primitive(M, ("E", 2, 1), v)
    low = ("E", m, m - 1)
    return _act_primitive(M, low, em1_bracket(M, m - 1, v)) - em1_bracket(
        M, m - 1, _act_primitive(M, low, v)
    )


def commutator(M, g1, g2, v):
    return act(M, g1, act(M, g2, v)) - act(M, g2, act(M, g1, v))


# ---------------------------------------------------------------------------
# axiom suite


def _cartan(k, l):
    if k == l:
        return 2
    if abs(k - l) == 1:
        return -1
    return 0


def axiom_identities(n):
    """(name, word length, callable) triples checking defining relations
    on a single basis vector."""
    ids = []
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            ids.append(
                (
                    "[H%d,H%d]=0" % (k, l),
                    2,
                    lambda M, v, k=k, l=l: commutator(M, gen_H(k), gen_H(l), v),
                )
            )
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            c = _cartan(k, l)
            ids.append(
                (
                    "[H%d,E%d%d]=%dE" % (k, l, l + 1, c),
                    2,
                    lambda M, v, k=k, l=l, c=c: commutator(M, gen_H(k), ERaise(l), v)
                    - act(M, ERaise(l), v).scale(c),
                )
            )
            ids.append(
                (
                    "[H%d,E%d%d]=%dE" % (k, l + 1, l, -c),
                    2,
                    lambda M, v, k=k, l=l, c=c: commutator(M, gen_H(k), ELower(l), v)
                    + act(M, ELower(l), v).scale(c),
                )
            )
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k == l:
                ids.append(
                    (
                        "[E%d%d,E%d%d]=H%d" % (k, k + 1, k + 1, k, k),
                        2,
                        lambda M, v, k=k: commutator(M, ERaise(k), ELower(k), v)
                        - act(M, gen_H(k), v),
                    )
                )
            else:
                ids.append(
                    (
                        "[E%d%d,E%d%d]=0" % (k, k + 1, l + 1, l),
                        2,
                        lambda M, v, k=k, l=l: commutator(M, ERaise(k), ELower(l), v),
                    )
                )
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if abs(k - l) == 1:
                ids.append(
                    (
                        "ad(E%d%d)^2 E%d%d=0" % (k, k + 1, l, l + 1),
                        3,
                        lambda M, v, k=k, l=l: _serre(M, ERaise(k), ERaise(l), v),
                    )
                )
                ids.append(
                    (
                        "ad(E%d%d)^2 E%d%d=0" % (k + 1, k, l + 1, l),
                        3,
                        lambda M, v, k=k, l=l: _serre(M, ELower(k), ELower(l), v),
                    )
                )
            elif abs(k - l) >= 2 and k < l:
                ids.append(
                    (
                        "[E%d%d,E%d%d]=0" % (k, k + 1, l, l + 1),
                        2,
                        lambda M, v, k=k, l=l: commutator(M, ERaise(k), ERaise(l), v),
                    )
                )
                ids.append(
                    (
                        "[E%d%d,E%d%d]=0" % (k + 1, k, l + 1, l),
                        2,
                        lambda M, v, k=k, l=l: commutator(M, ELower(k), ELower(l), v),
                    )
                )
    return ids


def _serre(M, a, b, v):
    """ad(a)^2 b applied to v: aab - 2aba + baa."""
    return (
        act(M, a, act(M, a, act(M, b, v)))
        - act(M, a, act(M, b, act(M, a, v))).scale(2)
        + act(M, b, act(M, a, act(M, a, v)))
    )


def verify_axioms(M, box=3, samples=200, seed=7):
    """Check the defining sl(n+1) relations on random basis shifts.

    The action is evaluated exactly on the full basis (no truncation), so
    every sampled shift is interior in the sense that no artifact terms
    can appear; the box only bounds the sampling region.
    """
    rng = random.Random(seed)
    pool = enumerate_basis_box(M.C, M.seed, box)
    identities = axiom_identities(M.n)
    failures = []
    for s in range(samples):
        z = pool[rng.randrange(len(pool))]
        v = basis_vector(z)
        name, _, fn = identities[s % len(identities)]
        if not fn(M, v).is_zero():
            failures.append({"identity": name, "shift": shift_to_json(z)})
    return {
        "failures": failures,
        "samples": samples,
        "seed": seed,
        "identities": len(identities),
        "pool": len(pool),
    }


def verify_axioms_full(M, box=3, samples=200, seed=7):
    """Every identity on every sampled shift (slower, used at acceptance)."""
    rng = random.Random(seed)
    pool = enumerate_basis_box(M.C, M.seed, box)
    identities = axiom_identities(M.n)
    failures = []
    checked = 0
    while checked < samples:
        z = pool[rng.randrange(len(pool))]
        v = basis_vector(z)
        for name, _, fn in identities:
            if not fn(M, v).is_zero():
                failures.append({"identity": name, "shift": shift_to_json(z)})
        checked += len(identities)
    return {
        "failures": failures,
        "samples": checked,
        "seed": seed,
        "identities": len(identities),
        "pool": len(pool),
    }


# ---------------------------------------------------------------------------
# structure queries


def is_highest_weight_vector(M, v):
    """The weight when v is killed by all raisings and is an
    H-eigenvector; None otherwise."""
    if v.is_zero():
        return None
    for k in range(1, M.n + 1):
        if not act(M, ERaise(k), v).is_zero():
            return None
    coords = []
    for k in range(1, M.n + 1):
        hv = act(M, gen_H(k), v)
        ref_z, ref_c = next(iter(v.items()))
        lam = hv.get(ref_z, Fraction(0)) / ref_c
        if hv - v.scale(lam):
            return None
        coords.append(lam)
    return tuple(coords)


def is_simple(M):
    """Whether C constrains the shifts exactly as the maximal relation
    set satisfied by the seed does."""
    sat = satisfied_relations(M.seed)
    maximal_eq = M.checker.closure == BasisChecker(sat, M.seed).closure
    witness = None
    if not maximal_eq:
        for rel in sat.sorted():
            if rel not in M.C.relations and not M.checker.implies(rel):
                witness = rel
                break
    return {
        "maximal_eq": maximal_eq,
        "strict_eq": reduce_relations(M.C).relations
        == reduce_relations(sat).relations,
        "witness": witness,
    }


def casimir_alpha1(M, v):
    """(H1+1)^2 + 4 E21 E12 applied to v."""
    h1 = act(M, gen_H(1), v) + v
    h2 = act(M, gen_H(1), h1) + h1
    ef = act(M, gen_E(2, 1), act(M, gen_E(1, 2), v)).scale(4)
    return h2 + ef


def weight_multiplicity(M, w, box):
    shifts, complete = enumerate_weight_space(M.C, M.seed, w, box)
    return len(shifts), complete


def weight_multiplicity_sweep(M, box):
    """Counts of basis shifts per realized weight within the box."""
    base = weight_of(M.seed)
    from .tableau import weight_delta

    counts = {}
    for z in enumerate_basis_box(M.C, M.seed, box):
        w = tuple(b + d for b, d in zip(base, weight_delta(M.n, z)))
        counts[w] = counts.get(w, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# JSON


def vector_to_json(v):
    return [
        {"shift": shift_to_json(z), "coeff": format_rational(c)}
        for z, c in sorted(v.items())
    ]


def vector_from_json(obj):
    return GTVector(
        (shift_from_json(t["shift"]), parse_rational(t["coeff"])) for t in obj
    )


def module_to_json(M):
    from .relations import relset_to_json
    from .tableau import tableau_to_json

    return {
        "n": M.n,
        "seed": tableau_to_json(M.seed),
        "relations": relset_to_json(M.C),
        "sigma": list(M.sigma),
        "normalization": M.normalization,
    }


def module_from_json(obj):
    from .relations import relset_from_json
    from .tableau import tableau_from_json

    return GTModule(
        n=int(obj["n"]),
        seed=tableau_from_json(obj["seed"]),
        C=relset_from_json(obj["relations"]),
        sigma=tuple(obj.get("sigma") or ()) or None,
        normalization=obj.get("normalization", "hw"),
    )


def parse_generator(text):
    """Parse "E,i,j" or "H,k"."""
    parts = [p.strip() for p in text.split(",")]
    if parts[0] == "E" and len(parts) == 3:
        return gen_E(int(parts[1]), int(parts[2]))
    if parts[0] == "H" and len(parts) == 2:
        return gen_H(int(parts[1]))
    raise ValueError("cannot parse generator %r" % text)
