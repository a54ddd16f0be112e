"""The module structure: generator actions on basis tableaux, axiom
verification, highest weight detection, simplicity and Casimir.

A GTVector is a finitely supported map shift-vector -> Fraction over the
basis B_C(seed); the action formulas drop any term whose target shift
falls outside the basis.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import format_rational, json_int, json_list, json_object, parse_rational
from .errors import CriticalDenominator, NotInBasis, RankMismatch, UnsupportedGenerator
from .relations import (
    is_admissible,
    is_noncritical_for,
    reduce_relations,
    relset_from_json,
    relset_to_json,
    satisfied_relations,
)
from .tableau import (
    BasisBox,
    BasisChecker,
    apply_shift,
    row_sums_weight_delta,
    shift_from_json,
    shift_to_json,
    tableau_from_json,
    tableau_to_json,
    weight_of,
)


class GTVector(dict):
    """Sparse rational linear combination of shift vectors."""

    def __init__(self, data=()):
        super().__init__()
        items = data.items() if isinstance(data, dict) else data
        for k, x in items:
            self.iadd(k, x)

    def iadd(self, key, coeff):
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        old = self.get(key)
        new = coeff if old is None else old + coeff
        if new:
            self[key] = new
        else:
            self.pop(key, None)

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
    """A computable description of the relation module V_C(seed).

    `memo` maps (unpermuted generator, basis shift) to the nonzero
    (target, coefficient) pairs of that generator on that basis vector.
    The module is frozen, so an entry never goes stale; every transform
    builds a new module with an empty memo.
    """

    n: int
    seed: object
    C: object
    sigma: tuple = None
    normalization: str = "hw"
    checker: object = field(default=None, compare=False, repr=False)
    memo: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.C.n != self.n:
            raise RankMismatch(
                "module has rank %d, relation set %d" % (self.n, self.C.n)
            )
        sigma = self.sigma or tuple(range(1, self.n + 2))
        if sorted(sigma) != list(range(1, self.n + 2)):
            raise ValueError("sigma must be a permutation of 1..n+1")
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "checker", BasisChecker(self.C, self.seed))
        object.__setattr__(self, "memo", {})
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


def _ratio(T, k, i, k2, skip=None):
    """prod_{j != skip} (l_ki - l_{k2,j}) / prod_{j != i} (l_ki - l_kj) on
    the entries of T; row 0 is empty."""
    row = T.rows[k - 1]
    x = row[i - 1]
    num = Fraction(1)
    if k2 >= 1:
        for j, y in enumerate(T.rows[k2 - 1], start=1):
            if j != skip:
                num *= x - y
    den = Fraction(1)
    for j, y in enumerate(row, start=1):
        if j != i:
            den *= x - y
    if den == 0:
        raise CriticalDenominator("zero denominator in row %d" % k)
    return num / den


def _moved(z, boxes, sign):
    """z with sign * 1 added at each (row, column) of boxes."""
    rows = [list(row) for row in z]
    for k, i in boxes:
        rows[k - 1][i - 1] += sign
    return tuple(map(tuple, rows))


def _em1_tuples(m):
    """All (i_1..i_{m-1}) with 1 <= i_s <= s."""
    tuples = [()]
    for s in range(1, m):
        tuples = [t + (i,) for t in tuples for i in range(1, s + 1)]
    return tuples


def _terms(M, g, z):
    """(target, coefficient) pairs of a raise E(k,k+1), a lower E(k+1,k)
    or an E(m,1), m >= 3, on T(seed+z); targets outside the basis are
    dropped before their coefficient is computed.

    A raise moves one box of row k up, with coefficient -ratio(k, i, k+1).
    A lower or E(m,1) moves one box (s, i_s) down in each row s of a
    path, with coefficient prod_s ratio(s, i_s, s-1, skip=i_{s-1}).
    """
    _, i, j = g
    if j == i + 1:
        paths, sign = [((i, a),) for a in range(1, i + 1)], 1
    elif i == j + 1:
        paths, sign = [((j, a),) for a in range(1, j + 1)], -1
    else:
        paths, sign = [tuple(enumerate(t, start=1)) for t in _em1_tuples(i)], -1
    T = M.entries(z)
    for boxes in paths:
        target = _moved(z, boxes, sign)
        if not M.in_basis(target):
            continue
        if sign > 0:
            ((k, a),) = boxes
            yield target, -_ratio(T, k, a, k + 1)
            continue
        coeff, prev = Fraction(1), None
        for k, a in boxes:
            coeff *= _ratio(T, k, a, k - 1, prev)
            prev = a
        yield target, coeff


def _resolve_sigma(M, g):
    """Push the flag permutation into the generator; returns a list of
    (sign, generator) over the E/H basis."""
    sigma, n = M.sigma, M.n
    if g[0] == "H":
        k = g[1]
        if not 1 <= k <= n:
            raise UnsupportedGenerator("H(%d) out of range" % k)
        a, b = sigma[k - 1], sigma[k]
        if a < b:
            return [(1, ("H", t)) for t in range(a, b)]
        return [(-1, ("H", t)) for t in range(b, a)]
    if g[0] != "E" or len(g) != 3:
        raise UnsupportedGenerator(repr(g))
    _, i, j = g
    if i == j or not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise UnsupportedGenerator("E(%d,%d)" % (i, j))
    return [(1, ("E", sigma[i - 1], sigma[j - 1]))]


def _basis_terms(M, g, z):
    """The memoized (target, coefficient) pairs of an unpermuted, in-range
    generator on the basis vector of z; raises NotInBasis when z is not a
    basis shift."""
    key = (g, z)
    terms = M.memo.get(key)
    if terms is not None:
        return terms
    if [len(row) for row in z] != list(range(1, M.n + 1)) or not M.in_basis(z):
        raise NotInBasis("shift %s is not in the basis" % (shift_to_json(z),))
    if g[0] == "H":
        pairs = ((z, weight_of(M.entries(z))[g[1] - 1]),)
    elif abs(g[1] - g[2]) == 1 or (g[2] == 1 and g[1] >= 3):
        pairs = _terms(M, g, z)
    else:
        _, i, j = g
        if j > i + 1:
            a, b = ("E", i, i + 1), ("E", i + 1, j)
        else:
            a, b = ("E", i, i - 1), ("E", i - 1, j)
        v = basis_vector(z)
        pairs = (
            _act_primitive(M, a, _act_primitive(M, b, v))
            - _act_primitive(M, b, _act_primitive(M, a, v))
        ).items()
    terms = M.memo[key] = tuple((t, c) for t, c in pairs if c)
    return terms


def _act_primitive(M, g, v):
    """Action of an unpermuted, in-range generator on a vector."""
    out = GTVector()
    for z, c in v.items():
        for target, a in _basis_terms(M, g, z):
            out.iadd(target, c * a)
    return out


def act(M, g, v):
    """Linear action of a generator, resolved through the flag twist."""
    resolved = _resolve_sigma(M, g)
    if len(resolved) == 1 and resolved[0][0] == 1:
        return _act_primitive(M, resolved[0][1], v)
    out = GTVector()
    for sign, g2 in resolved:
        part = _act_primitive(M, g2, v)
        for z, c in part.items():
            out.iadd(z, sign * c)
    return out


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


def verify_axioms(M, box=3, samples=200, seed=7, full=False):
    """Check the defining sl(n+1) relations on random basis shifts.

    The action is evaluated exactly on the full basis (no truncation), so
    every sampled shift is interior in the sense that no artifact terms
    can appear; the box only bounds the sampling region.  By default the
    s-th sample checks one identity, cycling through them; with full=True
    every sampled shift is checked against every identity until at least
    `samples` checks are done (slower, used at acceptance).
    """
    if samples < 0:
        raise ValueError("samples must be >= 0, got %d" % samples)
    rng = random.Random(seed)
    # counts the box and unranks each draw: the same shifts as indexing
    # the enumerated list
    pool = BasisBox(M.checker, box)
    size = len(pool)
    identities = axiom_identities(M.n)
    failures = []
    checked = 0
    while checked < samples:
        z = pool[rng.randrange(size)]
        v = basis_vector(z)
        batch = identities if full else [identities[checked % len(identities)]]
        for name, _, fn in batch:
            if not fn(M, v).is_zero():
                failures.append({"identity": name, "shift": shift_to_json(z)})
        checked += len(batch)
    return {
        "failures": failures,
        "samples": checked,
        "seed": seed,
        "identities": len(identities),
        "pool": size,
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
    """(number of basis shifts in the box realizing weight w, whether the
    box holds the whole basis, so that the number is dim of the weight
    space)."""
    if len(w) != M.n:
        raise RankMismatch("weight has %d coordinates, rank is %d" % (len(w), M.n))
    delta = [Fraction(x) - b for x, b in zip(w, weight_of(M.seed))]
    sums = _row_sums_of_weight_delta(delta)
    count = 0 if sums is None else M.checker.sweep(box).get(sums, 0)
    return count, M.checker.in_box(box)


def _row_sums_of_weight_delta(delta):
    """The row sums s_1..s_n of the shifts whose weight_delta is `delta`,
    or None when no integer shift has it.

    weight_delta is the Cartan matrix applied to the row sums, and its
    inverse has entries min(k, l) (n + 1 - max(k, l)) / (n + 1).
    """
    n = len(delta)
    if any(d.denominator != 1 for d in delta):
        return None
    sums = []
    for k in range(1, n + 1):
        num = sum(
            min(k, l) * (n + 1 - max(k, l)) * d.numerator
            for l, d in enumerate(delta, start=1)
        )
        if num % (n + 1):
            return None
        sums.append(num // (n + 1))
    return tuple(sums)


def weight_multiplicity_sweep(M, box):
    """Counts of basis shifts per realized weight within the box."""
    base = weight_of(M.seed)
    # per coordinate, integer change -> coordinate: few distinct values,
    # each a Fraction built once
    coords = [{} for _ in base]
    counts = {}
    # a weight fixes the row sums (the Cartan matrix is invertible), so
    # each row-sum tuple of the sweep is a weight of its own
    for sums, c in M.checker.sweep(box).items():
        w = []
        for b, seen, d in zip(base, coords, row_sums_weight_delta(sums)):
            x = seen.get(d)
            if x is None:
                x = seen[d] = b + d
            w.append(x)
        counts[tuple(w)] = c
    return counts


# ---------------------------------------------------------------------------
# JSON


def vector_to_json(v):
    return [
        {"shift": shift_to_json(z), "coeff": format_rational(c)}
        for z, c in sorted(v.items())
    ]


def vector_from_json(obj):
    terms = [json_object(t, "vector term") for t in json_list(obj, "vector")]
    return GTVector(
        (shift_from_json(t.get("shift")), parse_rational(t.get("coeff"))) for t in terms
    )


def module_to_json(M):
    return {
        "n": M.n,
        "seed": tableau_to_json(M.seed),
        "relations": relset_to_json(M.C),
        "sigma": list(M.sigma),
        "normalization": M.normalization,
    }


def module_from_json(obj):
    obj = json_object(obj, "module")
    sigma = json_list(obj.get("sigma") or (), "sigma")
    return GTModule(
        n=json_int(obj.get("n"), "module n"),
        seed=tableau_from_json(obj.get("seed")),
        C=relset_from_json(obj.get("relations")),
        sigma=tuple(json_int(x, "sigma entry") for x in sigma) or None,
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
