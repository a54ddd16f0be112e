"""The module structure: generator actions on basis tableaux, axiom
verification, highest weight detection, simplicity and Casimir.

A GTVector is a finitely supported map shift-vector -> Fraction over the
basis B_C(seed); the action formulas drop any term whose target shift
falls outside the basis.
"""

import random
import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .core import format_rational, json_int, json_list, json_object, parse_rational
from .errors import CriticalDenominator, NotInBasis, RankMismatch, UnsupportedGenerator
from .relations import (
    is_admissible,
    is_noncritical_for,
    reduce_relations,
    relset_from_json,
    relset_to_json,
)
from .tableau import (
    BasisBox,
    BasisChecker,
    _check_shape,
    _top_total,
    apply_shift,
    row_sums_of_weight_delta,
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

    `memo` maps (unpermuted generator, basis shift) to the terms of that
    generator on that basis vector, each a triple (target, num, den): the
    coefficient num/den in lowest terms, den > 0 and num != 0.  The
    coefficients come from integer arithmetic on the seed's entries times
    their common denominator (`Tableau.scaled`).  The module is frozen, so
    an entry never goes stale; every transform builds a new module with an
    empty memo.
    """

    n: int
    seed: object
    C: object
    sigma: tuple = None
    normalization: str = "hw"
    checker: object = field(default=None, compare=False, repr=False)
    memo: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _top_total(self.n, self.normalization)  # rejects an unknown normalization
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
        """Whether z is a basis shift; raises ValueError unless z has rows
        of lengths 1..n."""
        _check_shape(self.n, z)
        return self.checker.check(z)

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


def module(seed, C, sigma=None, normalization="hw"):
    return GTModule(n=C.n, seed=seed, C=C, sigma=sigma, normalization=normalization)


# ---------------------------------------------------------------------------
# primitive actions on one basis tableau


def _ratio(rows, d, k, i, k2, skip=None):
    """(num, den), not reduced, of prod_{j != skip} (l_ki - l_{k2,j}) /
    prod_{j != i} (l_ki - l_kj), where rows holds the entries times d as
    ints; row 0 is empty.  Each integer difference is d times the true one,
    so the quotient is corrected by d^(denominator factors - numerator
    factors)."""
    row = rows[k - 1]
    x = row[i - 1]
    num = 1
    if k2 >= 1:
        for j, y in enumerate(rows[k2 - 1], start=1):
            if j != skip:
                num *= x - y
    den = 1
    for j, y in enumerate(row, start=1):
        if j != i:
            den *= x - y
    if den == 0:
        raise CriticalDenominator("zero denominator in row %d" % k)
    # k - 1 denominator factors, k2 numerator factors less the skipped one
    e = k - 1 - k2 + (skip is not None)
    if e > 0:
        num *= d**e
    elif e < 0:
        den *= d**-e
    return num, den


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
    """(target, num, den) triples, not reduced, of a raise E(k,k+1), a
    lower E(k+1,k) or an E(m,1), m >= 3, on T(seed+z); targets outside the
    basis are dropped before their coefficient is computed, and the integer
    rows of T (`Tableau.scaled` shifted by d z) are built only once a
    target is kept.

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
    check, rows = M.checker.check, None
    for boxes in paths:
        target = _moved(z, boxes, sign)
        if not check(target):
            continue
        if rows is None:
            d, seed_rows = M.seed.scaled
            rows = [
                tuple(e + d * s for e, s in zip(row, zrow))
                for row, zrow in zip(seed_rows, z)
            ]
            rows.append(seed_rows[-1])
        if sign > 0:
            ((k, a),) = boxes
            num, den = _ratio(rows, d, k, a, k + 1)
            yield target, -num, den
            continue
        num, den, prev = 1, 1, None
        for k, a in boxes:
            p, q = _ratio(rows, d, k, a, k - 1, prev)
            num, den, prev = num * p, den * q, a
        yield target, num, den


def _resolve_sigma(sigma, g):
    """Push the flag permutation sigma into the generator; returns a list
    of (sign, generator) over the E/H basis."""
    n = len(sigma) - 1
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
    """The memoized (target, num, den) triples of an unpermuted, in-range
    generator on the basis vector of z, each reduced with den > 0 and
    num != 0; raises NotInBasis when z is not a basis shift.  A long-root
    E(i,j) that is not an E(m,1) is the bracket of two generators one step
    nearer the diagonal."""
    key = (g, z)
    terms = M.memo.get(key)
    if terms is not None:
        return terms
    if [len(row) for row in z] != list(range(1, M.n + 1)) or not M.checker.check(z):
        raise NotInBasis("shift %s is not in the basis" % (shift_to_json(z),))
    if g[0] == "H":
        k = g[1]
        delta = row_sums_weight_delta([sum(row) for row in z])
        w = weight_of(M.seed)[k - 1] + delta[k - 1]
        triples = ((z, w.numerator, w.denominator),)
    elif abs(g[1] - g[2]) == 1 or (g[2] == 1 and g[1] >= 3):
        triples = _terms(M, g, z)
    else:
        _, i, j = g
        step = i + 1 if j > i + 1 else i - 1
        a, b = [(1, ("E", i, step))], [(1, ("E", step, j))]
        sums = _combination_sums(M, [(1, [b, a]), (-1, [a, b])], z)
        triples = ((t, p, q) for t, (p, q) in sums.items())
    reduced = []
    for t, p, q in triples:
        if p:
            r = gcd(p, q) if q > 0 else -gcd(p, q)
            reduced.append((t, p // r, q // r))
    terms = M.memo[key] = tuple(reduced)
    return terms


def _apply(M, combination, v):
    """A combination of (integer coefficient, word) in the form of
    `axiom_identities`, applied to the vector v: each letter is resolved
    through the flag and each basis term of v summed by
    `_combination_sums`."""
    words = [
        (coef, [_resolve_sigma(M.sigma, x) for x in reversed(word)])
        for coef, word in combination
    ]
    out = GTVector()
    for z, c in v.items():
        for t, (p, q) in _combination_sums(M, words, z).items():
            out.iadd(t, Fraction(c.numerator * p, c.denominator * q))
    return out


def act(M, g, v):
    """Linear action of a generator, resolved through the flag twist."""
    return _apply(M, [(1, (g,))], v)


def commutator(M, g1, g2, v):
    return _apply(M, [(1, (g1, g2)), (-1, (g2, g1))], v)


# ---------------------------------------------------------------------------
# axiom suite


def _cartan(k, l):
    if k == l:
        return 2
    if abs(k - l) == 1:
        return -1
    return 0


def axiom_identities(n):
    """(name, word length, combination) triples, one per defining relation
    checked on a single basis vector.  A combination is a list of (integer
    coefficient, word); a word (g_1, ..., g_r) acts as g_1 ... g_r, its last
    letter first, and the relation holds iff the combination acts as 0."""

    def bracket(a, b, *rest):
        return [(1, (a, b)), (-1, (b, a))] + [t for t in rest if t[0]]

    ids = []
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            ids.append(("[H%d,H%d]=0" % (k, l), 2, bracket(gen_H(k), gen_H(l))))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            c = _cartan(k, l)
            for e, d in ((ERaise(l), c), (ELower(l), -c)):
                name = "[H%d,E%d%d]=%dE" % (k, e[1], e[2], d)
                ids.append((name, 2, bracket(gen_H(k), e, (-d, (e,)))))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            h = [(-1, (gen_H(k),))] if k == l else []
            name = "[E%d%d,E%d%d]=%s" % (k, k + 1, l + 1, l, "H%d" % k if h else "0")
            ids.append((name, 2, bracket(ERaise(k), ELower(l), *h)))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            for a, b in ((ERaise(k), ERaise(l)), (ELower(k), ELower(l))):
                if abs(k - l) == 1:
                    # ad(a)^2 b = aab - 2aba + baa
                    word = [(1, (a, a, b)), (-2, (a, b, a)), (1, (b, a, a))]
                    ids.append(("ad(E%d%d)^2 E%d%d=0" % (a[1:] + b[1:]), 3, word))
                elif abs(k - l) >= 2 and k < l:
                    ids.append(("[E%d%d,E%d%d]=0" % (a[1:] + b[1:]), 2, bracket(a, b)))
    return ids


def _combination_sums(M, combination, z):
    """target -> (num, den) of a combination of resolved words on the basis
    vector of z, read from the memo's integer triples.  The pairs are not
    reduced: a product is (n1 n2, d1 d2), a sum is cross-multiplied, every
    den is > 0."""
    lookup = M.memo.get
    acc = {}
    get = acc.get
    for coef, letters in combination:
        layer = [(z, coef, 1)]
        for letter in letters:
            step = []
            append = step.append
            for y, p, q in layer:
                for sign, h in letter:
                    terms = lookup((h, y))
                    if terms is None:
                        terms = _basis_terms(M, h, y)
                    sp = sign * p
                    for t, a, b in terms:
                        append((t, sp * a, q * b))
            layer = step
        for t, p, q in layer:
            old = get(t)
            if old is None:
                acc[t] = (p, q)
            elif old[1] == q:
                acc[t] = (old[0] + p, q)
            else:
                acc[t] = (old[0] * q + p * old[1], old[1] * q)
    return acc


@lru_cache(maxsize=None)
def _compiled_identities(n, sigma):
    """(name, resolved words) of each of `axiom_identities(n)`, built once
    per rank and flag: each letter resolved through sigma once, and each
    word listed in the order its letters act.  Tuples throughout, as every
    module of this rank and flag shares them."""
    identities = axiom_identities(n)
    letters = {x for _, _, comb in identities for _, word in comb for x in word}
    resolved = {x: tuple(_resolve_sigma(sigma, x)) for x in letters}
    return tuple(
        (
            name,
            tuple(
                (coef, tuple(resolved[x] for x in reversed(word)))
                for coef, word in comb
            ),
        )
        for name, _, comb in identities
    )


def verify_axioms(M, box=3, samples=200, seed=7, full=False):
    """Check the defining sl(n+1) relations on random basis shifts.

    The action is evaluated exactly on the full basis (no truncation), so
    every sampled shift is interior in the sense that no artifact terms
    can appear; the box only bounds the sampling region.  By default the
    s-th sample checks one identity, cycling through them; with full=True
    every sampled shift is checked against every identity until at least
    `samples` checks are done (slower, used at acceptance).  A failure
    carries its nonzero residual as a JSON vector.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0, got %d" % samples)
    rng = random.Random(seed)
    # counts the box and unranks each draw: the same shifts as indexing
    # the enumerated list
    pool = BasisBox(M.checker, box)
    size = len(pool)
    checks = _compiled_identities(M.n, M.sigma)
    count = len(checks)
    failures = []
    checked = 0
    while checked < samples:
        z = pool[rng.randrange(size)]
        batch = checks if full else (checks[checked % count],)
        for name, words in batch:
            sums = _combination_sums(M, words, z)
            for p, _ in sums.values():
                if p:
                    residual = GTVector((t, Fraction(*pq)) for t, pq in sums.items())
                    failures.append(
                        {
                            "identity": name,
                            "shift": shift_to_json(z),
                            "residual": vector_to_json(residual),
                        }
                    )
                    break
        checked += len(batch)
    return {
        "failures": failures,
        "samples": checked,
        "seed": seed,
        "identities": count,
        "pool": size,
    }


# ---------------------------------------------------------------------------
# structure queries


def is_highest_weight_vector(M, v):
    """The weight when v is killed by all raisings and is an
    H-eigenvector; None otherwise.

    H is diagonal on the basis, so v is an eigenvector iff every shift of
    its support has the same eigenvalue, read off the memo's integer
    triples."""
    if v.is_zero():
        return None
    for k in range(1, M.n + 1):
        if not act(M, ERaise(k), v).is_zero():
            return None
    coords = []
    for k in range(1, M.n + 1):
        word = [(1, [_resolve_sigma(M.sigma, gen_H(k))])]
        lams = {Fraction(*_combination_sums(M, word, z).get(z, (0, 1))) for z in v}
        if len(lams) > 1:
            return None
        coords.append(lams.pop())
    return tuple(coords)


def is_simple(M):
    """Whether C constrains the shifts exactly as the maximal relation
    set satisfied by the seed does.

    The seed satisfies C and C lies in R, so C is a subset of that set,
    sat, and the closure of sat is at least that of C entrywise.  The two
    are equal iff C implies every arrow of sat, as C's closure obeys the
    triangle inequality; `witness` is the first arrow of sat it does not.
    A C equal to the seed's reduced maximal set is both, with no closure:
    the reduction drops only arrows the rest implies (through a strict
    arrow when the dropped one is strict), seed gaps add along a path, and
    a top-row arrow is a (size, size, t) triple of the checker, so C
    implies every arrow of sat.  Nor does such a C need a reduction of its
    own: a reduced set reduces to itself.
    """
    maximal = M.seed.maximal_set.relations
    if M.C.relations == maximal:
        return {"maximal_eq": True, "strict_eq": True, "witness": None}
    sat = M.seed.satisfied.sorted()
    witness = next((r for r in sat if r not in M.C and not M.checker.implies(r)), None)
    return {
        "maximal_eq": witness is None,
        "strict_eq": reduce_relations(M.C).relations == maximal,
        "witness": witness,
    }


def casimir_alpha1(M, v):
    """(H1+1)^2 + 4 E21 E12 applied to v."""
    h1, e12, e21 = gen_H(1), gen_E(1, 2), gen_E(2, 1)
    return _apply(M, [(1, (h1, h1)), (2, (h1,)), (1, ()), (4, (e21, e12))], v)


def weight_multiplicity(M, w, box):
    """(number of basis shifts in the box realizing weight w, whether the
    box holds the whole basis, so that the number is dim of the weight
    space)."""
    if len(w) != M.n:
        raise RankMismatch("weight has %d coordinates, rank is %d" % (len(w), M.n))
    if box < 0:
        raise ValueError("box must be >= 0, got %d" % box)
    delta = [Fraction(x) - b for x, b in zip(w, weight_of(M.seed))]
    sums = row_sums_of_weight_delta(delta)
    count = 0 if sums is None else BasisBox(M.checker, box).sweep().get(sums, 0)
    return count, M.checker.in_box(box)


def weight_multiplicity_sweep(M, box):
    """Counts of basis shifts per realized weight within the box."""
    base = weight_of(M.seed)
    # per coordinate, integer change -> coordinate: few distinct values,
    # each a Fraction built once
    coords = [{} for _ in base]
    counts = {}
    # a weight fixes the row sums (the Cartan matrix is invertible), so
    # each row-sum tuple of the sweep is a weight of its own
    for sums, c in BasisBox(M.checker, box).sweep().items():
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
