"""The module structure: generator actions on basis tableaux, axiom
verification, highest weight detection, simplicity and Casimir.

A GTVector is a finitely supported map shift-vector -> Fraction over the
basis B_C(seed); the action formulas drop any term whose target shift
falls outside the basis.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .core import Record, format_rational, json_int, json_list, json_object, parse_rational
from .errors import CriticalDenominator, NotInBasis, RankMismatch, UnsupportedGenerator
from .relations import (
    _noncritical,
    _satisfied_realization,
    is_admissible,
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
    row_sums_weight_delta,
    shift_from_json,
    shift_to_json,
    tableau_from_json,
    tableau_to_json,
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


def basis_vector(z):
    return GTVector(((z, Fraction(1)),))


def gen_E(i, j):
    return ("E", i, j)


def gen_H(k):
    return ("H", k)


def ERaise(k):
    return ("E", k, k + 1)


def ELower(k):
    return ("E", k + 1, k)


class GTModule(Record):
    """A computable description of the relation module V_C(seed).

    The action kernel runs on small ints, not shift tuples: `ids` interns
    each basis shift the module has met (shift -> id) and `shifts` maps the
    id back.  Ids are multiples of the rank's generator count, so the memo
    key of an unpermuted generator on a shift is the shift's id plus the
    generator's index in `_generators`, one addition.  `memo` maps that key
    to the terms of the generator on the basis vector, each a triple
    (target id, num, den): the coefficient num/den in lowest terms, den > 0
    and num != 0.  The coefficients come from integer arithmetic on the
    seed's entries times their common denominator (`Tableau.scaled`).  Only
    basis shifts are interned, so no id ever names a shift outside the
    basis.  The module is frozen, so an entry never goes stale; every
    transform builds a new module with empty tables.  The checker and the
    tables are not fields: equality, hash and repr never see them.
    """

    _fields = ("n", "seed", "C", "sigma", "normalization")

    def __init__(self, n, seed, C, sigma=None, normalization="hw"):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "normalization", normalization)
        _top_total(n, normalization)  # rejects an unknown normalization
        if C.n != n:
            raise RankMismatch("module has rank %d, relation set %d" % (n, C.n))
        sigma = sigma or tuple(range(1, n + 2))
        if sorted(sigma) != list(range(1, n + 2)):
            raise ValueError("sigma must be a permutation of 1..n+1")
        object.__setattr__(self, "sigma", tuple(sigma))
        # building the checker decides, arrow by arrow, that the seed
        # satisfies C (SeedViolatesRelations otherwise)
        object.__setattr__(self, "checker", BasisChecker(C, seed))
        object.__setattr__(self, "memo", {})
        object.__setattr__(self, "ids", {})
        object.__setattr__(self, "shifts", {})
        if not is_admissible(C):
            raise ValueError("relation set is not admissible")
        if not _noncritical(_satisfied_realization(C, seed)):
            raise ValueError("seed is critical for the relation set")

    def entries(self, z):
        return apply_shift(self.seed, z)

    def in_basis(self, z):
        """Whether z is a basis shift; raises ValueError unless z has rows
        of lengths 1..n."""
        _check_shape(self.n, z)
        return self.checker.check(z)


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


def _terms(M, g, z):
    """(target, num, den) triples, not reduced, of a raise E(k,k+1), a
    lower E(k+1,k) or an E(m,1), m >= 3, on T(seed+z); targets outside the
    basis are dropped before their coefficient is computed, and the integer
    rows of T (`Tableau.scaled` shifted by d z) are built only once a
    target is kept.

    Each moves one box (s, i_s) by sign in each row s of a path of rows:
    row k for E(k,k+1) (sign +1) and E(k+1,k) (sign -1), rows 1..m-1 for
    E(m,1) (sign -1).  The paths are walked lazily, in lex order, and each
    kept one has coefficient -sign * prod_s ratio(s, i_s, s+sign,
    skip=i_{s-1}).
    """
    _, i, j = g
    sign = 1 if j > i else -1
    path = range(min(i, j), max(i, j))
    check, rows = M.checker.check, None
    for boxes in product(*[[(k, a) for a in range(1, k + 1)] for k in path]):
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
        num, den, prev = -sign, 1, None
        for k, a in boxes:
            p, q = _ratio(rows, d, k, a, k + sign, prev)
            num, den, prev = num * p, den * q, a
        yield target, num, den


def _flag_span(a, b):
    """(sign, lo, hi) with E_aa - E_bb = sign * (H_lo + ... + H_{hi-1}):
    the H_k of the flag sigma, with (a, b) = (sigma_k, sigma_{k+1})."""
    return (1, a, b) if a < b else (-1, b, a)


def _resolve_sigma(sigma, g):
    """Push the flag permutation sigma into the generator; returns a list
    of (sign, generator) over the E/H basis."""
    n = len(sigma) - 1
    if g[0] == "H":
        k = g[1]
        if not 1 <= k <= n:
            raise UnsupportedGenerator("H(%d) out of range" % k)
        sign, lo, hi = _flag_span(sigma[k - 1], sigma[k])
        return [(sign, ("H", t)) for t in range(lo, hi)]
    if g[0] != "E" or len(g) != 3:
        raise UnsupportedGenerator(repr(g))
    _, i, j = g
    if i == j or not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise UnsupportedGenerator("E(%d,%d)" % (i, j))
    return [(1, ("E", sigma[i - 1], sigma[j - 1]))]


@lru_cache(maxsize=None)
def _generators(n):
    """The n(n+2) unpermuted generators of sl(n+1), H_1..H_n then every
    E(i,j), and the index of each: the offset of its memo key from the id
    of a shift."""
    gens = [gen_H(k) for k in range(1, n + 1)]
    gens += [gen_E(i, j) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
    return tuple(gens), {x: k for k, x in enumerate(gens)}


def _letter(n, sigma, g):
    """g resolved through the flag sigma, as (sign, generator index)
    pairs."""
    index = _generators(n)[1]
    return tuple((sign, index[h]) for sign, h in _resolve_sigma(sigma, g))


def _intern(M, z):
    """The id of the shift z in M, interned on first sight; z is taken to
    be a basis shift, unchecked."""
    y = M.ids.get(z)
    if y is None:
        y = M.ids[z] = len(M.shifts) * len(_generators(M.n)[0])
        M.shifts[y] = z
    return y


def _basis_id(M, z):
    """`_intern` behind the check, made when z is first interned, that z
    has rows of lengths 1..n and lies in the basis; raises NotInBasis
    otherwise."""
    y = M.ids.get(z)
    if y is None:
        if [len(row) for row in z] != list(range(1, M.n + 1)) or not M.checker.check(z):
            raise NotInBasis("shift %s is not in the basis" % (shift_to_json(z),))
        y = _intern(M, z)
    return y


def _basis_terms(M, gi, y):
    """The memoized (target id, num, den) triples of the unpermuted
    generator of index gi on the basis vector of the shift of id y, each
    reduced with den > 0 and num != 0.  A long-root E(i,j) that is not an
    E(m,1) is the bracket of two generators one step nearer the
    diagonal."""
    key = y + gi
    terms = M.memo.get(key)
    if terms is not None:
        return terms
    gens, index = _generators(M.n)
    g, z = gens[gi], M.shifts[y]
    if g[0] == "H":
        # the seed's coordinate k plus the Cartan matrix on the row sums
        # of z, over d
        k = g[1]
        d, nums = M.seed.scaled_weight
        delta = row_sums_weight_delta(map(sum, z))
        triples = ((y, nums[k - 1] + d * delta[k - 1], d),)
    elif abs(g[1] - g[2]) == 1 or (g[2] == 1 and g[1] >= 3):
        triples = ((_intern(M, t), p, q) for t, p, q in _terms(M, g, z))
    else:
        _, i, j = g
        step = i + 1 if j > i + 1 else i - 1
        a, b = ((1, index[("E", i, step)]),), ((1, index[("E", step, j)]),)
        sums = _combination_sums(M, [_word(1, (b, a)), _word(-1, (a, b))], y)
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
    `_combination_sums`, its shift checked when first interned."""
    words = [
        _word(coef, [_letter(M.n, M.sigma, x) for x in reversed(word)])
        for coef, word in combination
    ]
    shifts = M.shifts
    out = GTVector()
    for z, c in v.items():
        for t, (p, q) in _combination_sums(M, words, _basis_id(M, z)).items():
            out.iadd(shifts[t], Fraction(c.numerator * p, c.denominator * q))
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


def _word(coef, letters):
    """The (coef, head, last) form `_combination_sums` reads of a word
    whose resolved letters are listed in the order they act: head holds
    every letter but the last, as a tuple, and last is None for the empty
    word."""
    if not letters:
        return coef, (), None
    return coef, tuple(letters[:-1]), letters[-1]


def _combination_sums(M, combination, y):
    """target id -> (num, den) of a combination of words, each in the
    (coef, head, last) form of `_word`, on the basis vector of the shift
    of id y, read from the memo's integer triples.  A letter is a tuple of
    (sign, generator index).  The pairs are not reduced: a product is
    (n1 n2, d1 d2), a sum is cross-multiplied, every den is > 0.  The
    head's letters build a layer of terms; the last letter's terms are
    summed straight into the result, and the empty word adds its
    coefficient at y."""
    lookup = M.memo.get
    acc = {}
    get = acc.get
    for coef, head, last in combination:
        if last is None:
            p, q = get(y, (0, 1))
            acc[y] = (p + coef * q, q)
            continue
        layer = [(y, coef, 1)]
        for letter in head:
            step = []
            append = step.append
            for x, p, q in layer:
                for sign, gi in letter:
                    terms = lookup(x + gi)
                    if terms is None:
                        terms = _basis_terms(M, gi, x)
                    sp = sign * p
                    for t, a, b in terms:
                        append((t, sp * a, q * b))
            layer = step
        for x, p, q in layer:
            for sign, gi in last:
                terms = lookup(x + gi)
                if terms is None:
                    terms = _basis_terms(M, gi, x)
                sp = sign * p
                for t, a, b in terms:
                    num, den = sp * a, q * b
                    old = get(t)
                    if old is None:
                        acc[t] = (num, den)
                    elif old[1] == den:
                        acc[t] = (old[0] + num, den)
                    else:
                        acc[t] = (old[0] * den + num * old[1], old[1] * den)
    return acc


@lru_cache(maxsize=None)
def _compiled_identities(n, sigma):
    """(name, words) of each of `axiom_identities(n)`, built once per rank
    and flag: each letter resolved through sigma once, to generator
    indices, and each word listed in the order its letters act and split
    by `_word`.  Tuples throughout, as every module of this rank and flag
    shares them."""
    identities = axiom_identities(n)
    letters = {x for _, _, comb in identities for _, word in comb for x in word}
    resolved = {x: _letter(n, sigma, x) for x in letters}
    return tuple(
        (
            name,
            tuple(
                _word(coef, [resolved[x] for x in reversed(word)])
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

    Each draw is an index into the counted box, made from the random
    number generator's bits exactly as `randrange(len(box))` makes it, so
    a seed draws the same shifts.  Within one call, an index is unranked and its shift
    interned (unchecked: it is a basis shift) on its first draw only, and
    the identities are read as words with their last letter split off
    (`_word`).  Draws are made with replacement, so a pair of identity and
    shift can come up again within one call: a pair that passed is counted
    again without being summed, and a failing pair is summed and reported
    on every draw.  Nothing is kept across calls.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0, got %d" % samples)
    # counts the box without listing it; the seed's zero shift lies in it,
    # so size >= 1
    pool = BasisBox(M.checker, box)
    size = len(pool)
    bits, getrandbits = size.bit_length(), random.Random(seed).getrandbits
    checks = _compiled_identities(M.n, M.sigma)
    count = len(checks)
    every = range(count)
    shifts = M.shifts
    drawn = {}  # pool index -> shift id
    passed = set()  # y * count + i for each passing pair (i, y)
    failures = []
    checked = 0
    while checked < samples:
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        y = drawn.get(r)
        if y is None:
            y = drawn[r] = _intern(M, pool[r])
        batch = every if full else (checked % count,)
        for i in batch:
            key = y * count + i
            if key in passed:
                continue
            name, words = checks[i]
            sums = _combination_sums(M, words, y)
            for p, _ in sums.values():
                if p:
                    residual = GTVector(
                        (shifts[t], Fraction(*pq)) for t, pq in sums.items()
                    )
                    failures.append(
                        {
                            "identity": name,
                            "shift": shift_to_json(shifts[y]),
                            "residual": vector_to_json(residual),
                        }
                    )
                    break
            else:
                passed.add(key)
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
    # the raisings interned and checked every shift of v
    ys = [M.ids[z] for z in v]
    coords = []
    for k in range(1, M.n + 1):
        word = [_word(1, [_letter(M.n, M.sigma, gen_H(k))])]
        lams = {Fraction(*_combination_sums(M, word, y).get(y, (0, 1))) for y in ys}
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
    Strictness is decided first: C is the seed's reduced maximal set (a
    reduced set reduces to itself, so it is not reduced again), or reduces
    to it.  Then C implies every arrow of sat with no search: the
    maximal set lies inside C, the reduction drops only arrows the rest
    implies (through a strict arrow when the dropped one is strict), seed
    gaps add along a path, and a top-row arrow is a (size, size, t) triple
    of the checker.
    """
    maximal = M.seed.maximal_set.relations
    strict = M.C.relations == maximal or reduce_relations(M.C).relations == maximal
    witness = None
    if not strict:
        sat = M.seed.satisfied.sorted()
        witness = next((r for r in sat if r not in M.C and not M.checker.implies(r)), None)
    return {"maximal_eq": witness is None, "strict_eq": strict, "witness": witness}


def casimir_alpha1(M, v):
    """(H1+1)^2 + 4 E21 E12 applied to v."""
    h1, e12, e21 = gen_H(1), gen_E(1, 2), gen_E(2, 1)
    return _apply(M, [(1, (h1, h1)), (2, (h1,)), (1, ()), (4, (e21, e12))], v)


def weight_multiplicity(M, w, box):
    """(number of basis shifts in the box realizing weight w, whether the
    box holds the whole basis, so that the number is dim of the weight
    space).  w is read in the coordinates of the flag, and its count is
    its entry of `weight_multiplicity_sweep`: 0 off the root lattice and
    outside the box."""
    if len(w) != M.n:
        raise RankMismatch("weight has %d coordinates, rank is %d" % (len(w), M.n))
    count = weight_multiplicity_sweep(M, box).get(tuple(map(Fraction, w)), 0)
    return count, M.checker.in_box(box)


def weight_multiplicity_sweep(M, box):
    """Counts of basis shifts per realized weight within the box, each
    weight in the coordinates of the flag: the eigenvalues of
    `act(M, gen_H(k), .)`.

    A weight fixes the row sums (the Cartan matrix is invertible), so
    each row-sum tuple s of the sweep is a weight of its own.  With
    s_0 = s_{n+1} = 0, the unpermuted H_t changes by
    2 s_t - s_{t-1} - s_{t+1} on a shift, so sign * (H_lo + ... +
    H_{hi-1}) changes by sign times the integer
    s_lo - s_{lo-1} + s_{hi-1} - s_hi.  The weights are built column by
    column: per coordinate, the integer change of every row-sum tuple,
    then one Fraction over the seed's `scaled_weight` per distinct
    change."""
    d, nums = M.seed.scaled_weight
    sweep = BasisBox(M.checker, box).sweep()
    zero = (0,) * len(sweep)
    # s[t]: the row sum s_t of every tuple of the sweep, in its order; the
    # zero shift is a basis shift, so the sweep is never empty
    s = [zero, *zip(*sweep), zero]
    coords = []
    for sign, lo, hi in map(_flag_span, M.sigma, M.sigma[1:]):
        changes = [
            b - a + c - e for a, b, c, e in zip(s[lo - 1], s[lo], s[hi - 1], s[hi])
        ]
        num = sum(nums[lo - 1 : hi - 1])
        table = {u: Fraction(sign * (num + d * u), d) for u in set(changes)}
        coords.append(map(table.__getitem__, changes))
    return dict(zip(zip(*coords), sweep.values()))


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
