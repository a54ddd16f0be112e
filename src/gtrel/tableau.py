"""Gelfand-Tsetlin tableaux, integer shift vectors, basis membership and
the explicit seed-tableau constructors.

A tableau of height n+1 stores rows of lengths 1..n+1; shift vectors are
integer arrays over rows 1..n (the top row is pinned).  Weights are
H-eigenvalue coordinate tuples of length n.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, inf

from . import classify
from .core import format_rational, json_int, json_list, json_object, parse_rational
from .errors import (
    NotARealization,
    NotCaseA,
    NotCaseB,
    PreconditionViolated,
    RankMismatch,
    SeedViolatesRelations,
)
from .relations import (
    RMINUS,
    RZERO,
    RelationSet,
    is_admissible,
    is_noncritical_for,
    reduce_relations,
    relation_kind,
    satisfied_relations,
    satisfies,
)


@dataclass(frozen=True)
class Tableau:
    n: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.n + 1:
            raise ValueError("expected %d rows" % (self.n + 1))
        for k, row in enumerate(self.rows, start=1):
            if len(row) != k:
                raise ValueError("row %d must have %d entries" % (k, k))

    def entry(self, k, i):
        return self.rows[k - 1][i - 1]

    @cached_property
    def classes(self):
        """classes[k - 1][i - 1] is the (class, floor) of entry (k, i) = p/q
        in lowest terms: two entries differ by an integer iff their classes
        are equal, and then by the difference of their floors.  The class
        numbers the residue (p % q, q) within this tableau, the floor is
        p // q, and equal entries share one pair."""
        ids, pairs = {}, {}

        def classify(x):
            p, q = x.numerator, x.denominator
            pair = (ids.setdefault((p % q, q), len(ids)), p // q)
            return pairs.setdefault(pair, pair)

        return tuple(tuple(map(classify, row)) for row in self.rows)


def tableau(n, rows):
    return Tableau(n, tuple(tuple(Fraction(x) for x in row) for row in rows))


def zero_shift(n):
    return tuple(tuple(0 for _ in range(k)) for k in range(1, n + 1))


def unit_shift(n, k, i):
    """The shift delta^{ki} (one box in row k, column i)."""
    if not 1 <= i <= k <= n:
        raise ValueError("delta^{%d,%d} out of range for n=%d" % (k, i, n))
    return tuple(
        tuple(1 if (r == k and c == i) else 0 for c in range(1, r + 1))
        for r in range(1, n + 1)
    )


def shift_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def shift_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def apply_shift(T, z):
    """Entrywise sum on rows 1..n; the top row is unchanged."""
    if len(z) != T.n:
        raise ValueError("shift must cover rows 1..%d" % T.n)
    rows = [
        tuple(e + d for e, d in zip(row, zrow)) for row, zrow in zip(T.rows, z)
    ] + [T.rows[T.n]]
    return Tableau(T.n, tuple(rows))


def apply_rational_shift(T, k, i, x):
    """Add the scalar x to the single entry (k, i)."""
    rows = [
        tuple(
            e + (Fraction(x) if (r == k and c == i) else 0)
            for c, e in enumerate(row, start=1)
        )
        for r, row in enumerate(T.rows, start=1)
    ]
    return Tableau(T.n, tuple(rows))


def weight_of(T):
    """H-eigenvalue coordinates of T."""
    sums = [sum(row) for row in T.rows]
    coords = []
    for k in range(1, T.n + 1):
        below = sums[k - 2] if k >= 2 else 0
        coords.append(2 * sums[k - 1] - below - sums[k] - 1)
    return tuple(Fraction(c) for c in coords)


def weight_delta(n, z):
    """weight_of(T + z) - weight_of(T); depends on z only."""
    return tuple(Fraction(d) for d in row_sums_weight_delta([sum(row) for row in z]))


def row_sums_weight_delta(sums):
    """The integer weight_delta of every shift whose rows 1..n sum to
    `sums`."""
    sums = list(sums) + [0]
    out = []
    for k in range(1, len(sums)):
        below = sums[k - 2] if k >= 2 else 0
        out.append(2 * sums[k - 1] - below - sums[k])
    return out


class BasisChecker:
    """The basis B_C(seed) as a system of difference constraints.

    Each relation reduces to z_a - z_b >= t with a fixed integer t, where
    z of a top-row position is 0.  Nodes 0..size-1 are the positions of
    rows 1..n in flat order (row by row, left to right); node `size` stands
    for the whole top row.
    """

    def __init__(self, C, seed):
        if seed.n != C.n:
            raise RankMismatch("seed has rank %d, relation set %d" % (seed.n, C.n))
        if not satisfies(seed, C):
            raise SeedViolatesRelations("seed does not satisfy the relation set")
        self.C = C
        self.seed = seed
        self.n = C.n
        self.size = self.n * (self.n + 1) // 2
        self.constraints = [(a, b, self._bound((a, b))) for a, b in C.sorted()]

    def _bound(self, rel):
        """The t of rel read as z_a - z_b >= t; rel must hold at the seed,
        so its entries share a class and differ by their floors."""
        (k, i), (r, s) = rel
        classes = self.seed.classes
        need = 1 if relation_kind(self.n, rel[0], rel[1]) == RMINUS else 0
        return need - (classes[k - 1][i - 1][1] - classes[r - 1][s - 1][1])

    def _node(self, pos):
        k, i = pos
        return self.size if k == self.n + 1 else k * (k - 1) // 2 + i - 1

    @staticmethod
    def _z(z, pos, n):
        k, i = pos
        return 0 if k == n + 1 else z[k - 1][i - 1]

    def check(self, z):
        for a, b, t in self.constraints:
            if self._z(z, a, self.n) - self._z(z, b, self.n) < t:
                return False
        return True

    @cached_property
    def closure(self):
        """d[u][v]: the greatest t with z_u - z_v >= t on the whole basis,
        -inf when C implies no bound (Floyd-Warshall over longest paths;
        the seed satisfies C, so no cycle is positive)."""
        size = self.size + 1
        d = [[-inf] * size for _ in range(size)]
        for u in range(size):
            d[u][u] = 0
        for a, b, t in self.constraints:
            u, v = self._node(a), self._node(b)
            if u != v:
                d[u][v] = max(d[u][v], t)
        for m in range(size):
            dm = d[m]
            for row in d:
                rm = row[m]
                if rm != -inf:
                    row[:] = [max(x, rm + y) for x, y in zip(row, dm)]
        return d

    @property
    def ranges(self):
        """Exact (lo, hi) of each coordinate over the basis, in flat order;
        -inf / inf where C leaves it unbounded."""
        d, top = self.closure, self.size
        return [(d[p][top], -d[top][p]) for p in range(top)]

    @property
    def bounded(self):
        """Whether C confines every coordinate, i.e. the basis is finite."""
        return all(-inf < lo and hi < inf for lo, hi in self.ranges)

    def implies(self, rel):
        """Whether C already forces the constraint of rel, a relation the
        seed satisfies."""
        u, v = self._node(rel[0]), self._node(rel[1])
        return u == v or self.closure[u][v] >= self._bound(rel)

    def in_box(self, box):
        """Whether every basis shift has |z_{ki}| <= box, so that the box
        holds the whole basis."""
        return all(-box <= lo and hi <= box for lo, hi in self.ranges)

    def count(self, box):
        """The number of basis shifts with |z_{ki}| <= box."""
        return len(BasisBox(self, box))

    def shift_at(self, box, i):
        """The i-th basis shift of `enumerate(box)`, found without listing
        the shifts before it."""
        return BasisBox(self, box)[i]

    def sweep(self, box):
        """Row-sum tuple (sum of z's row 1, ..., row n) -> number of basis
        shifts with |z_{ki}| <= box and those row sums."""
        return BasisBox(self, box).sweep()

    def enumerate(self, box):
        """All basis shifts with |z_{ki}| <= box, ascending in flat order."""
        return BasisBox(self, box).shifts()


class BasisBox:
    """The basis shifts with |z_{ki}| <= box, in `BasisChecker.enumerate`
    order (ascending in flat order), as a sequence: `len` counts them and
    indexing unranks one, neither by listing them.

    Every relation of C links row k with row k+-1 or lies in the pinned
    top row, so the ways to complete rows k+1..n of a shift depend on rows
    1..k only through row k.  The walks below memoize per row k (a tuple of
    length k; the empty tuple stands for row 0) its candidates for row k+1
    and their completion counts, which turns enumeration into a
    transfer-matrix count.  These memos and the shifts already unranked
    live as long as this object, so build one per call.
    """

    def __init__(self, checker, box):
        if box < 0:
            raise ValueError("box must be >= 0, got %d" % box)
        self.n = checker.n
        d, top = checker.closure, checker.size

        def cuts(p, nodes):
            """(j, t) with z_p >= z_{nodes[j]} + t, and with
            z_p <= z_{nodes[j]} - t; -inf entries of d cut nothing."""
            return (
                [(j, d[p][q]) for j, q in enumerate(nodes) if d[p][q] != -inf],
                [(j, d[q][p]) for j, q in enumerate(nodes) if d[q][p] != -inf],
            )

        # per row k+1, per position p: its range from the box and the top
        # row, then its cuts against row k and against row k+1 before p
        self._cuts = []
        for k in range(self.n):
            start = k * (k + 1) // 2
            prev = range(start - k, start)
            self._cuts.append(
                [
                    (max(-box, d[p][top]), min(box, -d[top][p]))
                    + cuts(p, prev)
                    + cuts(p, range(start, p))
                    for p in range(start, start + k + 1)
                ]
            )
        self._children = {}
        self._blocks = {}
        self._unranked = {}

    def _rows(self, row):
        """The candidates for row k+1 under row k = `row`, ascending in lex
        order: each entry's range is cut by the closure against row k, the
        entries of row k+1 already placed, and the top row."""
        kids = self._children.get(row)
        if kids is not None:
            return kids
        kids = [()]
        for lo, hi, lows, highs, lows_in, highs_in in self._cuts[len(row)]:
            for j, t in lows:
                lo = max(lo, row[j] + t)
            for j, t in highs:
                hi = min(hi, row[j] - t)
            placed = []
            for r in kids:
                a, b = lo, hi
                for j, t in lows_in:
                    a = max(a, r[j] + t)
                for j, t in highs_in:
                    b = min(b, r[j] - t)
                placed.extend(r + (x,) for x in range(a, b + 1))
            kids = placed
            if not kids:
                break
        self._children[row] = kids
        return kids

    def _block(self, row):
        """(`_rows(row)`, the cumulative numbers of completions of rows
        k+1..n under row k, child by child)."""
        block = self._blocks.get(row)
        if block is None:
            kids = self._rows(row)
            if len(row) == self.n - 1:
                sizes = range(1, len(kids) + 1)
            else:
                sizes = list(accumulate(self._count(r) for r in kids))
            block = self._blocks[row] = (kids, sizes)
        return block

    def _count(self, row):
        sizes = self._block(row)[1]
        return sizes[-1] if sizes else 0

    @cached_property
    def _size(self):
        return self._count(())

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        """Unrank i: at each row, the child whose block of completions
        holds i, found by bisecting the cumulative child counts."""
        z = self._unranked.get(i)
        if z is not None:
            return z
        size = self._size
        if not 0 <= i < size:
            raise IndexError("shift index %d out of range [0, %d)" % (i, size))
        # counting filled the memo for every row on the way down
        blocks, rows, row, rest = self._blocks, [], (), i
        for _ in range(self.n):
            kids, sizes = blocks[row]
            j = bisect_right(sizes, rest)
            if j:
                rest -= sizes[j - 1]
            row = kids[j]
            rows.append(row)
        z = self._unranked[i] = tuple(rows)
        return z

    def sweep(self):
        """Row-sum tuple -> number of shifts; merged row by row, so each
        row k's table of completion row sums is built once."""
        memo, leaf = {}, {(): 1}

        def walk(row):
            if len(row) == self.n:
                return leaf
            hit = memo.get(row)
            if hit is None:
                hit = memo[row] = {}
                for r in self._rows(row):
                    s = sum(r)
                    for key, c in walk(r).items():
                        key = (s,) + key
                        hit[key] = hit.get(key, 0) + c
            return hit

        return walk(())

    def shifts(self):
        """Every shift, in order."""
        out = []

        def walk(prefix, row):
            if len(row) == self.n:
                out.append(prefix)
                return
            for r in self._rows(row):
                walk(prefix + (r,), r)

        walk((), ())
        return out


def in_basis(C, seed, z):
    """True iff T(seed+z) still satisfies C."""
    return BasisChecker(C, seed).check(z)


def enumerate_basis_box(C, seed, box):
    """All shifts z with |z_{ki}| <= box whose tableau satisfies C."""
    return BasisChecker(C, seed).enumerate(box)


def enumerate_weight_space(C, seed, w, box):
    """Shifts in the box realizing weight w, plus a flag that is true only
    when the box holds the whole basis, so the list is the weight space."""
    if len(w) != C.n:
        raise RankMismatch("weight has %d coordinates, rank is %d" % (len(w), C.n))
    checker = BasisChecker(C, seed)
    base = weight_of(seed)
    target = tuple(Fraction(x) for x in w)
    hits = [
        z
        for z in checker.enumerate(box)
        if tuple(b + d for b, d in zip(base, weight_delta(C.n, z))) == target
    ]
    return hits, checker.in_box(box)


# ---------------------------------------------------------------------------
# seed constructors


def _hw_top_values(lam, n, normalization):
    """Column values v_1..v_{n+1} with v_s - v_{s+1} = <lam+rho, alpha_s>
    and the chosen top-row sum normalization."""
    lam = tuple(Fraction(x) for x in lam)
    diffs = [lam[s - 1] + 1 for s in range(1, n + 1)]
    total = Fraction(-(n + 1)) if normalization == "sl2" else Fraction(-comb(n + 1, 2))
    tails = []
    for s in range(1, n + 2):
        tails.append(sum(diffs[s - 1 : n], Fraction(0)))
    last = (total - sum(tails, Fraction(0))) / (n + 1)
    return [last + t for t in tails]


def _validated(T, C):
    try:
        noncritical = is_noncritical_for(C, T)
    except NotARealization:
        raise PreconditionViolated(
            "constructed tableau is not a C-realization"
        ) from None
    if not noncritical:
        raise PreconditionViolated("constructed tableau is critical")
    if not is_admissible(C):
        raise PreconditionViolated("constructed relation set is not admissible")
    return T, C


def hw_tableau_case_a(lam, normalization="hw"):
    """Constant-column highest weight seed plus its maximal relation set."""
    n = len(lam)
    case = classify.hw_relation_case(lam)
    if case.tag != "CaseA":
        raise NotCaseA("weight is not in case a: %r" % (case,))
    v = _hw_top_values(lam, n, normalization)
    T = tableau(n, [[v[s - 1] for s in range(1, r + 1)] for r in range(1, n + 2)])
    C = reduce_relations(satisfied_relations(T))
    return _validated(T, C)


def hw_tableau_case_b(lam, i, j, normalization="hw"):
    """Case-b highest weight seed (shuffled columns) and its maximal set."""
    n = len(lam)
    case = classify.hw_relation_case(lam)
    if case.tag != "CaseB" or (case.i, case.j) != (i, j):
        raise NotCaseB("weight is not in case b with (i,j)=(%d,%d): %r" % (i, j, case))
    v = _hw_top_values(lam, n, normalization)

    def ent(r, s):
        if s < i or (i <= r <= j):
            return v[s - 1]
        if i <= s < r + i - j:
            return v[s + j - i]
        if s >= r + i - j:
            return v[s - r + j - 1]
        raise AssertionError("uncovered entry (%d,%d)" % (r, s))

    T = tableau(n, [[ent(r, s) for s in range(1, r + 1)] for r in range(1, n + 2)])
    C = reduce_relations(satisfied_relations(T))
    return _validated(T, C)


def family_tableau(u, v, m=None):
    """Dense-family seed: first column u_i, interior columns v_{j-1}.

    Returns (T, Q) without m, (T^m, C^m) with it.
    """
    n = len(v)
    if len(u) != n + 1:
        raise PreconditionViolated("u must have n+1 entries, v must have n")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    for idx in range(n):
        if (u[idx] - v[0]).denominator == 1:
            raise PreconditionViolated("u_%d - v_1 in Z" % (idx + 1))
    for j in range(n - 1):
        d = v[j] - v[j + 1]
        if not (d.denominator == 1 and d > 0):
            raise PreconditionViolated("v_%d - v_%d not in Z_{>0}" % (j + 1, j + 2))
    if m is not None:
        if not 2 <= m <= n:
            raise PreconditionViolated("m must satisfy 2 <= m <= n")
        for idx in range(m, n + 1):
            if u[idx] != u[m - 1]:
                raise PreconditionViolated("u_%d != u_%d" % (idx + 1, m))
        for idx in range(m - 1):
            if (u[idx] - u[idx + 1]).denominator == 1:
                raise PreconditionViolated("u_%d - u_%d in Z" % (idx + 1, idx + 2))

    def ent(r, s):
        return u[r - 1] if s == 1 else v[s - 2]

    T = tableau(n, [[ent(r, s) for s in range(1, r + 1)] for r in range(1, n + 2)])
    rels = set()
    for i in range(2, n + 1):
        for j in range(2, i + 1):
            rels.add(((i + 1, j), (i, j)))
            rels.add(((i, j), (i + 1, j + 1)))
    if m is not None:
        for i in range(m, n + 1):
            rels.add(((i + 1, 1), (i, 1)))
    C = RelationSet(n, frozenset(rels))
    return _validated(T, C)


def lem_key_tableau(lam, i, normalization="hw"):
    """Seed and relation set realizing a highest weight module over the
    Borel subalgebra twisted by the word s_{i-1} s_i ... s_1 s_2."""
    n = len(lam)
    if not 1 < i <= n:
        raise PreconditionViolated("need 1 < i <= n")
    case = classify.bounded_case(lam)
    if not (case == "a" or (isinstance(case, tuple) and case[0] == "e")):
        raise PreconditionViolated("weight not in bounded cases a/e: %r" % (case,))
    lam = tuple(Fraction(x) for x in lam)
    p = [None] + [lam[k - 1] + 1 for k in range(1, n + 1)]

    # offsets of v_t relative to v_1
    off = [None] * (n + 2)
    off[1] = Fraction(0)
    off[2] = -p[i]
    off[i + 1] = p[i - 1]
    if i > 2:
        off[3] = sum(p[1:i], Fraction(0))
        for k in range(1, i - 2 + 1):
            off[k + 3] = off[k + 2] - p[k]
    if i + 2 <= n + 1:
        off[i + 2] = off[2] - p[i + 1]
        for k in range(i + 2, n + 1):
            off[k + 1] = off[k] - p[k]
    total = Fraction(-(n + 1)) if normalization == "sl2" else Fraction(-comb(n + 1, 2))
    v1 = (total - sum(off[1 : n + 2], Fraction(0))) / (n + 1)
    v = [None] + [v1 + off[t] for t in range(1, n + 2)]

    def ent(r, s):
        if r == s == 1:
            return v[1] + i - 1
        if 1 < r <= i and s == r - 1:
            return v[1] + i + 1 - r
        if r > i and s == i:
            return v[1]
        if 1 < r <= i and s == r:
            return v[2] + i + 1 - r
        if r > i and s == r:
            return v[2]
        if r >= 3 and s == 1:
            return v[3]
        if r >= 4 and 2 <= s < i:
            return v[s + 2]
        # index s+1, not s: the descending arrows ((r,s);(r+1,s+1)) force
        # consecutive v-values down this diagonal and the top row must
        # exhaust v_1..v_{n+1}
        if r > s >= i + 1:
            return v[s + 1]
        raise AssertionError("uncovered entry (%d,%d)" % (r, s))

    T = tableau(n, [[ent(r, s) for s in range(1, r + 1)] for r in range(1, n + 2)])
    rels = set()
    for r in range(1, n + 1):
        for s in range(1, r):
            rels.add(((r + 1, s), (r, s)))
            rels.add(((r, s), (r + 1, s + 1)))
    rels.add(((2, 1), (1, 1)))
    for r in range(i + 1, n + 1):
        rels.add(((r + 1, r + 1), (r, r)))
    for r in range(2, i + 1):
        rels.add(((r, r), (r + 1, r + 1)))
    C = RelationSet(n, frozenset(rels))
    return _validated(T, C)


# ---------------------------------------------------------------------------
# JSON


def tableau_to_json(T):
    return {"n": T.n, "rows": [[format_rational(e) for e in row] for row in T.rows]}


def tableau_from_json(obj):
    obj = json_object(obj, "tableau")
    rows = json_list(obj.get("rows"), "tableau rows")
    return tableau(
        json_int(obj.get("n"), "tableau n"),
        [[parse_rational(e) for e in json_list(row, "tableau row")] for row in rows],
    )


def shift_to_json(z):
    return [list(row) for row in z]


def shift_from_json(obj):
    return tuple(
        tuple(json_int(x, "shift entry") for x in json_list(row, "shift row"))
        for row in json_list(obj, "shift")
    )
