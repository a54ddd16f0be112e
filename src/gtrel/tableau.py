"""Gelfand-Tsetlin tableaux, integer shift vectors, basis membership and
the explicit seed-tableau constructors.

A tableau of height n+1 stores rows of lengths 1..n+1; shift vectors are
integer arrays over rows 1..n (the top row is pinned).  Weights are
H-eigenvalue coordinate tuples of length n.
"""

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product
from math import inf, lcm

from . import classify
from .core import Record, format_rational, json_int, json_list, json_object, parse_rational
from .errors import (
    NotARealization,
    NotCaseA,
    NotCaseB,
    PreconditionViolated,
    RankMismatch,
    SeedViolatesRelations,
)
from .relations import (
    RelationSet,
    _bound,
    _layout,
    is_admissible,
    is_noncritical_for,
    reduce_relations,
    satisfied_relations,
)


class Tableau(Record):
    _fields = ("n", "rows")

    def __init__(self, n, rows):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        if len(rows) != n + 1:
            raise ValueError("expected %d rows" % (n + 1))
        for k, row in enumerate(rows, start=1):
            if len(row) != k:
                raise ValueError("row %d must have %d entries" % (k, k))

    def entry(self, k, i):
        return self.rows[k - 1][i - 1]

    @cached_property
    def weight(self):
        """H-eigenvalue coordinates of this tableau, computed once from
        `scaled_weight`."""
        d, nums = self.scaled_weight
        return tuple(Fraction(x, d) for x in nums)

    @cached_property
    def scaled_weight(self):
        """(d, nums): the weight's coordinates times `scaled`'s denominator
        d as ints, weight_k = nums[k] / d, computed once: the Cartan matrix
        on the integer row sums of `scaled`, less d."""
        d, rows = self.scaled
        sums = [sum(row) for row in rows]
        return d, tuple(x - d for x in row_sums_weight_delta(sums[:-1], sums[-1]))

    @cached_property
    def scaled(self):
        """(d, rows): the least common denominator d of the entries, and
        each entry times d as an int, computed once; the one integer view
        of the entries.  Entries a/d and b/d differ by an integer iff d
        divides a - b, by (a - b) // d, and are equal iff a == b."""
        d = lcm(*(x.denominator for row in self.rows for x in row))
        return d, tuple(
            tuple(x.numerator * (d // x.denominator) for x in row) for row in self.rows
        )

    @cached_property
    def satisfied(self):
        """The maximal relation set this tableau satisfies, computed once."""
        return satisfied_relations(self)

    @cached_property
    def maximal_set(self):
        """The reduced maximal relation set of this seed, computed once."""
        return reduce_relations(self.satisfied)


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


def apply_shift(T, z):
    """Entrywise sum on rows 1..n; the top row is unchanged."""
    if len(z) != T.n:
        raise ValueError("shift must cover rows 1..%d" % T.n)
    _check_shape(T.n, z)
    rows = [
        tuple(e + d for e, d in zip(row, zrow)) for row, zrow in zip(T.rows, z)
    ] + [T.rows[T.n]]
    return Tableau(T.n, tuple(rows))


def apply_rational_shift(T, k, i, x):
    """Add the scalar x to the single entry (k, i) of rows 1..n+1."""
    if not 1 <= i <= k <= T.n + 1:
        raise ValueError("entry (%d,%d) out of range for n=%d" % (k, i, T.n))
    rows = [list(row) for row in T.rows]
    rows[k - 1][i - 1] += Fraction(x)
    return Tableau(T.n, tuple(map(tuple, rows)))


def weight_of(T):
    """H-eigenvalue coordinates of T (`Tableau.weight`)."""
    return T.weight


def row_sums_weight_delta(sums, top=0):
    """The Cartan matrix applied to the row sums s_1..s_n, with s_0 = 0 and
    s_{n+1} = top: the weight change of every shift whose rows 1..n sum to
    `sums` (its top row is pinned, so top = 0)."""
    padded = (0, *sums, top)
    return [
        2 * s - below - above
        for below, s, above in zip(padded, padded[1:], padded[2:])
    ]


class BasisChecker:
    """The basis B_C(seed) as a system of difference constraints.

    Each relation reduces to a triple (u, v, t), read z_u - z_v >= t with a
    fixed integer t, where z of a top-row position is 0.  Nodes 0..size-1
    are the positions of rows 1..n in flat order (row by row, left to
    right, as `relations._layout` numbers them); node `size` stands for
    the whole top row.  Each triple is an arc u -> v of weight t, so C's
    best bound on z_u - z_v is the longest path from u to v: `cuts`, the
    one bound table kept, and `implies` read it off one search from u.
    """

    def __init__(self, C, seed):
        if seed.n != C.n:
            raise RankMismatch("seed has rank %d, relation set %d" % (seed.n, C.n))
        if C.n < 1:
            raise ValueError("rank must be >= 1, got %d" % C.n)
        self.seed = seed
        self.n = C.n
        self.size = self.n * (self.n + 1) // 2
        self._index = _layout(self.n).index
        # building each triple decides whether the seed satisfies its arrow
        self.constraints = [self._triple(rel) for rel in C.sorted()]

    def _triple(self, rel):
        """(u, v, t) of rel, with t from `relations._bound` on the seed;
        raises SeedViolatesRelations unless the seed satisfies rel."""
        t = _bound(self.seed.scaled, *rel)
        if t is None or t > 0:
            raise SeedViolatesRelations("seed does not satisfy the relation set")
        a, b = self._index[rel[0]], self._index[rel[1]]
        return min(a, self.size), min(b, self.size), t

    def check(self, z):
        x = [*chain.from_iterable(z), 0]
        for u, v, t in self.constraints:
            if x[u] - x[v] < t:
                return False
        return True

    @cached_property
    def _arcs(self):
        """Per node u, (v, t) for each triple (u, v, t): the arcs the
        searches follow, built once."""
        arcs = [[] for _ in range(self.size + 1)]
        for u, v, t in self.constraints:
            arcs[u].append((v, t))
        return arcs

    def _longest(self, u):
        """{v: the greatest t with z_u - z_v >= t on the whole basis}, for
        each v that C bounds against u: longest paths from u, by a
        label-correcting queue that re-queues a node whenever its bound
        grows.  Every t is <= 0 (the seed satisfies C), so no cycle is
        positive, the search ends and a top-row self-arc never fires."""
        arcs, best = self._arcs, {u: 0}
        queue, queued = deque([u]), {u}
        while queue:
            a = queue.popleft()
            queued.discard(a)
            base = best[a]
            for b, t in arcs[a]:
                x = base + t
                if x > best.get(b, -inf):
                    best[b] = x
                    if b not in queued:
                        queued.add(b)
                        queue.append(b)
        return best

    @cached_property
    def cuts(self):
        """Per row k+1, per position p of it, from one search per node:
        (lo, hi), p's exact range over the basis (-inf / inf where C leaves
        it unbounded), then (j, t) with z_p >= z_{row k, j} + t, and (j, t)
        with z_p <= z_{row k, j} - t, for each bound C implies."""
        top = self.size
        below_top = self._longest(top)
        out, above = [], []
        for k in range(self.n):
            start = k * (k + 1) // 2
            prev = range(start - k, start)
            row = [self._longest(p) for p in range(start, start + k + 1)]
            out.append(
                [
                    (
                        d.get(top, -inf),
                        -below_top.get(p, -inf),
                        [(j, d[q]) for j, q in enumerate(prev) if q in d],
                        [(j, a[p]) for j, a in enumerate(above) if p in a],
                    )
                    for p, d in enumerate(row, start)
                ]
            )
            above = row
        return out

    def implies(self, rel):
        """Whether C already forces the constraint of rel, a relation the
        seed satisfies."""
        u, v, t = self._triple(rel)
        return self._longest(u).get(v, -inf) >= t

    def in_box(self, box):
        """Whether every basis shift has |z_{ki}| <= box, so that the box
        holds the whole basis."""
        return all(
            -box <= lo and hi <= box for row in self.cuts for lo, hi, _, _ in row
        )


class BasisBox:
    """The basis shifts of a `BasisChecker` with |z_{ki}| <= box, ascending
    in flat order, as a sequence: `len` counts them and indexing unranks
    one, neither by listing them.

    Every relation of C joins row k with row k+-1, joins row n with the
    pinned top row, or lies in the top row.  So once row k is fixed, each
    entry of row k+1 ranges over one integer interval, cut by the box and
    by the checker's `cuts` (the bounds C implies against the top row and
    against row k), and the candidates for row k+1 are the product of
    those intervals; the ways to complete rows k+1..n depend on rows 1..k
    only through row k.  These cuts enforce every relation of C on a whole
    shift, so a bound C implies between two entries of one row
    needs no cut of its own: a row that breaks one has no completion,
    counts 0 and adds nothing to a sweep.  On the last row such a bound
    always holds, so the last row's candidates under row n-1 are counted
    as the product of the interval lengths and unranked by mixed radix,
    never listed.

    Counting memoizes per row k (a tuple of length k; the empty tuple
    stands for row 0) its candidates and their completion counts, or for
    row n-1 the last row's mixed radix, which turns enumeration into a
    transfer-matrix count; listing and sweeping keep no candidates.  These
    memos live as long as this object, so build one per call; unranking
    keeps nothing of its own.
    """

    def __init__(self, checker, box):
        if box < 0:
            raise ValueError("box must be >= 0, got %d" % box)
        self.n = checker.n
        # the checker's cuts, each range clamped to the box
        self._cuts = [
            [(max(-box, lo), min(box, hi), lows, highs) for lo, hi, lows, highs in row]
            for row in checker.cuts
        ]
        self._blocks = {}
        self._leaves = {}

    def _ranges(self, row):
        """The range of each entry of row k+1 under row k = `row`: its
        range in the box, cut against row k."""
        out = []
        for lo, hi, lows, highs in self._cuts[len(row)]:
            for j, t in lows:
                x = row[j] + t
                if x > lo:
                    lo = x
            for j, t in highs:
                x = row[j] - t
                if x < hi:
                    hi = x
            out.append(range(lo, hi + 1))
        return out

    def _leaf(self, row):
        """(the number of candidates for the last row under row n-1 =
        `row`, and per entry (lowest value, stride, length)): the product
        of the entries' ranges read as a mixed radix number, the last entry
        the fastest."""
        leaf = self._leaves.get(row)
        if leaf is None:
            count, digits = 1, []
            for r in reversed(self._ranges(row)):
                digits.append((r.start, count, len(r)))
                count *= len(r)
            leaf = self._leaves[row] = (count, digits[::-1])
        return leaf

    def _block(self, row):
        """(the candidates for row k+1 under row k = `row`, in lex order,
        and their cumulative numbers of completions of rows k+1..n), for
        k < n-1."""
        block = self._blocks.get(row)
        if block is None:
            kids = list(product(*self._ranges(row)))
            sizes = list(accumulate(map(self._count, kids)))
            block = self._blocks[row] = (kids, sizes)
        return block

    def _count(self, row):
        """The number of completions of rows k+1..n under row k = `row`."""
        if len(row) == self.n - 1:
            return self._leaf(row)[0]
        sizes = self._block(row)[1]
        return sizes[-1] if sizes else 0

    @cached_property
    def _size(self):
        return self._count(())

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        """Unrank i: at each row above the last, the child whose block of
        completions holds i, found by bisecting the cumulative child
        counts; then the last row by mixed radix over its ranges."""
        size = self._size
        if not 0 <= i < size:
            raise IndexError("shift index %d out of range [0, %d)" % (i, size))
        # counting filled the memos for every row on the way down
        blocks, rows, row, rest = self._blocks, [], (), i
        for _ in range(self.n - 1):
            kids, sizes = blocks[row]
            j = bisect_right(sizes, rest)
            if j:
                rest -= sizes[j - 1]
            row = kids[j]
            rows.append(row)
        digits = self._leaves[row][1]
        rows.append(tuple([lo + rest // step % size for lo, step, size in digits]))
        return tuple(rows)

    def sweep(self):
        """Row-sum tuple -> number of shifts; merged row by row, so each
        row k's table of completion row sums is built once."""
        return self._sweep((), {})

    # the walks recurse through methods: a closure calling itself would
    # leave itself and the whole memo in a cycle for the cyclic collector
    def _sweep(self, row, memo):
        hit = memo.get(row)
        if hit is None:
            hit = memo[row] = {}
            # each row is visited once here, so its candidates are not kept
            kids = product(*self._ranges(row))
            if len(row) == self.n - 1:
                # the last row has no completion: count its sums
                for r in kids:
                    key = (sum(r),)
                    hit[key] = hit.get(key, 0) + 1
                return hit
            for r in kids:
                s = sum(r)
                for key, c in self._sweep(r, memo).items():
                    key = (s,) + key
                    hit[key] = hit.get(key, 0) + c
        return hit

    def shifts(self, sums=None):
        """Every shift, in order; with `sums`, a tuple of row sums, only the
        shifts whose row k sums to sums[k-1], skipping every candidate row
        with another sum."""
        out = []
        self._list((), (), out, sums)
        return out

    def _list(self, prefix, row, out, sums):
        """Append to `out` the completions of `prefix`, whose last row is
        `row`, that `sums` admits; listing costs its output anyway, so
        the candidates are not kept."""
        kids = product(*self._ranges(row))
        if sums is not None:
            want = sums[len(row)]
            kids = [r for r in kids if sum(r) == want]
        if len(row) == self.n - 1:
            out.extend(prefix + (r,) for r in kids)
            return
        for r in kids:
            self._list(prefix + (r,), r, out, sums)


def _check_shape(n, z):
    if [len(row) for row in z] != list(range(1, n + 1)):
        raise ValueError("shift must have rows of lengths 1..%d" % n)


def enumerate_basis_box(C, seed, box):
    """All shifts z with |z_{ki}| <= box whose tableau satisfies C."""
    return BasisBox(BasisChecker(C, seed), box).shifts()


def enumerate_weight_space(C, seed, w, box):
    """Shifts in the box realizing weight w, plus a flag that is true only
    when the box holds the whole basis, so the list is the weight space.

    A shift's weight is the seed's plus the Cartan matrix on its row sums,
    so w picks at most one row-sum tuple of the box's sweep, and only the
    shifts with that tuple are listed; a weight off the root lattice or
    outside the box picks none and lists nothing."""
    if len(w) != C.n:
        raise RankMismatch("weight has %d coordinates, rank is %d" % (len(w), C.n))
    checker = BasisChecker(C, seed)
    walks = BasisBox(checker, box)
    delta = [Fraction(x) - b for x, b in zip(w, weight_of(seed))]
    sums = next((s for s in walks.sweep() if row_sums_weight_delta(s) == delta), None)
    if sums is None:
        return [], checker.in_box(box)
    return walks.shifts(sums), checker.in_box(box)


# ---------------------------------------------------------------------------
# seed constructors


def _top_total(n, normalization):
    """The top-row sum of a seed of rank n under the given normalization."""
    if normalization == "hw":
        return -n * (n + 1) // 2
    if normalization == "sl2":
        return -(n + 1)
    raise ValueError('normalization must be "hw" or "sl2", got %r' % (normalization,))


def _hw_top_values(lam, normalization):
    """Column values v_1..v_{n+1} with v_s - v_{s+1} = <lam+rho, alpha_s>
    and the chosen top-row sum normalization.

    On `classify._scaled_prefix` (d, prefix), d * (v_s - v_{n+1}) is the
    integer suffix sum prefix[n] - prefix[s-1]; the sum condition fixes
    v_{n+1}, so each v_s is one Fraction over (n + 1) d."""
    d, prefix = classify._scaled_prefix(lam)
    n = len(prefix) - 1
    tails = [prefix[n] - p for p in prefix]
    base = _top_total(n, normalization) * d - sum(tails)
    return [Fraction(base + (n + 1) * t, (n + 1) * d) for t in tails]


def _hw_seed(lam, case, normalization):
    """The highest weight seed of lam in its case of
    `classify.hw_relation_case`, a or b, not validated: constant columns in
    case a, columns shuffled by (i, j) in case b."""
    n = len(lam)
    v = _hw_top_values(lam, normalization)
    i, j = case.i, case.j

    def ent(r, s):
        if case.tag == "CaseA" or s < i or (i <= r <= j):
            return v[s - 1]
        if i <= s < r + i - j:
            return v[s + j - i]
        if s >= r + i - j:
            return v[s - r + j - 1]
        raise AssertionError("uncovered entry (%d,%d)" % (r, s))

    return Tableau(
        n, tuple(tuple(ent(r, s) for s in range(1, r + 1)) for r in range(1, n + 2))
    )


def hw_tableau_case_a(lam, normalization="hw"):
    """Constant-column highest weight seed plus its maximal relation set."""
    case = classify.hw_relation_case(lam)
    if case.tag != "CaseA":
        raise NotCaseA("weight is not in case a: %r" % (case,))
    T = _hw_seed(lam, case, normalization)
    return T, T.maximal_set


def hw_tableau_case_b(lam, i, j, normalization="hw"):
    """Case-b highest weight seed (shuffled columns) and its maximal set."""
    case = classify.hw_relation_case(lam)
    if case.tag != "CaseB" or (case.i, case.j) != (i, j):
        raise NotCaseB("weight is not in case b with (i,j)=(%d,%d): %r" % (i, j, case))
    T = _hw_seed(lam, case, normalization)
    return T, T.maximal_set


def family_tableau(u, v, m=None):
    """Dense-family seed: first column u_i, interior columns v_{j-1}.

    Returns (T, Q) without m, (T^m, C^m) with it, for `module` to
    validate: parameters that pass these checks always make a module.
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
    return T, RelationSet(n, frozenset(rels))


def _validated(T, C):
    """lem_key_tableau's check of its pair: weights that pass its own
    checks can still build no realization."""
    try:
        noncritical = is_noncritical_for(C, T)
    except NotARealization:
        raise PreconditionViolated("constructed tableau is not a C-realization") from None
    if not noncritical:
        raise PreconditionViolated("constructed tableau is critical")
    if not is_admissible(C):
        raise PreconditionViolated("constructed relation set is not admissible")
    return T, C


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
    v1 = (_top_total(n, normalization) - sum(off[1 : n + 2], Fraction(0))) / (n + 1)
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
    # parse_rational returns a Fraction: each entry is built once
    return Tableau(
        json_int(obj.get("n"), "tableau n"),
        tuple(tuple(map(parse_rational, json_list(row, "tableau row"))) for row in rows),
    )


def shift_to_json(z):
    return [list(row) for row in z]


def shift_from_json(obj):
    return tuple(
        tuple(json_int(x, "shift entry") for x in json_list(row, "shift row"))
        for row in json_list(obj, "shift")
    )
