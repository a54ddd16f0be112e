"""Reference implementations that the library's fast paths are checked
against: a brute-force basis scan, a coordinate-by-coordinate
backtracking enumeration, a weight sweep over the enumerated basis, the
checker's bounds by Floyd-Warshall over the dense all-pairs matrix, the
generator action chained through GTVector arithmetic, the
nested-commutator ladder for E(m,1), the word evaluator summing every
letter's full layer of terms, the twisted action written out entry by
entry, the closed-form count of minimal-orbit representatives,
empirical
kernel / image scans for the localization predicates, reachability in
G(C) by a depth-first search over sets of positions, relation-set
reduction with one rebuild per candidate arrow, the relation tests
against a tableau written with Fraction differences, simplicity by
comparing two Floyd-Warshall closures, the axiom suite as closures
over GTVector arithmetic, the Gelfand-Tsetlin coefficient formula in
Fraction arithmetic on the entries of T(seed+z), the highest-weight
classifier, the bounded criterion, Verma simplicity and the highest
weight seed's column values with every pairing summed afresh in
Fractions, highest-weight detection on
GTVector arithmetic, rational parsing by Fraction's own parser, relation
sets read from JSON one checked entry at a time, rationals formatted
through Fraction, the maximal satisfied set by one test per arrow of the
universe R, every position's reach by its own search, and its strict
reach built on those searches instead of a reach table.  Two helpers
of the relation tests live here too: the universe R as a list, built
here, and the kernel's adjoining pairs as positions."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, inf

from gtrel.action import (
    ELower,
    ERaise,
    GTVector,
    _basis_id,
    _basis_terms,
    _cartan,
    _generators,
    _moved,
    _resolve_sigma,
    basis_vector,
    gen_E,
    gen_H,
    vector_to_json,
)
from gtrel.classify import HWCase
from gtrel.core import ZGEQ0, ZGT0, Z, diff_in, json_int, json_list, json_object
from gtrel.errors import CriticalDenominator, NotARealization
from gtrel.localization import twist_e21
from gtrel.relations import (
    RMINUS,
    RelationSet,
    _adjoining,
    _bound,
    _closure,
    _layout,
    _masks,
    all_positions,
    reduce_relations,
    relation_kind,
    satisfied_relations,
)
from gtrel.tableau import (
    BasisBox,
    BasisChecker,
    enumerate_basis_box,
    shift_to_json,
    unit_shift,
    weight_of,
)


def brute_force_basis_box(C, seed, box):
    """Every z in the box [-box, box]^N, in itertools.product order, whose
    tableau T(seed+z) satisfies C."""
    checker = BasisChecker(C, seed)
    n = C.n
    out = []
    for flat in product(range(-box, box + 1), repeat=n * (n + 1) // 2):
        z = []
        idx = 0
        for k in range(1, n + 1):
            z.append(tuple(flat[idx : idx + k]))
            idx += k
        z = tuple(z)
        if checker.check(z):
            out.append(z)
    return out


def closure_by_floyd_warshall(checker):
    """d[u][v]: the greatest t with z_u - z_v >= t on the whole basis of
    the checker, -inf when its constraints imply no bound, over the dense
    (size+1)^2 matrix by Floyd-Warshall on longest paths (the seed
    satisfies the constraints, so no cycle is positive)."""
    size = checker.size + 1
    d = [[-inf] * size for _ in range(size)]
    for u in range(size):
        d[u][u] = 0
    for u, v, t in checker.constraints:
        if u != v:
            d[u][v] = max(d[u][v], t)
    for m in range(size):
        dm = d[m]
        for row in d:
            rm = row[m]
            if rm != -inf:
                row[:] = [max(x, rm + y) for x, y in zip(row, dm)]
    return d


def backtrack_basis_box(checker, box):
    """All basis shifts with |z_{ki}| <= box, ascending in flat order.

    Backtracks one coordinate at a time; each range is cut by the
    closure against the coordinates already fixed and the top row.
    """
    if box < 0:
        raise ValueError("box must be >= 0, got %d" % box)
    d, size = closure_by_floyd_warshall(checker), checker.size
    flat = [0] * size
    out = []

    def place(p):
        if p == size:
            rows, idx = [], 0
            for k in range(1, checker.n + 1):
                rows.append(tuple(flat[idx : idx + k]))
                idx += k
            out.append(tuple(rows))
            return
        lo, hi = max(-box, d[p][size]), min(box, -d[size][p])
        for q in range(p):
            lo = max(lo, flat[q] + d[p][q])
            hi = min(hi, flat[q] - d[q][p])
        for x in range(lo, hi + 1):
            flat[p] = x
            place(p + 1)

    place(0)
    return out


def flag_weight(M, z):
    """The weight of the basis shift z in the coordinates of M's flag: each
    H_k resolved through sigma, summed on the unpermuted Fraction
    coordinates of T(seed+z)."""
    w = weight_of(M.entries(z))
    return tuple(
        sum(sign * w[h[1] - 1] for sign, h in _resolve_sigma(M.sigma, gen_H(k)))
        for k in range(1, M.n + 1)
    )


def sweep_by_enumeration(M, box):
    """Counts of basis shifts per realized weight within the box, in the
    coordinates of the flag."""
    counts = {}
    for z in enumerate_basis_box(M.C, M.seed, box):
        w = flag_weight(M, z)
        counts[w] = counts.get(w, 0) + 1
    return counts


def _ratio_by_fractions(T, k, i, k2, skip=None):
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


def _em1_tuples(m):
    """All (i_1..i_{m-1}) with 1 <= i_s <= s, listed in lex order."""
    tuples = [()]
    for s in range(1, m):
        tuples = [t + (i,) for t in tuples for i in range(1, s + 1)]
    return tuples


def terms_by_fractions(M, g, z):
    """(target, coefficient) pairs, zero coefficients kept, of a raise
    E(k,k+1), a lower E(k+1,k) or an E(m,1), m >= 3, on the basis vector
    of z, in Fraction arithmetic on T = M.entries(z).  A raise moves one box
    of row k up, with coefficient -ratio(k, i, k+1); a lower or E(m,1)
    moves one box (s, i_s) down in each row s of a path, with coefficient
    prod_s ratio(s, i_s, s-1, skip=i_{s-1})."""
    _, i, j = g
    if j == i + 1:
        paths, sign = [((i, a),) for a in range(1, i + 1)], 1
    elif i == j + 1:
        paths, sign = [((j, a),) for a in range(1, j + 1)], -1
    else:
        paths, sign = [tuple(enumerate(t, start=1)) for t in _em1_tuples(i)], -1
    T = M.entries(z)
    out = []
    for boxes in paths:
        target = _moved(z, boxes, sign)
        if not M.in_basis(target):
            continue
        if sign > 0:
            ((k, a),) = boxes
            out.append((target, -_ratio_by_fractions(T, k, a, k + 1)))
            continue
        coeff, prev = Fraction(1), None
        for k, a in boxes:
            coeff *= _ratio_by_fractions(T, k, a, k - 1, prev)
            prev = a
        out.append((target, coeff))
    return out


def _memo_terms(M, g, z):
    """The library's memoized terms of g on z as (target, Fraction), each
    id translated back to its shift through `M.shifts`."""
    gi = _generators(M.n)[1][g]
    return [
        (M.shifts[t], Fraction(num, den))
        for t, num, den in _basis_terms(M, gi, _basis_id(M, z))
    ]


def memo_entries(M):
    """(generator, shift, terms) of each entry of M's memo, its terms as
    (target, num, den): the key split into shift id and generator index,
    and every id translated back through `M.shifts`."""
    gens = _generators(M.n)[0]
    for key, terms in M.memo.items():
        gi = key % len(gens)
        targets = [(M.shifts[t], num, den) for t, num, den in terms]
        yield gens[gi], M.shifts[key - gi], targets


def _primitive_by_vectors(M, g, v, terms=_memo_terms):
    """Action of an unpermuted, in-range generator on a vector, chained
    through GTVector: H from the weight of each tableau, a long-root E(i,j)
    that is not an E(m,1) as the vector bracket of two generators one step
    nearer the diagonal, every other E from `terms` (by default the
    library's memoized terms)."""
    if g[0] == "E" and abs(g[1] - g[2]) > 1 and not (g[2] == 1 and g[1] >= 3):
        _, i, j = g
        if j > i + 1:
            a, b = ("E", i, i + 1), ("E", i + 1, j)
        else:
            a, b = ("E", i, i - 1), ("E", i - 1, j)
        return _primitive_by_vectors(
            M, a, _primitive_by_vectors(M, b, v, terms), terms
        ) - _primitive_by_vectors(M, b, _primitive_by_vectors(M, a, v, terms), terms)
    out = GTVector()
    for z, c in v.items():
        if g[0] == "H":
            out.iadd(z, c * weight_of(M.entries(z))[g[1] - 1])
            continue
        for target, a in terms(M, g, z):
            out.iadd(target, c * a)
    return out


def primitive_by_fractions(M, g, z):
    """An unpermuted, in-range generator on the basis vector of z with no
    memo read: `terms_by_fractions` for every E that is not long-root."""
    return _primitive_by_vectors(M, g, basis_vector(z), terms_by_fractions)


def act_by_vectors(M, g, v):
    """The generator action resolved through the flag twist, one signed
    primitive action per resolved generator, summed as GTVectors."""
    out = GTVector()
    for sign, g2 in _resolve_sigma(M.sigma, g):
        part = _primitive_by_vectors(M, g2, v)
        for z, c in part.items():
            out.iadd(z, sign * c)
    return out


def combination_sums_by_layers(M, combination, y):
    """`_combination_sums` as first written: every word builds the full
    layer of terms of each of its letters, the last included, and the last
    layer is then summed into the result in the same (num, den)
    arithmetic."""
    lookup = M.memo.get
    acc = {}
    get = acc.get
    for coef, letters in combination:
        layer = [(y, coef, 1)]
        for letter in letters:
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
        for t, p, q in layer:
            old = get(t)
            if old is None:
                acc[t] = (p, q)
            elif old[1] == q:
                acc[t] = (old[0] + p, q)
            else:
                acc[t] = (old[0] * q + p * old[1], old[1] * q)
    return acc


def highest_weight_by_vectors(M, v):
    """`is_highest_weight_vector` with every action summed as GTVectors by
    `act_by_vectors` and the H eigenvalue tested on the whole vector."""
    if v.is_zero():
        return None
    for k in range(1, M.n + 1):
        if not act_by_vectors(M, ERaise(k), v).is_zero():
            return None
    coords = []
    ref_z, ref_c = next(iter(v.items()))
    for k in range(1, M.n + 1):
        hv = act_by_vectors(M, gen_H(k), v)
        lam = hv.get(ref_z, Fraction(0)) / ref_c
        if hv - v.scale(lam):
            return None
        coords.append(lam)
    return tuple(coords)


def commutator_by_vectors(M, g1, g2, v):
    return act_by_vectors(M, g1, act_by_vectors(M, g2, v)) - act_by_vectors(
        M, g2, act_by_vectors(M, g1, v)
    )


def em1_bracket(M, m, v):
    """E_{m,1} via the nested-commutator ladder."""
    if m == 2:
        return act_by_vectors(M, ("E", 2, 1), v)
    low = ("E", m, m - 1)
    return act_by_vectors(M, low, em1_bracket(M, m - 1, v)) - em1_bracket(
        M, m - 1, act_by_vectors(M, low, v)
    )


def count_minimal_orbit_reps(lvl):
    """The number of minimal-orbit representatives at a level, in closed
    form: (q - 1) a-values times the C(p - 1, n) bars of sum <= p - n - 1."""
    return (lvl.q - 1) * comb(lvl.p - 1, lvl.n)


def twisted_action_direct(M, x, g, v):
    """Generator action on twisted vectors T(w)^x, written out directly.

    M is the untwisted localized module; v lives over its shift basis.
    The entry w11 is everywhere replaced by w11 + x, and a term is kept
    only when its shift stays in the basis of the twisted module.
    """
    x = Fraction(x)
    tw = _twisted(M, x)
    n = M.n

    def w(T, k, i):
        e = T.rows[k - 1][i - 1]
        return e + x if (k, i) == (1, 1) else e

    out = GTVector()
    for z, c in v.items():
        T = M.entries(z)
        if g[0] == "H":
            k = g[1]
            if k == 1:
                val = 2 * w(T, 1, 1) - w(T, 2, 1) - w(T, 2, 2) - 1
            else:
                val = (
                    2 * sum(w(T, k, i) for i in range(1, k + 1))
                    - sum(w(T, k - 1, i) for i in range(1, k))
                    - sum(w(T, k + 1, i) for i in range(1, k + 2))
                    - 1
                )
            out.iadd(z, c * val)
            continue
        _, a, b = g
        if (a, b) == (1, 2):
            coeff = -(w(T, 1, 1) - w(T, 2, 1)) * (w(T, 1, 1) - w(T, 2, 2))
            tgt = _shifted(n, z, 1, 1, +1)
            if tw.in_basis(tgt):
                out.iadd(tgt, c * coeff)
        elif (a, b) == (2, 1):
            tgt = _shifted(n, z, 1, 1, -1)
            if tw.in_basis(tgt):
                out.iadd(tgt, c)
        elif b == a + 1:
            k = a
            for i in range(1, k + 1):
                num = Fraction(1)
                for j in range(1, k + 2):
                    num *= w(T, k, i) - w(T, k + 1, j)
                den = Fraction(1)
                for j in range(1, k + 1):
                    if j != i:
                        den *= w(T, k, i) - w(T, k, j)
                tgt = _shifted(n, z, k, i, +1)
                if tw.in_basis(tgt):
                    out.iadd(tgt, -c * num / den)
        elif a == b + 1:
            k = b
            for i in range(1, k + 1):
                num = Fraction(1)
                for j in range(1, k):
                    num *= w(T, k, i) - w(T, k - 1, j)
                den = Fraction(1)
                for j in range(1, k + 1):
                    if j != i:
                        den *= w(T, k, i) - w(T, k, j)
                tgt = _shifted(n, z, k, i, -1)
                if tw.in_basis(tgt):
                    out.iadd(tgt, c * num / den)
        else:
            raise ValueError("only Chevalley-adjacent generators: %r" % (g,))
    return out


@lru_cache(maxsize=None)
def _twisted(M, x):
    """The twisted module whose basis twisted_action_direct filters by,
    built once per (M, x) instead of once per call."""
    return twist_e21(M, x) if x != 0 else M


def _shifted(n, z, k, i, sign):
    delta = unit_shift(n, k, i)
    return tuple(
        tuple(a + sign * d for a, d in zip(row, drow)) for row, drow in zip(z, delta)
    )


def _em1_offsets(n, m):
    """All candidate shift differences of an E(m,1) application."""
    out = []
    for idx in _em1_tuples(m):
        z = [[0] * k for k in range(1, n + 1)]
        for s, i_s in enumerate(idx, start=1):
            z[s - 1][i_s - 1] -= 1
        out.append(tuple(tuple(r) for r in z))
    return out


def empirical_kernel_witness(M, m, box):
    """A basis shift killed by E(m,1) inside the box, or None."""
    for z in enumerate_basis_box(M.C, M.seed, box):
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        v = GTVector(((z, Fraction(1)),))
        if act_by_vectors(M, gen_E(m, 1), v).is_zero():
            return z
    return None


def empirical_surjective(M, m, box):
    """Every interior basis shift appears in some E(m,1) image."""
    pool = enumerate_basis_box(M.C, M.seed, box)
    inside = set(pool)
    offsets = _em1_offsets(M.n, m)
    for z in pool:
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        hit = False
        for off in offsets:
            src = tuple(
                tuple(a - d for a, d in zip(row, drow)) for row, drow in zip(z, off)
            )
            if src not in inside or not M.in_basis(src):
                continue
            v = GTVector(((src, Fraction(1)),))
            if act_by_vectors(M, gen_E(m, 1), v).get(z, 0) != 0:
                hit = True
                break
        if not hit:
            return False
    return True


def empirical_images_distinct(M, m, box):
    """E(m,1) images of distinct interior basis vectors are distinct and
    nonzero."""
    seen = {}
    for z in enumerate_basis_box(M.C, M.seed, box):
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        v = GTVector(((z, Fraction(1)),))
        img = act_by_vectors(M, gen_E(m, 1), v)
        if img.is_zero():
            return False
        key = tuple(sorted(img.items()))
        if key in seen:
            return False
        seen[key] = z
    return True


# ---------------------------------------------------------------------------
# the relation kernel's answers as lists of relations and positions


def full_relation_universe(n):
    """All of R = R+ u R- u R0 for the given n, R+ then R- then R0."""
    out = []
    for i in range(2, n + 2):
        for j in range(1, i + 1):
            out += [((i, j), (i - 1, t)) for t in range(1, i)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            out += [((i, j), (i + 1, s)) for s in range(1, i + 2)]
    for i in range(1, n + 2):
        out += [((n + 1, i), (n + 1, j)) for j in range(1, n + 2) if j != i]
    return out


def satisfied_relations_by_universe(T):
    """The maximal set of relations T satisfies: every arrow of R that
    `_bound` passes on T's scaled entries."""
    scaled = T.scaled
    return RelationSet(
        T.n,
        frozenset(
            rel
            for rel in full_relation_universe(T.n)
            if (t := _bound(scaled, *rel)) is not None and t <= 0
        ),
    )


def reach_by_closures(adj):
    """Every position's reach in the graph with out-masks adj, one
    `_closure` search per position."""
    return [_closure(adj, 1 << v) for v in range(len(adj))]


def forward_ordered_by_closures(C):
    """No position of G(C) reaches itself or a position of its row left of
    it, one `_closure` search per position."""
    L = _layout(C.n)
    fwd, _ = _masks(L, C.relations)
    return not any(_closure(fwd, 1 << v) & L.upto[v] for v in range(len(fwd)))


def adjoining_pairs(C):
    """The adjoining pairs of the forward-ordered G(C), as the kernel's
    `_adjoining` finds them (see adjoining_pairs_per_pair)."""
    L = _layout(C.n)
    fwd, _ = _masks(L, C.relations)
    at = all_positions(C.n)
    return [(at[a], at[b]) for _, a, b in _adjoining(L, fwd, range(1, C.n + 2))]


# ---------------------------------------------------------------------------
# undirected components of G(C), one search per component


def undirected_components(C):
    """Partition of all positions into undirected components of G(C)."""
    neighbours = {p: set() for p in all_positions(C.n)}
    for frm, to in C.relations:
        neighbours[frm].add(to)
        neighbours[to].add(frm)
    groups, seen = [], set()
    for p in neighbours:
        if p in seen:
            continue
        group, stack = {p}, [p]
        while stack:
            for q in neighbours[stack.pop()] - group:
                group.add(q)
                stack.append(q)
        seen |= group
        groups.append(group)
    return sorted(groups, key=min)


def same_component_map(C):
    comp = {}
    for idx, grp in enumerate(undirected_components(C)):
        for p in grp:
            comp[p] = idx
    return comp


# ---------------------------------------------------------------------------
# relation-set surgery as first written: every candidate arrow gets its own
# RelationSet and adjacency, every trial its full structural check, and
# adjoining pairs one search per pair of a row


def _adjacency(rels):
    adj = {}
    for frm, to in rels:
        adj.setdefault(frm, set()).add(to)
    return adj


def _reachable_from(adj, start, blocked=(), skip_edge=None):
    """All vertices reachable from start by a nonempty path.

    Vertices in `blocked` may not be used as intermediate steps (they may
    still be reached as endpoints).  `skip_edge` removes one arrow.
    """
    blocked = set(blocked)
    seen = set()
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if skip_edge is not None and (v, w) == skip_edge:
                continue
            if w not in seen:
                seen.add(w)
                if w not in blocked:
                    stack.append(w)
    return seen


def _strict_reachable_from(adj, kinds, start, skip_edge=None):
    """Vertices reachable from start via a path containing an R- arrow.

    Returns a dict vertex -> True/False (True when some path to it uses a
    strict arrow).
    """
    # state: (vertex, strict_seen); BFS over the doubled graph
    best = {}
    stack = [(start, False)]
    while stack:
        v, strict = stack.pop()
        for w in adj.get(v, ()):
            edge = (v, w)
            if skip_edge is not None and edge == skip_edge:
                continue
            s2 = strict or kinds[edge] == RMINUS
            if best.get(w) is None or (s2 and not best[w]):
                best[w] = s2
                stack.append((w, s2))
    return best


def adjoining_pairs_per_pair(C):
    """All same-row pairs {(k,i),(k,j)}, i<j, joined by a directed path
    that avoids the intermediate vertices (k,t), i < t < j."""
    adj = _adjacency(C.relations)
    pairs = []
    for k in range(1, C.n + 2):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                blocked = {(k, t) for t in range(i + 1, j)}
                if (k, j) in _reachable_from(adj, (k, i), blocked=blocked):
                    pairs.append(((k, i), (k, j)))
    return pairs


def reduce_relations_per_candidate(C):
    """Remove transitively redundant arrows.

    An arrow may only go if the surviving graph still implies its
    constraint: a strict (R-) arrow needs an alternative path through at
    least one strict arrow, a non-strict arrow needs any alternative path.
    Equal top-row entries can produce two-cycles of R0 arrows; only the
    column-increasing direction is kept.
    """
    rels = set(C.relations)
    # a top-row two-cycle means equal entries: keep the column-increasing
    # direction in the output but let implication paths use both
    # directions.  A set from relation_set or JSON may also hold a
    # two-cycle between adjacent rows, whose arrows demand contradictory
    # differences; it is reduced alike
    eq_extra = {rel for rel in rels if (rel[1], rel[0]) in rels}
    # a column-decreasing top-row arrow breaks the forward order and fixes
    # no shift (both endpoints are pinned), so it is never kept
    for frm, to in sorted(rels):
        if frm[0] == to[0] and frm[1] > to[1]:
            rels.discard((frm, to))

    def order(rel):
        # try to drop skewed arrows first so straight column chains
        # survive and cross-freeness is preserved
        (r1, c1), (r2, c2) = rel
        return (-abs(c1 - c2), rel)

    def implied(rel, base):
        work = (set(base) | eq_extra) - {rel}
        current = RelationSet(C.n, frozenset(work))
        adj = _adjacency(current.relations)
        if relation_kind(C.n, *rel) == RMINUS:
            kinds = {r: relation_kind(C.n, *r) for r in work}
            best = _strict_reachable_from(adj, kinds, rel[0])
            return best.get(rel[1], None) is True
        return rel[1] in _reachable_from(adj, rel[0])

    # phase 1: repair cross-freeness by dropping implied crossing arrows
    while True:
        bad = _crossing_arrows(RelationSet(C.n, frozenset(rels)))
        if not bad:
            break
        for rel in sorted(bad, key=order):
            if implied(rel, rels):
                rels.discard(rel)
                break
        else:
            break

    # phase 2: minimize, but never break the structural conditions or an
    # already-holding diamond condition
    def quality(base):
        current = RelationSet(C.n, frozenset(base))
        structural = forward_ordered(current) and cross_free(current)
        diamond = structural and diamond_ok(current)
        return (structural, diamond)

    baseline = quality(rels)
    changed = True
    while changed:
        changed = False
        for rel in sorted(rels, key=order):
            if not implied(rel, rels):
                continue
            trial = set(rels)
            trial.discard(rel)
            if quality(trial) >= baseline:
                rels = trial
                changed = True
                break
    return RelationSet(C.n, frozenset(rels))


def forward_ordered(C):
    adj = _adjacency(C.relations)
    for p in all_positions(C.n):
        reach = _reachable_from(adj, p)
        if p in reach:
            return False
        for q in reach:
            if q[0] == p[0] and q[1] <= p[1]:
                return False
    return True


def _crossing_arrows(C):
    """The arrows between adjacent rows that cross another such arrow of
    the same connected component."""
    # undirected arrows between adjacent rows k and k+1, keyed by
    # (k, i, t) with i the row-k column and t the row-(k+1) column;
    # crossing matters only inside one connected component, since
    # entries of separate components are never integer-linked and their
    # relative column order carries no constraint
    comp = same_component_map(C)
    links = {}
    for frm, to in C.relations:
        if abs(frm[0] - to[0]) == 1:
            lo, hi = (frm, to) if frm[0] < to[0] else (to, frm)
            links.setdefault((lo[0], lo[1], hi[1]), []).append((frm, to))
    bad = set()
    for (k, i, t) in links:
        for (k2, j, s) in links:
            if k2 == k and i < j and s < t and comp[(k, i)] == comp[(k, j)]:
                bad.update(links[(k, i, t)])
                bad.update(links[(k2, j, s)])
    return bad


def cross_free(C):
    return not _crossing_arrows(C)


def diamond_ok(C):
    rels = C.relations
    for (ki, kj) in adjoining_pairs_per_pair(C):
        k, i = ki
        _, j = kj
        if k > C.n:
            continue
        ok = False
        # C2 pattern: (k,i) -> (k+1,s), (k+1,t) -> (k,j) with s < t
        ups = [s for s in range(1, k + 2) if ((k, i), (k + 1, s)) in rels]
        downs = [t for t in range(1, k + 2) if ((k + 1, t), (k, j)) in rels]
        if any(s < t for s in ups for t in downs):
            ok = True
        # C1 pattern: through (k+1,p) and (k-1,q)
        if not ok and k >= 2:
            through_up = any(
                ((k, i), (k + 1, p)) in rels and ((k + 1, p), (k, j)) in rels
                for p in range(1, k + 2)
            )
            through_down = any(
                ((k, i), (k - 1, q)) in rels and ((k - 1, q), (k, j)) in rels
                for q in range(1, k)
            )
            if through_up and through_down:
                ok = True
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# relation tests against a tableau, one Fraction difference per test


def _entry(T, pos):
    return T.rows[pos[0] - 1][pos[1] - 1]


def _holds_by_diff(T, rel, n):
    cls = ZGT0 if relation_kind(n, *rel) == RMINUS else ZGEQ0
    return diff_in(_entry(T, rel[0]), _entry(T, rel[1]), cls)


def satisfies_by_diff(T, C):
    return all(_holds_by_diff(T, rel, C.n) for rel in C.relations)


def satisfied_relations_by_diff(T):
    return {rel for rel in full_relation_universe(T.n) if _holds_by_diff(T, rel, T.n)}


def is_realization_by_diff(C, T):
    """T satisfies C, and two entries of one row 1..n differ by an integer
    exactly when they lie in one component of G(C)."""
    if not satisfies_by_diff(T, C):
        return False
    comp = same_component_map(C)
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                a, b = (k, i), (k, j)
                if diff_in(_entry(T, a), _entry(T, b), Z) != (comp[a] == comp[b]):
                    return False
    return True


def is_noncritical_by_diff(C, T):
    if not is_realization_by_diff(C, T):
        raise NotARealization("tableau is not a C-realization")
    comp = same_component_map(C)
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                a, b = (k, i), (k, j)
                if comp[a] == comp[b] and _entry(T, a) - _entry(T, b) == 0:
                    return False
    return True


def constraints_by_diff(C, seed):
    """(a, b, t) per relation of C in sorted order, read as
    z_a - z_b >= t; the seed must satisfy C."""
    out = []
    for a, b in C.sorted():
        base = Fraction(_entry(seed, a)) - Fraction(_entry(seed, b))
        assert base.denominator == 1
        need = 1 if relation_kind(C.n, a, b) == RMINUS else 0
        out.append((a, b, need - base.numerator))
    return out


# ---------------------------------------------------------------------------
# simplicity as first written: a second BasisChecker on the seed's maximal
# set, its closure compared with the module's, and both sets reduced


def is_simple_by_closure(M):
    """Whether C constrains the shifts exactly as the maximal relation
    set satisfied by the seed does."""
    sat = satisfied_relations(M.seed)
    closure = closure_by_floyd_warshall
    maximal_eq = closure(M.checker) == closure(BasisChecker(sat, M.seed))
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


# ---------------------------------------------------------------------------
# the axiom suite as first written: one closure per identity, evaluated with
# act_by_vectors, commutator_by_vectors and GTVector arithmetic on Fractions


def axiom_identities_by_vectors(n):
    """(name, word length, callable) triples checking defining relations
    on a single basis vector."""
    ids = []
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            ids.append(
                (
                    "[H%d,H%d]=0" % (k, l),
                    2,
                    lambda M, v, k=k, l=l: commutator_by_vectors(
                        M, gen_H(k), gen_H(l), v
                    ),
                )
            )
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            c = _cartan(k, l)
            ids.append(
                (
                    "[H%d,E%d%d]=%dE" % (k, l, l + 1, c),
                    2,
                    lambda M, v, k=k, l=l, c=c: commutator_by_vectors(
                        M, gen_H(k), ERaise(l), v
                    )
                    - act_by_vectors(M, ERaise(l), v).scale(c),
                )
            )
            ids.append(
                (
                    "[H%d,E%d%d]=%dE" % (k, l + 1, l, -c),
                    2,
                    lambda M, v, k=k, l=l, c=c: commutator_by_vectors(
                        M, gen_H(k), ELower(l), v
                    )
                    + act_by_vectors(M, ELower(l), v).scale(c),
                )
            )
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k == l:
                ids.append(
                    (
                        "[E%d%d,E%d%d]=H%d" % (k, k + 1, k + 1, k, k),
                        2,
                        lambda M, v, k=k: commutator_by_vectors(
                            M, ERaise(k), ELower(k), v
                        )
                        - act_by_vectors(M, gen_H(k), v),
                    )
                )
            else:
                ids.append(
                    (
                        "[E%d%d,E%d%d]=0" % (k, k + 1, l + 1, l),
                        2,
                        lambda M, v, k=k, l=l: commutator_by_vectors(
                            M, ERaise(k), ELower(l), v
                        ),
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
                        lambda M, v, k=k, l=l: commutator_by_vectors(
                            M, ERaise(k), ERaise(l), v
                        ),
                    )
                )
                ids.append(
                    (
                        "[E%d%d,E%d%d]=0" % (k + 1, k, l + 1, l),
                        2,
                        lambda M, v, k=k, l=l: commutator_by_vectors(
                            M, ELower(k), ELower(l), v
                        ),
                    )
                )
    return ids


def _serre(M, a, b, v):
    """ad(a)^2 b applied to v: aab - 2aba + baa."""
    return (
        act_by_vectors(M, a, act_by_vectors(M, a, act_by_vectors(M, b, v)))
        - act_by_vectors(M, a, act_by_vectors(M, b, act_by_vectors(M, a, v))).scale(2)
        + act_by_vectors(M, b, act_by_vectors(M, a, act_by_vectors(M, a, v)))
    )


def verify_axioms_by_vectors(M, box=3, samples=200, seed=7, full=False):
    """verify_axioms on the closures above: the same draws and the same
    report, each failure carrying the closure's nonzero vector as its
    residual."""
    if samples < 0:
        raise ValueError("samples must be >= 0, got %d" % samples)
    rng = random.Random(seed)
    pool = BasisBox(M.checker, box)
    size = len(pool)
    identities = axiom_identities_by_vectors(M.n)
    failures = []
    checked = 0
    while checked < samples:
        z = pool[rng.randrange(size)]
        v = basis_vector(z)
        batch = identities if full else [identities[checked % len(identities)]]
        for name, _, fn in batch:
            out = fn(M, v)
            if not out.is_zero():
                failures.append(
                    {
                        "identity": name,
                        "shift": shift_to_json(z),
                        "residual": vector_to_json(out),
                    }
                )
        checked += len(batch)
    return {
        "failures": failures,
        "samples": checked,
        "seed": seed,
        "identities": len(identities),
        "pool": size,
    }


# ---------------------------------------------------------------------------
# the highest-weight classifier as first written: every pairing summed afresh


def _pairings_by_fractions(lam):
    """{(r, s): <lam + rho, alpha_{r,s}^vee>} over every root, each summed
    afresh in Fractions."""
    lam = [Fraction(x) for x in lam]
    n = len(lam)
    return {
        (r, s): sum((lam[k - 1] + 1 for k in range(r, s + 1)), Fraction(0))
        for r in range(1, n + 1)
        for s in range(r, n + 1)
    }


def hw_relation_case_by_pairings(lam):
    n = len(lam)
    p = _pairings_by_fractions(lam)
    roots = list(p)
    if all(not diff_in(0, p[r, s], ZGEQ0) for r, s in roots if s != n):
        return HWCase("CaseA")
    found = []
    for i in range(1, n):
        for j in range(i, n):
            if not all(diff_in(p[k, k], 0, ZGT0) for k in range(j + 1, n + 1)):
                continue
            if not diff_in(0, p[i, n], ZGEQ0):
                continue
            allowed = {(i, k) for k in range(j, n + 1)}
            if any(
                diff_in(0, p[r, s], ZGEQ0) for r, s in roots if (r, s) not in allowed
            ):
                continue
            found.append((i, j))
    if len(found) == 1:
        return HWCase("CaseB", *found[0])
    return HWCase("NotRelation")


def bounded_case_by_fractions(lam):
    """Clauses a-e of the bounded criterion tested one by one on Fraction
    pairings, every index of clauses d and e tried."""
    n = len(lam)
    p = _pairings_by_fractions(lam)

    def positive(k):
        return diff_in(p[k, k], 0, ZGT0)

    if not positive(n) and all(positive(k) for k in range(1, n)):
        return "a"
    if not diff_in(p[1, 1], 0, Z) and all(positive(k) for k in range(2, n + 1)):
        return "b"
    if (
        diff_in(0, p[1, 1], ZGT0)
        and diff_in(0, p[1, n], ZGEQ0)
        and all(positive(k) for k in range(2, n + 1))
    ):
        return "c"
    d_hits = [
        i
        for i in range(2, n)
        if diff_in(0, p[i, i], ZGT0)
        and diff_in(p[i - 1, i], 0, ZGT0)
        and diff_in(0, p[i, n], ZGEQ0)
        and all(positive(k) for k in range(1, n + 1) if k != i)
    ]
    if len(d_hits) == 1:
        return ("d", d_hits[0])
    e_hits = [
        i
        for i in range(1, n)
        if not diff_in(p[i, i], 0, Z)
        and not diff_in(p[i + 1, i + 1], 0, Z)
        and diff_in(p[i, i + 1], 0, ZGT0)
        and all(positive(k) for k in range(1, n + 1) if k not in (i, i + 1))
    ]
    if len(e_hits) == 1:
        return ("e", e_hits[0])
    return None


def verma_simple_by_fractions(lam):
    """No last-column pairing a positive integer, no other pairing an
    integer, on Fraction pairings."""
    n = len(lam)
    return not any(
        diff_in(v, 0, ZGT0) if s == n else diff_in(v, 0, Z)
        for (_, s), v in _pairings_by_fractions(lam).items()
    )


def hw_top_values_by_fractions(lam, normalization):
    """The column values v_1..v_{n+1} of a highest weight seed: v_s - v_{s+1}
    is <lam + rho, alpha_s>, and they sum to -n(n+1)/2 ("hw") or -(n+1)
    ("sl2"); every tail summed afresh in Fractions."""
    lam = tuple(Fraction(x) for x in lam)
    n = len(lam)
    total = {"hw": Fraction(-n * (n + 1), 2), "sl2": Fraction(-(n + 1))}[normalization]
    diffs = [lam[s - 1] + 1 for s in range(1, n + 1)]
    tails = [sum(diffs[s - 1 : n], Fraction(0)) for s in range(1, n + 2)]
    last = (total - sum(tails, Fraction(0))) / (n + 1)
    return [last + t for t in tails]


def parse_rational_by_fraction(s):
    """`parse_rational` as Fraction's own parser behind the check that a
    denominator is a positive integer and the rejection of any exponent."""
    if not isinstance(s, str):
        raise ValueError("expected a rational string, got %r" % (s,))
    s = s.strip()
    if "/" in s:
        den = s.split("/")[1].strip()
        if not den.lstrip("+").isdigit() or int(den) <= 0:
            raise ValueError("denominator must be positive: %r" % s)
    if re.search(r"[eE][-+]?\d", s):
        raise ValueError("exponents are not accepted: %r" % s)
    return Fraction(s)


def relset_from_json_by_checks(obj):
    """`relset_from_json` with every object, list and entry passed through
    json_object, json_list and json_int, positions and arrows of any
    length, the rank read last."""
    obj = json_object(obj, "relation set")
    rels = [
        tuple(
            tuple(json_int(x, "position entry") for x in json_list(pos, "position"))
            for pos in json_list(rel, "relation")
        )
        for rel in json_list(obj.get("relations"), "relations")
    ]
    return RelationSet(json_int(obj.get("n"), "relation set n"), frozenset(rels))


def format_rational_by_fraction(r):
    """`format_rational` with every input coerced to a Fraction first."""
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)
