"""Reference implementations that the library's fast paths are checked
against: a brute-force basis scan, a coordinate-by-coordinate
backtracking enumeration, a weight sweep over the enumerated basis, the
nested-commutator ladder for
E(m,1), the twisted action written out entry by entry, empirical
kernel / image scans for the localization predicates, relation-set
reduction with one rebuild per candidate arrow, and the relation tests
against a tableau written with Fraction differences."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from gtrel.action import GTVector, _act_primitive, _em1_tuples, act, gen_E
from gtrel.core import ZGEQ0, ZGT0, Z, diff_in
from gtrel.errors import NotARealization
from gtrel.localization import twist_e21
from gtrel.relations import (
    RMINUS,
    RelationSet,
    _reachable_from,
    _strict_reachable_from,
    all_positions,
    full_relation_universe,
    relation_kind,
)
from gtrel.tableau import (
    BasisChecker,
    enumerate_basis_box,
    unit_shift,
    weight_delta,
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


def backtrack_basis_box(checker, box):
    """All basis shifts with |z_{ki}| <= box, ascending in flat order.

    Backtracks one coordinate at a time; each range is cut by the
    closure against the coordinates already fixed and the top row.
    """
    if box < 0:
        raise ValueError("box must be >= 0, got %d" % box)
    d, size = checker.closure, checker.size
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


def sweep_by_enumeration(M, box):
    """Counts of basis shifts per realized weight within the box."""
    base = weight_of(M.seed)
    counts = {}
    for z in enumerate_basis_box(M.C, M.seed, box):
        w = tuple(b + d for b, d in zip(base, weight_delta(M.n, z)))
        counts[w] = counts.get(w, 0) + 1
    return counts


def em1_bracket(M, m, v):
    """E_{m,1} via the nested-commutator ladder."""
    if m == 2:
        return _act_primitive(M, ("E", 2, 1), v)
    low = ("E", m, m - 1)
    return _act_primitive(M, low, em1_bracket(M, m - 1, v)) - em1_bracket(
        M, m - 1, _act_primitive(M, low, v)
    )


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
        if act(M, gen_E(m, 1), v).is_zero():
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
            if act(M, gen_E(m, 1), v).get(z, 0) != 0:
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
        img = act(M, gen_E(m, 1), v)
        if img.is_zero():
            return False
        key = tuple(sorted(img.items()))
        if key in seen:
            return False
        seen[key] = z
    return True


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


def _adjacency(C):
    adj = {}
    for frm, to in C.relations:
        adj.setdefault(frm, set()).add(to)
    return adj


def adjoining_pairs_per_pair(C):
    """All same-row pairs {(k,i),(k,j)}, i<j, joined by a directed path
    that avoids the intermediate vertices (k,t), i < t < j."""
    adj = _adjacency(C)
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
    # two-cycles (possible only among top-row pairs) mean the entries are
    # equal; keep the column-increasing direction in the output but let
    # implication paths use both directions
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
        adj = _adjacency(current)
        if C.kind(rel) == RMINUS:
            kinds = {r: current.kind(r) for r in work}
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
    adj = _adjacency(C)
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
