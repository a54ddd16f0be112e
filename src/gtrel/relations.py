"""Relation sets on tableau positions and their graph combinatorics.

Positions are pairs (row, col) with 1 <= col <= row <= n+1.  A relation
((i,j);(r,s)) is an arrow of the directed graph G(C) and encodes an
integer-difference inequality between tableau entries:

  R+  arrows go from row i to row i-1 and demand difference in Z_{>=0};
  R-  arrows go from row i to row i+1 and demand difference in Z_{>0};
  R0  arrows join distinct top-row entries and demand Z_{>=0}.

The admissibility machinery (forward order, cross-freeness, the
diamond condition on adjoining pairs) lives here, together with the
satisfaction / realization / noncriticality tests against concrete
tableaux.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import ZGEQ0, ZGT0, diff_in, json_int, json_list, json_object
from .errors import NotARealization, StructureViolation

RPLUS = "RPlus"
RMINUS = "RMinus"
RZERO = "RZero"


def all_positions(n):
    return [(i, j) for i in range(1, n + 2) for j in range(1, i + 1)]


def relation_kind(n, frm, to):
    """Classify an arrow as R+/R-/R0, or raise ValueError."""
    (i, j), (r, s) = frm, to
    if not (1 <= j <= i <= n + 1 and 1 <= s <= r <= n + 1):
        raise ValueError("position out of range for n=%d: %r -> %r" % (n, frm, to))
    if i == r == n + 1 and j != s:
        return RZERO
    if r == i - 1 and i >= 2:
        return RPLUS
    if r == i + 1 and i <= n:
        return RMINUS
    raise ValueError("not a legal relation for n=%d: %r -> %r" % (n, frm, to))


@dataclass(frozen=True)
class RelationSet:
    """A set of relations C together with the rank parameter n."""

    n: int
    relations: frozenset

    def __post_init__(self):
        for frm, to in self.relations:
            relation_kind(self.n, frm, to)

    def kind(self, rel):
        return relation_kind(self.n, rel[0], rel[1])

    def with_relations(self, rels):
        return RelationSet(self.n, frozenset(rels))

    def union(self, rels):
        return RelationSet(self.n, self.relations | frozenset(rels))

    def difference(self, rels):
        return RelationSet(self.n, self.relations - frozenset(rels))

    def __contains__(self, rel):
        return rel in self.relations

    def sorted(self):
        return sorted(self.relations)


def relation_set(n, rels=()):
    return RelationSet(n, frozenset(tuple(map(tuple, r)) for r in rels))


def full_relation_universe(n):
    """All of R = R+ u R- u R0 for the given n."""
    rels = []
    for i in range(2, n + 2):
        for j in range(1, i + 1):
            for t in range(1, i):
                rels.append(((i, j), (i - 1, t)))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for s in range(1, i + 2):
                rels.append(((i, j), (i + 1, s)))
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i != j:
                rels.append(((n + 1, i), (n + 1, j)))
    return rels


# ---------------------------------------------------------------------------
# graph helpers


def _adjacency(C):
    adj = {}
    for frm, to in C.relations:
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


def undirected_components(C):
    """Partition of all positions into undirected components of G(C)."""
    parent = {p: p for p in all_positions(C.n)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for frm, to in C.relations:
        ra, rb = find(frm), find(to)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for p in all_positions(C.n):
        groups.setdefault(find(p), set()).add(p)
    return sorted(groups.values(), key=lambda s: min(s))


def same_component_map(C):
    comp = {}
    for idx, grp in enumerate(undirected_components(C)):
        for p in grp:
            comp[p] = idx
    return comp


def adjoining_pairs(C):
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


def reduce_relations(C):
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
        structural = _forward_ordered(current) and _cross_free(current)
        diamond = structural and _diamond_ok(current)
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


def _forward_ordered(C):
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


def _cross_free(C):
    return not _crossing_arrows(C)


def _diamond_ok(C):
    rels = C.relations
    for (ki, kj) in adjoining_pairs(C):
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


def check_structure(C):
    """Report the three structural conditions on G(C)."""
    return {
        "reduced": reduce_relations(C).relations == C.relations,
        "forward_ordered": _forward_ordered(C),
        "cross_free": _cross_free(C),
    }


def is_admissible(C):
    """Diamond condition at every adjoining pair of rows 1..n.

    Requires forward order and cross-freeness (StructureViolation
    otherwise); reducedness is advisory and not enforced.
    """
    forward, cross = _forward_ordered(C), _cross_free(C)
    if not (forward and cross):
        raise StructureViolation(
            "forward_ordered=%s cross_free=%s" % (forward, cross)
        )
    return _diamond_ok(C)


# ---------------------------------------------------------------------------
# satisfaction against tableaux


def entry(T, pos):
    return T.rows[pos[0] - 1][pos[1] - 1]


def relation_holds(T, rel, kind):
    d_cls = ZGT0 if kind == RMINUS else ZGEQ0
    return diff_in(entry(T, rel[0]), entry(T, rel[1]), d_cls)


def satisfies(T, C):
    """True when every relation of C holds for T's entries."""
    return all(relation_holds(T, rel, C.kind(rel)) for rel in C.relations)


def satisfied_relations(T):
    """The maximal set of relations of R that T's entries satisfy."""
    n = T.n
    out = []
    for rel in full_relation_universe(n):
        kind = relation_kind(n, rel[0], rel[1])
        if relation_holds(T, rel, kind):
            out.append(rel)
    return RelationSet(n, frozenset(out))


def is_realization(C, T):
    """T satisfies C, and same-row integer differences match components."""
    if not satisfies(T, C):
        return False
    comp = same_component_map(C)
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                d = Fraction(entry(T, (k, i))) - Fraction(entry(T, (k, j)))
                integral = d.denominator == 1
                if integral != (comp[(k, i)] == comp[(k, j)]):
                    return False
    return True


def is_noncritical_for(C, T):
    """Same-component entries in each row 1..n are pairwise distinct."""
    if not is_realization(C, T):
        raise NotARealization("tableau is not a C-realization")
    comp = same_component_map(C)
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if comp[(k, i)] == comp[(k, j)] and entry(T, (k, i)) == entry(
                    T, (k, j)
                ):
                    return False
    return True


# ---------------------------------------------------------------------------
# JSON


def relset_to_json(C):
    return {"n": C.n, "relations": [[list(frm), list(to)] for frm, to in C.sorted()]}


def relset_from_json(obj):
    obj = json_object(obj, "relation set")
    rels = [
        tuple(
            tuple(json_int(x, "position entry") for x in json_list(pos, "position"))
            for pos in json_list(rel, "relation")
        )
        for rel in json_list(obj.get("relations"), "relations")
    ]
    return RelationSet(json_int(obj.get("n"), "relation set n"), frozenset(rels))
