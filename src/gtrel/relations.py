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
from functools import cached_property

from .core import json_int, json_list, json_object
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

    @cached_property
    def _admissible(self):
        """is_admissible(self), computed once: the set is frozen.  A
        StructureViolation is not stored, so it is raised on every call."""
        return _check_admissible(self.n, self.relations)


def relation_set(n, rels=()):
    return RelationSet(n, frozenset(tuple(map(tuple, r)) for r in rels))


def _universe(n):
    """(relation, kind) for every relation of R, in the order of
    full_relation_universe."""
    for i in range(2, n + 2):
        for j in range(1, i + 1):
            for t in range(1, i):
                yield ((i, j), (i - 1, t)), RPLUS
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for s in range(1, i + 2):
                yield ((i, j), (i + 1, s)), RMINUS
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i != j:
                yield ((n + 1, i), (n + 1, j)), RZERO


def full_relation_universe(n):
    """All of R = R+ u R- u R0 for the given n."""
    return [rel for rel, _ in _universe(n)]


# ---------------------------------------------------------------------------
# graph helpers
#
# The private helpers take the rank and a plain set of arrows, so the
# reduction can test its working sets without building a RelationSet (whose
# constructor classifies every arrow again).


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


def _roots(n, rels):
    """Union-find root of every position, the arrows taken undirected."""
    parent = {p: p for p in all_positions(n)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for frm, to in rels:
        ra, rb = find(frm), find(to)
        if ra != rb:
            parent[ra] = rb
    return {p: find(p) for p in parent}


def _adjoining_pairs(n, adj):
    pairs = []
    for k in range(1, n + 2):
        row = [(k, t) for t in range(1, k + 1)]
        for i in range(1, k + 1):
            reach = _reachable_from(adj, (k, i), blocked=row)
            pairs.extend(
                ((k, i), (k, j)) for j in range(i + 1, k + 1) if (k, j) in reach
            )
    return pairs


def adjoining_pairs(C):
    """All same-row pairs {(k,i),(k,j)}, i<j, joined by a directed path
    that avoids the intermediate vertices (k,t), i < t < j.

    G(C) must be forward-ordered.  Then no such path passes through its
    own row: it would lead from (k,i) back to (k,i) or to some (k,t) with
    t < i, or from some (k,t) with t > j to (k,j).  So one search per
    vertex, with the whole row blocked, finds every pair.
    """
    return _adjoining_pairs(C.n, _adjacency(C.relations))


def reduce_relations(C):
    """Remove transitively redundant arrows.

    An arrow may only go if the surviving graph still implies its
    constraint: a strict (R-) arrow needs an alternative path through at
    least one strict arrow, a non-strict arrow needs any alternative path.
    Equal top-row entries can produce two-cycles of R0 arrows; only the
    column-increasing direction is kept.

    Each arrow is classified once, and one adjacency is kept and updated
    after each drop; a candidate is tested on it with its own arrow
    skipped.  Dropping arrows never creates a path, so an arrow found not
    implied stays so and is not searched again, and a drop keeps forward
    order and cross-freeness (reachability only shrinks, components only
    split).

    Phase 1 finds the crossing pairs once and, after a drop, only removes
    the pairs of the dropped arrow.  Whether two arrows cross depends on
    their endpoints and on the undirected components of the working set,
    and phase 1 leaves those components as they are.  Let S be the working
    set plus the equal-entry two-cycles: the adjacency holds S.  A dropped
    arrow is implied, so S without it still has a directed path between
    its endpoints, and S loses no other arrow; an arrow of a two-cycle
    stays in S.  So the components of S never change.  Every arrow of S
    outside the working set has its reverse inside it: a column-decreasing
    top-row arrow has its column-increasing twin, which phase 1 never
    drops (it drops adjacent-row arrows only), and a dropped arrow of a
    two-cycle has its reverse until that goes too.  While no two-cycle has
    lost both arrows, the working set and S have the same undirected
    edges, hence the same components as at the start.  Both arrows of a
    two-cycle between adjacent rows demand contradictory differences, so
    no tableau satisfies such a set; for it the pairs are found afresh
    after every drop once both are gone.
    """
    n = C.n
    kinds = {rel: C.kind(rel) for rel in C.relations}
    # two-cycles (possible only among top-row pairs) mean the entries are
    # equal; keep the column-increasing direction in the output but let
    # implication paths use both directions
    eq_extra = {rel for rel in C.relations if (rel[1], rel[0]) in C.relations}
    # a column-decreasing top-row arrow breaks the forward order and fixes
    # no shift (both endpoints are pinned), so it is never kept
    rels = {
        (frm, to)
        for frm, to in C.relations
        if not (frm[0] == to[0] and frm[1] > to[1])
    }
    adj = _adjacency(rels | eq_extra)
    not_implied = set()

    def order(rel):
        # try to drop skewed arrows first so straight column chains
        # survive and cross-freeness is preserved
        (r1, c1), (r2, c2) = rel
        return (-abs(c1 - c2), rel)

    def implied(rel):
        if rel in not_implied:
            return False
        frm, to = rel
        if kinds[rel] == RMINUS:
            best = _strict_reachable_from(adj, kinds, frm, skip_edge=rel)
            found = best.get(to) is True
        else:
            found = to in _reachable_from(adj, frm, skip_edge=rel)
        if not found:
            not_implied.add(rel)
        return found

    def drop(rel):
        rels.discard(rel)
        if rel not in eq_extra:
            adj[rel[0]].discard(rel[1])

    # phase 1: repair cross-freeness by dropping implied crossing arrows
    partners = _crossing_partners(n, rels)
    split = False
    while True:
        rel = next((r for r in sorted(partners, key=order) if implied(r)), None)
        if rel is None:
            break
        drop(rel)
        split = split or (rel in eq_extra and rel[::-1] not in rels)
        if split:
            partners = _crossing_partners(n, rels)
            continue
        for other in partners.pop(rel):
            mates = partners[other]
            mates.discard(rel)
            if not mates:
                del partners[other]

    # phase 2: minimize, but never break the structural conditions or an
    # already-holding diamond condition; since a drop keeps the structural
    # conditions, only the diamond condition is checked on a trial
    keep_diamond = _forward_ordered(rels) and not partners and _diamond_ok(n, rels)

    def droppable(rel):
        return implied(rel) and (not keep_diamond or _diamond_ok(n, rels - {rel}))

    while True:
        rel = next((r for r in sorted(rels, key=order) if droppable(r)), None)
        if rel is None:
            break
        drop(rel)
    return RelationSet(n, frozenset(rels))


def _forward_ordered(rels):
    adj = _adjacency(rels)
    for p in adj:
        reach = _reachable_from(adj, p)
        if p in reach:
            return False
        for q in reach:
            if q[0] == p[0] and q[1] <= p[1]:
                return False
    return True


def _crossing_partners(n, rels):
    """Arrow -> the arrows it crosses, over the arrows between adjacent
    rows that cross another such arrow of the same connected component."""
    # undirected arrows between rows k and k+1, grouped by k and keyed by
    # (i, t) with i the row-k column and t the row-(k+1) column;
    # crossing matters only inside one connected component, since
    # entries of separate components are never integer-linked and their
    # relative column order carries no constraint
    comp = _roots(n, rels)
    links = {}
    for frm, to in rels:
        if abs(frm[0] - to[0]) == 1:
            lo, hi = (frm, to) if frm[0] < to[0] else (to, frm)
            row = links.setdefault(lo[0], {})
            row.setdefault((lo[1], hi[1]), []).append((frm, to))
    partners = {}
    for k, row in links.items():
        for (i, t), a in row.items():
            for (j, s), b in row.items():
                if i < j and s < t and comp[(k, i)] == comp[(k, j)]:
                    for x in a:
                        partners.setdefault(x, set()).update(b)
                    for y in b:
                        partners.setdefault(y, set()).update(a)
    return partners


def _diamond_ok(n, rels):
    """The diamond condition at every adjoining pair of rows 1..n; G(rels)
    must be forward-ordered (see adjoining_pairs)."""
    for (k, i), (_, j) in _adjoining_pairs(n, _adjacency(rels)):
        if k > n:
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
        "forward_ordered": _forward_ordered(C.relations),
        "cross_free": not _crossing_partners(C.n, C.relations),
    }


def is_admissible(C):
    """Diamond condition at every adjoining pair of rows 1..n.

    Requires forward order and cross-freeness (StructureViolation
    otherwise); reducedness is advisory and not enforced.  The answer is
    kept on C, so a second call on the same set costs nothing.
    """
    return C._admissible


def _check_admissible(n, rels):
    forward = _forward_ordered(rels)
    cross = not _crossing_partners(n, rels)
    if not (forward and cross):
        raise StructureViolation(
            "forward_ordered=%s cross_free=%s" % (forward, cross)
        )
    return _diamond_ok(n, rels)


# ---------------------------------------------------------------------------
# satisfaction against tableaux


def _holds(classes, frm, to, strict):
    """Whether entry frm - entry to lies in Z_{>0} (strict) or Z_{>=0};
    `classes` is the tableau's Tableau.classes."""
    ca, xa = classes[frm[0] - 1][frm[1] - 1]
    cb, xb = classes[to[0] - 1][to[1] - 1]
    return ca == cb and (xa > xb if strict else xa >= xb)


def relation_holds(T, rel, kind):
    return _holds(T.classes, rel[0], rel[1], kind == RMINUS)


def satisfies(T, C):
    """True when every relation of C holds for T's entries."""
    # an arrow is R- exactly when it goes down to the next row
    classes = T.classes
    return all(_holds(classes, a, b, b[0] > a[0]) for a, b in C.relations)


def satisfied_relations(T):
    """The maximal set of relations of R that T's entries satisfy."""
    classes = T.classes
    out = [
        rel
        for rel, kind in _universe(T.n)
        if _holds(classes, rel[0], rel[1], kind == RMINUS)
    ]
    return RelationSet(T.n, frozenset(out))


def _realization_roots(C, T):
    """The `_roots` of G(C) when T is a C-realization, None otherwise."""
    if not satisfies(T, C):
        return None
    comp = _roots(C.n, C.relations)
    for k, row in enumerate(T.classes[: C.n], start=1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                integral = row[i - 1][0] == row[j - 1][0]
                if integral != (comp[(k, i)] == comp[(k, j)]):
                    return None
    return comp


def is_realization(C, T):
    """T satisfies C, and same-row integer differences match components."""
    return _realization_roots(C, T) is not None


def is_noncritical_for(C, T):
    """Same-component entries in each row 1..n are pairwise distinct."""
    comp = _realization_roots(C, T)
    if comp is None:
        raise NotARealization("tableau is not a C-realization")
    for k, row in enumerate(T.classes[: C.n], start=1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if comp[(k, i)] == comp[(k, j)] and row[i - 1] == row[j - 1]:
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
