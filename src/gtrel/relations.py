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
tableaux.  Every graph question is answered on integer bitmasks over the
positions of one rank.  Each position's reach comes from one table per
graph, `_reach_table`, which the reduction and forward order read; the
one reachability search `_closure` is left for components, the blocked
searches that find adjoining pairs and the search with one arrow
skipped.  A strict arrow's implication needs no search of its own: a
walk from row k to row k+1 holds an R- arrow.  The maximal set a tableau
satisfies is found class by class of its entries' integer gaps, its
arrows interned per rank as met (`_arrows`): no rank builds all of R.
"""

from functools import cache, cached_property

from .core import Record, json_int, json_list, json_object
from .errors import NotARealization, RankMismatch, StructureViolation

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


class RelationSet(Record):
    """A set of relations C together with the rank parameter n."""

    _fields = ("n", "relations")
    _reduced = False  # True on reduce_relations' output: it is returned as is

    def __init__(self, n, relations):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relations", relations)
        # one arrow at a time, with no table of the rank: a rank read from
        # outside can be huge
        for frm, to in relations:
            relation_kind(n, frm, to)  # raises on the first illegal arrow

    @classmethod
    def _legal(cls, n, relations):
        """The set of the frozenset `relations`, whose arrows are legal for
        rank n by construction (a subset of a validated set or of R), built
        without classifying them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "relations", relations)
        return out

    def union(self, rels):
        return RelationSet(self.n, self.relations | frozenset(rels))

    def difference(self, rels):
        return RelationSet._legal(self.n, self.relations - frozenset(rels))

    def __contains__(self, rel):
        return rel in self.relations

    def sorted(self):
        return sorted(self.relations)

    @cached_property
    def _graph(self):
        """(fwd, rev, comp): the out- and in-mask of every position of
        G(self) and the mask of each position's component, its arrows taken
        undirected, computed once: the set is frozen.  Read only."""
        fwd, rev = _masks(_layout(self.n), self.relations)
        return fwd, rev, _components(fwd, rev)

    @cached_property
    def _admissible(self):
        """is_admissible(self), computed once: the set is frozen.  A
        StructureViolation is not stored, so it is raised on every call."""
        L = _layout(self.n)
        fwd, rev, comp = self._graph
        reach = _reach_table(fwd)
        forward, cross = _structure(L, self.relations, fwd, rev, comp, reach)
        if not (forward and cross):
            raise StructureViolation(
                "forward_ordered=%s cross_free=%s" % (forward, cross)
            )
        return _diamond_at(L, fwd, rev, range(1, self.n + 1))


def relation_set(n, rels=()):
    return RelationSet(n, frozenset(tuple(map(tuple, r)) for r in rels))


@cache
def _arrows(n):
    """The arrows of rank n that satisfied_relations has met, each mapped
    to itself, so the satisfied sets of a rank share one tuple per arrow
    instead of each holding fresh ones.  Only met arrows are held: R has
    O(n^3)."""
    return {}


# ---------------------------------------------------------------------------
# the graph kernel
#
# A set of positions is an int whose bit v is the position of flat index v
# (row by row, left to right, as in all_positions), so within a row a lower
# bit is a lower column.  A graph is a list of out-masks, one per position.
# The private helpers take the layout and plain masks or sets of arrows, so
# the reduction can test its working sets without building a RelationSet
# (whose constructor validates every arrow again).


class _Layout:
    """The positions of one rank as bits; shared by every caller, so read
    only.

    index: position -> flat index
    rows: rows[k] is the mask of row k, 0 for k = 0 and k = n+2
    next_row: next_row[v] is the mask of the row an R- arrow from v enters
    upto: upto[v] is the mask of v's row at or left of v
    """

    __slots__ = ("n", "index", "rows", "next_row", "upto")

    def __init__(self, n):
        positions = all_positions(n)
        rows = [0] * (n + 3)
        for v, (k, _) in enumerate(positions):
            rows[k] |= 1 << v
        self.n = n
        self.index = {p: v for v, p in enumerate(positions)}
        self.rows = tuple(rows)
        self.next_row = tuple(rows[k + 1] for k, _ in positions)
        self.upto = tuple(rows[k] & ((2 << v) - 1) for v, (k, _) in enumerate(positions))


@cache
def _layout(n):
    return _Layout(n)


def _masks(L, rels):
    """(fwd, rev): the out-mask and the in-mask of every position of G(rels)."""
    index = L.index
    fwd = [0] * len(index)
    rev = [0] * len(index)
    for frm, to in rels:
        a, b = index[frm], index[to]
        fwd[a] |= 1 << b
        rev[b] |= 1 << a
    return fwd, rev


def _closure(adj, todo, blocked=0):
    """All positions reachable by a nonempty path from a position of the
    mask `todo`.  Positions in `blocked` may be reached but not left."""
    seen = 0
    while todo:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new & ~blocked
    return seen


def _reach_table(adj):
    """Every position's reach in the graph with out-masks adj: the mask of
    the positions a nonempty path from it ends at.

    One pass in flat-index order.  The search from v is a `_closure` that
    takes in the whole reach of a position already done instead of
    walking on from it.  R+ arrows enter the row below, which comes first,
    so most searches stop one arrow out.  Cycles, as the two-cycles of
    equal top entries, need no care: a position on one is found in its
    own reach like any other."""
    reach = []
    for v, out in enumerate(adj):
        seen, todo = out, out
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            if u < v:
                seen |= reach[u]
                todo &= ~reach[u]
            else:
                new = adj[u] & ~seen
                seen |= new
                todo |= new
        reach.append(seen)
    return reach


def _components(fwd, rev):
    """The mask of each position's component of the graph, its arrows taken
    undirected."""
    und = [f | r for f, r in zip(fwd, rev)]
    comp = [0] * len(und)
    todo = (1 << len(und)) - 1
    while todo:
        low = todo & -todo
        group = low | _closure(und, low)
        todo &= ~group
        rest = group
        while rest:
            low = rest & -rest
            rest ^= low
            comp[low.bit_length() - 1] = group
    return comp


def _adjoining(L, fwd, rows):
    """(k, a, b) for every adjoining pair ((k,i),(k,j)) of the given rows,
    a and b the pair's flat indices, row by row and then by a and b: the
    same-row pairs, i<j, joined by a directed path that avoids the
    intermediate vertices (k,t), i < t < j.

    G(fwd) must be forward-ordered.  Then no such path passes through its
    own row: it would lead from (k,i) back to (k,i) or to some (k,t) with
    t < i, or from some (k,t) with t > j to (k,j).  So one search per
    vertex, with the whole row blocked, finds every pair.
    """
    for k in rows:
        row = L.rows[k]
        last = row.bit_length()
        for a in range(k * (k - 1) // 2, last):
            reach = _closure(fwd, 1 << a, row)
            for b in range(a + 1, last):
                if reach >> b & 1:
                    yield k, a, b


def reduce_relations(C):
    """Remove transitively redundant arrows.

    An arrow may only go if the surviving graph still implies its
    constraint: a strict (R-) arrow needs an alternative path through at
    least one strict arrow, a non-strict arrow needs any alternative path.
    Equal top-row entries can produce two-cycles of R0 arrows; only the
    column-increasing direction is kept.

    One adjacency is kept and updated after each drop.  Dropping arrows
    never creates a path, so an arrow found not implied stays so and is not
    searched again, and a drop keeps forward order and cross-freeness
    (reachability only shrinks, components only split).  The arrows are sorted once:
    their order is fixed and their set only shrinks.

    Plain reach decides both strengths.  An R- arrow climbs one row, an
    R+ arrow descends one and an R0 arrow stays in the top row, so a walk
    from row k to row k+1 climbs once more than it descends.  So it holds
    an R- arrow: any walk that joins a strict arrow's endpoints is
    strict.  A dropped arrow is implied: a walk of the same strength joins
    its endpoints without it and can stand in for it in any other walk.
    So drops change no position's reach: every reach is read from one
    `_reach_table` of the start.  A candidate a -> b is implied when b
    lies in the reach of another head of a; when a lies on a cycle, a walk
    from a head may come back through the candidate, and one `_closure`
    searches from a with the candidate cleared.

    Phase 1 visits each arrow once, in that order, and drops it when it
    crosses another arrow and is implied.  That is the same as dropping,
    again and again, the first implied crossing arrow: an arrow passed
    over was not implied or crossed nothing, and a drop changes neither.
    Whether two arrows cross depends on their endpoints and on the
    undirected components of the working set, and phase 1 leaves those
    components as they are, so it finds them once.  Let S be the working
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
    no tableau satisfies such a set; for it the components are found
    afresh after every drop once both are gone.  An arrow that crossed
    nothing when visited crosses nothing later, since drops only remove
    arrows and split components; so after phase 1 only the arrows that
    crossed when visited and were kept are tested for cross-freeness
    again.  Forward order is read off a reach table: the start's when
    there are no two-cycles (the adjacency is then the working set's, and
    drops keep its reach), else the working set's.

    Phase 2 checks the diamond condition only on a forward-ordered,
    cross-free, diamond-ok set.  A drop only removes adjoining pairs, and
    the C1/C2 patterns of row k use only arrows to rows k+-1, so a trial
    drop of an arrow between rows r and r+1 is checked at rows r, r+1 <= n
    alone (of a top-row arrow, nowhere), on the working set's masks.
    The output is marked reduced, and admissible after such a phase 2.
    """
    return C if C._reduced else _reduce(C)


def _reduce(C):
    n = C.n
    L = _layout(n)
    index = L.index
    # a top-row two-cycle means equal entries: keep the column-increasing
    # direction in the output but let implication paths use both
    # directions.  A set from relation_set or JSON may also hold a two-cycle
    # between adjacent rows, whose arrows demand contradictory differences,
    # so no tableau satisfies it; it is reduced alike, and phase 1 finds the
    # components afresh once both its arrows are gone (`split`)
    eq_extra = {rel for rel in C.relations if (rel[1], rel[0]) in C.relations}
    # a column-decreasing top-row arrow breaks the forward order and fixes
    # no shift (both endpoints are pinned), so it is never kept
    rels = {
        (frm, to)
        for frm, to in C.relations
        if not (frm[0] == to[0] and frm[1] > to[1])
    }
    fwd, rev = _masks(L, rels)
    comp = _components(fwd, rev)
    adj = list(fwd)
    for frm, to in eq_extra:
        adj[index[frm]] |= 1 << index[to]
    not_implied = set()
    # each position's reach in adj; a drop keeps it current (see
    # reduce_relations)
    reach = _reach_table(adj)

    def order(rel):
        # try to drop skewed arrows first so straight column chains
        # survive and cross-freeness is preserved
        (r1, c1), (r2, c2) = rel
        return (-abs(c1 - c2), rel)

    def implied(rel):
        if rel in not_implied:
            return False
        a, bit = index[rel[0]], 1 << index[rel[1]]
        if reach[a] >> a & 1:
            # a lies on a cycle, so a walk from one of its heads may come
            # back through the arrow itself: search without it
            adj[a] ^= bit
            found = _closure(adj, 1 << a) & bit
            adj[a] ^= bit
        else:
            # a walk from a to the head without the arrow leaves a by
            # another arrow a -> w, and goes on from w (w is not the head)
            found, heads = 0, adj[a] & ~bit
            while heads and not found:
                low = heads & -heads
                heads ^= low
                found = reach[low.bit_length() - 1] & bit
        if not found:
            not_implied.add(rel)
        return found

    def drop(rel):
        rels.discard(rel)
        a, b = index[rel[0]], index[rel[1]]
        fwd[a] ^= 1 << b
        rev[b] ^= 1 << a
        if rel not in eq_extra:
            adj[a] ^= 1 << b

    # phase 1: repair cross-freeness by dropping implied crossing arrows;
    # crossed holds those kept, the only ones that may still cross
    candidates = sorted(rels, key=order)
    crossed = []
    split = False
    for rel in candidates:
        if not _crosses(L, fwd, rev, comp, rel):
            continue
        if not implied(rel):
            crossed.append(rel)
            continue
        drop(rel)
        split = split or (rel in eq_extra and rel[::-1] not in rels)
        if split:
            comp = _components(fwd, rev)

    # phase 2: minimize, but never break the structural conditions or an
    # already-holding diamond condition; since a drop keeps the structural
    # conditions, only the diamond condition is checked on a trial.  comp
    # is current: phase 1 kept it so (see above).  Without two-cycles adj
    # is fwd, and reach is still its reach table
    fwd_reach = _reach_table(fwd) if eq_extra else reach
    forward, cross = _structure(L, crossed, fwd, rev, comp, fwd_reach)
    keep_diamond = forward and cross and _diamond_at(L, fwd, rev, range(1, n + 1))

    # drop the first droppable arrow, again and again.  An arrow passed
    # over stays passed over if it was dropped or not implied; only one
    # passed over for the diamond condition may become droppable, so the
    # next scan starts at the first such arrow, or past the drop
    start = 0
    while True:
        held = None
        for i in range(start, len(candidates)):
            rel = candidates[i]
            if rel not in rels or not implied(rel):
                continue
            if not keep_diamond or _diamond_kept(L, fwd, rev, rel):
                drop(rel)
                break
            if held is None:
                held = i
        else:
            break
        start = i + 1 if held is None else held
    out = RelationSet._legal(n, frozenset(rels))
    object.__setattr__(out, "_reduced", True)
    if keep_diamond:
        object.__setattr__(out, "_admissible", True)
    return out


def _crosses(L, fwd, rev, comp, rel):
    """Whether rel joins rows k and k+1 and crosses another arrow between
    them, in the graph with masks fwd, rev and components comp: an arrow
    between a position of row k right of rel's and one of row k+1 left of
    rel's, or the reverse.  Crossing matters only inside one component,
    since entries of separate components are never integer-linked and
    their relative column order carries no constraint."""
    frm, to = rel
    if frm[0] == to[0]:
        return False
    lo, hi = (frm, to) if frm[0] < to[0] else (to, frm)
    a, t = L.index[lo], L.index[hi]
    up = L.next_row[a]
    others = comp[a] & L.rows[lo[0]] & ~(1 << a)
    while others:
        low = others & -others
        others ^= low
        b = low.bit_length() - 1
        links = (fwd[b] | rev[b]) & up
        if links & ((1 << t) - 1) if b > a else links >> (t + 1):
            return True
    return False


def _structure(L, rels, fwd, rev, comp, reach):
    """(forward-ordered, cross-free) of the graph with _masks fwd, rev,
    _components comp and `_reach_table` reach on fwd, when rels holds every
    arrow of it that may cross another.  Forward-ordered: no position
    reaches itself or a position of its row left of it."""
    return (
        not any(map(int.__and__, reach, L.upto)),
        not any(_crosses(L, fwd, rev, comp, rel) for rel in rels),
    )


def _diamond_at(L, fwd, rev, rows):
    """The diamond condition at every adjoining pair of the given rows of
    the forward-ordered graph with masks fwd, rev (see _adjoining)."""
    masks = L.rows
    for k, a, b in _adjoining(L, fwd, rows):
        up, down = masks[k + 1], masks[k - 1]
        # C2 pattern: (k,i) -> (k+1,s), (k+1,t) -> (k,j) with s < t, that
        # is, the lowest such s lies left of the highest such t
        ups = fwd[a] & up
        if ups and (ups & -ups).bit_length() < (rev[b] & up).bit_length():
            continue
        # C1 pattern: through some (k+1,p) and through some (k-1,q)
        both = fwd[a] & rev[b]
        if not (both & up and both & down):
            return False
    return True


def _diamond_kept(L, fwd, rev, rel):
    """The diamond condition at rows 1..n of rels - {rel}, for a diamond-ok
    rels with _masks fwd, rev: only the rows rel joins can lose it (see
    reduce_relations).  The masks are restored before it returns."""
    a, b = L.index[rel[0]], L.index[rel[1]]
    fwd[a] ^= 1 << b
    rev[b] ^= 1 << a
    ok = _diamond_at(L, fwd, rev, [k for k, _ in rel if k <= L.n])
    fwd[a] ^= 1 << b
    rev[b] ^= 1 << a
    return ok


def check_structure(C):
    """Report the three structural conditions on G(C)."""
    L = _layout(C.n)
    fwd, rev, comp = C._graph
    forward, cross = _structure(L, C.relations, fwd, rev, comp, _reach_table(fwd))
    return {
        "reduced": reduce_relations(C).relations == C.relations,
        "forward_ordered": forward,
        "cross_free": cross,
    }


def is_admissible(C):
    """Diamond condition at every adjoining pair of rows 1..n.

    Requires forward order and cross-freeness (StructureViolation
    otherwise); reducedness is advisory and not enforced.  The answer is
    kept on C, so a second call on the same set costs nothing.
    """
    return C._admissible


# ---------------------------------------------------------------------------
# satisfaction against tableaux


def _bound(scaled, frm, to):
    """The t with z_frm - z_to >= t that the arrow frm -> to asks of the
    shifts z of a tableau with `Tableau.scaled` (d, rows), or None when its
    two scaled entries a, b have no integer gap: d does not divide a - b.
    t is the arrow's strictness (1 when it enters the next row, R-, else 0)
    less the gap (a - b) // d, so the tableau satisfies the arrow iff
    t <= 0; on a same-row pair t is 0 iff the entries are equal."""
    d, rows = scaled
    (i, j), (r, s) = frm, to
    gap = rows[i - 1][j - 1] - rows[r - 1][s - 1]
    return None if gap % d else (r > i) - gap // d


def satisfies(T, C):
    """True when every relation of C holds for T's entries."""
    if T.n != C.n:
        raise RankMismatch("tableau has rank %d, relation set %d" % (T.n, C.n))
    scaled = T.scaled
    return all((t := _bound(scaled, *r)) is not None and t <= 0 for r in C.relations)


def _classes(row, d):
    """The (column, entry) pairs of a row of scaled entries, grouped by
    entry mod d: the entries with an integer gap between them."""
    out = {}
    for col, x in enumerate(row, 1):
        out.setdefault(x % d, []).append((col, x))
    return out


def satisfied_relations(T):
    """The maximal set of relations of R that T's entries satisfy.

    Two scaled entries a and b (`Tableau.scaled`, denominator d) can only
    be joined when a == b (mod d), so only the pairs of one class are
    looked at, in adjacent rows and in the top row.  A pair (k,j), (k+1,s)
    of one class gives exactly one arrow: a - b is a multiple of d, so
    either a - b >= d (the R- arrow (k,j) -> (k+1,s)) or b - a >= 0 (the
    R+ arrow back).  A top-row pair gives the arrow from the larger entry,
    and both when they are equal.  Each arrow is interned in `_arrows(n)`,
    so seeds of one rank share their arrow tuples."""
    n = T.n
    d, rows = T.scaled
    intern = _arrows(n).setdefault
    out = []
    for k in range(1, n + 1):
        above = _classes(rows[k], d)
        for j, a in enumerate(rows[k - 1], 1):
            for s, b in above.get(a % d, ()):
                rel = ((k, j), (k + 1, s)) if a - b >= d else ((k + 1, s), (k, j))
                out.append(intern(rel, rel))
    for members in _classes(rows[n], d).values():
        for i, a in members:
            for j, b in members:
                if i != j and a >= b:
                    rel = (n + 1, i), (n + 1, j)
                    out.append(intern(rel, rel))
    return RelationSet._legal(n, frozenset(out))


def _realization(C, T):
    """None when T, which satisfies C, is not a C-realization, else whether
    T is noncritical for C.  Every arrow of G(C) then joins entries with an
    integer gap, so within a row a component's entries lie in one class of
    `_classes`, and only the classes of rows 2..n need a look: one that
    meets two components makes T no realization, two equal entries in one
    make it critical."""
    comp = C._graph[2]
    d, rows = T.scaled
    noncritical = True
    for k in range(2, C.n + 1):  # row 1 has one entry
        first = k * (k - 1) // 2 - 1  # (k, col) has flat index first + col
        for members in _classes(rows[k - 1], d).values():
            if len(members) > 1:
                if len({comp[first + col] for col, _ in members}) > 1:
                    return None
                noncritical = noncritical and len({x for _, x in members}) == len(members)
    return noncritical


def is_realization(C, T):
    """T satisfies C, and same-row integer differences match components."""
    return satisfies(T, C) and _realization(C, T) is not None


def is_noncritical_for(C, T):
    """Same-component entries in each row 1..n are pairwise distinct."""
    realization = _realization(C, T) if satisfies(T, C) else None
    if realization is None:
        raise NotARealization("tableau is not a C-realization")
    return realization


# ---------------------------------------------------------------------------
# JSON


def relset_to_json(C):
    return {"n": C.n, "relations": [[list(frm), list(to)] for frm, to in C.sorted()]}


def relset_from_json(obj):
    """The RelationSet of a JSON object {"n": n, "relations": [[[i, j],
    [r, s]], ...]}, in one pass.  A list may be a tuple and an arrow or
    position any length (RelationSet rejects a wrong one); only a value
    that is not a plain list or int goes through json_list or json_int,
    so the first of the wrong type raises, the rank last."""
    obj = json_object(obj, "relation set")
    rels = obj.get("relations")
    arrows = []
    for rel in rels if type(rels) is list else json_list(rels, "relations"):
        arrow = []
        for pos in rel if type(rel) is list else json_list(rel, "relation"):
            if type(pos) is not list:
                pos = json_list(pos, "position")
            for x in pos:
                if type(x) is not int:
                    json_int(x, "position entry")
            arrow.append(tuple(pos))
        arrows.append(tuple(arrow))
    n = obj.get("n")
    return RelationSet(n if type(n) is int else json_int(n, "relation set n"), frozenset(arrows))
