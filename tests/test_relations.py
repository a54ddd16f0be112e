import copy
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.errors import (
    NotARealization,
    RankMismatch,
    SeedViolatesRelations,
    StructureViolation,
)
from gtrel.relations import (
    RMINUS,
    RPLUS,
    RZERO,
    _bound,
    _closure,
    _components,
    _diamond_at,
    _diamond_kept,
    _layout,
    _arrows,
    _masks,
    _reach_table,
    _structure,
    all_positions,
    relation_kind,
)
from gtrel.tableau import BasisChecker
from conftest import catalog
from oracles import (
    _adjacency,
    _reachable_from,
    _strict_reachable_from,
    adjoining_pairs,
    adjoining_pairs_per_pair,
    closure_by_floyd_warshall,
    constraints_by_diff,
    cross_free,
    diamond_ok,
    forward_ordered,
    forward_ordered_by_closures,
    full_relation_universe,
    is_noncritical_by_diff,
    is_realization_by_diff,
    reach_by_closures,
    reduce_relations_per_candidate,
    relset_from_json_by_checks,
    satisfied_relations_by_diff,
    satisfied_relations_by_universe,
    satisfies_by_diff,
    undirected_components,
)


def chain_c(n):
    """First-column descending chain for rank n."""
    return g.relation_set(n, [((i + 1, 1), (i, 1)) for i in range(1, n + 1)])


def test_relation_kind():
    assert relation_kind(2, (2, 1), (1, 1)) == RPLUS
    assert relation_kind(2, (1, 1), (2, 2)) == RMINUS
    assert relation_kind(2, (3, 1), (3, 2)) == RZERO
    with pytest.raises(ValueError):
        relation_kind(2, (1, 1), (3, 1))
    with pytest.raises(ValueError):
        relation_kind(2, (4, 1), (3, 1))


def test_universe_counts():
    # R+ : rows 2..n+1 give i*( i-1 ) arrows; R- mirrors; R0 top pairs
    for n in (1, 2, 3):
        rels = full_relation_universe(n)
        rplus = sum(i * (i - 1) for i in range(2, n + 2))
        rminus = sum(i * (i + 1) for i in range(1, n + 1))
        rzero = (n + 1) * n
        assert len(rels) == rplus + rminus + rzero
        assert len(set(rels)) == len(rels)


def test_components_and_satisfaction():
    T = g.tableau(2, [[F(-1)], [F(-1), F(-1, 2)], [F(-1), F(-1, 2), F(-3, 2)]])
    C = chain_c(2)
    assert g.satisfies(T, C)
    comp = {frozenset(c) for c in map(frozenset, undirected_components(C))}
    assert frozenset({(1, 1), (2, 1), (3, 1)}) in comp
    # only shiftable rows enter the realization condition; the top row is fixed
    assert g.is_realization(C, T)
    sat = g.satisfied_relations(T)
    assert C.relations <= sat.relations
    red = g.reduce_relations(sat)
    assert g.is_realization(red, T)
    assert g.is_noncritical_for(red, T)
    assert g.is_admissible(red)


def test_realization_finds_the_components_of_a_set_once(monkeypatch):
    relations = sys.modules["gtrel.relations"]
    components = relations._components
    calls = []

    def counted(fwd, rev):
        calls.append(1)
        return components(fwd, rev)

    monkeypatch.setattr(relations, "_components", counted)
    T = g.tableau(2, [[F(-1)], [F(-1), F(-1, 2)], [F(-1), F(-1, 2), F(-3, 2)]])
    C = chain_c(2)
    assert g.is_realization(C, T) and g.is_noncritical_for(C, T)
    assert g.is_noncritical_for(g.relation_set(2, C.relations), T)
    assert len(calls) == 2
    positions = all_positions(2)
    got = {
        frozenset(p for v, p in enumerate(positions) if c >> v & 1)
        for c in C._graph[2]
    }
    assert got == set(map(frozenset, undirected_components(C)))


def _count_calls(mp, *names):
    """Count the calls of the named functions of gtrel.relations."""
    relations = sys.modules["gtrel.relations"]
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        mp.setattr(relations, name, counted(name, getattr(relations, name)))
    return calls


def test_a_set_builds_its_graph_once(monkeypatch):
    # admissibility, the structure report, noncriticality and a module on
    # the set all read its one graph; the reduction that made the set
    # searched its own working masks before the count starts
    T = g.tableau(2, [[F(-1)], [F(-1), F(-1, 2)], [F(-1), F(-1, 2), F(-3, 2)]])
    C = g.reduce_relations(chain_c(2))
    assert "_graph" not in vars(C)
    calls = _count_calls(monkeypatch, "_masks", "_components")
    assert g.is_admissible(C)
    assert g.check_structure(C) == {
        "reduced": True,
        "forward_ordered": True,
        "cross_free": True,
    }
    assert g.is_noncritical_for(C, T)
    assert g.module(T, C).C is C
    assert calls == {"_masks": 1, "_components": 1}


def test_check_structure_builds_a_fresh_sets_graph_once(monkeypatch):
    # the structure report builds C's graph, and the reduction its own
    # working masks from C's arrows (it copies no built graph): one _masks
    # and one _components call each
    C = chain_c(2)
    calls = _count_calls(monkeypatch, "_masks", "_components")
    assert g.check_structure(C) == {
        "reduced": True,
        "forward_ordered": True,
        "cross_free": True,
    }
    assert calls == {"_masks": 2, "_components": 2}
    # a reduction that drops arrows changes its working masks, not the
    # set's graph
    C = g.satisfied_relations(g.tableau(2, [[F(1)], [F(1), F(0)], [F(2), F(1), F(-1)]]))
    assert len(g.reduce_relations(C).relations) < len(C.relations)
    calls["_masks"] = 0
    g.check_structure(C)
    assert calls["_masks"] == 2
    monkeypatch.undo()
    fwd, rev = _masks(_layout(2), C.relations)
    assert C._graph == (fwd, rev, _components(fwd, rev))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_a_reduction_without_two_cycles_finds_the_components_once(n, data):
    universe = full_relation_universe(n)
    rels = set(data.draw(st.lists(st.sampled_from(universe), max_size=30)))
    C = g.relation_set(n, {(a, b) for a, b in rels if (b, a) not in rels})
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_calls(mp, "_components")
        g.reduce_relations(C)
    assert calls == {"_components": 1}


@pytest.mark.parametrize("n", [6, 10])
def test_a_reduction_without_cycles_reads_one_reach_table(monkeypatch, n):
    # the satisfied set of a seed with distinct top entries has no cycle, so
    # every arrow, strict or not, is decided on the reach masks of its
    # tail's heads, all read off one reach table: no arrow is searched with
    # itself cleared
    T = g.tableau(n, [[F(1, 2) * (n - s) for s in range(k)] for k in range(1, n + 2)])
    C = T.satisfied
    calls = _count_calls(monkeypatch, "_reach_table")
    R = g.reduce_relations(C)
    assert calls == {"_reach_table": 1}
    monkeypatch.undo()
    assert R == reduce_relations_per_candidate(C)


def test_reduce_keeps_constraint_closure(hw_module):
    sat = g.satisfied_relations(hw_module.seed)
    red = g.reduce_relations(sat)
    assert red.relations <= sat.relations
    closure = closure_by_floyd_warshall
    assert closure(BasisChecker(red, hw_module.seed)) == closure(
        BasisChecker(sat, hw_module.seed)
    )


def test_reduce_idempotent(module_catalog):
    for name, M in module_catalog:
        red = g.reduce_relations(M.C)
        assert g.reduce_relations(red).relations == red.relations, name


def test_structure_violation_raises():
    C = g.relation_set(2, [((1, 1), (2, 1)), ((2, 1), (1, 1))])
    with pytest.raises(StructureViolation):
        g.is_admissible(C)


def test_admissibility_is_checked_once_per_set(monkeypatch):
    from gtrel import relations

    calls = []
    structure = relations._structure

    def counted(L, rels, *graph):
        calls.append(rels)
        return structure(L, rels, *graph)

    monkeypatch.setattr(relations, "_structure", counted)
    C = chain_c(2)
    assert g.is_admissible(C) and g.is_admissible(C)
    assert len(calls) == 1
    # an equal but new set is checked again
    assert g.is_admissible(g.relation_set(2, C.relations))
    assert len(calls) == 2
    # a violation is never stored: it is raised on every call
    bad = g.relation_set(2, [((1, 1), (2, 1)), ((2, 1), (1, 1))])
    for _ in range(2):
        with pytest.raises(StructureViolation):
            g.is_admissible(bad)
    assert len(calls) == 4


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_admissibility_matches_the_oracles_on_random_subsets_with_two_cycles(
    n, forward_first, data
):
    universe = full_relation_universe(n)
    rels = data.draw(st.lists(st.sampled_from(universe), max_size=12))
    if forward_first:
        # keep each arrow that leaves the set forward-ordered, so that the
        # diamond condition decides more often
        kept = set()
        for rel in rels:
            if forward_ordered(g.relation_set(n, kept | {rel})):
                kept.add(rel)
        rels = sorted(kept)
    twins = data.draw(st.lists(st.sampled_from(rels), max_size=4)) if rels else []
    C = g.relation_set(n, rels + [(b, a) for a, b in twins])
    forward, cross = forward_ordered(C), cross_free(C)
    if forward and cross:
        assert g.is_admissible(C) == diamond_ok(C)
    else:
        message = "^forward_ordered=%s cross_free=%s$" % (forward, cross)
        with pytest.raises(StructureViolation, match=message):
            g.is_admissible(C)


def test_empty_set_admissible():
    assert g.is_admissible(g.relation_set(2, []))


def test_catalog_admissible(module_catalog):
    for name, M in module_catalog:
        assert g.is_admissible(M.C), name
        assert g.is_realization(M.C, M.seed), name
        assert g.is_noncritical_for(M.C, M.seed), name


def test_adjoining_pair_needs_avoiding_path():
    # path through the intermediate vertex (3,2) does not adjoin (3,1),(3,3)
    C = g.relation_set(2, [((3, 1), (3, 2)), ((3, 2), (3, 3))])
    assert ((3, 1), (3, 3)) not in adjoining_pairs(C)
    assert ((3, 1), (3, 2)) in adjoining_pairs(C)


def test_noncritical_requires_realization():
    T = g.tableau(1, [[F(0)], [F(0), F(1, 2)]])
    C = g.relation_set(1, [((2, 2), (1, 1))])
    with pytest.raises(NotARealization):
        g.is_noncritical_for(C, T)


def test_rank_mismatch_is_rejected_both_ways():
    T2 = g.tableau(2, [[F(-1)], [F(-1), F(-1, 2)], [F(-1), F(-1, 2), F(-3, 2)]])
    T3 = g.tableau(3, [[F(0)], [F(0), F(1, 2)], [F(0), F(1, 2), F(1, 3)], [F(0)] * 4])
    for C, T in ((chain_c(3), T2), (chain_c(2), T3)):
        with pytest.raises(RankMismatch):
            g.satisfies(T, C)
        with pytest.raises(RankMismatch):
            g.is_realization(C, T)
        with pytest.raises(RankMismatch):
            g.is_noncritical_for(C, T)


def _forbid(monkeypatch, *names):
    """Make the named functions of gtrel.relations fail whenever called."""
    from gtrel import relations

    def forbidden(name):
        def fail(*args):
            raise AssertionError("relations.%s%r called" % (name, args))

        return fail

    for name in names:
        monkeypatch.setattr(relations, name, forbidden(name))


def test_a_huge_rank_is_validated_without_its_universe(monkeypatch):
    # R has O(n^3) arrows at rank n; a rank read from JSON can be huge, so
    # validation classifies the arrows one by one and builds no table of
    # the rank, neither its layout nor its interned arrows
    _forbid(monkeypatch, "_layout", "_arrows")
    obj = {"n": 10**9, "relations": [[[2, 1], [1, 1]]]}
    assert g.relset_from_json(obj).relations == {((2, 1), (1, 1))}
    obj["relations"].append([[1, 1], [3, 1]])
    with pytest.raises(ValueError, match="not a legal relation"):
        g.relset_from_json(obj)
    assert g.relation_set(3, [((2, 1), (1, 1))]).relations == {((2, 1), (1, 1))}
    with pytest.raises(ValueError, match="not a legal relation for n=3"):
        g.relation_set(3, [((2, 1), (1, 1)), ((1, 1), (3, 1))])


def test_sets_legal_by_construction_are_not_classified_again(monkeypatch):
    # the maximal set takes its arrows from R, the reduction and difference
    # from a validated set: none classifies them again, while the public
    # constructors still reject an illegal arrow
    T = g.tableau(3, [[F(0)], [F(1), F(-1)], [F(1), F(0), F(-1)], [F(2), F(1), F(1), F(-2)]])
    chain = chain_c(3)
    calls = _count_calls(monkeypatch, "relation_kind")
    S = g.satisfied_relations(T)
    R = g.reduce_relations(S)
    D = S.difference(sorted(R.relations)[:2])
    C = chain.difference([((2, 1), (1, 1))])
    assert len(R.relations) < len(S.relations) and D.relations < S.relations
    assert calls == {"relation_kind": 0}
    monkeypatch.undo()
    assert S == g.relation_set(3, S.relations) and R == g.relation_set(3, R.relations)
    assert D == g.relation_set(3, D.relations) and C == g.relation_set(3, C.relations)
    calls = _count_calls(monkeypatch, "relation_kind")
    illegal = ((1, 1), (3, 1))
    for build in (
        lambda: g.relation_set(3, [illegal]),
        lambda: S.union([illegal]),
        lambda: g.relset_from_json({"n": 3, "relations": [[[1, 1], [3, 1]]]}),
    ):
        with pytest.raises(ValueError, match="not a legal relation for n=3"):
            build()
    assert calls["relation_kind"] >= 3


def test_a_module_is_read_and_verified_without_its_universe(monkeypatch):
    # reading and verifying a module takes no satisfied set, so it interns
    # no arrow; the layout that BasisChecker and the graph read holds none
    from gtrel import relations

    for M in (
        g.hw_module_of((F(-1, 2), F(-1, 3))),
        g.hw_module_of(tuple(F(1, 2) for _ in range(20))),
    ):
        obj = json.loads(json.dumps(g.module_to_json(M)))
        with monkeypatch.context() as patch:
            _forbid(patch, "_arrows")
            relations._layout.cache_clear()  # the layout is built afresh
            M2 = g.module_from_json(obj)
            assert M2 == M
            assert g.verify_axioms(M2, box=0, samples=20)["failures"] == []


def test_relset_json_round_trip(module_catalog):
    for name, M in module_catalog:
        obj = g.relset_to_json(M.C)
        assert g.relset_from_json(obj) == M.C, name


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


CATALOG_JSON = [json.loads(json.dumps(g.module_to_json(M))) for _, M in catalog()]
# what the checked reader rejects or reads with a different meaning: bools,
# floats, strings, null, ints beyond 64 bits or past the 4,300 digits repr
# writes, ranks and entries out of range
BAD_VALUES = st.sampled_from(
    [True, False, 1.0, 2.5, "1", "", None, 2**64, -(10**30), 10**5000, 0, -1, 7]
)


def _slots(node, holder, key):
    """Every (container, key) under holder[key], that slot first."""
    yield holder, key
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _slots(v, node, k)
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _slots(v, node, k)


@st.composite
def mutated_modules(draw):
    """A catalog module's JSON with up to three edits in its relation set:
    an entry, a position, an arrow, the arrow list, the rank or the set
    replaced by a bad value, by a tuple or a dict of the same items, cut
    short or made longer, or a key of the set dropped."""
    obj = copy.deepcopy(draw(st.sampled_from(CATALOG_JSON)))
    for _ in range(draw(st.integers(0, 3))):
        holder, key = draw(st.sampled_from(list(_slots(obj["relations"], obj, "relations"))))
        value = holder[key]
        edits = [draw(BAD_VALUES)]
        if isinstance(value, list):
            edits += [tuple(value), dict(enumerate(value)), value[:-1], value + value[-1:], [0] + value]
        if isinstance(value, dict):
            edits += [list(value.values())]
            edits += [{k: v for k, v in value.items() if k != drop} for drop in value]
        holder[key] = draw(st.sampled_from(edits))
    return obj


@settings(max_examples=600, deadline=None)
@given(mutated_modules())
def test_relset_from_json_matches_the_checked_reader(obj):
    # equal sets, or the same exception type and message
    expected = _outcome(relset_from_json_by_checks, obj["relations"])
    assert _outcome(g.relset_from_json, obj["relations"]) == expected
    module = _outcome(g.module_from_json, obj)
    if isinstance(expected, tuple):
        assert module == expected
    elif isinstance(module, g.GTModule):
        assert module.C == expected


@settings(max_examples=30)
@given(st.integers(1, 3), st.data())
def test_random_subsets_kind_closed(n, data):
    universe = full_relation_universe(n)
    rels = data.draw(st.lists(st.sampled_from(universe), max_size=6))
    C = g.relation_set(n, rels)
    for rel in C.relations:
        assert relation_kind(C.n, *rel) in (RPLUS, RMINUS, RZERO)


# ---------------------------------------------------------------------------
# the bitmask kernel against a depth-first search over sets


def _positions(at, mask):
    return {p for v, p in enumerate(at) if mask >> v & 1}


def _strictly_reached(adj, kinds, start, skip_edge=None):
    best = _strict_reachable_from(adj, kinds, start, skip_edge)
    return {q for q, strict in best.items() if strict}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.data())
def test_mask_kernel_matches_set_search(n, data):
    universe = full_relation_universe(n)
    rels = set(data.draw(st.lists(st.sampled_from(universe), max_size=40)))
    # two-cycles of the top row, as equal top entries give
    top = [rel for rel in universe if rel[0][0] == rel[1][0]]
    twins = data.draw(st.lists(st.sampled_from(top), max_size=4))
    rels |= {rel for a, b in twins for rel in ((a, b), (b, a))}
    L = _layout(n)
    fwd, rev = _masks(L, rels)
    adj = _adjacency(rels)
    kinds = {rel: relation_kind(n, *rel) for rel in rels}
    at = all_positions(n)
    for v, p in enumerate(at):
        row = L.rows[p[0]]
        reach = _positions(at, _closure(fwd, 1 << v))
        assert reach == _reachable_from(adj, p)
        blocked = _reachable_from(adj, p, blocked=_positions(at, row))
        assert _positions(at, _closure(fwd, 1 << v, row)) == blocked
        # every walk from row k to row k+1 is strict, so plain reach into
        # the next row is strict reach there: the reduction reads no other
        if p[0] <= n:
            up = _positions(at, L.rows[p[0] + 1])
            assert reach & up == _strictly_reached(adj, kinds, p) & up
    # one arrow skipped: cleared from its mask, searched, then restored,
    # as the reduction searches from the tail of a candidate on a cycle
    for frm, to in sorted(rels):
        a, bit = L.index[frm], 1 << L.index[to]
        fwd[a] ^= bit
        skipped = _positions(at, _closure(fwd, 1 << a))
        fwd[a] ^= bit
        assert skipped == _reachable_from(adj, frm, skip_edge=(frm, to))
        if frm[0] <= n:
            up = _positions(at, L.rows[frm[0] + 1])
            strict = _strictly_reached(adj, kinds, frm, skip_edge=(frm, to))
            assert skipped & up == strict & up
    components = undirected_components(g.relation_set(n, rels))
    got = {frozenset(_positions(at, c)) for c in _components(fwd, rev)}
    assert got == set(map(frozenset, components))


@st.composite
def mask_graphs(draw):
    """(n, adj): out-masks over the positions of rank n, with any arrows
    (cycles of every length and loops among them) and two-cycles."""
    n = draw(st.integers(1, 5))
    size = (n + 1) * (n + 2) // 2
    heads = st.lists(st.integers(0, size - 1), max_size=draw(st.integers(0, 4)))
    adj = [sum(1 << w for w in set(draw(heads))) for _ in range(size)]
    for a, b in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=4)):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return n, adj


@settings(max_examples=300, deadline=None)
@given(mask_graphs())
def test_reach_table_matches_a_search_per_position(graph):
    _, adj = graph
    assert _reach_table(adj) == reach_by_closures(adj)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_forward_order_and_reduction_match_per_position_searches_with_two_cycles(n, data):
    universe = full_relation_universe(n)
    rels = set(data.draw(st.lists(st.sampled_from(universe), max_size=30)))
    # equal top entries: both arrows of a top-row pair
    top = [rel for rel in universe if rel[0][0] == rel[1][0]]
    twins = data.draw(st.lists(st.sampled_from(top), max_size=3))
    rels |= {rel for a, b in twins for rel in ((a, b), (b, a))}
    C = g.relation_set(n, rels)
    L = _layout(n)
    fwd, rev, comp = C._graph
    forward, cross = _structure(L, C.relations, fwd, rev, comp, _reach_table(fwd))
    assert forward == forward_ordered_by_closures(C) == forward_ordered(C)
    assert cross == cross_free(C)
    assert g.reduce_relations(C) == reduce_relations_per_candidate(C)


# ---------------------------------------------------------------------------
# the reduction against its one-rebuild-per-candidate reference


def _rational(draw):
    return F(draw(st.integers(-8, 8)), draw(st.sampled_from((1, 2, 3))))


@st.composite
def hw_weights(draw):
    """A weight of rank 2..5 that hw_module_of accepts.  With `defect` the
    weight is a case-a weight with a nonpositive-integer pairing on a
    last-column root, the family where hw_module_of is known to raise
    StructureViolation; otherwise it is any weight that is not NotRelation."""
    n = draw(st.integers(2, 5))
    lam = [_rational(draw) for _ in range(n)]
    defect = draw(st.booleans())
    if defect:
        # make <lam + rho, alpha_{r,n}> = -p for a drawn r and p >= 0
        r = draw(st.integers(1, n))
        p = draw(st.integers(0, 4))
        lam[n - 1] = -p - sum(lam[k - 1] + 1 for k in range(r, n)) - 1
    lam = tuple(lam)
    tag = g.hw_relation_case(lam).tag
    assume(tag == "CaseA" if defect else tag != "NotRelation")
    return lam


@settings(max_examples=40, deadline=None)
@given(hw_weights())
def test_reduce_matches_reference_on_hw_weights(lam):
    # every reduction the constructor and is_simple compute, including the
    # sets of weights that end in StructureViolation; recorded where the
    # work is done, behind reduce_relations' return of a reduced set
    relations = sys.modules["gtrel.relations"]
    reduce = relations._reduce
    seen = []

    def recording(C):
        seen.append(C)
        return reduce(C)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_reduce", recording)
        try:
            g.is_simple(g.hw_module_of(lam))
        except StructureViolation:
            pass
    assert seen
    for C in seen:
        assert g.reduce_relations(C) == reduce_relations_per_candidate(C)
        _assert_marks_hold(C)


def _assert_marks_hold(C):
    """A reduced set is returned as it is and is a fixed point of the
    reference; a stored admissibility is the verdict on a fresh equal set."""
    R = g.reduce_relations(C)
    assert g.reduce_relations(R) is R
    assert R == reduce_relations_per_candidate(R)
    if "_admissible" in vars(R):
        assert R._admissible == g.is_admissible(g.relation_set(R.n, R.relations))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_reduction_marks_hold_on_random_subsets_with_two_cycles(n, data):
    universe = full_relation_universe(n)
    rels = data.draw(st.lists(st.sampled_from(universe), max_size=30))
    twins = data.draw(st.lists(st.sampled_from(rels), max_size=4)) if rels else []
    _assert_marks_hold(g.relation_set(n, rels + [(b, a) for a, b in twins]))


@st.composite
def sets_with_strict_cycles(draw):
    """A relation set of rank 1..4: random arrows plus one to three closed
    walks between adjacent rows, each a strict cycle (it enters a higher
    row, R-, as often as it leaves one, R+, and does so at least once); a
    walk up one row and back down is a two-cycle."""
    n = draw(st.integers(1, 4))
    universe = full_relation_universe(n)
    rels = set(draw(st.lists(st.sampled_from(universe), max_size=20)))
    for _ in range(draw(st.integers(1, 3))):
        steps = draw(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=3))
        heights = [0]
        for step in steps + [-step for step in reversed(steps)]:
            heights.append(heights[-1] + step)
        low, high = min(heights), max(heights)
        assume(high - low <= n)
        base = draw(st.integers(1 - low, n + 1 - high))
        walk = [(base + h, draw(st.integers(1, base + h))) for h in heights[:-1]]
        rels |= set(zip(walk, walk[1:] + walk[:1]))
    return g.relation_set(n, rels)


@settings(max_examples=200, deadline=None)
@given(sets_with_strict_cycles())
def test_reduction_matches_reference_on_sets_with_strict_cycles(C):
    # a tail on a strict cycle sends the reduction to its search with the
    # candidate cleared, the strict one reading a fresh reach table
    assert g.reduce_relations(C) == reduce_relations_per_candidate(C)
    _assert_marks_hold(C)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_reduce_and_structure_match_reference_on_random_subsets(n, data):
    universe = full_relation_universe(n)
    C = g.relation_set(n, data.draw(st.lists(st.sampled_from(universe), max_size=30)))
    reduced = g.reduce_relations(C)
    assert reduced == reduce_relations_per_candidate(C)
    assert g.check_structure(C) == {
        "reduced": reduced.relations == C.relations,
        "forward_ordered": forward_ordered(C),
        "cross_free": cross_free(C),
    }


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_adjoining_pairs_match_reference_on_forward_ordered_sets(n, data):
    # keep each drawn arrow that leaves the set forward-ordered
    universe = full_relation_universe(n)
    rels = set()
    for rel in data.draw(st.lists(st.sampled_from(universe), max_size=40)):
        trial = g.relation_set(n, rels | {rel})
        if forward_ordered(trial):
            rels.add(rel)
    C = g.relation_set(n, rels)
    assert adjoining_pairs(C) == adjoining_pairs_per_pair(C)
    L = _layout(n)
    assert _diamond_at(L, *_masks(L, C.relations), range(1, n + 1)) == diamond_ok(C)


def test_reduction_checks_the_diamond_without_the_two_cycle_arrows():
    # the adjacency the reduction searches for implications also holds the
    # dropped arrows of two-cycles; on it (2,1) would adjoin (2,2) through
    # (2,1) -> (3,3) -> (3,1) -> (2,2), a pair the working set lacks, and
    # the drop of ((2,2), (3,3)) would be refused
    C = g.relation_set(
        2,
        [
            ((2, 1), (3, 2)), ((2, 1), (3, 3)), ((2, 2), (3, 2)), ((2, 2), (3, 3)),
            ((3, 1), (2, 2)), ((3, 1), (3, 3)), ((3, 2), (2, 1)), ((3, 2), (3, 3)),
            ((3, 3), (2, 1)), ((3, 3), (3, 1)),
        ],
    )
    assert g.reduce_relations(C) == reduce_relations_per_candidate(C)


def test_reduction_rescans_an_arrow_held_for_the_diamond():
    # the strict cycle (3,3) -> (4,1) -> (3,3), which no tableau satisfies,
    # makes an arrow held back for the diamond condition droppable after a
    # later drop: a phase 2 that scans on past the drop, never going back
    # to it, keeps ((3,2),(4,1)) and ((3,2),(4,2)) where the reference does
    # not
    C = g.relation_set(
        3,
        [
            ((1, 1), (2, 1)), ((3, 2), (4, 1)), ((3, 2), (4, 2)), ((3, 2), (4, 4)),
            ((3, 3), (2, 1)), ((3, 3), (4, 1)), ((3, 3), (4, 4)), ((4, 1), (3, 3)),
            ((4, 1), (4, 2)), ((4, 2), (3, 3)), ((4, 2), (4, 1)), ((4, 2), (4, 4)),
            ((4, 4), (4, 2)),
        ],
    )
    assert g.reduce_relations(C) == reduce_relations_per_candidate(C)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_two_row_diamond_check_matches_the_full_check(n, from_seed, data):
    # a forward-ordered, cross-free, diamond-ok set: random arrows, or an
    # hw module's relation set plus arrows its seed satisfies, each kept
    # when the set stays so
    rels = set()
    if from_seed:
        lam = tuple(_rational(data.draw) for _ in range(n))
        try:
            M = g.hw_module_of(lam)
        except g.GtrelError:
            assume(False)
        rels = set(M.C.relations)
        sat = sorted(g.satisfied_relations(M.seed).relations)
        order = data.draw(st.permutations(sat))[: data.draw(st.integers(0, len(sat)))]
    else:
        universe = full_relation_universe(n)
        order = data.draw(st.lists(st.sampled_from(universe), max_size=40))
    for rel in order:
        trial = g.relation_set(n, rels | {rel})
        if forward_ordered(trial) and cross_free(trial) and diamond_ok(trial):
            rels.add(rel)
    L = _layout(n)
    fwd, rev = _masks(L, rels)
    for rel in sorted(rels):
        full = _diamond_at(L, *_masks(L, rels - {rel}), range(1, n + 1))
        assert _diamond_kept(L, fwd, rev, rel) == full, rel


# ---------------------------------------------------------------------------
# the scaled integer entries against Fraction differences

# residues mod Z with negative numerators and mixed denominators; -1/2 and
# 1/2 share a class, and so do -2/3 and 1/3
RESIDUES = (F(0), F(1, 2), F(-1, 2), F(1, 3), F(-2, 3), F(-5, 6), F(-7, 4))


@st.composite
def class_tableaux(draw):
    n = draw(st.integers(1, 4))
    rows = [
        [draw(st.sampled_from(RESIDUES)) + draw(st.integers(-3, 3)) for _ in range(k)]
        for k in range(1, n + 2)
    ]
    return g.tableau(n, rows)


@st.composite
def scan_tableaux(draw, n):
    """Tableaux of rank n with entries a/b, b in 1..6, from a pool of at
    most four, so rows repeat entries and top entries tie; a row may be
    all integral."""
    pool = draw(
        st.lists(st.builds(F, st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=4)
    )
    rows = []
    for k in range(1, n + 2):
        if draw(st.booleans()):
            rows.append([F(draw(st.integers(-2, 2))) for _ in range(k)])
        else:
            rows.append([draw(st.sampled_from(pool)) for _ in range(k)])
    return g.tableau(n, rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(scan_tableaux(n), scan_tableaux(n))))
def test_class_scan_matches_the_universe_scan(pair):
    # and every arrow is the one tuple interned for its rank, so two seeds
    # of a rank share their arrow objects
    T1, T2 = pair
    S1, S2 = g.satisfied_relations(T1), g.satisfied_relations(T2)
    assert S1 == satisfied_relations_by_universe(T1)
    assert S2 == satisfied_relations_by_universe(T2)
    arrows = {rel: rel for rel in S1.relations}
    for rel in S2.relations:
        assert arrows.get(rel, rel) is rel
    assert all(_arrows(T1.n)[rel] is rel for rel in S1.relations | S2.relations)


def test_satisfied_sets_intern_only_the_arrows_they_meet():
    # the generic sl31 seed (entries -k/31) satisfies 705 of the 20,770
    # arrows of R, and the table of rank 30 then holds those alone; a second
    # seed of the rank hands out the same objects for the arrows it shares
    seed = g.hw_module_of(tuple(F(-k, 31) for k in range(1, 31))).seed
    _arrows.cache_clear()
    S = g.satisfied_relations(seed)
    assert len(_arrows(30)) == len(S.relations) == 705
    other = g.hw_module_of(tuple(F(-k, 31) for k in range(2, 32))).seed
    S2 = g.satisfied_relations(other)
    assert len(_arrows(30)) == len(S.relations | S2.relations)
    mine = {rel: rel for rel in S.relations}
    shared = [rel for rel in S2.relations if rel in mine]
    assert shared and all(mine[rel] is rel for rel in shared)


def _noncritical_or_error(fn, C, T):
    try:
        return fn(C, T)
    except NotARealization:
        return "NotARealization"


@settings(max_examples=300, deadline=None)
@given(class_tableaux(), st.data())
def test_integer_classes_match_fraction_differences(T, data):
    n = T.n
    universe = full_relation_universe(n)
    sat = satisfied_relations_by_diff(T)
    assert g.satisfied_relations(T).relations == sat
    for rel in universe:
        # the bound is the strictness less the integer gap, if there is one
        t = _bound(T.scaled, *rel)
        gap = T.entry(*rel[0]) - T.entry(*rel[1])
        strict = relation_kind(n, *rel) == RMINUS
        assert t == (strict - gap if gap.denominator == 1 else None)
        assert (t is not None and t <= 0) == (rel in sat)
    drawn = data.draw(st.lists(st.sampled_from(universe), max_size=10))
    held = data.draw(st.lists(st.sampled_from(sorted(sat) or [None]), max_size=10))
    sets = [
        g.relation_set(n, drawn),
        g.relation_set(n, [rel for rel in held if rel is not None]),
        g.relation_set(n, sat),
        g.reduce_relations(g.relation_set(n, sat)),
    ]
    for C in sets:
        assert g.satisfies(T, C) == satisfies_by_diff(T, C)
        assert g.is_realization(C, T) == is_realization_by_diff(C, T)
        assert _noncritical_or_error(g.is_noncritical_for, C, T) == (
            _noncritical_or_error(is_noncritical_by_diff, C, T)
        )
    for C in sets[1:]:
        assert BasisChecker(C, T).constraints == _node_constraints_by_diff(C, T)


def _node_constraints_by_diff(C, T):
    """constraints_by_diff on nodes: a position's node is its flat index,
    every top-row position the one node after rows 1..n."""
    n = C.n
    index, size = _layout(n).index, n * (n + 1) // 2

    def node(pos):
        return size if pos[0] == n + 1 else index[pos]

    return [(node(a), node(b), t) for a, b, t in constraints_by_diff(C, T)]


@settings(max_examples=300, deadline=None)
@given(class_tableaux(), st.data())
def test_basis_checker_raises_exactly_when_the_seed_violates_the_set(T, data):
    n = T.n
    universe = full_relation_universe(n)
    sat = sorted(satisfied_relations_by_diff(T))
    # arrows of the whole universe, or arrows the seed satisfies and at most
    # one more
    pool = data.draw(st.sampled_from([universe, sat])) if sat else universe
    rels = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    rels += data.draw(st.lists(st.sampled_from(universe), max_size=1))
    C = g.relation_set(n, rels)
    if not satisfies_by_diff(T, C):
        with pytest.raises(SeedViolatesRelations):
            BasisChecker(C, T)
    else:
        assert BasisChecker(C, T).constraints == _node_constraints_by_diff(C, T)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_reduce_matches_reference_on_satisfied_subsets_with_equal_top_entries(n, data):
    # equal top entries give two-cycles, whose tails the reduction searches
    # without the arrow instead of reading the reach masks
    pool = data.draw(st.lists(st.sampled_from(RESIDUES), min_size=1, max_size=2))

    def entry():
        return data.draw(st.sampled_from(pool)) + data.draw(st.integers(-1, 1))

    T = g.tableau(n, [[entry() for _ in range(k)] for k in range(1, n + 2)])
    sat = sorted(T.satisfied.relations)
    rels = data.draw(st.lists(st.sampled_from(sat), unique=True)) if sat else []
    C = g.relation_set(n, rels)
    assert g.reduce_relations(C) == reduce_relations_per_candidate(C)
