import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.errors import NotARealization, StructureViolation
from gtrel.relations import (
    RMINUS,
    RPLUS,
    RZERO,
    _diamond_ok,
    adjoining_pairs,
    full_relation_universe,
    relation_kind,
    undirected_components,
)
from gtrel.tableau import BasisChecker
from oracles import (
    adjoining_pairs_per_pair,
    cross_free,
    diamond_ok,
    forward_ordered,
    reduce_relations_per_candidate,
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


def test_reduce_keeps_constraint_closure(hw_module):
    sat = g.satisfied_relations(hw_module.seed)
    red = g.reduce_relations(sat)
    assert red.relations <= sat.relations
    assert (
        BasisChecker(red, hw_module.seed).closure
        == BasisChecker(sat, hw_module.seed).closure
    )


def test_reduce_idempotent(module_catalog):
    for name, M in module_catalog:
        red = g.reduce_relations(M.C)
        assert g.reduce_relations(red).relations == red.relations, name


def test_structure_violation_raises():
    C = g.relation_set(2, [((1, 1), (2, 1)), ((2, 1), (1, 1))])
    with pytest.raises(StructureViolation):
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


def test_relset_json_round_trip(module_catalog):
    for name, M in module_catalog:
        obj = g.relset_to_json(M.C)
        assert g.relset_from_json(obj) == M.C, name


@settings(max_examples=30)
@given(st.integers(1, 3), st.data())
def test_random_subsets_kind_closed(n, data):
    universe = full_relation_universe(n)
    rels = data.draw(st.lists(st.sampled_from(universe), max_size=6))
    C = g.relation_set(n, rels)
    for rel in C.relations:
        assert C.kind(rel) in (RPLUS, RMINUS, RZERO)


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
    # every set the constructor and is_simple reduce, including the sets
    # of weights that end in StructureViolation
    tableau_module = sys.modules["gtrel.tableau"]
    action_module = sys.modules["gtrel.action"]
    seen = []

    def recording(C):
        seen.append(C)
        return g.reduce_relations(C)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau_module, "reduce_relations", recording)
        mp.setattr(action_module, "reduce_relations", recording)
        try:
            g.is_simple(g.hw_module_of(lam))
        except StructureViolation:
            pass
    assert seen
    for C in seen:
        assert g.reduce_relations(C) == reduce_relations_per_candidate(C)


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
    assert _diamond_ok(C.n, C.relations) == diamond_ok(C)
