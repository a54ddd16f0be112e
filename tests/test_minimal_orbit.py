from fractions import Fraction as F

import importlib
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.errors import BadTwist, BranchNotLocalizable, StructureViolation
from gtrel.minimal_orbit import (
    Level,
    MinOrbitWeight,
    admissible_level,
    dot_action,
    hw_orbit_list,
    minimal_orbit_reps,
    rep_weight,
)
from oracles import count_minimal_orbit_reps

classify = importlib.import_module("gtrel.classify")
minimal_orbit = importlib.import_module("gtrel.minimal_orbit")
classify_hw_relation_case = classify.hw_relation_case


def test_level_arithmetic():
    lvl = Level(2, 3, 2)
    assert lvl.k == F(-3, 2)
    assert admissible_level(2, F(-3, 2)) == (3, 2)
    assert admissible_level(2, F(-3)) is None  # p/q = 0 < n+1
    with pytest.raises(ValueError):
        Level(2, 4, 2)
    with pytest.raises(ValueError):
        Level(3, 3, 2)


def test_level_checks_ranges_before_coprimality():
    # q = 0 is out of range, whatever gcd(p, 0) = p says
    for n, p, q in ((2, 3, 0), (2, 4, 0), (2, 2, 3), (2, 3, -1)):
        with pytest.raises(ValueError, match=r"need p >= n\+1 and q >= 1"):
            Level(n, p, q)
    with pytest.raises(ValueError, match="p and q must be coprime"):
        Level(2, 4, 2)
    with pytest.raises(ValueError, match="need n >= 1"):
        Level(0, 3, 0)


def test_reps_sl3_principal():
    lvl = Level(2, 3, 2)
    reps = list(minimal_orbit_reps(lvl))
    assert len(reps) == count_minimal_orbit_reps(lvl) == 1
    rep, w = reps[0]
    assert rep == MinOrbitWeight((0, 0), 1)
    assert w == (F(-3, 2), F(0))


def test_reps_sl3_larger_level():
    lvl = Level(2, 5, 2)
    reps = list(minimal_orbit_reps(lvl))
    assert len(reps) == count_minimal_orbit_reps(lvl) == 6
    bars = {rep.lambda_bar for rep, _ in reps}
    assert bars == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    for rep, w in reps:
        assert w == rep_weight(lvl, rep)
        assert w[0] == rep.lambda_bar[0] - F(5, 2)


def test_count_no_reps_at_integer_level():
    assert count_minimal_orbit_reps(Level(2, 3, 1)) == 0
    assert list(minimal_orbit_reps(Level(2, 3, 1))) == []


def test_dot_action():
    # s_k . lam at lam + rho coordinates: negate c_k, add it to neighbors
    lam = (F(-3, 2), F(0))
    assert dot_action([1], lam) == (F(-1, 2), F(-1, 2))
    assert dot_action([2, 1], lam) == (F(0), F(-3, 2))
    assert dot_action([1, 1], lam) == lam
    with pytest.raises(ValueError):
        dot_action([3], lam)


def test_orbit_chain_cases():
    lvl = Level(2, 3, 2)
    rep = MinOrbitWeight((0, 0), 1)
    chain = hw_orbit_list(lvl, rep)
    assert [w for w, _ in chain] == [
        (F(-3, 2), F(0)),
        (F(-1, 2), F(-1, 2)),
        (F(0), F(-3, 2)),
    ]
    assert all(case.tag == "CaseA" for _, case in chain)


# every (level, representative) with n = 2..4, p <= n + 4 and q <= 4
LEVEL_REPS = [
    (lvl, rep)
    for n in range(2, 5)
    for q in range(2, 5)
    for p in range(n + 1, n + 5)
    if gcd(p, q) == 1
    for lvl in [Level(n, p, q)]
    for rep, _ in minimal_orbit_reps(lvl)
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(LEVEL_REPS),
    st.booleans(),
    st.integers(-6, 6),
    st.sampled_from((1, 2, 3, 4, 6)),
)
def test_first_branch_builds_iff_the_twist_is_dense(level_rep, off_level, k, d):
    # on the chain's first weight, x must avoid Z and a p/q + Z; x is drawn
    # near one of the two lattices so that both verdicts come up often
    lvl, rep = level_rep
    ap_q = F(rep.a * lvl.p, lvl.q)
    x = (ap_q if off_level else 0) + F(k, d)
    branch = rep_weight(lvl, rep)
    if x.denominator != 1 and (x - ap_q).denominator != 1:
        assert g.build_sl2_induced_minimal(lvl, rep, branch, x).x == x
    else:
        with pytest.raises(BadTwist):
            g.build_sl2_induced_minimal(lvl, rep, branch, x)


def test_hw_module_of_dispatch():
    M = g.hw_module_of((F(-3, 2), F(0)))
    assert g.weight_of(M.seed) == (F(-3, 2), F(0))
    M = g.hw_module_of((F(-2), F(0)))  # CaseB(1,1)
    assert g.weight_of(M.seed) == (F(-2), F(0))
    with pytest.raises(BranchNotLocalizable):
        g.hw_module_of((F(-2), F(3)))


def test_admissible_level_rejects_a_rank_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            admissible_level(n, F(1, 2))


@pytest.mark.parametrize("lam", [(F(-3, 2), F(0)), (F(-2), F(0)), (F(1, 3), F(-7, 3))])
def test_hw_module_of_classifies_the_weight_once(monkeypatch, lam):
    calls = []

    def counted(weight):
        calls.append(weight)
        return classify_hw_relation_case(weight)

    # the tableau constructors read it off the classify module
    monkeypatch.setattr(classify, "hw_relation_case", counted)
    monkeypatch.setattr(minimal_orbit, "hw_relation_case", counted)
    g.hw_module_of(lam)
    assert calls == [lam]


def _public_route(lam):
    """The module of the public constructor of lam's case, or the type of
    what it raises."""
    case = classify_hw_relation_case(lam)
    try:
        if case.tag == "CaseA":
            T, C = g.hw_tableau_case_a(lam)
        else:
            T, C = g.hw_tableau_case_b(lam, case.i, case.j)
        return g.module(T, C)
    except Exception as exc:
        return type(exc)


def _hw_module_of_route(lam):
    try:
        return g.hw_module_of(lam)
    except Exception as exc:
        return type(exc)


# the case-a weights of ROADMAP item 3, on which both routes raise
ITEM_3_WEIGHTS = [
    (F(7), F(-2)),
    (F(-3, 2), F(2), F(-2)),
    (F(7, 3), F(-1, 2), F(5, 2), F(-2)),
]


@pytest.mark.parametrize("lam", ITEM_3_WEIGHTS)
def test_hw_module_of_raises_as_the_public_constructor_on_item_3(lam):
    assert _hw_module_of_route(lam) is _public_route(lam) is StructureViolation


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_hw_module_of_matches_the_public_constructor_on_the_defect_family(n, data):
    # a case-a weight with <lam + rho, alpha_{r,n}> = -p, p >= 0: the family
    # where the reduced maximal set can fail to be cross-free
    lam = [
        F(data.draw(st.integers(-8, 8)), data.draw(st.sampled_from((1, 2, 3))))
        for _ in range(n)
    ]
    r, p = data.draw(st.integers(1, n)), data.draw(st.integers(0, 4))
    lam[n - 1] = -p - sum(lam[k - 1] + 1 for k in range(r, n)) - 1
    lam = tuple(lam)
    assume(classify_hw_relation_case(lam).tag == "CaseA")
    assert _hw_module_of_route(lam) == _public_route(lam)


def test_build_induced_values():
    lvl = Level(2, 3, 2)
    rep = MinOrbitWeight((0, 0), 1)
    ind = g.build_sl2_induced_minimal(lvl, rep, (F(-3, 2), F(0)), F(1, 3))
    assert ind.gamma == F(1, 4)
    assert ind.mu == (F(-5, 6), F(-1, 3))
    assert ind.module.seed.rows[0][0] == F(-1) + F(1, 3)
    report = g.verify_axioms(ind.module, box=2, samples=30, seed=5)
    assert report["failures"] == []


def test_build_induced_errors():
    lvl = Level(2, 3, 2)
    rep = MinOrbitWeight((0, 0), 1)
    with pytest.raises(BranchNotLocalizable):
        g.build_sl2_induced_minimal(lvl, rep, (F(1), F(1)), F(1, 3))
    with pytest.raises(BadTwist):
        g.build_sl2_induced_minimal(lvl, rep, (F(-3, 2), F(0)), F(2))
    with pytest.raises(BadTwist):
        # x + <branch+rho, a1> integral
        g.build_sl2_induced_minimal(lvl, rep, (F(-3, 2), F(0)), F(1, 2))


def test_build_induced_round_trips_through_classifier():
    from gtrel.classify import Sl2InducedParams

    lvl = Level(2, 3, 2)
    rep = MinOrbitWeight((0, 0), 1)
    ind = g.build_sl2_induced_minimal(lvl, rep, (F(-3, 2), F(0)), F(1, 3))
    branches = g.resolve_sl2_induced(Sl2InducedParams(ind.gamma, ind.mu))
    assert (ind.branch, ind.x) in {(lam, x) for lam, x, _ in branches}
