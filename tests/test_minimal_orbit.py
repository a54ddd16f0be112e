from fractions import Fraction as F

import pytest

import gtrel as g
from gtrel.errors import BadTwist, BranchNotLocalizable
from gtrel.minimal_orbit import (
    Level,
    MinOrbitWeight,
    admissible_level,
    dot_action,
    hw_orbit_list,
    minimal_orbit_reps,
    rep_weight,
    sl2_dense_admissible,
)
from oracles import count_minimal_orbit_reps


def test_level_arithmetic():
    lvl = Level(2, 3, 2)
    assert lvl.k == F(-3, 2)
    assert admissible_level(2, F(-3, 2)) == (3, 2)
    assert admissible_level(2, F(-3)) is None  # p/q = 0 < n+1
    with pytest.raises(ValueError):
        Level(2, 4, 2)
    with pytest.raises(ValueError):
        Level(3, 3, 2)


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


def test_sl2_dense_admissible():
    lvl = Level(2, 3, 2)
    assert sl2_dense_admissible(lvl, 0, 1, F(1, 3))
    assert not sl2_dense_admissible(lvl, 0, 1, F(2))  # integral twist
    assert not sl2_dense_admissible(lvl, 0, 1, F(1, 2))  # x - ap/q integral
    assert not sl2_dense_admissible(lvl, 5, 1, F(1, 3))  # lam1 too large
    assert not sl2_dense_admissible(lvl, 0, 2, F(1, 3))  # a out of range


def test_hw_module_of_dispatch():
    M = g.hw_module_of((F(-3, 2), F(0)))
    assert g.weight_of(M.seed) == (F(-3, 2), F(0))
    M = g.hw_module_of((F(-2), F(0)))  # CaseB(1,1)
    assert g.weight_of(M.seed) == (F(-2), F(0))
    with pytest.raises(BranchNotLocalizable):
        g.hw_module_of((F(-2), F(3)))


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
