from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.errors import (
    GtrelError,
    NotCaseA,
    NotCaseB,
    PreconditionViolated,
    RankMismatch,
)
from gtrel.tableau import (
    BasisChecker,
    shift_add,
    shift_from_json,
    shift_neg,
    shift_to_json,
    weight_delta,
)
from oracles import brute_force_basis_box


def test_case_a_seed_values():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    assert T.rows == (
        (F(-1),),
        (F(-1), F(-1, 2)),
        (F(-1), F(-1, 2), F(-3, 2)),
    )
    assert g.weight_of(T) == (F(-3, 2), F(0))


def test_case_a_rejects_other_cases():
    with pytest.raises(NotCaseA):
        g.hw_tableau_case_a((F(-2), F(0)))


def test_case_b_seed_weight():
    T, C = g.hw_tableau_case_b((F(-2), F(0)), 1, 1)
    assert g.weight_of(T) == (F(-2), F(0))
    with pytest.raises(NotCaseB):
        g.hw_tableau_case_b((F(-3, 2), F(0)), 1, 1)


def test_normalization_knob():
    T, _ = g.hw_tableau_case_a((F(-3, 2), F(0)), normalization="sl2")
    assert sum(T.rows[2]) == F(-3)
    T2, _ = g.hw_tableau_case_a((F(-3, 2), F(0)))
    assert sum(T2.rows[2]) == F(-3)  # binom(3,2) happens to equal n+1 here
    T3, _ = g.hw_tableau_case_a((F(-5, 2), F(0), F(1)), normalization="sl2")
    assert sum(T3.rows[3]) == F(-4)


def test_family_preconditions():
    with pytest.raises(PreconditionViolated):
        g.family_tableau((F(1), F(1, 3), F(1, 5)), (F(2), F(0)))  # u1 - v1 in Z
    with pytest.raises(PreconditionViolated):
        g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), (F(0), F(2)))  # v not dec
    with pytest.raises(PreconditionViolated):
        g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), (F(2), F(0)), m=2)  # u2 != u3


def test_weight_of_seed_matches_delta():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    z = g.unit_shift(2, 2, 1)
    shifted = g.apply_shift(T, z)
    base = g.weight_of(T)
    delta = weight_delta(2, z)
    assert g.weight_of(shifted) == tuple(b + d for b, d in zip(base, delta))


@settings(max_examples=50)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_basis_checker_matches_satisfies(flat):
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    z = ((flat[0],), (flat[1], flat[2]))
    checker = BasisChecker(C, T)
    assert checker.check(z) == g.satisfies(g.apply_shift(T, z), C)


def test_enumerate_basis_box_subset(hw_module):
    small = set(g.enumerate_basis_box(hw_module.C, hw_module.seed, 2))
    big = set(g.enumerate_basis_box(hw_module.C, hw_module.seed, 3))
    assert small <= big
    assert all(hw_module.in_basis(z) for z in big)


def test_box_completeness_flag(module_catalog):
    # only the integral dominant module has every entry pinned to the
    # fixed top row in both directions
    for name, M in module_catalog:
        assert M.checker.bounded == (name == "hw-a-n2-dominant"), name


def test_enumeration_matches_brute_force(module_catalog):
    for name, M in module_catalog:
        for box in range(4):
            got = g.enumerate_basis_box(M.C, M.seed, box)
            assert got == brute_force_basis_box(M.C, M.seed, box), (name, box)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=3),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(0, 1),
)
def test_enumeration_matches_brute_force_random(lam, box):
    try:
        M = g.hw_module_of(tuple(lam))
    except (GtrelError, ValueError):
        assume(False)
    got = g.enumerate_basis_box(M.C, M.seed, box)
    assert got == brute_force_basis_box(M.C, M.seed, box)


def test_kernel_ranges_are_exact(module_catalog):
    # every finite end of a kernel range that lies in the box is attained
    # in the box, and no shift leaves its range
    for name, M in module_catalog:
        pool = g.enumerate_basis_box(M.C, M.seed, 4)
        for p, (lo, hi) in enumerate(M.checker.ranges):
            values = {sum(z, ())[p] for z in pool}
            assert lo <= min(values) and max(values) <= hi, (name, p)
            assert all(end in values for end in (lo, hi) if -4 <= end <= 4), (name, p)


def test_kernel_rejects_bad_input(hw_module):
    T3, _ = g.hw_tableau_case_a((F(-5, 2), F(0), F(1)))
    with pytest.raises(RankMismatch):
        BasisChecker(hw_module.C, T3)
    with pytest.raises(RankMismatch):
        g.module(T3, hw_module.C)
    with pytest.raises(ValueError):
        g.enumerate_basis_box(hw_module.C, hw_module.seed, -1)


def test_enumerate_weight_space(hw_module):
    w = g.weight_of(hw_module.seed)
    hits, complete = g.enumerate_weight_space(hw_module.C, hw_module.seed, w, 3)
    assert hits == [g.zero_shift(2)]
    assert not complete  # the module is not confined to any box


def test_shift_algebra():
    z = g.unit_shift(2, 2, 1)
    assert shift_add(z, shift_neg(z)) == g.zero_shift(2)
    assert shift_from_json(shift_to_json(z)) == z
    with pytest.raises(ValueError):
        g.unit_shift(2, 3, 1)  # top row is pinned


def test_tableau_json_round_trip(module_catalog):
    for name, M in module_catalog:
        assert g.tableau_from_json(g.tableau_to_json(M.seed)) == M.seed, name


def test_lem_key_requires_bounded_case():
    with pytest.raises(PreconditionViolated):
        g.lem_key_tableau((F(1), F(1), F(1)), 2)  # integral dominant
    with pytest.raises(PreconditionViolated):
        g.lem_key_tableau((F(0), F(-1, 2), F(-1, 2)), 1)  # need i > 1
