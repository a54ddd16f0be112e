import gc
from collections import Counter
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
    BasisBox,
    BasisChecker,
    row_sums_of_weight_delta,
    row_sums_weight_delta,
    shift_add,
    shift_from_json,
    shift_to_json,
)
from oracles import backtrack_basis_box, brute_force_basis_box, sweep_by_enumeration


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


def test_seed_constructors_reject_an_unknown_normalization():
    makers = (
        lambda norm: g.hw_tableau_case_a((F(-5, 2), F(0), F(1)), normalization=norm),
        lambda norm: g.hw_tableau_case_b((F(-3), F(0), F(0)), 1, 1, normalization=norm),
        lambda norm: g.lem_key_tableau((0, F(-1, 2), F(-1, 2)), 2, normalization=norm),
    )
    for make in makers:
        # the top row sums to -C(n+1, 2) under "hw", to -(n+1) under "sl2"
        for norm, total in (("hw", -6), ("sl2", -4)):
            T, _ = make(norm)
            assert sum(T.rows[3]) == total, norm
        for norm in ("bogus", "HW", None):
            with pytest.raises(ValueError):
                make(norm)


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
    delta = row_sums_weight_delta([sum(row) for row in z])
    assert g.weight_of(shifted) == tuple(b + d for b, d in zip(base, delta))


@settings(max_examples=200)
@given(st.integers(1, 4), st.data())
def test_weight_matches_the_cartan_map_on_fraction_row_sums(n, data):
    # entries over 1, 2, 3, 4 and 6 with either sign, so the common
    # denominator d of `Tableau.scaled` varies and exceeds every entry's
    entry = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6)))
    rows = [data.draw(st.lists(entry, min_size=k, max_size=k)) for k in range(1, n + 2)]
    T = g.tableau(n, rows)
    sums = [sum(row, F(0)) for row in T.rows]
    want = tuple(F(d) - 1 for d in row_sums_weight_delta(sums[:-1], sums[-1]))
    assert T.weight == want
    assert all(type(x) is F for x in T.weight)


@settings(max_examples=50)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.data())
def test_row_sums_of_weight_delta_inverts_the_cartan_map(sums, data):
    delta = [F(d) for d in row_sums_weight_delta(sums)]
    assert row_sums_of_weight_delta(delta) == tuple(sums)
    # a unit vector is not in the image of the Cartan matrix: the last
    # entry of its inverse image is k / (n + 1)
    k = data.draw(st.integers(0, len(sums) - 1))
    delta[k] += data.draw(st.sampled_from((F(1, 2), F(1))))
    assert row_sums_of_weight_delta(delta) is None


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_basis_checker_matches_satisfies(module_catalog, data):
    # every catalog module, so the node of each position is checked at
    # n = 3 and on sets with top-row arrows
    for name, M in module_catalog:
        size = M.n * (M.n + 1) // 2
        flat = data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        z = tuple(
            tuple(flat[k * (k - 1) // 2 : k * (k + 1) // 2]) for k in range(1, M.n + 1)
        )
        assert M.checker.check(z) == g.satisfies(g.apply_shift(M.seed, z), M.C), name


def test_in_basis_rejects_shifts_of_the_wrong_shape():
    M = g.hw_module_of((F(-3, 2), F(0)))
    assert g.in_basis(M.C, M.seed, g.zero_shift(2))
    # an extra row, a long row, and rows of lengths 2 and 1
    for z in (((0,), (0, 0), (0,)), ((0,), (0, 0, 0)), ((0, 0), (0,))):
        with pytest.raises(ValueError):
            g.in_basis(M.C, M.seed, z)


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


def _row_sums(pool):
    return Counter(tuple(sum(row) for row in z) for z in pool)


def _assert_walks_match(M, box, pool):
    """count, unranking, sweep and listing of M's box against a reference
    list of the box's basis shifts."""
    checker = M.checker
    assert BasisBox(checker, box).shifts() == pool
    assert len(BasisBox(checker, box)) == len(pool)
    assert BasisBox(checker, box).sweep() == _row_sums(pool)
    for i in (0, len(pool) // 2, len(pool) - 1) if pool else ():
        assert BasisBox(checker, box)[i] == pool[i], i
    ranked = BasisBox(checker, box)
    assert [ranked[i] for i in range(len(ranked))] == pool


def test_enumeration_matches_brute_force(module_catalog):
    for name, M in module_catalog:
        for box in range(4):
            got = g.enumerate_basis_box(M.C, M.seed, box)
            pool = brute_force_basis_box(M.C, M.seed, box)
            assert got == pool, (name, box)
            _assert_walks_match(M, box, pool)
            assert [BasisBox(M.checker, box)[i] for i in range(len(pool))] == pool
            weights = Counter(g.weight_of(M.entries(z)) for z in pool)
            assert g.weight_multiplicity_sweep(M, box) == weights, (name, box)
            assert sweep_by_enumeration(M, box) == weights, (name, box)


def test_walks_match_backtracking_on_large_ranks(large_catalog):
    for name, M in large_catalog:
        for box in range(3):
            _assert_walks_match(M, box, backtrack_basis_box(M.checker, box))
        # the oracle builds a Fraction weight per shift: 56,700 at sl6 box 2
        assert g.weight_multiplicity_sweep(M, 1) == sweep_by_enumeration(M, 1), name


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


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=3),
                min_size=n,
                max_size=n,
            ),
            st.integers(0, 2 if n <= 4 else 1),
        )
    )
)
def test_walks_match_backtracking_random(lam_box):
    lam, box = lam_box
    try:
        M = g.hw_module_of(tuple(lam))
    except (GtrelError, ValueError):
        assume(False)
    _assert_walks_match(M, box, backtrack_basis_box(M.checker, box))
    assert g.weight_multiplicity_sweep(M, box) == sweep_by_enumeration(M, box)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=3),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(0, 2),
)
def test_sweep_called_twice_matches_a_fresh_module(lam, box):
    try:
        M = g.hw_module_of(tuple(lam))
    except (GtrelError, ValueError):
        assume(False)
    want = sweep_by_enumeration(M, box)
    assert g.weight_multiplicity_sweep(M, box) == want
    assert g.weight_multiplicity_sweep(M, box) == want
    assert g.weight_multiplicity_sweep(M.replace(), box) == want


def test_mutating_a_walk_result_does_not_change_the_next(module_catalog):
    for name, M in module_catalog:
        checker = M.replace().checker
        for box in (1, 2):
            walks = BasisBox(checker, box)
            sweep, shifts = walks.sweep(), walks.shifts()
            want_sweep, want_shifts = dict(sweep), list(shifts)
            sweep.clear()
            sweep[(0,) * M.n] = 7
            shifts.reverse()
            shifts.append(g.zero_shift(M.n))
            for again in (walks, BasisBox(checker, box)):
                assert again.sweep() == want_sweep, (name, box)
                assert again.shifts() == want_shifts, (name, box)
                assert len(again) == len(want_shifts), (name, box)


def test_walks_leave_no_reference_cycles(module_catalog):
    # a walk recursing through a closure that calls itself would leave the
    # closure and its whole memo for the cyclic collector
    for name, M in module_catalog:
        walks = BasisBox(M.checker, 2)
        gc.collect()
        gc.disable()
        try:
            walks.sweep()
            walks.shifts()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


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
    checker = hw_module.checker
    with pytest.raises(ValueError):
        g.weight_multiplicity_sweep(hw_module, -1)
    with pytest.raises(ValueError):
        BasisBox(checker, -1)
    size = len(BasisBox(checker, 2))
    assert BasisBox(checker, 2)[size - 1] == BasisBox(checker, 2).shifts()[-1]
    for i in (-1, size, size + 5):
        with pytest.raises(IndexError):
            BasisBox(checker, 2)[i]


def test_enumerate_weight_space(hw_module):
    w = g.weight_of(hw_module.seed)
    hits, complete = g.enumerate_weight_space(hw_module.C, hw_module.seed, w, 3)
    assert hits == [g.zero_shift(2)]
    assert not complete  # the module is not confined to any box


def test_weight_space_is_the_shifts_of_that_weight(module_catalog):
    for name, M in module_catalog:
        by_weight = {}
        for z in BasisBox(M.checker, 2).shifts():
            by_weight.setdefault(g.weight_of(M.entries(z)), []).append(z)
        for w in sorted(by_weight)[:4]:
            hits, _ = g.enumerate_weight_space(M.C, M.seed, w, 2)
            assert hits == by_weight[w], (name, w)
        # off the seed's root lattice: no shift has the weight
        w = (w[0] + F(1, 2),) + w[1:]
        assert g.enumerate_weight_space(M.C, M.seed, w, 2)[0] == [], name


def test_weight_off_the_lattice_lists_no_shift(module_catalog, monkeypatch):
    def listing(self):
        raise AssertionError("the box was listed")

    monkeypatch.setattr(BasisBox, "shifts", listing)
    for name, M in module_catalog:
        w = g.weight_of(M.seed)
        w = (w[0] + F(1, 2),) + w[1:]
        for box in (0, 3):
            got = g.enumerate_weight_space(M.C, M.seed, w, box)
            assert got == ([], M.checker.in_box(box)), (name, box)
        with pytest.raises(ValueError):
            g.enumerate_weight_space(M.C, M.seed, w, -1)


def test_shift_algebra():
    z = g.unit_shift(2, 2, 1)
    assert shift_add(z, tuple(tuple(-x for x in row) for row in z)) == g.zero_shift(2)
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
