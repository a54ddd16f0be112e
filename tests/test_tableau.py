import gc
import importlib
from collections import Counter
from fractions import Fraction as F
from itertools import chain
from math import inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.core import parse_rational
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
    row_sums_weight_delta,
    shift_add,
    shift_from_json,
    shift_to_json,
)
from oracles import (
    backtrack_basis_box,
    brute_force_basis_box,
    closure_by_floyd_warshall,
    flag_weight,
    sweep_by_enumeration,
)

# the module: in the package namespace gtrel.tableau is the tableau() function
tableau_module = importlib.import_module("gtrel.tableau")


@pytest.mark.parametrize(
    "rows, message",
    [
        (((F(1),), (F(1), F(2))), "expected 3 rows"),
        (((F(1),), (F(1),), (F(1), F(2), F(3))), "row 2 must have 2 entries"),
    ],
)
def test_tableau_rejects_a_wrong_shape(rows, message):
    with pytest.raises(ValueError) as err:
        tableau_module.Tableau(2, rows)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "lam, i",
    [
        ((F(2), F(0), F(-4, 3), F(4, 3)), 3),
        ((F(1), F(0), F(-4, 3), F(4, 3), F(0)), 3),
        ((F(2), F(0), F(0), F(-1, 3), F(1, 3)), 4),
    ],
)
def test_lem_key_at_i_3_and_up(lam, i):
    # what i = 2 never reaches: the offsets set only when i > 2, the chain
    # of offsets past v_{i+2} when i + 2 <= n, and the entries (r, s) with
    # 2 <= s < i
    assert g.bounded_case(lam) == ("e", i)
    T, C = g.lem_key_tableau(lam, i)
    M = g.module(T, C)
    assert g.verify_axioms(M, box=1)["failures"] == []


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


FAMILY_U, FAMILY_V = (F(1, 2), F(1, 3), F(1, 5)), (F(2), F(0))


@pytest.mark.parametrize(
    "u, v, m, message",
    [
        (FAMILY_U[:2], FAMILY_V, None, "u must have n+1 entries, v must have n"),
        (FAMILY_U, FAMILY_V, 1, "m must satisfy 2 <= m <= n"),
        (FAMILY_U, FAMILY_V, 3, "m must satisfy 2 <= m <= n"),
        # u_1 - u_2 = -1 below m = 3
        ((F(1, 2), F(3, 2), F(1, 3), F(1, 3)), (F(4), F(2), F(0)), 3, "u_1 - u_2 in Z"),
    ],
)
def test_family_tableau_rejects_bad_parameters(u, v, m, message):
    with pytest.raises(PreconditionViolated) as err:
        g.family_tableau(u, v, m)
    assert str(err.value) == message


def _rarely(draw):
    """True one draw in eight, never on the simplest draw."""
    return draw(st.integers(0, 7)) == 7


@st.composite
def family_parameters(draw):
    """(u, v, m) of rank n <= 4 for family_tableau, m None or not: most
    draws pass its parameter checks, and each check fails now and then."""
    n = draw(st.integers(1, 4))
    v = [draw(st.integers(-3, 6)) + draw(st.sampled_from((F(0), F(1, 2))))]
    for _ in range(n - 1):
        # a step of 0 breaks v_j - v_{j+1} in Z_{>0}
        v.append(v[-1] - (0 if _rarely(draw) else draw(st.integers(1, 3))))
    # u_i has the fractional part 1/p_i of its own prime, or now and then
    # 0 or 1/2, which may meet v_1's or a neighbour's
    u = [
        draw(st.integers(-3, 3))
        + (draw(st.sampled_from((F(0), F(1, 2)))) if _rarely(draw) else F(1, p))
        for p in (3, 5, 7, 11, 13)[: n + 1]
    ]
    m = draw(st.none() | st.integers(2, n)) if n > 1 else None
    if m is not None and not _rarely(draw):
        u[m:] = [u[m - 1]] * (n + 1 - m)
    return tuple(u), tuple(v), m


@settings(max_examples=300, deadline=None)
@given(family_parameters())
def test_every_family_pair_that_passes_the_checks_is_a_module(params):
    # family_tableau checks only its parameters and leaves the pair to the
    # module: no pair it returns may fail there
    u, v, m = params
    try:
        T, C = g.family_tableau(u, v, m)
    except PreconditionViolated:
        assume(False)
    M = g.module(T, C)
    assert M.seed is T and M.C is C


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


def test_enumerate_basis_box_subset(hw_module):
    small = set(g.enumerate_basis_box(hw_module.C, hw_module.seed, 2))
    big = set(g.enumerate_basis_box(hw_module.C, hw_module.seed, 3))
    assert small <= big
    assert all(hw_module.in_basis(z) for z in big)


def test_box_completeness_flag(module_catalog):
    # only the integral dominant module has every entry pinned to the
    # fixed top row in both directions
    for name, M in module_catalog:
        ranges = [(lo, hi) for row in M.checker.cuts for lo, hi, _, _ in row]
        bounded = all(-inf < lo and hi < inf for lo, hi in ranges)
        assert bounded == (name == "hw-a-n2-dominant"), name
        assert M.checker.in_box(4) == bounded, name


def _row_sums(pool):
    return Counter(tuple(sum(row) for row in z) for z in pool)


def _assert_walks_match(checker, box, pool):
    """count, unranking, sweep and listing of the checker's box against a
    reference list of the box's basis shifts."""
    assert BasisBox(checker, box).shifts() == pool
    assert len(BasisBox(checker, box)) == len(pool)
    assert BasisBox(checker, box).sweep() == _row_sums(pool)
    for i in (0, len(pool) // 2, len(pool) - 1) if pool else ():
        assert BasisBox(checker, box)[i] == pool[i], i
    ranked = BasisBox(checker, box)
    assert [ranked[i] for i in range(len(ranked))] == pool
    for i in (-1, len(pool)):
        with pytest.raises(IndexError):
            ranked[i]


def test_enumeration_matches_brute_force(module_catalog):
    for name, M in module_catalog:
        for box in range(4):
            got = g.enumerate_basis_box(M.C, M.seed, box)
            pool = brute_force_basis_box(M.C, M.seed, box)
            assert got == pool, (name, box)
            _assert_walks_match(M.checker, box, pool)
            assert [BasisBox(M.checker, box)[i] for i in range(len(pool))] == pool
            weights = Counter(flag_weight(M, z) for z in pool)
            assert g.weight_multiplicity_sweep(M, box) == weights, (name, box)
            assert sweep_by_enumeration(M, box) == weights, (name, box)


def test_walks_match_backtracking_on_large_ranks(large_catalog):
    for name, M in large_catalog:
        for box in range(3):
            _assert_walks_match(M.checker, box, backtrack_basis_box(M.checker, box))
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
    _assert_walks_match(M.checker, box, backtrack_basis_box(M.checker, box))
    assert g.weight_multiplicity_sweep(M, box) == sweep_by_enumeration(M, box)


def _unimplied_row_bounds(checker):
    """(p, q, t) for each bound z_p - z_q >= t of the closure between two
    entries of one row k+1 < n that no cut of the walk against row k or the
    top row carries: no node m of row k, nor the top row, has
    d[p][m] + d[m][q] >= t.  A walk without within-row cuts meets the
    candidates for row k+1 that break such a bound, and they must count 0."""
    d, top = closure_by_floyd_warshall(checker), checker.size
    out = []
    for k in range(1, checker.n - 1):
        start = k * (k + 1) // 2
        via = [*range(start - k, start), top]
        row = range(start, start + k + 1)
        for p in row:
            for q in row:
                t = d[p][q]
                if p != q and t != -inf and all(d[p][m] + d[m][q] < t for m in via):
                    out.append((p, q, t))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_walks_match_backtracking_on_random_relation_subsets(n, data):
    # a random subset of the arrows a random tableau satisfies: unlike the
    # hw modules' sets, such a set can bound two entries of one row
    # through the next row only, so the walk meets rows with no completion
    entry = st.builds(F, st.integers(-6, 6), st.just(2))
    rows = [data.draw(st.lists(entry, min_size=k, max_size=k)) for k in range(1, n + 2)]
    seed = g.tableau(n, rows)
    arrows = seed.satisfied.sorted()
    chosen = data.draw(st.sets(st.sampled_from(arrows)) if arrows else st.just(set()))
    checker = BasisChecker(g.relation_set(n, chosen), seed)
    box = data.draw(st.integers(0, 2 if n < 4 else 1))
    _assert_walks_match(checker, box, backtrack_basis_box(checker, box))


def test_walks_count_zero_on_rows_that_break_a_row_bound():
    # on this seed (2,2) -> (3,1) asks z_22 >= z_31 and (3,1) -> (2,1) asks
    # z_31 >= z_21, which bound z_22 >= z_21 through row 3 only: a walk of
    # row 2 under row 1 meets every z_22 < z_21, and none of those rows
    # has a completion
    seed = g.tableau(3, [[0], [0, 1], [0, 0, 0], [0, 0, 0, 0]])
    checker = BasisChecker(g.relation_set(3, [((2, 2), (3, 1)), ((3, 1), (2, 1))]), seed)
    assert _unimplied_row_bounds(checker) == [(2, 1, 0)]
    for box in range(4):
        _assert_walks_match(checker, box, backtrack_basis_box(checker, box))


def test_box_counts_and_unranking_at_high_rank():
    # generic sl6 and sl7 at box 3: counted and unranked, never listed
    primes = (2, 3, 5, 7, 11, 13)
    for n, size in ((5, 1_568_000), (6, 131_712_000)):
        M = g.hw_module_of(tuple(F(-1, p) for p in primes[:n]))
        ranked = BasisBox(M.checker, 3)
        assert len(ranked) == size
        picks = sorted({0, 1, size // 3, size // 2, size - 2, size - 1})
        drawn = [ranked[i] for i in picks]
        assert drawn == sorted(drawn) and len(set(drawn)) == len(drawn)
        for z in drawn:
            assert M.checker.check(z) and max(map(abs, chain(*z))) <= 3, z
        for i in (-1, size):
            with pytest.raises(IndexError):
                ranked[i]


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


def _assert_sweep_matches_the_oracle(M, box, sigma):
    """The sweep of M, and of M under the flag sigma unless that is the
    identity, against the Fraction oracle, with every key coordinate a
    Fraction."""
    flagged = [] if list(sigma) == sorted(sigma) else [g.permute_flag(M, sigma)]
    for X in [M] + flagged:
        got = g.weight_multiplicity_sweep(X, box)
        assert got == sweep_by_enumeration(X, box), (X.sigma, box)
        assert all(type(x) is F for w in got for x in w)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=6),
                min_size=n,
                max_size=n,
            ),
            # the oracle builds a Fraction weight per shift: about 28,000
            # at sl5 box 3, 2 s; the example below keeps one such case
            st.integers(0, 3 if n <= 3 else 2),
            st.permutations(range(1, n + 2)),
        )
    ),
    st.sampled_from(("hw", "sl2")),
)
@example(([F(-1, 2)], 3, (2, 1)), "sl2")
@example(([F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 6)], 3, (1, 2, 3, 4, 5)), "hw")
def test_sweep_matches_the_fraction_oracle(case, normalization):
    lam, box, sigma = case
    try:
        M = g.hw_module_of(tuple(lam), normalization=normalization)
    except (GtrelError, ValueError):
        assume(False)
    _assert_sweep_matches_the_oracle(M, box, sigma)


def _localizable_chain_pairs(lvl):
    """(rep, branch) over the orbit chains of lvl whose alpha_1 pairing is
    not an integer, the branches `build_sl2_induced_minimal` localizes."""
    return [
        (rep, branch)
        for rep, _ in g.minimal_orbit_reps(lvl)
        for branch, _ in g.hw_orbit_list(lvl, rep)
        if g.pairing(branch, 1, 1).denominator != 1
    ]


def _twists(p1):
    """Every x in [-3, 3] with denominator at most 6 that is off Z and off
    -p1 + Z, the twists `build_sl2_induced_minimal` accepts."""
    xs = {F(a, b) for b in range(2, 7) for a in range(-3 * b, 3 * b + 1)}
    return sorted(x for x in xs if x.denominator != 1 and (x + p1).denominator != 1)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sweep_matches_the_fraction_oracle_on_sl2_induced_modules(data):
    # only inputs that build are drawn, so no draw is filtered out
    lvl = g.Level(*data.draw(st.sampled_from(((2, 3, 2), (2, 5, 2), (3, 5, 2)))))
    rep, branch = data.draw(st.sampled_from(_localizable_chain_pairs(lvl)))
    x = data.draw(st.sampled_from(_twists(g.pairing(branch, 1, 1))))
    M = g.build_sl2_induced_minimal(lvl, rep, branch, x).module
    box = data.draw(st.integers(0, 3 if lvl.n == 2 else 1))
    sigma = data.draw(st.permutations(range(1, lvl.n + 2)))
    _assert_sweep_matches_the_oracle(M, box, sigma)


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
        ranges = chain.from_iterable(M.checker.cuts)
        for p, (lo, hi, _, _) in enumerate(ranges):
            values = {sum(z, ())[p] for z in pool}
            assert lo <= min(values) and max(values) <= hi, (name, p)
            assert all(end in values for end in (lo, hi) if -4 <= end <= 4), (name, p)


def _assert_bounds_match_floyd_warshall(checker, arrows):
    """Every search, every `cuts` entry, and `implies` of every arrow in
    `arrows`, as read off the Floyd-Warshall closure."""
    d, top = closure_by_floyd_warshall(checker), checker.size
    for u, du in enumerate(d):
        assert checker._longest(u) == {v: t for v, t in enumerate(du) if t != -inf}, u
    cuts = []
    for k in range(checker.n):
        start = k * (k + 1) // 2
        prev = range(start - k, start)
        cuts.append(
            [
                (
                    d[p][top],
                    -d[top][p],
                    [(j, d[p][q]) for j, q in enumerate(prev) if d[p][q] != -inf],
                    [(j, d[q][p]) for j, q in enumerate(prev) if d[q][p] != -inf],
                )
                for p in range(start, start + k + 1)
            ]
        )
    assert checker.cuts == cuts
    for rel in arrows:
        u, v, t = checker._triple(rel)
        assert checker.implies(rel) == (u == v or d[u][v] >= t), rel


def test_bounds_match_floyd_warshall_on_the_catalog(module_catalog, large_catalog):
    for name, M in module_catalog + large_catalog:
        _assert_bounds_match_floyd_warshall(M.checker, M.seed.satisfied.sorted())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_bounds_match_floyd_warshall_on_random_relation_subsets(n, data):
    # half-integer entries leave some pairs without an integer gap, so the
    # satisfied set, and the subset drawn from it, splits into pieces
    entry = st.builds(F, st.integers(-6, 6), st.just(2))
    rows = [data.draw(st.lists(entry, min_size=k, max_size=k)) for k in range(1, n + 2)]
    seed = g.tableau(n, rows)
    arrows = seed.satisfied.sorted()
    chosen = data.draw(st.sets(st.sampled_from(arrows)) if arrows else st.just(set()))
    checker = BasisChecker(g.relation_set(n, chosen), seed)
    _assert_bounds_match_floyd_warshall(checker, arrows)


def test_search_requeues_a_node_whose_bound_grows():
    # from (3,3), (2,1) is reached at -1 by its own arrow and passes -2 on
    # to (1,1); after it has left the queue, the path through (2,2) and
    # (3,1) lifts it to 0, and only searching it again lifts
    # z_33 - z_11 >= -2 to >= -1
    seed = g.tableau(3, [[0], [1, 2], [1, 1, 2], [0, F(-1, 2), 0, -2]])
    arrows = [((2, 1), (1, 1)), ((2, 2), (3, 1)), ((3, 1), (2, 1))]
    arrows += [((3, 3), (2, 1)), ((3, 3), (2, 2))]
    checker = BasisChecker(g.relation_set(3, arrows), seed)
    assert checker._longest(5)[0] == -1
    _assert_bounds_match_floyd_warshall(checker, seed.satisfied.sorted())


def test_kernel_rejects_bad_input(hw_module):
    T3, _ = g.hw_tableau_case_a((F(-5, 2), F(0), F(1)))
    with pytest.raises(RankMismatch):
        BasisChecker(hw_module.C, T3)
    with pytest.raises(RankMismatch):
        g.module(T3, hw_module.C)
    with pytest.raises(ValueError):
        g.enumerate_basis_box(hw_module.C, hw_module.seed, -1)
    for w in ((F(0),), (F(0), F(0), F(0))):
        with pytest.raises(RankMismatch):
            g.enumerate_weight_space(hw_module.C, hw_module.seed, w, 1)
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


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=3),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(0, 2),
)
def test_weight_space_matches_the_listing_oracle_random(lam, box):
    # every weight realized in the box lists exactly its shifts; a weight a
    # half step off the lattice, and a lattice weight whose row sums no
    # shift in the box reaches, list nothing
    try:
        M = g.hw_module_of(tuple(lam))
    except (GtrelError, ValueError):
        assume(False)
    complete = M.checker.in_box(box)
    by_weight = {}
    for z in BasisBox(M.checker, box).shifts():
        by_weight.setdefault(g.weight_of(M.entries(z)), []).append(z)
    for w, zs in by_weight.items():
        assert g.enumerate_weight_space(M.C, M.seed, w, box) == (zs, complete), w
    base = g.weight_of(M.seed)
    far = row_sums_weight_delta([100 * k for k in range(1, M.n + 1)])
    for w in (
        (base[0] + F(1, 2),) + base[1:],
        tuple(b + d for b, d in zip(base, far)),
    ):
        assert g.enumerate_weight_space(M.C, M.seed, w, box) == ([], complete), w


def test_shift_algebra():
    z = g.unit_shift(2, 2, 1)
    assert shift_add(z, tuple(tuple(-x for x in row) for row in z)) == g.zero_shift(2)
    assert shift_from_json(shift_to_json(z)) == z
    with pytest.raises(ValueError):
        g.unit_shift(2, 3, 1)  # top row is pinned


def test_shift_helpers_reject_positions_outside_the_tableau(hw_module):
    T = hw_module.seed
    for k, i in ((5, 1), (1, 2), (0, 1), (3, 4)):
        with pytest.raises(ValueError, match="out of range"):
            g.apply_rational_shift(T, k, i, F(1, 3))
    shifted = g.apply_rational_shift(T, 3, 3, F(1, 3))
    assert shifted.entry(3, 3) == T.entry(3, 3) + F(1, 3)
    assert shifted.rows[:2] == T.rows[:2] and shifted.rows[2][:2] == T.rows[2][:2]
    # a row one entry too long or too short is rejected, not cut by zip
    for z in (((1, 9), (0, 0)), ((0,), (0,)), ((0,), (0, 0, 0))):
        with pytest.raises(ValueError, match="lengths"):
            hw_module.entries(z)
    with pytest.raises(ValueError, match="shift must cover rows 1..2"):
        g.apply_shift(T, ((0,),))


def test_tableau_json_round_trip(module_catalog):
    for name, M in module_catalog:
        assert g.tableau_from_json(g.tableau_to_json(M.seed)) == M.seed, name


def test_tableau_from_json_keeps_the_parsed_fractions(module_catalog, monkeypatch):
    # each entry is the Fraction parse_rational returned, not a copy of it
    parsed = []

    def recording(text):
        parsed.append(parse_rational(text))
        return parsed[-1]

    monkeypatch.setattr(tableau_module, "parse_rational", recording)
    for name, M in module_catalog:
        parsed.clear()
        T = g.tableau_from_json(g.tableau_to_json(M.seed))
        assert T == M.seed and type(T.rows) is tuple, name
        assert all(type(row) is tuple for row in T.rows), name
        entries = [x for row in T.rows for x in row]
        assert len(entries) == len(parsed) and all(a is b for a, b in zip(entries, parsed)), name


def test_lem_key_requires_bounded_case():
    with pytest.raises(PreconditionViolated):
        g.lem_key_tableau((F(1), F(1), F(1)), 2)  # integral dominant
    with pytest.raises(PreconditionViolated):
        g.lem_key_tableau((F(0), F(-1, 2), F(-1, 2)), 1)  # need i > 1
    # passes the explicit checks, but the seed built is no realization
    with pytest.raises(PreconditionViolated, match="constructed tableau is not a C-realization"):
        g.lem_key_tableau((F(1, 3), F(-1, 3)), 2)
    # so is the case-a seed of (0, -1), whose <lam + rho, alpha_2> = 0 is an
    # integer
    with pytest.raises(PreconditionViolated) as err:
        g.lem_key_tableau((F(0), F(-1)), 2)
    assert str(err.value) == "constructed tableau is not a C-realization"
