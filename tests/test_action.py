import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel import action
from gtrel.action import GTVector, _cartan, axiom_identities
from gtrel.errors import (
    CriticalDenominator,
    GtrelError,
    NotInBasis,
    RankMismatch,
    UnsupportedGenerator,
)
from gtrel.tableau import BasisBox
from oracles import em1_bracket


def vec(*pairs):
    return GTVector({z: F(c) for z, c in pairs})


def test_vector_algebra():
    z0 = g.zero_shift(2)
    z1 = g.unit_shift(2, 1, 1)
    v = vec((z0, 2), (z1, -1))
    w = vec((z1, 1))
    assert (v + w) == vec((z0, 2))
    assert (v - v).is_zero()
    assert v.scale(F(1, 2)) == vec((z0, 1), (z1, F(-1, 2)))
    assert v.scale(0).is_zero()


def test_h_action_is_diagonal(hw_module):
    z = g.zero_shift(2)
    v = g.basis_vector(z)
    w = g.weight_of(hw_module.seed)
    for k in (1, 2):
        out = g.act(hw_module, g.gen_H(k), v)
        assert out == vec((z, w[k - 1]))


def test_highest_weight_detection(hw_module):
    v = g.basis_vector(g.zero_shift(2))
    coords = g.is_highest_weight_vector(hw_module, v)
    assert coords == (F(-3, 2), F(0))
    shifted = g.basis_vector(g.unit_shift(2, 2, 1))
    if hw_module.in_basis(g.unit_shift(2, 2, 1)):
        assert g.is_highest_weight_vector(hw_module, shifted) is None


def test_raising_kills_seed(hw_module):
    v = g.basis_vector(g.zero_shift(2))
    for i, j in ((1, 2), (2, 3), (1, 3)):
        assert g.act(hw_module, g.gen_E(i, j), v).is_zero()


def test_weight_shift_of_generators(hw_module):
    # E(i,j) maps the w-weight space to w + (eps_i - eps_j) in H-coordinates
    from gtrel.tableau import shift_neg

    M = hw_module
    z = shift_neg(g.unit_shift(2, 1, 1))
    assert M.in_basis(z)
    v = g.basis_vector(z)
    base = None
    for zz, c in g.act(M, g.gen_H(1), v).items():
        assert zz == z
        base = c
    out = g.act(M, g.gen_E(1, 2), v)
    for zz in out:
        h1 = g.act(M, g.gen_H(1), g.basis_vector(zz))
        assert h1[zz] == base + 2  # alpha_1 pairing with H1 is 2


def test_commutator_identity(hw_module):
    v = g.basis_vector(g.zero_shift(2))
    lhs = g.commutator(hw_module, g.gen_E(1, 2), g.gen_E(2, 3), v)
    rhs = g.act(hw_module, g.gen_E(1, 3), v)
    assert lhs == rhs


def test_em1_direct_equals_bracket(family_module):
    M = family_module
    for z in g.enumerate_basis_box(M.C, M.seed, 2):
        v = g.basis_vector(z)
        assert g.act(M, g.gen_E(3, 1), v) == em1_bracket(M, 3, v), z


def test_em1_direct_equals_bracket_n3(family_module_n3):
    M = family_module_n3
    count = 0
    for z in g.enumerate_basis_box(M.C, M.seed, 1):
        v = g.basis_vector(z)
        assert g.act(M, g.gen_E(4, 1), v) == em1_bracket(M, 4, v), z
        count += 1
    assert count > 0


def test_cartan_matrix():
    assert _cartan(1, 1) == 2
    assert _cartan(1, 2) == -1
    assert _cartan(1, 3) == 0


def test_axiom_identities_cover_serre():
    names = [name for name, _, _ in axiom_identities(2)]
    assert any("ad(" in s for s in names)
    assert "[H1,H2]=0" in names


def test_verify_axioms_clean(module_catalog):
    for name, M in module_catalog:
        report = g.verify_axioms(M, box=2, samples=40, seed=3)
        assert report["failures"] == [], name
        assert report["samples"] <= 40


def test_verify_axioms_full(hw_module):
    report = g.verify_axioms(hw_module, box=2, samples=10, seed=1, full=True)
    assert report["failures"] == []


def test_verify_axioms_draws_what_indexing_the_pool_draws(module_catalog, monkeypatch):
    drawn = []

    class RecordingBox(action.BasisBox):
        def __getitem__(self, i):
            z = super().__getitem__(i)
            drawn.append(z)
            return z

    monkeypatch.setattr(action, "BasisBox", RecordingBox)
    for name, M in module_catalog:
        for box, samples, full in ((2, 40, False), (3, 200, False), (3, 30, True)):
            del drawn[:]
            report = g.verify_axioms(M, box=box, samples=samples, seed=11, full=full)
            pool = g.enumerate_basis_box(M.C, M.seed, box)
            rng = random.Random(11)
            want = [pool[rng.randrange(len(pool))] for _ in drawn]
            assert drawn == want and report["pool"] == len(pool), (name, box, full)
            draws = -(-samples // len(axiom_identities(M.n))) if full else samples
            assert len(drawn) == draws, (name, box, full)


def test_verify_axioms_rejects_negative_samples(hw_module):
    with pytest.raises(ValueError):
        g.verify_axioms(hw_module, samples=-3)
    assert g.verify_axioms(hw_module, samples=0)["samples"] == 0


def test_critical_denominator_raises():
    # equal adjacent entries in a row the generator touches blow up
    T = g.tableau(1, [[F(0)], [F(0), F(0)]])
    C = g.relation_set(1, [((2, 1), (1, 1)), ((1, 1), (2, 2))])
    with pytest.raises(Exception):
        M = g.module(T, C)
        g.act(M, g.gen_E(1, 2), g.basis_vector(g.zero_shift(1)))


def test_unsupported_generator(hw_module):
    with pytest.raises(UnsupportedGenerator):
        g.act(hw_module, ("X", 1, 2), g.basis_vector(g.zero_shift(2)))
    with pytest.raises(UnsupportedGenerator):
        g.act(hw_module, g.gen_E(1, 1), g.basis_vector(g.zero_shift(2)))
    # out-of-range indices are rejected before the flag permutation reads
    # them (sigma[-1] would otherwise turn E(0,1) into E(3,1))
    for gen in (g.gen_E(0, 1), g.gen_E(1, 7), g.gen_H(0), g.gen_H(3)):
        with pytest.raises(UnsupportedGenerator):
            g.act(hw_module, gen, g.basis_vector(g.zero_shift(2)))


def test_act_rejects_shifts_outside_the_basis(hw_module):
    M = hw_module
    for z in (((5,), (0, 0)), ((0,), (0,))):
        for gen in (g.gen_E(2, 1), g.gen_H(1), g.gen_E(1, 3)):
            with pytest.raises(NotInBasis):
                g.act(M, gen, g.basis_vector(z))
    # one bad shift spoils the vector even when others are in the basis
    bad = vec((g.zero_shift(2), 1), (((5,), (0, 0)), 1))
    with pytest.raises(NotInBasis):
        g.act(M, g.gen_E(2, 1), bad)


def all_generators(n):
    hs = [g.gen_H(k) for k in range(1, n + 1)]
    es = [g.gen_E(i, j) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
    return hs + es


def test_memo_is_invisible_to_equality_and_hash(hw_module):
    M = hw_module.replace()
    g.verify_axioms(M, box=1, samples=10, seed=2)
    other = M.replace()
    assert M.memo and not other.memo
    assert M == other and hash(M) == hash(other)
    assert "memo" not in repr(M)


def test_transforms_start_with_their_own_memo(module_catalog):
    M = dict(module_catalog)["lem-key-n3"]
    v = g.basis_vector(g.zero_shift(3))
    for gen in all_generators(3):
        g.act(M, gen, v)
    before = dict(M.memo)
    permuted = g.permute_flag(M, (3, 1, 2, 4))
    assert permuted.memo == {} and permuted.memo is not M.memo
    for gen in all_generators(3):
        g.act(permuted, gen, v)
    assert M.memo == before

    hw = g.hw_module_of((F(-3, 2), F(0)))
    g.act(hw, g.gen_E(2, 1), g.basis_vector(g.zero_shift(2)))
    twisted = g.twist_e21(hw, F(1, 3))
    assert twisted.memo == {} and twisted.memo is not hw.memo


def test_mutating_a_result_does_not_change_later_results(hw_module):
    M = hw_module.replace()
    z = ((-1,), (-1, 0))
    for gen in all_generators(2):
        want = g.act(M, gen, g.basis_vector(z))
        out = g.act(M, gen, g.basis_vector(z))
        out.iadd(z, 7)
        out[g.zero_shift(2)] = F(5)
        out.clear()
        assert g.act(M, gen, g.basis_vector(z)) == want, gen


def test_casimir_value(hw_module):
    v = g.basis_vector(g.zero_shift(2))
    out = g.casimir_alpha1(hw_module, v)
    assert out == vec((g.zero_shift(2), F(1, 4)))


def test_is_simple_catalog(module_catalog):
    for name, M in module_catalog:
        report = g.is_simple(M)
        expected = name != "localized-n2"
        assert report["maximal_eq"] == expected, name
        assert report["strict_eq"] == expected, name
        if not expected:
            # E21 maps the dropped sub back into the localization
            assert report["witness"] == ((2, 1), (1, 1))


def test_weight_multiplicity(hw_module):
    w = g.weight_of(hw_module.seed)
    assert g.weight_multiplicity(hw_module, w, 3) == (1, False)
    sweep = g.weight_multiplicity_sweep(hw_module, 2)
    assert all(m >= 1 for m in sweep.values())
    assert sweep[w] == 1


def test_weight_multiplicity_reads_the_sweep(module_catalog):
    # a weight fixes the row sums, so its count is one entry of the sweep;
    # off the root lattice (a half-integral or a fundamental step away from
    # a realized weight) it is 0
    for name, M in module_catalog:
        for box in range(4):
            sweep = g.weight_multiplicity_sweep(M, box)
            complete = M.checker.in_box(box)
            steps = [(F(1, 2),) + (0,) * (M.n - 1), (1,) + (0,) * (M.n - 1)]
            for w in list(sweep) + [(F(99),) * M.n]:
                assert g.weight_multiplicity(M, w, box) == (sweep.get(w, 0), complete)
                for step in steps:
                    off = tuple(x + d for x, d in zip(w, step))
                    assert g.weight_multiplicity(M, off, box) == (
                        sweep.get(off, 0),
                        complete,
                    ), name


def test_weight_multiplicity_complete_only_when_box_holds_basis():
    # the sl3 adjoint module is finite; its zero weight has multiplicity 2,
    # and only box 2 holds every coordinate's range
    M = g.hw_module_of((F(1), F(1)))
    assert g.weight_multiplicity(M, (0, 0), 0) == (0, False)
    assert g.weight_multiplicity(M, (0, 0), 1)[1] is False
    assert g.weight_multiplicity(M, (0, 0), 2) == (2, True)


def test_weight_multiplicity_rejects_wrong_length_weights(hw_module):
    for w in ((0,), (0, 0, 0)):
        with pytest.raises(RankMismatch):
            g.weight_multiplicity(hw_module, w, 2)


def test_module_json_round_trip(module_catalog):
    for name, M in module_catalog:
        M2 = g.module_from_json(g.module_to_json(M))
        assert M2.seed == M.seed and M2.C == M.C, name
        assert M2.sigma == M.sigma and M2.normalization == M.normalization


def test_vector_json_round_trip():
    v = vec((g.zero_shift(2), F(1, 3)), (g.unit_shift(2, 1, 1), -2))
    assert g.vector_from_json(g.vector_to_json(v)) == v


def test_parse_generator():
    assert g.parse_generator("E,2,1") == g.gen_E(2, 1)
    assert g.parse_generator("H,1") == g.gen_H(1)
    with pytest.raises(ValueError):
        g.parse_generator("Q,1,2")


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_action_linear(a, b, c):
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    M = g.module(T, C)
    z0 = g.zero_shift(2)
    z1 = ((-1,), (-1, 0))
    v = vec((z0, a), (z1, b))
    gen = g.gen_E(2, 3)
    lhs = g.act(M, gen, v.scale(c))
    rhs = g.act(M, gen, v).scale(c)
    assert lhs == rhs


_coord = st.one_of(
    st.integers(-4, 4).map(F),
    st.tuples(st.integers(-12, 12), st.sampled_from((2, 3))).map(lambda t: F(*t)),
)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(*[_coord] * n)), st.data())
def test_em1_and_axioms_on_random_hw_modules(lam, data):
    try:
        M = g.hw_module_of(lam)
    except GtrelError:
        assume(False)
    pool = g.enumerate_basis_box(M.C, M.seed, 2)
    v = g.basis_vector(data.draw(st.sampled_from(pool)))
    for m in range(3, M.n + 2):
        assert g.act(M, g.gen_E(m, 1), v) == em1_bracket(M, m, v), (lam, m)
    seed = data.draw(st.integers(0, 2**16))
    report = g.verify_axioms(M, box=2, samples=1, seed=seed, full=True)
    assert report["failures"] == [], lam


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(*[_coord] * n)), st.data())
def test_memo_gives_what_a_fresh_module_gives(lam, data):
    try:
        M = g.hw_module_of(lam)
    except GtrelError:
        assume(False)
    pool = g.enumerate_basis_box(M.C, M.seed, 2)
    g.verify_axioms(M, box=2, samples=20, seed=data.draw(st.integers(0, 99)), full=True)
    assert M.memo
    shifts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    for z in shifts:
        v = g.basis_vector(z)
        for gen in all_generators(M.n):
            fresh = M.replace()
            assert g.act(M, gen, v) == g.act(fresh, gen, v), (lam, gen, z)


@st.composite
def hw_modules(draw):
    n = draw(st.integers(1, 3))
    lam = tuple(
        draw(st.fractions(min_value=-6, max_value=6, max_denominator=3))
        for _ in range(n)
    )
    try:
        return g.hw_module_of(lam)
    except (GtrelError, ValueError):
        assume(False)


@settings(max_examples=40, deadline=None)
@given(hw_modules(), st.data())
def test_act_returns_only_basis_shifts(M, data):
    pool = BasisBox(M.checker, 2)
    gens = [g.gen_H(k) for k in range(1, M.n + 1)] + [
        g.gen_E(i, j)
        for i in range(1, M.n + 2)
        for j in range(1, M.n + 2)
        if i != j
    ]
    for _ in range(3):
        z = pool[data.draw(st.integers(0, len(pool) - 1))]
        for gen in gens:
            for target in g.act(M, gen, g.basis_vector(z)):
                assert M.in_basis(target), (gen, z, target)
