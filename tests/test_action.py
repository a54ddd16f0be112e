import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel import action, relations
from gtrel.action import GTVector, _cartan, axiom_identities
from gtrel.errors import (
    CriticalDenominator,
    GtrelError,
    NotARealization,
    NotInBasis,
    RankMismatch,
    SeedViolatesRelations,
    UnsupportedGenerator,
)
from gtrel.tableau import BasisBox, shift_to_json
from oracles import (
    act_by_vectors,
    combination_sums_by_layers,
    commutator_by_vectors,
    em1_bracket,
    highest_weight_by_vectors,
    is_simple_by_closure,
    memo_entries,
    primitive_by_fractions,
    verify_axioms_by_vectors,
)


def vec(*pairs):
    return GTVector({z: F(c) for z, c in pairs})


def _memo_key(M, gen, z):
    """The memo key of an unpermuted generator on the basis shift z: the
    shift's id plus the generator's index."""
    return action._basis_id(M, z) + action._generators(M.n)[1][gen]


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


def test_highest_weight_detection_matches_the_vector_oracle(module_catalog):
    # sl2 on the seed (0), (0, -1) with no relation: E12 kills the shifts
    # (0,) and (-1,), whose H eigenvalues differ, so their sum is killed by
    # every raising and is no H-eigenvector
    dense = g.module(g.tableau(1, [[0], [0, -1]]), g.relation_set(1, []))
    modules = module_catalog + [
        ("dense-sl2", dense),
        ("dense-sl2-flipped", g.permute_flag(dense, (2, 1))),
    ]
    rng = random.Random(16)
    for name, M in modules:
        pool = g.enumerate_basis_box(M.C, M.seed, 1)
        singular = [
            z
            for z in pool
            if all(
                act_by_vectors(M, g.ERaise(k), g.basis_vector(z)).is_zero()
                for k in range(1, M.n + 1)
            )
        ]
        vectors = [vec((z, rng.choice((1, -2, F(1, 3))))) for z in singular]
        vectors += [vec(*((z, 1) for z in singular))] if len(singular) > 1 else []
        for _ in range(20):
            shifts = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            vectors.append(vec(*((z, rng.randint(1, 3)) for z in shifts)))
        for v in vectors:
            got = g.is_highest_weight_vector(M, v)
            assert got == highest_weight_by_vectors(M, v), (name, v)
        if name == "dense-sl2":
            assert len(singular) == 2
            assert g.is_highest_weight_vector(M, vectors[2]) is None


def test_raising_kills_seed(hw_module):
    v = g.basis_vector(g.zero_shift(2))
    for i, j in ((1, 2), (2, 3), (1, 3)):
        assert g.act(hw_module, g.gen_E(i, j), v).is_zero()


def test_weight_shift_of_generators(hw_module):
    # E(i,j) maps the w-weight space to w + (eps_i - eps_j) in H-coordinates
    M = hw_module
    z = ((-1,), (0, 0))  # one box down in row 1
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


def test_module_rejects_unknown_normalization(hw_module):
    data = g.module_to_json(hw_module)
    for norm in ("sl2", "hw"):
        M = g.module_from_json(dict(data, normalization=norm))
        assert g.module_to_json(M)["normalization"] == norm
    for norm in (7, "SL2", None, ""):
        message = 'normalization must be "hw" or "sl2", got %r' % (norm,)
        with pytest.raises(ValueError, match=re.escape(message)):
            g.module_from_json(dict(data, normalization=norm))
        with pytest.raises(ValueError, match=re.escape(message)):
            g.module(hw_module.seed, hw_module.C, normalization=norm)


def test_module_rejects_a_sigma_that_is_no_permutation(hw_module):
    for sigma in ((1, 1, 2), (1, 2), (2, 3, 4)):
        with pytest.raises(ValueError, match="sigma must be a permutation"):
            g.module(hw_module.seed, hw_module.C, sigma=sigma)


def test_module_construction_reads_the_seed_against_c_once(hw_module, monkeypatch):
    # the checker decides satisfaction arrow by arrow; construction then
    # reads only the components, with the same errors as before
    calls = []
    satisfies = relations.satisfies

    def counted(T, C):
        calls.append(C)
        return satisfies(T, C)

    monkeypatch.setattr(relations, "satisfies", counted)
    T = g.tableau(2, [[F(-1)], [F(0), F(0)], [F(3), F(1), F(-2)]])
    cases = (
        ([((2, 1), (1, 1)), ((2, 2), (1, 1))], ValueError, "seed is critical for the relation set"),
        ([((1, 1), (2, 1))], SeedViolatesRelations, "seed does not satisfy the relation set"),
        ([((2, 1), (1, 1))], NotARealization, "tableau is not a C-realization"),
    )
    for rels, error, message in cases:
        C = g.relation_set(2, rels)
        with pytest.raises(error) as info:
            g.module(T, C)
        assert type(info.value) is error and str(info.value) == message, rels
    assert g.module(hw_module.seed, hw_module.C) == hw_module
    assert calls == []
    # the public predicates keep their own full check
    C = g.relation_set(2, cases[1][0])
    assert not g.is_realization(C, T)
    with pytest.raises(NotARealization):
        g.is_noncritical_for(C, T)
    assert len(calls) == 2


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
    # the draws are pool[rng.randrange(len(pool))], and each index drawn in
    # a call is unranked on its first draw only
    unranked = []

    class RecordingBox(action.BasisBox):
        def __getitem__(self, i):
            unranked.append(i)
            return super().__getitem__(i)

    monkeypatch.setattr(action, "BasisBox", RecordingBox)
    for name, M in module_catalog:
        count = len(axiom_identities(M.n))
        for box, samples, full in ((2, 40, False), (3, 200, False), (3, 30, True)):
            del unranked[:]
            X = M.replace()
            report = g.verify_axioms(X, box=box, samples=samples, seed=11, full=full)
            draws = -(-samples // count) if full else samples
            assert report["samples"] == (draws * count if full else draws), (name, box)
            pool = g.enumerate_basis_box(M.C, M.seed, box)
            assert report["pool"] == len(pool), (name, box, full)
            rng = random.Random(11)
            stream = [rng.randrange(len(pool)) for _ in range(draws)]
            assert unranked == list(dict.fromkeys(stream)), (name, box, full)
            assert {pool[i] for i in stream} <= set(X.ids), (name, box, full)


def _short_root(gen):
    """Whether gen is a raise, a lower or an E(m,1): the generators whose
    terms the vector oracle reads from the memo."""
    return gen[0] == "E" and (abs(gen[1] - gen[2]) == 1 or (gen[2] == 1 and gen[1] >= 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_failing_draws_come_in_the_order_the_vector_oracle_draws(module_catalog, data):
    # one doubled memo entry on a shift of the box fails the identities
    # that read it, so the failures list the shift of each failing draw in
    # draw order, against the oracle's randrange draws; box 0 holds only
    # the zero shift, whose one-bit index is re-drawn half the time, and
    # most larger pools are not a power of two in size
    name, M = data.draw(st.sampled_from(module_catalog))
    box = data.draw(st.integers(0, 3))
    pool = BasisBox(M.checker, box)
    X = M.replace()
    y = action._basis_id(X, pool[data.draw(st.integers(0, len(pool) - 1))])
    gens = action._generators(X.n)[0]
    entries = [
        gi
        for gi, gen in enumerate(gens)
        if _short_root(gen) and action._basis_terms(X, gi, y)
    ]
    assume(entries)
    gi = data.draw(st.sampled_from(entries))
    (target, num, den), *rest = X.memo[y + gi]
    X.memo[y + gi] = ((target, 2 * num, den), *rest)
    args = dict(
        box=box,
        samples=data.draw(st.integers(1, 80)),
        seed=data.draw(st.integers(0, 2**32)),
        full=data.draw(st.booleans()),
    )
    report = g.verify_axioms(X, **args)
    assert report == verify_axioms_by_vectors(X, **args), (name, gens[gi])


def test_verify_axioms_counts_its_box_once_per_call(module_catalog, monkeypatch):
    built, counted = [], []
    init, count = BasisBox.__init__, BasisBox._count

    def recording_init(self, checker, box):
        built.append(box)
        init(self, checker, box)

    def recording_count(self, row):
        counted.append(row)
        return count(self, row)

    monkeypatch.setattr(BasisBox, "__init__", recording_init)
    monkeypatch.setattr(BasisBox, "_count", recording_count)
    for name, M in module_catalog:
        for full in (False, True):
            del built[:], counted[:]
            g.verify_axioms(M, box=2, samples=40, full=full)
            assert built == [2], (name, full)
            assert counted.count(()) == 1, (name, full)


def test_failures_carry_the_residual_the_vector_oracle_computes(hw_module):
    # box 0 draws only the seed; one memo coefficient of E21 on it doubled
    M = hw_module.replace()
    z = g.zero_shift(2)
    assert g.verify_axioms(M, box=0, samples=1, full=True)["failures"] == []
    key = _memo_key(M, g.gen_E(2, 1), z)
    (target, num, den), *rest = M.memo[key]
    M.memo[key] = ((target, 2 * num, den), *rest)
    for full in (False, True):
        args = dict(box=0, samples=40, seed=5, full=full)
        report = g.verify_axioms(M, **args)
        assert report["failures"], full
        assert report == verify_axioms_by_vectors(M, **args)
        for failure in report["failures"]:
            assert failure["shift"] == [[0], [0, 0]]
            assert g.vector_from_json(failure["residual"])


def _with_doubled_e21(M):
    """A fresh copy of M whose memo holds E21 on the zero shift with its
    first coefficient doubled, entered before any bracket is built from it."""
    M = M.replace()
    z = g.zero_shift(M.n)
    y, gi = action._basis_id(M, z), action._generators(M.n)[1][g.gen_E(2, 1)]
    (target, num, den), *rest = action._basis_terms(M, gi, y)
    M.memo[y + gi] = ((target, 2 * num, den), *rest)
    return M


def test_verify_axioms_sums_each_passing_pair_once(module_catalog, monkeypatch):
    # box 1 holds 3 shifts, so most draws repeat a pair of identity and
    # shift; the doubled E21 fails [E12,E21]=H1 on the zero shift, which is
    # summed and reported again on every draw
    calls = []
    sums = action._combination_sums

    def recording(M, combination, y):
        calls.append(combination)
        return sums(M, combination, y)

    monkeypatch.setattr(action, "_combination_sums", recording)
    M = dict(module_catalog)["hw-a-n2"]
    names = [name for name, _, _ in axiom_identities(M.n)]
    # the calls of verify_axioms itself, not the brackets the memo builds
    words = {id(w) for _, w in action._compiled_identities(M.n, M.sigma)}
    pool = g.enumerate_basis_box(M.C, M.seed, 1)
    for full in (False, True):
        X = _with_doubled_e21(M)
        args = dict(box=1, samples=100, seed=7, full=full)
        del calls[:]
        report = g.verify_axioms(X, **args)
        rng, drawn, checked = random.Random(7), set(), 0
        while checked < 100:
            z = shift_to_json(pool[rng.randrange(len(pool))])
            batch = range(len(names)) if full else (checked % len(names),)
            drawn.update((names[i], str(z)) for i in batch)
            checked += len(batch)
        failures = report["failures"]
        failing = {(f["identity"], str(f["shift"])) for f in failures}
        assert len(failing) < len(failures), full
        evaluated = sum(id(c) in words for c in calls)
        assert evaluated == len(drawn - failing) + len(failures), full
        assert evaluated < report["samples"], full
        assert report == verify_axioms_by_vectors(X, **args), full


def test_identity_tables_follow_the_flag():
    # 1 and 2 sit side by side in every flag, so some resolved letter is
    # E21 and the doubled coefficient fails identities that depend on sigma
    M = g.hw_module_of((F(-1, 2), F(-1, 3), F(-1, 5)))
    flags = [_with_doubled_e21(M)] + [
        _with_doubled_e21(g.permute_flag(M, sigma))
        for sigma in ((2, 1, 3, 4), (4, 3, 1, 2))
    ]
    reports = []
    for full in (False, True, False):
        for X in flags:
            args = dict(box=0, samples=60, seed=3, full=full)
            report = g.verify_axioms(X, **args)
            assert report["failures"], (X.sigma, full)
            assert report == verify_axioms_by_vectors(X, **args), (X.sigma, full)
            reports.append(json.dumps(report))
    assert len(set(reports)) == 6
    # the tables are the library's own: changing what axiom_identities
    # returned changes no later report
    args = dict(box=0, samples=60, seed=3, full=True)
    before = g.verify_axioms(flags[1], **args)
    ids = axiom_identities(3)
    ids[0][2].append((1, (g.gen_H(1),)))
    del ids[1:]
    assert g.verify_axioms(flags[1], **args) == before


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
    # a seed the module accepts whose basis holds a shift with row 2 (0, 0)
    T = g.tableau(2, [[4], [4, -4], [4, -4, -3]])
    M = g.module(T, g.relation_set(2, [((3, 1), (2, 1)), ((3, 1), (2, 2))]))
    v = g.basis_vector(((-4,), (-4, 4)))
    for gen in (g.gen_E(1, 3), g.gen_E(3, 1), g.gen_E(2, 3), g.gen_E(3, 2)):
        with pytest.raises(CriticalDenominator):
            g.act(M.replace(), gen, v)
    assert g.act(M, g.gen_E(2, 1), v) == vec((((-5,), (-4, 4)), 1))


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


def test_module_in_basis_rejects_shifts_of_the_wrong_shape():
    M = g.hw_module_of((F(-3, 2), F(0)))
    assert M.in_basis(g.zero_shift(2))
    for z in (((0,), (0, 0), (5,)), ((0,), (0, 0, -9)), ((0, 0), (0,))):
        with pytest.raises(ValueError):
            M.in_basis(z)
        with pytest.raises(NotInBasis):
            g.act(M, g.gen_E(2, 1), g.basis_vector(z))


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


def test_intern_tables_are_invisible_to_equality_and_hash(hw_module):
    # the same module, its shifts interned in two different orders
    M, other = hw_module.replace(), hw_module.replace()
    zs = g.enumerate_basis_box(M.C, M.seed, 1)
    for X, order in ((M, zs), (other, zs[::-1])):
        for z in order:
            g.act(X, g.gen_H(1), g.basis_vector(z))
    assert M.ids.keys() == other.ids.keys() and M.ids != other.ids
    assert M == other and hash(M) == hash(other)
    assert "ids" not in repr(M) and "shifts" not in repr(M)


def test_replace_and_transforms_start_with_empty_intern_tables(module_catalog):
    hw = g.hw_module_of((F(-3, 2), F(0)))
    g.verify_axioms(hw, box=1, samples=20)
    M = dict(module_catalog)["lem-key-n3"].replace()
    g.act(M, g.gen_E(3, 1), g.basis_vector(g.zero_shift(3)))
    for X, Y in (
        (hw, hw.replace()),
        (hw, g.localize_e21(hw)),
        (hw, g.twist_e21(hw, F(1, 3))),
        (M, g.permute_flag(M, (3, 1, 2, 4))),
    ):
        assert X.ids and X.shifts
        assert Y.ids == {} and Y.shifts == {} and Y.memo == {}
        assert Y.ids is not X.ids and Y.shifts is not X.shifts


def test_module_tables_are_not_constructor_arguments(hw_module):
    # the checker and the three tables are built by the module, never passed
    for name in ("checker", "memo", "ids", "shifts"):
        with pytest.raises(TypeError):
            g.GTModule(n=2, seed=hw_module.seed, C=hw_module.C, **{name: {}})
    M = hw_module.replace()
    g.verify_axioms(M, box=1, samples=10, seed=2)
    fresh = M.replace()
    assert fresh == M and fresh.checker is not M.checker
    assert fresh.memo == {} and fresh.ids == {} and fresh.shifts == {}


def test_rejected_shifts_do_not_enter_the_intern_table(hw_module):
    M = hw_module.replace()
    g.act(M, g.gen_E(2, 1), g.basis_vector(g.zero_shift(2)))
    ids, shifts = dict(M.ids), dict(M.shifts)
    # outside the basis, then of the wrong shape
    for z in (((5,), (0, 0)), ((0,), (0,)), ((0,), (0, 0), (5,)), ((0, 0), (0,))):
        for gen in (g.gen_E(2, 1), g.gen_H(1), g.gen_E(1, 3)):
            with pytest.raises(NotInBasis):
                g.act(M, gen, g.basis_vector(z))
            with pytest.raises(NotInBasis):
                g.commutator(M, gen, g.gen_E(1, 2), g.basis_vector(z))
        with pytest.raises(NotInBasis):
            g.is_highest_weight_vector(M, g.basis_vector(z))
    assert M.ids == ids and M.shifts == shifts


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


def test_sweep_labels_weights_by_the_flag(module_catalog):
    # a weight is read as the eigenvalues of act(M, H_k, .), each H_k
    # resolved through the flag, by the sweep and by weight_multiplicity
    # alike; a highest weight vector for the flag has multiplicity 1
    named = dict(module_catalog)
    modules = [named["flag-permuted-n3"]] + [
        g.permute_flag(named[name], sigma)
        for name in ("hw-a-n2-dominant", "lem-key-n3", "hw-a-n3-minorbit")
        for sigma in permutations(range(1, named[name].n + 2))
    ]
    highest = 0
    for M in modules:
        box = 2 if M.n == 2 else 1
        shifts = BasisBox(M.checker, box).shifts()
        eigen = Counter(
            tuple(
                g.act(M, g.gen_H(k), g.basis_vector(z)).get(z, F(0))
                for k in range(1, M.n + 1)
            )
            for z in shifts
        )
        sweep = g.weight_multiplicity_sweep(M, box)
        assert sweep == eigen, M.sigma
        complete = M.checker.in_box(box)
        for w, count in sweep.items():
            assert g.weight_multiplicity(M, w, box) == (count, complete), M.sigma
        for z in shifts:
            w = g.is_highest_weight_vector(M, g.basis_vector(z))
            if w is not None:
                highest += 1
                assert sweep[w] == 1, (M.sigma, z)
    assert highest >= 10


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


def test_weight_multiplicity_rejects_a_negative_box_on_and_off_the_lattice(hw_module):
    w = g.weight_of(hw_module.seed)
    for weight in (w, (w[0] + F(1, 2),) + w[1:]):
        with pytest.raises(ValueError):
            g.weight_multiplicity(hw_module, weight, -1)


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


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(*[_coord] * n)), st.data())
def test_every_interned_id_names_a_basis_shift(lam, data):
    try:
        M = g.hw_module_of(lam)
    except GtrelError:
        assume(False)
    seed = data.draw(st.integers(0, 99))
    g.verify_axioms(M, box=1, samples=40, seed=seed, full=True)
    stride = len(action._generators(M.n)[0])
    assert sorted(M.shifts) == [stride * k for k in range(len(M.shifts))]
    assert {y: z for z, y in M.ids.items()} == M.shifts
    for z in M.shifts.values():
        assert M.in_basis(z), (lam, z)
    for key, terms in M.memo.items():
        assert key - key % stride in M.shifts
        for t, _, _ in terms:
            assert t in M.shifts, (lam, key, t)


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


def _reshaped(M, data):
    """M, its E21 localization and twist and M under a non-identity flag
    permutation (a permuted H resolves to several H), each kept when it
    can be built."""
    x = data.draw(st.sampled_from((F(1, 3), F(1, 2), F(-2, 5))))
    # the identity comes first in lex order
    sigma = data.draw(st.sampled_from(list(permutations(range(1, M.n + 2)))[1:]))
    out = [M]
    for make in (g.localize_e21, lambda M: g.twist_e21(M, x)):
        try:
            out.append(make(M))
        except GtrelError:
            pass
    return out + [g.permute_flag(M, sigma)]


@settings(max_examples=30, deadline=None)
@given(hw_modules(), st.data())
def test_verify_axioms_reports_what_the_vector_oracle_reports(M, data):
    seed = data.draw(st.integers(0, 2**16))
    for X in _reshaped(M, data):
        for full, samples in ((False, 60), (True, 1)):
            args = dict(box=2, samples=samples, seed=seed, full=full)
            got = json.dumps(g.verify_axioms(X.replace(), **args))
            want = json.dumps(verify_axioms_by_vectors(X.replace(), **args))
            assert got == want, g.module_to_json(X)


def _casimir_by_vectors(M, v):
    h = g.gen_H(1)
    h1 = act_by_vectors(M, h, v) + v
    h2 = act_by_vectors(M, h, h1) + h1
    e = act_by_vectors(M, g.gen_E(2, 1), act_by_vectors(M, g.gen_E(1, 2), v))
    return h2 + e.scale(4)


@settings(max_examples=25, deadline=None)
@given(hw_modules(), st.data())
def test_word_evaluator_matches_the_vector_oracle(M, data):
    # every in-range generator, the long-root ones that are not E(m,1)
    # included; under a permuted flag an H resolves to several signed H
    coeffs = st.sampled_from((F(1), F(-2), F(1, 3), F(-5, 2)))
    for X in _reshaped(M, data):
        lib, ref = X.replace(), X.replace()
        pool = BasisBox(X.checker, 2)
        index = st.integers(0, len(pool) - 1)
        vectors = [g.basis_vector(pool[data.draw(index)]) for _ in range(2)]
        vectors.append(
            GTVector((pool[data.draw(index)], data.draw(coeffs)) for _ in range(3))
        )
        gens = all_generators(X.n)
        pairs = data.draw(st.lists(st.tuples(*[st.sampled_from(gens)] * 2), max_size=6))
        for v in vectors:
            for gen in gens:
                assert g.act(lib, gen, v) == act_by_vectors(ref, gen, v), (gen, v)
            for a, b in pairs:
                got = g.commutator(lib, a, b, v)
                assert got == commutator_by_vectors(ref, a, b, v), (a, b, v)
            assert g.casimir_alpha1(lib, v) == _casimir_by_vectors(ref, v), v


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fused_word_evaluator_matches_the_layered_loop(module_catalog, data):
    # random combinations of resolved words, the empty word among them;
    # under the catalog's permuted flag an H resolves to several signed H
    name, M = data.draw(st.sampled_from(module_catalog))
    X = M.replace()
    letters = [action._letter(X.n, X.sigma, gen) for gen in all_generators(X.n)]
    word = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    combination = data.draw(
        st.lists(st.tuples(st.integers(-3, 3), word), min_size=1, max_size=4)
    )
    words = [action._word(coef, w) for coef, w in combination]
    pool = BasisBox(X.checker, 2)
    y = action._intern(X, pool[data.draw(st.integers(0, len(pool) - 1))])
    got = list(action._combination_sums(X, words, y).items())
    want = list(combination_sums_by_layers(X, combination, y).items())
    assert got == want, (name, combination)


def test_compiled_identities_are_the_resolved_identities_split(module_catalog):
    # the catalog holds the identity flag at ranks 1..3 and (3, 1, 2, 4)
    flags = {(M.n, M.sigma) for _, M in module_catalog}
    assert (3, (3, 1, 2, 4)) in flags
    for n, sigma in flags:
        want = tuple(
            (
                name,
                tuple(
                    action._word(coef, [action._letter(n, sigma, x) for x in word[::-1]])
                    for coef, word in comb
                ),
            )
            for name, _, comb in axiom_identities(n)
        )
        assert action._compiled_identities(n, sigma) == want, (n, sigma)


def test_is_simple_reduces_once_on_a_reloaded_module(monkeypatch):
    # the reloaded C is the seed's maximal set, unmarked: only the new
    # seed's maximal set is reduced
    relations = sys.modules["gtrel.relations"]
    reduce = relations._reduce
    seen = []
    monkeypatch.setattr(relations, "_reduce", lambda C: seen.append(C) or reduce(C))
    for lam in ((F(-3, 2), F(0)), (F(-5, 2), F(0), F(1)), (F(-2), F(0))):
        M = g.module_from_json(g.module_to_json(g.hw_module_of(lam)))
        del seen[:]
        report = g.is_simple(M)
        assert len(seen) == 1, lam
        assert report == is_simple_by_closure(M), lam


FAMILY_FRACTIONS = (F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(2, 5), F(1, 7))


@st.composite
def family_modules(draw):
    """A dense-family module, Q or some C^m, with random parameters."""
    n = draw(st.integers(2, 3))
    fracs = draw(st.permutations(FAMILY_FRACTIONS))[: n + 1]
    u = [draw(st.integers(-3, 3)) + f for f in fracs]
    v = [F(draw(st.integers(0, 4)))]
    for _ in range(n - 1):
        v.append(v[-1] - draw(st.integers(1, 2)))
    m = draw(st.none() | st.integers(2, n))
    if m is not None:
        u[m:] = [u[m - 1]] * (n + 1 - m)
    return g.module(*g.family_tableau(u, v, m))


def _admissible_variants(M, draw):
    """Modules on M's seed whose C is a strict subset of the seed's maximal
    set: M.C less some arrows, and M.C plus some arrows of that set, each
    move kept when the module can still be built."""
    sat = g.satisfied_relations(M.seed).relations
    out = []
    for moves in (M.C.relations, sat - M.C.relations):
        rels = set(M.C.relations)
        for rel in draw(st.permutations(sorted(moves)))[: draw(st.integers(1, 6))]:
            try:
                g.module(M.seed, g.relation_set(M.n, rels ^ {rel}))
            except (GtrelError, ValueError):
                continue
            rels ^= {rel}
        if rels < sat:
            out.append(g.module(M.seed, g.relation_set(M.n, rels)))
    return out


def test_is_simple_matches_the_closure_oracle():
    outcomes = set()

    # hw modules built and JSON-loaded, their localizations and variants,
    # and family modules
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        st.integers(2, 4).flatmap(lambda n: st.tuples(*[_coord] * n)),
        family_modules(),
        st.data(),
    )
    def check(lam, family, data):
        try:
            M = g.hw_module_of(lam)
        except GtrelError:
            assume(False)
        modules = [M, g.module_from_json(g.module_to_json(M)), family]
        if g.e21_injective(M.C) and not g.e21_surjective(M.C):
            modules.append(g.localize_e21(M))
        modules += _admissible_variants(M, data.draw)
        for X in modules:
            report = g.is_simple(X)
            assert report == is_simple_by_closure(X), g.module_to_json(X)
            outcomes.add((report["maximal_eq"], report["witness"] is None))

    check()
    assert outcomes == {(True, True), (False, False)}


def test_is_simple_on_the_seeds_maximal_set_reads_it_once(monkeypatch):
    # the seed's satisfied set is derived once, for its maximal set, and
    # is_simple on that set runs no search of the checker (its arcs are
    # built on the first) and computes no bounds
    tableau = sys.modules["gtrel.tableau"]
    satisfied = tableau.satisfied_relations
    calls = []

    def counted(T):
        calls.append(T)
        return satisfied(T)

    monkeypatch.setattr(tableau, "satisfied_relations", counted)
    for lam in ((F(-3, 2), F(0)), (F(-4), F(0), F(1)), (F(1, 3), F(-7, 3))):
        M = g.hw_module_of(lam)
        back = g.module_from_json(g.module_to_json(M))
        for X in (M, back):
            report = g.is_simple(X)
            assert report == {"maximal_eq": True, "strict_eq": True, "witness": None}
            assert "_arcs" not in vars(X.checker), lam
            assert "cuts" not in vars(X.checker), lam
            assert report == is_simple_by_closure(X)
        assert calls == [M.seed, back.seed], lam
        calls.clear()


def _assert_memo_matches_the_fraction_formula(M):
    """Every memo entry is reduced and equals the Gelfand-Tsetlin formula
    in Fraction arithmetic on the entries of T(seed+z)."""
    assert M.memo
    for gen, z, terms in memo_entries(M):
        targets = [t for t, _, _ in terms]
        assert len(set(targets)) == len(targets), (gen, z)
        for _, num, den in terms:
            assert type(num) is int and type(den) is int, (gen, z)
            assert den > 0 and num != 0 and gcd(num, den) == 1, (gen, z, num, den)
        got = GTVector((t, F(num, den)) for t, num, den in terms)
        assert got == primitive_by_fractions(M, gen, z), (gen, z)


@st.composite
def mixed_denominator_modules(draw):
    """hw modules of rank <= 3 whose weights hold an entry over 2 and one
    over 3, so that the common denominator of the seed is a multiple of 6."""
    n = draw(st.integers(1, 3))
    third = F(3 * draw(st.integers(-4, 3)) + draw(st.sampled_from((1, 2))), 3)
    if n == 1:
        lam = (third,)
    else:
        half = F(2 * draw(st.integers(-6, 5)) + 1, 2)
        rest = [draw(_coord) for _ in range(n - 2)]
        lam = tuple(draw(st.permutations([half, third, *rest])))
    try:
        M = g.hw_module_of(lam)
    except GtrelError:
        assume(False)
    assume(M.seed.scaled[0] % 6 == 0)
    return M


@settings(max_examples=25, deadline=None)
@given(mixed_denominator_modules(), st.data())
def test_memo_entries_equal_the_fraction_formula(M, data):
    seed = data.draw(st.integers(0, 99))
    for X in _reshaped(M, data):
        X = X.replace()
        g.verify_axioms(X, box=1, samples=1, seed=seed, full=True)
        _assert_memo_matches_the_fraction_formula(X)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_memo_entries_equal_the_fraction_formula_on_sl2_induced_modules(data):
    lvl = g.Level(*data.draw(st.sampled_from(((2, 3, 2), (2, 5, 2), (3, 5, 2)))))
    rep = data.draw(st.sampled_from([r for r, _ in g.minimal_orbit_reps(lvl)]))
    branch = data.draw(st.sampled_from([w for w, _ in g.hw_orbit_list(lvl, rep)]))
    x = data.draw(st.sampled_from((F(1, 3), F(1, 2), F(-2, 5))))
    try:
        M = g.build_sl2_induced_minimal(lvl, rep, branch, x).module
    except GtrelError:
        assume(False)
    seed = data.draw(st.integers(0, 99))
    for X in _reshaped(M, data):
        X = X.replace()
        g.verify_axioms(X, box=1, samples=1, seed=seed, full=True)
        _assert_memo_matches_the_fraction_formula(X)
