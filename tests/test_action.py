from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.action import GTVector, _cartan, axiom_identities, em1_bracket
from gtrel.errors import CriticalDenominator, UnsupportedGenerator


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
    report = g.verify_axioms_full(hw_module, box=2, samples=10, seed=1)
    assert report["failures"] == []


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


def test_weight_multiplicity_complete_only_when_box_holds_basis():
    # the sl3 adjoint module is finite; its zero weight has multiplicity 2,
    # and only box 2 holds every coordinate's range
    M = g.hw_module_of((F(1), F(1)))
    assert g.weight_multiplicity(M, (0, 0), 0) == (0, False)
    assert g.weight_multiplicity(M, (0, 0), 1)[1] is False
    assert g.weight_multiplicity(M, (0, 0), 2) == (2, True)


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
    from gtrel.tableau import shift_neg

    z1 = shift_neg(g.unit_shift(2, 2, 1))
    v = vec((z0, a), (z1, b))
    gen = g.gen_E(2, 3)
    lhs = g.act(M, gen, v.scale(c))
    rhs = g.act(M, gen, v).scale(c)
    assert lhs == rhs
