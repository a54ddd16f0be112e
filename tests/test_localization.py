from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel import action
from gtrel.errors import (
    BadTwist,
    GtrelError,
    IncompatiblePair,
    NotARealization,
    NotInjective,
    WrongShape,
)
from gtrel.localization import LocalizationSpec
from oracles import (
    act_by_vectors,
    empirical_images_distinct,
    empirical_kernel_witness,
    empirical_surjective,
    twisted_action_direct,
)


def hw_n2():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    return g.module(T, C)


def test_e21_predicates():
    M = hw_n2()
    assert g.e21_injective(M.C)
    assert not g.e21_surjective(M.C)
    loc = g.localize_e21(M)
    assert g.e21_injective(loc.C) and g.e21_surjective(loc.C)


def test_localize_e21_requires_injective():
    M = hw_n2()
    loc = g.localize_e21(M)
    up = loc.C.union({((1, 1), (2, 1))})
    bad = M.replace(C=up, seed=g.apply_shift(M.seed, g.unit_shift(2, 1, 1)))
    with pytest.raises(NotInjective):
        g.localize_e21(bad)


def test_localize_matches_kernel_scan():
    M = hw_n2()
    # injective but not surjective before localizing, bijective after
    assert empirical_kernel_witness(M, 2, 3) is None
    assert not empirical_surjective(M, 2, 3)
    loc = g.localize_e21(M)
    assert empirical_kernel_witness(loc, 2, 3) is None
    assert empirical_surjective(loc, 2, 3)
    assert empirical_images_distinct(loc, 2, 3)


def test_twist_values():
    M = hw_n2()
    loc = g.localize_e21(M)
    tw = g.twist_e21(loc, F(1, 3))
    assert tw.seed.rows[0][0] == M.seed.rows[0][0] + F(1, 3)
    z0 = g.zero_shift(2)
    out = g.act(tw, g.gen_H(1), g.basis_vector(z0))
    assert out[z0] == F(-5, 6)


def test_twist_builds_one_module(monkeypatch):
    M = hw_n2()
    D = g.localize_e21(M).C
    built = []
    checker = action.BasisChecker
    monkeypatch.setattr(
        action, "BasisChecker", lambda C, seed: built.append(C) or checker(C, seed)
    )
    for x in (F(1, 3), F(0), F(-2, 5)):
        del built[:]
        tw = g.twist_e21(M, x)
        assert built == [D] and tw.C == D, x
    up = D.union({((1, 1), (2, 1))})
    bad = M.replace(C=up, seed=g.apply_shift(M.seed, g.unit_shift(2, 1, 1)))
    with pytest.raises(NotInjective):
        g.twist_e21(bad, F(1, 3))


def _localized_set_or_error(localize):
    try:
        return localize().C
    except (GtrelError, ValueError) as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=4
    ),
)
def test_twist_fails_exactly_when_localization_does(lam):
    # no arrow of the localized set touches (1,1), so shifting that entry
    # cannot change the module's verdict on the seed
    try:
        M = g.hw_module_of(tuple(lam))
    except (GtrelError, ValueError):
        assume(False)
    assume(g.e21_injective(M.C) and not g.e21_surjective(M.C))
    localized = _localized_set_or_error(lambda: g.localize_e21(M))
    for x in (F(0), F(1, 3), F(-2, 5), F(7, 2), F(-1)):
        assert _localized_set_or_error(lambda: g.twist_e21(M, x)) == localized, x


def test_twist_of_a_module_whose_localization_is_no_realization():
    C = g.relation_set(
        2,
        [
            ((2, 1), (1, 1)),
            ((2, 2), (1, 1)),
            ((2, 2), (3, 2)),
            ((2, 2), (3, 3)),
            ((3, 1), (3, 2)),
            ((3, 1), (3, 3)),
            ((3, 2), (3, 3)),
        ],
    )
    M = g.module(g.tableau(2, ((-2,), (-2, 1), (0, -2, -3))), C)
    with pytest.raises(NotARealization):
        g.localize_e21(M)
    for x in (F(0), F(1, 3)):
        with pytest.raises(NotARealization, match="tableau is not a C-realization"):
            g.twist_e21(M, x)


def test_twist_zero_is_identity():
    M = hw_n2()
    loc = g.localize_e21(M)
    tw = g.twist_e21(loc, F(0))
    assert tw.seed == loc.seed and tw.C == loc.C


def test_twisted_action_direct_agrees():
    M = hw_n2()
    loc = g.localize_e21(M)
    x = F(1, 3)
    tw = g.twist_e21(loc, x)
    gens = [g.gen_H(1), g.gen_H(2), g.gen_E(1, 2), g.gen_E(2, 1), g.gen_E(2, 3), g.gen_E(3, 2)]
    for z in g.enumerate_basis_box(tw.C, tw.seed, 2):
        v = g.basis_vector(z)
        for gen in gens:
            assert twisted_action_direct(loc, x, gen, v) == g.act(tw, gen, v)


def test_quotient_top():
    M = hw_n2()
    loc = g.localize_e21(M)
    Q = g.quotient_top(loc, M)
    assert ((1, 1), (2, 1)) in Q.C.relations
    assert Q.seed.rows[0][0] == M.seed.rows[0][0] + 1
    report = g.is_simple(Q)
    assert report["maximal_eq"] and report["strict_eq"]


def test_quotient_requires_sub_of_localization():
    M = hw_n2()
    with pytest.raises(IncompatiblePair):
        g.quotient_top(M, M)


def test_em1_predicates_match_empirical(family_module, module_catalog):
    named = dict(module_catalog)
    for M in (family_module, named["family-cm-n2"], named["hw-a-n2"]):
        for m in (2, 3):
            inj = g.em1_injective(M, m)
            assert inj == (empirical_kernel_witness(M, m, 4) is None)
            sur = g.em1_surjective(M, m)
            assert sur == empirical_surjective(M, m, 4)


def test_em1_predicates_need_family_shape(module_catalog):
    named = dict(module_catalog)
    with pytest.raises(WrongShape):
        g.em1_injective(named["hw-b-n2"], 2)
    with pytest.raises(WrongShape):
        g.em1_surjective(named["verma-generic-n2"], 2)


def test_localize_family():
    M = hw_n2()
    loc = g.localize_family(M, LocalizationSpec((2, 3)))
    for m in (2, 3):
        assert g.em1_injective(loc, m) and g.em1_surjective(loc, m)
    assert empirical_kernel_witness(loc, 3, 4) is None
    assert empirical_surjective(loc, 3, 4)


def test_localize_family_rejects_bijective(family_module, module_catalog):
    # the generic family is already bijective at every target
    with pytest.raises(NotInjective):
        g.localize_family(family_module, LocalizationSpec((2,)))
    named = dict(module_catalog)
    loc = g.localize_family(named["family-cm-n2"], LocalizationSpec((3,)))
    with pytest.raises(NotInjective):
        g.localize_family(loc, LocalizationSpec((3,)))


def test_localize_family_twist():
    M = hw_n2()
    spec = LocalizationSpec((2,), F(1, 7))
    loc = g.localize_family(M, spec)
    assert loc.seed.rows[0][0] == M.seed.rows[0][0] + F(1, 7)
    with pytest.raises(BadTwist):
        # x = 1/2 makes the two row-2 entries integer-linked while the
        # relation set keeps them in separate components
        g.localize_family(M, LocalizationSpec((2, 3), F(1, 2)))


def test_permute_flag_round_trip(module_catalog):
    named = dict(module_catalog)
    M = named["lem-key-n3"]
    sigma = (3, 1, 2, 4)
    P = g.permute_flag(M, sigma)
    inverse = tuple(sigma.index(i) + 1 for i in range(1, 5))
    back = g.permute_flag(P, inverse)
    assert back.sigma == M.sigma
    z0 = g.zero_shift(3)
    v = g.basis_vector(z0)
    for k in (1, 2, 3):
        lhs = g.act(P, g.gen_H(k), v)
        a, b = sigma[k - 1], sigma[k]
        # permuted H(k) sums the primitive H's between positions a and b
        sign = 1 if a < b else -1
        lo, hi = min(a, b), max(a, b)
        rhs = GTV_sum(M, range(lo, hi), v).scale(sign)
        assert lhs == rhs


def GTV_sum(M, ks, v):
    from gtrel.action import GTVector

    out = GTVector()
    for k in ks:
        out = out + act_by_vectors(M, ("H", k), v)
    return out


def test_spec_sorts_its_targets():
    spec = LocalizationSpec((3, 2), F(-1, 6))
    assert spec.targets == (2, 3)
