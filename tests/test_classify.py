from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.classify import Sl2InducedParams
from gtrel.errors import DegenerateDense, NonSquareGamma
from gtrel.tableau import _hw_seed, _hw_top_values
from oracles import (
    bounded_case_by_fractions,
    hw_relation_case_by_pairings,
    hw_top_values_by_fractions,
    verma_simple_by_fractions,
)


def test_hw_case_examples():
    assert g.hw_relation_case((F(-3, 2), F(0))).tag == "CaseA"
    case = g.hw_relation_case((F(-2), F(0)))
    assert (case.tag, case.i, case.j) == ("CaseB", 1, 1)
    # a nonpositive-integer pairing on a last-column root is allowed
    assert g.hw_relation_case((F(0), F(-2))).tag == "CaseA"


PAIRINGS = [F(k) for k in range(-3, 4)] + [F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)]


@st.composite
def near_case_b_weights(draw):
    """A weight whose pairings are positive integers on alpha_k for k > j
    and a nonpositive integer on alpha_{i,n}, at a drawn i <= j < n; the
    other pairings are drawn, so it is case b or not a relation weight."""
    n = draw(st.integers(2, 6))
    i = draw(st.integers(1, n - 1))
    j = draw(st.integers(i, n - 1))
    a = [draw(st.sampled_from(PAIRINGS)) for _ in range(n)]
    for k in range(j, n):
        a[k] = F(draw(st.integers(1, 3)))
    a[i - 1] -= sum(a[i - 1 :]) + draw(st.integers(0, 3))
    return tuple(x - 1 for x in a)


@st.composite
def weights_from_pairings(draw):
    """A weight whose simple-root pairings are drawn from PAIRINGS, so that
    many of them are integers of either sign."""
    a = draw(st.lists(st.sampled_from(PAIRINGS), min_size=1, max_size=6))
    return tuple(x - 1 for x in a)


WEIGHTS = st.one_of(
    st.lists(
        st.builds(F, st.integers(-8, 8), st.sampled_from((1, 1, 2, 3))),
        min_size=1,
        max_size=6,
    ).map(tuple),
    near_case_b_weights(),
    weights_from_pairings(),
)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS)
def test_hw_case_matches_one_pairing_sum_per_test(lam):
    assert g.hw_relation_case(lam) == hw_relation_case_by_pairings(lam)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS)
def test_bounded_case_and_verma_simplicity_match_fraction_pairings(lam):
    assert g.bounded_case(lam) == bounded_case_by_fractions(lam)
    assert g.verma_simple_relation(lam) == verma_simple_by_fractions(lam)


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_case_b_weights(), weights_from_pairings()), st.data())
def test_hw_seed_values_match_fraction_sums(lam, data):
    case = g.hw_relation_case(lam)
    assume(case.tag != "NotRelation")
    normalization = data.draw(st.sampled_from(("hw", "sl2")))
    v = _hw_top_values(lam, normalization)
    assert v == hw_top_values_by_fractions(lam, normalization)
    T = _hw_seed(lam, case, normalization)
    assert T == g.tableau(T.n, T.rows)
    assert all(type(x) is F for row in T.rows for x in row)
    assert sorted(T.rows[-1]) == sorted(v)


def test_coordinates_may_be_ints_and_rational_strings():
    for lam, text in [
        ((F(-3, 2), F(0)), ("-3/2", 0)),
        ((F(-2), F(0)), (-2, "0")),
        ((F(0), F(-1, 2), F(-1, 2)), (0, "-1/2", F(-1, 2))),
    ]:
        assert g.hw_relation_case(text) == g.hw_relation_case(lam)
        assert g.bounded_case(text) == g.bounded_case(lam)
        assert g.verma_simple_relation(text) == g.verma_simple_relation(lam)
        assert g.pairing(text, 1, 2) == g.pairing(lam, 1, 2)
        if g.hw_relation_case(lam).tag != "NotRelation":
            assert g.module_to_json(g.hw_module_of(text)) == g.module_to_json(
                g.hw_module_of(lam)
            )


@pytest.mark.parametrize(
    "decide", [g.hw_relation_case, g.bounded_case, g.verma_simple_relation]
)
def test_an_empty_weight_is_rejected(decide):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        decide(())


def test_hw_case_not_relation():
    # alpha_1 pairing in Z_{<=0} but alpha_{1,2} pairing in Z_{>0}
    assert g.hw_relation_case((F(-2), F(3))).tag == "NotRelation"


def test_bounded_case_examples():
    assert g.bounded_case((F(-3, 2), F(0))) == "b"
    assert g.bounded_case((F(0), F(-3, 2))) == "a"
    assert g.bounded_case((F(1), F(1))) is None  # integral dominant
    assert g.bounded_case((F(0), F(-1, 2), F(-1, 2))) == ("e", 2)
    # only alpha_2 fails to pair to a positive integer, alpha_{1,2} does
    # and alpha_{2,3} pairs to one <= 0
    assert g.bounded_case((F(2), F(-3), F(0))) == ("d", 2)


def test_verma_simple():
    # pairings (1/3, -7/3): only last-column roots may be integral
    assert g.verma_simple_relation((F(-2, 3), F(-10, 3)))
    assert not g.verma_simple_relation((F(0), F(0)))
    assert not g.verma_simple_relation((F(1), F(-10, 3)))


def test_resolve_sl2_branches():
    params = Sl2InducedParams(F(1, 4), (F(-5, 6), F(-1, 3)))
    got = {(lam, x) for lam, x, _ in g.resolve_sl2_induced(params)}
    assert ((F(-3, 2), F(0)), F(1, 3)) in got
    assert ((F(-1, 2), F(-1, 2)), F(-1, 6)) in got
    assert len(got) == 2


def test_resolve_sl2_skips_a_branch_with_lambda1_plus_1_in_zgeq0():
    # gamma = 4: the branch of sign +1 has lambda_1 = 1, so only -3 is kept
    params = Sl2InducedParams(F(4), (F(1, 3), F(0)))
    assert g.resolve_sl2_induced(params) == [
        ((F(-3), F(5, 3)), F(5, 3), g.hw_relation_case((F(-3), F(5, 3))))
    ]


def test_resolve_sl2_errors():
    with pytest.raises(NonSquareGamma):
        g.resolve_sl2_induced(Sl2InducedParams(F(2), (F(0), F(0))))
    # gamma = (mu_1 + 1)^2 sits on the excluded lattice
    with pytest.raises(DegenerateDense):
        g.resolve_sl2_induced(Sl2InducedParams(F(1, 4), (F(-1, 2), F(0))))


def test_resolve_sl2_rejects_integral_x():
    # mu_1 - lam_1 even forces x integral on one branch
    params = Sl2InducedParams(F(1, 4), (F(-5, 6), F(-1, 3)))
    branches = g.resolve_sl2_induced(params)
    for _, x, _ in branches:
        assert x.denominator != 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=1, max_size=3
    ),
    st.builds(F, st.integers(-12, 12), st.integers(2, 6)).filter(
        lambda p1: p1.denominator != 1
    ),
    st.booleans(),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)
def test_resolve_sl2_inverts_the_forward_map(tail, p1, off_pairing, offset):
    # lambda with alpha_1 pairing p1, twisted by x, induces the module with
    # gamma = p1^2 and mu = (lambda_1 + 2x, lambda_2 - x, lambda_3, ...); x
    # is drawn near Z or near -p1 + Z so that both verdicts come up often
    lam = (p1 - 1,) + tuple(tail)
    x = offset - p1 if off_pairing else offset
    params = Sl2InducedParams(p1**2, (lam[0] + 2 * x, lam[1] - x) + lam[2:])
    if x.denominator == 1 or (x + p1).denominator == 1:
        with pytest.raises(DegenerateDense):
            g.resolve_sl2_induced(params)
    else:
        assert (lam, x) in {(w, y) for w, y, _ in g.resolve_sl2_induced(params)}


def test_family_is_simple():
    assert g.family_is_simple((F(1, 2), F(1, 3), F(1, 5)))
    assert not g.family_is_simple((F(1, 2), F(1, 3), F(4, 3)))


def test_pairing_partial_sums():
    lam = (F(-3, 2), F(0))
    assert g.pairing(lam, 1, 1) == F(-1, 2)
    assert g.pairing(lam, 2, 2) == F(1)
    assert g.pairing(lam, 1, 2) == F(1, 2)


@pytest.mark.parametrize("r, s", [(0, 1), (0, 0), (2, 1), (1, 3), (3, 3), (-1, 2)])
def test_pairing_rejects_a_root_out_of_range(r, s):
    with pytest.raises(ValueError, match="no root"):
        g.pairing((F(1), F(2)), r, s)
