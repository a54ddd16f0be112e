from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtrel as g
from gtrel.classify import Sl2InducedParams
from gtrel.errors import DegenerateDense, NonSquareGamma
from oracles import hw_relation_case_by_pairings


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


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.builds(F, st.integers(-8, 8), st.sampled_from((1, 1, 2, 3))),
            min_size=1,
            max_size=6,
        ).map(tuple),
        near_case_b_weights(),
    )
)
def test_hw_case_matches_one_pairing_sum_per_test(lam):
    assert g.hw_relation_case(lam) == hw_relation_case_by_pairings(lam)


def test_hw_case_not_relation():
    # alpha_1 pairing in Z_{<=0} but alpha_{1,2} pairing in Z_{>0}
    assert g.hw_relation_case((F(-2), F(3))).tag == "NotRelation"


def test_bounded_case_examples():
    assert g.bounded_case((F(-3, 2), F(0))) == "b"
    assert g.bounded_case((F(0), F(-3, 2))) == "a"
    assert g.bounded_case((F(1), F(1))) is None  # integral dominant
    assert g.bounded_case((F(0), F(-1, 2), F(-1, 2))) == ("e", 2)


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


def test_family_is_simple():
    assert g.family_is_simple((F(1, 2), F(1, 3), F(1, 5)))
    assert not g.family_is_simple((F(1, 2), F(1, 3), F(4, 3)))


def test_pairing_partial_sums():
    lam = (F(-3, 2), F(0))
    assert g.pairing(lam, 1, 1) == F(-1, 2)
    assert g.pairing(lam, 2, 2) == F(1)
    assert g.pairing(lam, 1, 2) == F(1, 2)
