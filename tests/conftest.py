"""Shared fixtures: the catalog of constructor-produced modules used
across the test suite."""

from fractions import Fraction

import pytest

import gtrel as g

F = Fraction


def catalog():
    """(name, module) pairs covering every constructor over n in 1..3."""
    entries = []

    # n=1 highest weight, case a
    T, C = g.hw_tableau_case_a((F(-1, 2),))
    entries.append(("hw-a-n1", g.module(T, C)))

    # n=2 highest weight, case a (minimal-orbit Lambda_1)
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    m_hw = g.module(T, C)
    entries.append(("hw-a-n2", m_hw))

    # n=2 integral dominant (finite-dimensional), still case a
    T, C = g.hw_tableau_case_a((F(1), F(1)))
    entries.append(("hw-a-n2-dominant", g.module(T, C)))

    # n=2 highest weight, case b
    T, C = g.hw_tableau_case_b((F(-2), F(0)), 1, 1)
    entries.append(("hw-b-n2", g.module(T, C)))

    # n=3 highest weight, case b
    T, C = g.hw_tableau_case_b((F(-4), F(0), F(1)), 1, 1)
    entries.append(("hw-b-n3", g.module(T, C)))

    # n=2 generic (Verma-like) seed: all pairings off the last column
    # non-integral
    lam = (F(1, 3), F(-7, 3))
    assert g.verma_simple_relation(lam)
    T, C = g.hw_tableau_case_a(lam)
    entries.append(("verma-generic-n2", g.module(T, C)))

    # n=2 dense family
    u = (F(1, 2), F(1, 3), F(1, 5))
    v = (F(2), F(0))
    T, Q = g.family_tableau(u, v)
    m_fam = g.module(T, Q)
    entries.append(("family-n2", m_fam))

    # n=2 degenerate family C^m
    u2 = (F(1, 2), F(1, 3), F(1, 3))
    T, Cm = g.family_tableau(u2, v, m=2)
    entries.append(("family-cm-n2", g.module(T, Cm)))

    # n=3 twisted-Borel seed
    T, C = g.lem_key_tableau((F(0), F(-1, 2), F(-1, 2)), 2)
    m_key = g.module(T, C)
    entries.append(("lem-key-n3", m_key))

    # transforms of the Lambda_1 module
    entries.append(("localized-n2", g.localize_e21(m_hw)))
    entries.append(("twisted-n2", g.twist_e21(m_hw, F(1, 3))))
    entries.append(("quotient-n2", g.quotient_top(g.localize_e21(m_hw), m_hw)))
    entries.append(("flag-permuted-n3", g.permute_flag(m_key, (3, 1, 2, 4))))

    # n=3 minimal-orbit highest weight module
    T, C = g.hw_tableau_case_a((F(-5, 2), F(0), F(1)))
    entries.append(("hw-a-n3-minorbit", g.module(T, C)))

    return entries


@pytest.fixture(scope="session")
def module_catalog():
    return catalog()


@pytest.fixture(scope="session")
def hw_module():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    return g.module(T, C)


@pytest.fixture(scope="session")
def family_module():
    T, Q = g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), (F(2), F(0)))
    return g.module(T, Q)


@pytest.fixture(scope="session")
def family_module_n3():
    T, Q = g.family_tableau(
        (F(1, 2), F(1, 3), F(1, 5), F(1, 7)), (F(4), F(2), F(0))
    )
    return g.module(T, Q)


@pytest.fixture(scope="session")
def large_catalog():
    """Generic sl5 and sl6 highest weight modules (infinite bases).  Kept
    out of `catalog()`: a full scan of the box cannot finish at sl6."""
    lams = [
        (F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7)),
        (F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7), F(-1, 11)),
    ]
    return [("generic-n%d" % len(lam), g.hw_module_of(lam)) for lam in lams]
