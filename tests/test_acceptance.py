"""Acceptance suite: one test per release criterion, each ending in a
single PASS line so the run log reads as a checklist."""

import random
import time
from fractions import Fraction as F

import gtrel as g
from gtrel.classify import Sl2InducedParams
from gtrel.errors import GtrelError, WrongShape
from gtrel.localization import LocalizationSpec
from gtrel.minimal_orbit import (
    Level,
    MinOrbitWeight,
    hw_orbit_list,
    minimal_orbit_reps,
)
from oracles import (
    em1_bracket,
    empirical_kernel_witness,
    empirical_surjective,
    twisted_action_direct,
)


def _sample_shifts(M, box, count, seed):
    rng = random.Random(seed)
    pool = g.enumerate_basis_box(M.C, M.seed, box)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def test_criterion_1_axiom_suite(module_catalog, large_catalog):
    assert len(module_catalog) >= 12
    for name, M in module_catalog + large_catalog:
        t0 = time.monotonic()
        report = g.verify_axioms(M, box=3, samples=200, seed=7)
        elapsed = time.monotonic() - t0
        assert report["failures"] == [], name
        assert report["samples"] >= 200, name
        assert elapsed < 60, (name, elapsed)
    print("PASS: criterion 1 - axiom suite clean on %d modules"
          % (len(module_catalog) + len(large_catalog)))


def test_criterion_2_em1_oracle(module_catalog, family_module_n3):
    named = dict(module_catalog)
    cases = [
        (3, named["family-n2"]),
        (3, named["family-cm-n2"]),
        (3, named["hw-a-n2"]),
        (4, family_module_n3),
        (4, named["lem-key-n3"]),
    ]
    total = 0
    for m, M in cases:
        for z in _sample_shifts(M, 4, 100, seed=11 * m):
            v = g.basis_vector(z)
            assert g.act(M, g.gen_E(m, 1), v) == em1_bracket(M, m, v), (m, z)
            total += 1
    print("PASS: criterion 2 - E(m,1) direct formula == bracket ladder "
          "(%d comparisons, m in {3,4})" % total)


def test_criterion_3_localization_predicates(module_catalog):
    named = dict(module_catalog)
    hw = named["hw-a-n2"]
    configs = [
        named["hw-a-n2"],
        named["hw-b-n2"],
        named["family-n2"],
        named["family-cm-n2"],
        named["localized-n2"],
        named["quotient-n2"],
        g.localize_family(hw, LocalizationSpec((2, 3))),
    ]
    checks = 0
    for M in configs:
        inj = g.e21_injective(M.C)
        sur = g.e21_surjective(M.C)
        assert inj == (empirical_kernel_witness(M, 2, 3) is None)
        assert sur == empirical_surjective(M, 2, 3)
        checks += 2
        try:
            for m in (2, 3):
                assert g.em1_injective(M, m) == (
                    empirical_kernel_witness(M, m, 4) is None
                )
                assert g.em1_surjective(M, m) == empirical_surjective(M, m, 4)
                checks += 2
        except WrongShape:
            pass
    print("PASS: criterion 3 - predicates match empirical scans on "
          "%d configurations (%d checks)" % (len(configs), checks))


def test_criterion_4_twisted_consistency():
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    loc = g.localize_e21(g.module(T, C))
    adjacent = [g.gen_H(1), g.gen_H(2), g.gen_E(1, 2), g.gen_E(2, 1),
                g.gen_E(2, 3), g.gen_E(3, 2)]

    def direct13(x, v):
        a, b = g.gen_E(1, 2), g.gen_E(2, 3)
        return (twisted_action_direct(loc, x, a, twisted_action_direct(loc, x, b, v))
                - twisted_action_direct(loc, x, b, twisted_action_direct(loc, x, a, v)))

    def direct31(x, v):
        a, b = g.gen_E(3, 2), g.gen_E(2, 1)
        return (twisted_action_direct(loc, x, a, twisted_action_direct(loc, x, b, v))
                - twisted_action_direct(loc, x, b, twisted_action_direct(loc, x, a, v)))

    total = 0
    for x in (F(1, 3), F(-1, 6), F(5, 2)):
        tw = g.twist_e21(loc, x)
        shifts = _sample_shifts(tw, 4, 120, seed=23)
        for z in shifts:
            v = g.basis_vector(z)
            for gen in adjacent:
                assert twisted_action_direct(loc, x, gen, v) == g.act(tw, gen, v)
            assert direct13(x, v) == g.act(tw, g.gen_E(1, 3), v)
            assert direct31(x, v) == g.act(tw, g.gen_E(3, 1), v)
            # ninth family: E(3,1) direct-sum evaluation vs its ladder
            assert g.act(tw, g.gen_E(3, 1), v) == em1_bracket(tw, 3, v)
            total += 9
    print("PASS: criterion 4 - twisted direct formulas == shifted-tableau "
          "action, nine generator families, x in {1/3,-1/6,5/2} "
          "(%d comparisons)" % total)


def test_criterion_5_sl3_minimal_orbit():
    lvl = Level(2, 3, 2)
    reps = list(minimal_orbit_reps(lvl))
    assert [(r.lambda_bar, r.a, w) for r, w in reps] == [
        ((0, 0), 1, (F(-3, 2), F(0)))
    ]
    chain = hw_orbit_list(lvl, reps[0][0])
    assert [w for w, _ in chain] == [
        (F(-3, 2), F(0)),
        (F(-1, 2), F(-1, 2)),
        (F(0), F(-3, 2)),
    ]
    for lam, _ in chain:
        M = g.hw_module_of(lam)
        sweep = g.weight_multiplicity_sweep(M, 4)
        assert max(sweep.values()) <= 1, lam
    M1 = g.hw_module_of(chain[0][0])
    v = g.basis_vector(g.zero_shift(2))
    assert g.casimir_alpha1(M1, v) == v.scale(F(1, 4))

    lvl5 = Level(2, 5, 2)
    reps5 = list(minimal_orbit_reps(lvl5))
    assert len(reps5) == 6
    for rep, w in reps5:
        sweep = g.weight_multiplicity_sweep(g.hw_module_of(w), 3)
        assert max(sweep.values()) <= rep.lambda_bar[1] + 1, rep
    print("PASS: criterion 5 - sl3 minimal orbit: (3,2) rep/chain/"
          "multiplicity/Casimir values and (5,2) bounds reproduced")


def test_criterion_6_sl4_bound(module_catalog):
    t0 = time.monotonic()
    lvl = Level(3, 5, 2)
    rep = MinOrbitWeight((0, 0, 1), 1)
    lam = dict(minimal_orbit_reps(lvl))[rep]
    assert lam == (F(-5, 2), F(0), F(1))
    M = g.hw_module_of(lam)
    sweep = g.weight_multiplicity_sweep(M, 3)
    bound = F(1, 2) * (0 + 1) * (1 + 1) * (0 + 1 + 2)
    assert bound == 3
    assert max(sweep.values()) <= 3
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print("PASS: criterion 6 - sl4 (3,5,2) box-3 multiplicities <= 3 "
          "in %.1f s" % elapsed)


def test_criterion_7_sl2_induced_round_trip():
    lvl = Level(2, 3, 2)
    rep = MinOrbitWeight((0, 0), 1)
    ind = g.build_sl2_induced_minimal(lvl, rep, (F(-3, 2), F(0)), F(1, 3))
    assert ind.gamma == F(1, 4)
    assert ind.mu == (F(-5, 6), F(-1, 3))
    branches = g.resolve_sl2_induced(Sl2InducedParams(ind.gamma, ind.mu))
    got = {(lam, x) for lam, x, _ in branches}
    assert ((F(-3, 2), F(0)), F(1, 3)) in got
    assert len(got) == 2
    for box in (2, 3):
        assert empirical_kernel_witness(ind.module, 2, box) is None
        assert empirical_surjective(ind.module, 2, box)
    print("PASS: criterion 7 - sl2-induced (gamma,mu)=(1/4,(-5/6,-1/3)) "
          "round trip with E(2,1) bijective on interior boxes")


def _random_case_a(rng):
    # both fundamental pairings non-integral
    while True:
        lam = (F(rng.randrange(-40, 40), 7), F(rng.randrange(-40, 40), 5))
        if g.hw_relation_case(lam).tag == "CaseA":
            return lam


def _random_case_b(rng):
    # alpha_2 pairing a positive integer, alpha_{1,2} pairing nonpositive
    m = rng.randrange(1, 8)
    a1 = -m - rng.randrange(0, 8)
    lam = (F(a1 - 1), F(m - 1))
    case = g.hw_relation_case(lam)
    assert case.tag == "CaseB", lam
    return lam


def _random_not_relation(rng):
    # alpha_1 pairing in Z_{<0} while alpha_{1,2} pairing is in Z_{>0}
    a1 = -rng.randrange(1, 8)
    a12 = rng.randrange(1, 8)
    lam = (F(a1 - 1), F(a12 - a1 - 1))
    assert g.hw_relation_case(lam).tag == "NotRelation", lam
    return lam


def test_criterion_8_classification_round_trips():
    rng = random.Random(41)
    for _ in range(50):
        lam = _random_case_a(rng)
        M = g.hw_module_of(lam)
        v = g.basis_vector(g.zero_shift(2))
        assert g.is_highest_weight_vector(M, v) == lam
    for _ in range(50):
        lam = _random_case_b(rng)
        M = g.hw_module_of(lam)
        v = g.basis_vector(g.zero_shift(2))
        assert g.is_highest_weight_vector(M, v) == lam
    for _ in range(50):
        lam = _random_not_relation(rng)
        try:
            g.hw_module_of(lam)
            raised = False
        except GtrelError:
            raised = True
        assert raised, lam
    print("PASS: criterion 8 - classifier verdicts match constructor "
          "success and highest-weight detection on 150 random weights")
