"""Inputs, operations and correctness checks of the three benchmark workloads.

``setup(name, seed, scratch)`` builds a workload, which holds a list of
``Op``: ``run()`` calls gtrel's public API and returns its outputs, and
``check(outputs)`` compares them with the reference and returns ``None`` or a
description of the mismatch.  Checks call no gtrel function except where
noted, so they add nothing to the traced layers.

gtrel functions are always looked up through a module at call time
(``g.verify_axioms``, never ``from gtrel import verify_axioms``): the traced
run replaces them with wrappers after this module is imported.

Why these workloads:

- ``axioms``: ``verify_axioms`` on the module catalog.  The generator action
  (``action.act`` and the tableau shift arithmetic it calls) does nearly all
  the work; basis enumeration at box 1 is a small part.
- ``mults``: ``weight_multiplicity_sweep`` on minimal-orbit highest-weight
  modules.  Basis enumeration does nearly all the work and ``act`` is never
  called.
- ``build``: modules built from raw parameters, through the library and the
  CLI, then reshaped.  Relation-set surgery, ``is_simple``, classification,
  JSON and the CLI do the work; enumeration does none.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import gtrel as g

cli = importlib.import_module("gtrel.cli")
errors = importlib.import_module("gtrel.errors")
localization = importlib.import_module("gtrel.localization")

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

AXIOM_BOX = 1
AXIOM_SAMPLES = 100
AXIOM_SEEDS_PER_MODULE = 8

# (n, p, q, box): every weight of every hw_orbit_list chain of the level
MULT_LEVELS = ((2, 7, 3, 4), (3, 5, 2, 3), (4, 5, 2, 1))

# hw recipes per rank n, each a multiple of 2**(n+1) so that every count of
# integral entries gets an even number of weights, half of them built through
# the CLI (see hw_weights and setup_build); with half as many recipes the
# seed alone moved op_p50_ms and op_p90_ms by over 10%
BUILD_HW = {2: 160, 3: 160, 4: 160, 5: 128}
# weights per rank n of the known-defect probe (see defect_weights)
DEFECT_PROBE = {2: 8, 3: 8, 4: 16, 5: 32}
# dense-family recipes per rank n
BUILD_FAMILY = {2: 32, 3: 32, 4: 16}
# fractional parts of the first-column family entries; twists use
# denominator 11, which none of these share
FAMILY_FRACTIONS = tuple(F(a, b) for b in (2, 3, 5, 7) for a in range(1, b))


class Op:
    """One timed operation and the check of its outputs.  Every input is
    one the op is meant to succeed on, so an exception is a failure too."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class CliExit(Exception):
    """``gtrel.cli.main`` returned a nonzero exit code."""

    def __init__(self, code, error):
        super().__init__("exit %d: %s" % (code, error))
        self.code = code
        self.error = error


class Workload:
    def __init__(self, ops, info, counts):
        self.ops = ops
        self.info = info
        # counters the ops keep themselves (bytes of CLI JSON output)
        self.counts = counts


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def sweep_digest(counts):
    """Order-independent digest of a weight -> multiplicity map."""
    items = [[[str(x) for x in w], c] for w, c in sorted(counts.items())]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# axioms


def catalog():
    """(name, module) pairs: the 14 modules of the test-suite catalog, copied
    here so that editing the tests cannot change the load."""
    entries = []
    T, C = g.hw_tableau_case_a((F(-1, 2),))
    entries.append(("hw-a-n1", g.module(T, C)))
    T, C = g.hw_tableau_case_a((F(-3, 2), F(0)))
    m_hw = g.module(T, C)
    entries.append(("hw-a-n2", m_hw))
    T, C = g.hw_tableau_case_a((F(1), F(1)))
    entries.append(("hw-a-n2-dominant", g.module(T, C)))
    T, C = g.hw_tableau_case_b((F(-2), F(0)), 1, 1)
    entries.append(("hw-b-n2", g.module(T, C)))
    T, C = g.hw_tableau_case_b((F(-4), F(0), F(1)), 1, 1)
    entries.append(("hw-b-n3", g.module(T, C)))
    T, C = g.hw_tableau_case_a((F(1, 3), F(-7, 3)))
    entries.append(("verma-generic-n2", g.module(T, C)))
    v = (F(2), F(0))
    T, Q = g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), v)
    entries.append(("family-n2", g.module(T, Q)))
    T, Cm = g.family_tableau((F(1, 2), F(1, 3), F(1, 3)), v, m=2)
    entries.append(("family-cm-n2", g.module(T, Cm)))
    T, C = g.lem_key_tableau((F(0), F(-1, 2), F(-1, 2)), 2)
    m_key = g.module(T, C)
    entries.append(("lem-key-n3", m_key))
    entries.append(("localized-n2", g.localize_e21(m_hw)))
    entries.append(("twisted-n2", g.twist_e21(m_hw, F(1, 3))))
    entries.append(("quotient-n2", g.quotient_top(g.localize_e21(m_hw), m_hw)))
    entries.append(("flag-permuted-n3", g.permute_flag(m_key, (3, 1, 2, 4))))
    T, C = g.hw_tableau_case_a((F(-5, 2), F(0), F(1)))
    entries.append(("hw-a-n3-minorbit", g.module(T, C)))
    return entries


def _check_verify(want, report):
    if report["failures"]:
        return "axiom failures: %r" % (report["failures"][:3],)
    got = {k: report[k] for k in ("samples", "pool", "identities")}
    if got != want:
        return "report %r, reference %r" % (got, want)
    return None


def setup_axioms(seed, reference, scratch, counts):
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(AXIOM_SEEDS_PER_MODULE)]
    ops = []
    for name, M in catalog():
        want = dict(reference["axioms"][name], samples=AXIOM_SAMPLES)
        for s in seeds:
            ops.append(
                Op(
                    "%s seed=%d" % (name, s),
                    lambda M=M, s=s: g.verify_axioms(
                        M, box=AXIOM_BOX, samples=AXIOM_SAMPLES, seed=s
                    ),
                    lambda out, want=want: _check_verify(want, out),
                )
            )
    return ops, {"modules": len(ops) // len(seeds), "sampling_seeds": seeds}


# ---------------------------------------------------------------------------
# mults


def mult_cases():
    """(key, weight, box, bound) for every sweep of the workload.

    ``bound`` is the paper's multiplicity bound where acceptance criteria 5
    and 6 state one, else None: 1 on the sl3 (3,2) chain, lambda_bar_2 + 1 on
    the sl3 (5,2) representatives, 3 on the sl4 (5,2) representative
    (0,0,1).  The sl3 (3,2) and (5,2) sweeps are small and only carry those
    bounds.
    """
    cases = []
    for n, p, q, box in MULT_LEVELS:
        lvl = g.Level(n, p, q)
        for rep, _ in g.minimal_orbit_reps(lvl):
            for i, (lam, _) in enumerate(g.hw_orbit_list(lvl, rep)):
                bound = 3 if (n, p, q, rep.lambda_bar, i) == (3, 5, 2, (0, 0, 1), 0) else None
                cases.append((_mult_key(n, p, q, rep, i), lam, box, bound))
    lvl = g.Level(2, 3, 2)
    for rep, _ in g.minimal_orbit_reps(lvl):
        for i, (lam, _) in enumerate(g.hw_orbit_list(lvl, rep)):
            cases.append((_mult_key(2, 3, 2, rep, i), lam, 4, 1))
    lvl = g.Level(2, 5, 2)
    for rep, lam in g.minimal_orbit_reps(lvl):
        cases.append((_mult_key(2, 5, 2, rep, 0), lam, 3, rep.lambda_bar[1] + 1))
    return cases


def _mult_key(n, p, q, rep, i):
    bar = ",".join(str(b) for b in rep.lambda_bar)
    return "sl%d(%d,%d) bar=%s a=%d chain=%d" % (n + 1, p, q, bar, rep.a, i)


def _check_sweep(digest, bound, counts):
    if bound is not None and max(counts.values()) > bound:
        return "multiplicity %d above the paper's bound %d" % (max(counts.values()), bound)
    got = sweep_digest(counts)
    if got != digest:
        return "sweep digest %s, reference %s" % (got, digest)
    return None


def setup_mults(seed, reference, scratch, counts):
    # the load is fixed; the seed only labels the run
    ops = []
    for key, lam, box, bound in mult_cases():
        M = g.hw_module_of(lam)
        ops.append(
            Op(
                key,
                lambda M=M, box=box: g.weight_multiplicity_sweep(M, box),
                lambda out, d=reference["mults"][key], b=bound: _check_sweep(d, b, out),
            )
        )
    return ops, {"sweeps": len(ops)}


# ---------------------------------------------------------------------------
# build


def hw_weights(rng, n, count, defect=False):
    """``count`` random weights of rank n for hw_module_of (see
    ``random_hw_weight`` for ``defect``).

    The number of integral entries sets most of an op's cost (at n=5 the
    median op takes about 20 ms with one integral entry and 180 ms with
    five, Python 3.11 on a 2-core VM).  So it is not left to chance: over the weights of one rank it
    follows Binomial(n, 1/2) exactly, and the seed decides which weight gets
    which count, which entries are integral and what they are.
    """
    ks = [k for k in range(n + 1) for _ in range(count * comb(n, k) // 2**n)]
    rng.shuffle(ks)
    return [random_hw_weight(rng, n, k, defect) for k in ks]


def random_hw_weight(rng, n, k, defect=False):
    """A weight of rank n with k integral entries that hw_module_of
    accepts: its documented precondition is that hw_relation_case does not
    tag the weight NotRelation.  Entries are a/b with |a| <= 8, b in
    {1, 2, 3}.

    With ``defect`` false the weight is also outside the case-a sub-family
    of ``in_defect_family``, where hw_module_of is known to raise; with
    ``defect`` true it is inside it.  The timed ops draw from the first kind
    and the known-defect probe from the second.
    """
    while True:
        integral = set(rng.sample(range(n), k))
        lam = tuple(F(rng.randint(-8, 8)) if j in integral else _non_integer(rng) for j in range(n))
        tag = g.hw_relation_case(lam).tag
        if tag != "NotRelation" and in_defect_family(lam, tag) == defect:
            return lam


def in_defect_family(lam, tag):
    """True for a case-a weight with a nonpositive-integer pairing
    <lam + rho, alpha_{r,n}> on a last-column root.

    Case a allows such pairings, and every weight on which hw_module_of
    raises StructureViolation (reduce_relations returns a set that is not
    cross-free) lies in this family; most weights of the family do.
    """
    if tag != "CaseA":
        return False
    n = len(lam)
    for r in range(1, n + 1):
        p = sum(lam[k - 1] + 1 for k in range(r, n + 1))
        if p.denominator == 1 and p <= 0:
            return True
    return False


def _non_integer(rng):
    b = rng.choice((2, 3))
    while True:
        a = rng.randint(-8, 8)
        if a % b:
            return F(a, b)


def defect_weights(seed):
    """The weights of the known-defect probe: drawn from ``seed`` like the
    hw recipes of ``build``, but from inside ``in_defect_family``."""
    rng = random.Random("defect-probe-%d" % seed)
    return [lam for n, count in DEFECT_PROBE.items() for lam in hw_weights(rng, n, count, defect=True)]


def random_family(rng, n):
    """(u, v, m, x) meeting family_tableau's preconditions with m set, and
    a twist x for localize_family at target m+1.

    First-column entries u_1..u_m get distinct fractional parts, so
    consecutive ones differ by a non-integer, and u_{m+1..n+1} = u_m; v is a
    strictly decreasing integer sequence.  x has denominator 11, so the
    twisted entry u_m + x stays off every integer difference.
    """
    m = rng.randint(2, n)
    fracs = rng.sample(FAMILY_FRACTIONS, m)
    u = [rng.randint(-5, 5) + f for f in fracs]
    u += [u[-1]] * (n + 1 - m)
    v = [F(rng.randint(0, 6))]
    for _ in range(n - 1):
        v.append(v[-1] - rng.randint(1, 3))
    x = F(rng.choice([k for k in range(-10, 11) if k]), 11)
    return tuple(u), tuple(v), m, x


def _fmt(values):
    return ",".join(str(F(x)) for x in values)


def _hw_queries(M, n):
    """The calls every hw op makes on its module."""
    hv = g.is_highest_weight_vector(M, g.basis_vector(g.zero_shift(n)))
    simple = g.is_simple(M)
    loc = None
    if g.e21_injective(M.C) and not g.e21_surjective(M.C):
        loc = g.localize_e21(M)
    return hv, simple, loc


def _hw_library(lam):
    M = g.hw_module_of(lam)
    text = json.dumps(g.module_to_json(M))
    back = g.module_from_json(json.loads(text))
    return (M, back) + _hw_queries(M, len(lam))


def _hw_cli(lam, path, counts):
    out, err = io.StringIO(), io.StringIO()
    argv = ["build", "--type", "hw", "--lambda=" + _fmt(lam), "-o", path]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        try:
            error = json.loads(out.getvalue() or err.getvalue())["error"]
        except (ValueError, KeyError):
            error = "unparsed"
        raise CliExit(code, error)
    with open(path) as fh:
        text = fh.read()
    counts["cli.json_bytes"] += len(text)
    M = g.module_from_json(json.loads(text))
    return (M, None) + _hw_queries(M, len(lam))


class _HwCheck:
    """Checks of an hw op.  For the CLI path the reference is the module the
    library builds from the same weight, computed once, on first use."""

    def __init__(self, lam, via_cli):
        self.lam = lam
        self.via_cli = via_cli
        self.library = None

    def __call__(self, out):
        M, back, hv, simple, loc = out
        if self.via_cli:
            if self.library is None:
                # a gtrel call inside a check: the run loop pauses tracing
                self.library = g.hw_module_of(self.lam)
            if M != self.library:
                return "CLI module differs from hw_module_of"
        elif back != M:
            return "JSON round trip changed the module"
        if hv != self.lam:
            return "seed vector highest weight %r, expected %r" % (hv, self.lam)
        if not (simple["maximal_eq"] and simple["strict_eq"]):
            return "is_simple %r on a maximal relation set" % (simple,)
        if loc is not None:
            if loc.seed != M.seed or loc.C.relations != M.C.relations - localization.E21_DOWN:
                return "localize_e21 did not drop exactly the E21 arrows"
        return None


def _family_op(u, v, m, x):
    T, C = g.family_tableau(u, v, m=m)
    M = g.module(T, C)
    L = g.localize_family(M, g.LocalizationSpec((m + 1,), x))
    back = g.module_from_json(json.loads(json.dumps(g.module_to_json(L))))
    return M, L, back


def _check_family(u, m, x, out):
    M, L, back = out
    if back != L:
        return "JSON round trip changed the localized module"
    if L.C.relations != M.C.relations - {((m + 1, 1), (m, 1))}:
        return "localize_family did not drop exactly the arrow at row %d" % (m + 1)
    rows = [list(r) for r in M.seed.rows]
    rows[m - 1][0] = u[m - 1] + x
    if [list(r) for r in L.seed.rows] != rows:
        return "twisted seed differs from the seed with entry (%d,1) shifted" % m
    return None


def setup_build(seed, reference, scratch, counts):
    rng = random.Random(seed)
    path = os.path.join(scratch, "build-%d.json" % os.getpid())
    ops = []
    # weights so far per (rank, integral entries); every second one of each
    # kind goes through the CLI
    seen = Counter()
    for n, count in BUILD_HW.items():
        for lam in hw_weights(rng, n, count):
            kind = (n, sum(x.denominator == 1 for x in lam))
            via_cli = seen[kind] % 2 == 1
            seen[kind] += 1
            if via_cli:
                run = lambda lam=lam: _hw_cli(lam, path, counts)
            else:
                run = lambda lam=lam: _hw_library(lam)
            label = "hw%s %s" % (" cli" if via_cli else "", _fmt(lam))
            ops.append(Op(label, run, _HwCheck(lam, via_cli)))
    for n, k in BUILD_FAMILY.items():
        for _ in range(k):
            u, v, m, x = random_family(rng, n)
            ops.append(
                Op(
                    "family u=%s v=%s m=%d x=%s" % (_fmt(u), _fmt(v), m, x),
                    lambda u=u, v=v, m=m, x=x: _family_op(u, v, m, x),
                    lambda out, u=u, m=m, x=x: _check_family(u, m, x, out),
                )
            )
    return ops, {"hw": sum(BUILD_HW.values()), "family": sum(BUILD_FAMILY.values())}


SETUPS = {"axioms": setup_axioms, "mults": setup_mults, "build": setup_build}


def setup(name, seed, scratch):
    """Build the workload: everything ``setup_s`` measures after import."""
    counts = {"cli.json_bytes": 0}
    ops, info = SETUPS[name](seed, load_reference(), scratch, counts)
    return Workload(ops, info, counts)
