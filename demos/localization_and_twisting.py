"""Localize a module at lowering operators and apply a twisted shift.

Run: python demos/localization_and_twisting.py
"""

from fractions import Fraction as F

import gtrel as g
from gtrel.localization import LocalizationSpec


def show(title):
    print()
    print("== " + title)


M = g.hw_module_of((F(-3, 2), F(0)))

show("E(2,1) behavior on the highest weight module")
print("injective:", g.e21_injective(M.C))
print("surjective:", g.e21_surjective(M.C))

show("localization drops the blocking arrows")
loc = g.localize_e21(M)
print("before:", M.C.sorted())
print("after: ", loc.C.sorted())
print("now surjective:", g.e21_surjective(loc.C))
print("localized module is simple:", g.is_simple(loc))

show("twisting by x = 1/3 shifts the top-left entry")
tw = g.twist_e21(loc, F(1, 3))
print("seed entry (1,1):", loc.seed.rows[0][0], "->", tw.seed.rows[0][0])
v = g.basis_vector(g.zero_shift(2))
print("H1 eigenvalue after twist:", dict(g.act(tw, g.gen_H(1), v)))

show("the twisted module still satisfies the sl3 relations")
report = g.verify_axioms(tw, box=2, samples=60)
print("axiom failures over %d samples:" % report["samples"], len(report["failures"]))

show("simple quotient of the localization by the original module")
Q = g.quotient_top(loc, M)
print("quotient relations:", Q.C.sorted())
print("quotient is simple:", g.is_simple(Q))

show("multiplicative-set localization at several targets")
loc23 = g.localize_family(M, LocalizationSpec((2, 3)))
for m in (2, 3):
    print(
        "E(%d,1) bijective:" % m,
        g.em1_injective(loc23, m) and g.em1_surjective(loc23, m),
    )
