"""Dense tableau families, degenerations, and flag-permuted modules.

Run: python demos/dense_families_and_flags.py
"""

from fractions import Fraction as F

import gtrel as g


def show(title):
    print()
    print("== " + title)


show("generic dense family (free first column)")
T, Q = g.family_tableau((F(1, 2), F(1, 3), F(1, 5)), (F(2), F(0)))
M = g.module(T, Q)
print("seed rows:", M.seed.rows)
print("relations touch only the interior columns:", M.C.sorted())
print("family is simple:", g.family_is_simple((F(1, 2), F(1, 3), F(1, 5))))
for m in (2, 3):
    print(
        "E(%d,1) injective/surjective:" % m,
        g.em1_injective(M, m),
        g.em1_surjective(M, m),
    )

show("degenerate family: tying rows m..n+1 of the first column")
Tm, Cm = g.family_tableau((F(1, 2), F(1, 3), F(1, 3)), (F(2), F(0)), m=2)
Mm = g.module(Tm, Cm)
print("extra first-column arrow:", sorted(Cm.relations - Q.relations))
print("E(3,1) surjective now:", g.em1_surjective(Mm, 3))

show("the direct E(3,1) formula equals the commutator [E(3,2), E(2,1)]")
mismatches = 0
for z in g.enumerate_basis_box(M.C, M.seed, 2):
    v = g.basis_vector(z)
    direct = g.act(M, g.gen_E(3, 1), v)
    if direct != g.commutator(M, g.gen_E(3, 2), g.gen_E(2, 1), v):
        mismatches += 1
print("mismatches over a box-2 scan:", mismatches)

show("seed adapted to a nonstandard flag (n = 3)")
Tk, Ck = g.lem_key_tableau((F(0), F(-1, 2), F(-1, 2)), 2)
Mk = g.module(Tk, Ck)
print("seed rows:", Mk.seed.rows)

show("composing a flag permutation into the module")
sigma = (3, 1, 2, 4)
P = g.permute_flag(Mk, sigma)
v = g.basis_vector(g.zero_shift(3))
print("H-eigenvalues before:", [dict(g.act(Mk, g.gen_H(k), v)) for k in (1, 2, 3)])
print("H-eigenvalues after: ", [dict(g.act(P, g.gen_H(k), v)) for k in (1, 2, 3)])
print("permuted seed is a highest weight vector:", g.is_highest_weight_vector(P, v))
