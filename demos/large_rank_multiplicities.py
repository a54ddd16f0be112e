"""Count basis shifts and weight multiplicities of generic sl5 and sl6
highest weight modules without listing the shifts.

The basis of a generic module is infinite, so each figure is taken inside
a box |z_ki| <= box; sl6 at box 3 holds 1,568,000 shifts.

Run: python demos/large_rank_multiplicities.py
"""

import time
from fractions import Fraction as F

import gtrel as g

for lam in [
    (F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7)),
    (F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7), F(-1, 11)),
]:
    M = g.hw_module_of(lam)
    print()
    print("== sl%d, lambda = (%s)" % (M.n + 1, ", ".join(str(x) for x in lam)))
    for box in (2, 3):
        t0 = time.perf_counter()
        count = M.checker.count(box)
        sweep = g.weight_multiplicity_sweep(M, box)
        print(
            "box %d: %d basis shifts, %d weights, max multiplicity %d (%.2f s)"
            % (box, count, len(sweep), max(sweep.values()), time.perf_counter() - t0)
        )
