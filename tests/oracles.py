"""Reference implementations that the library's fast paths are checked
against."""

from itertools import product

from gtrel.tableau import BasisChecker


def brute_force_basis_box(C, seed, box):
    """Every z in the box [-box, box]^N, in itertools.product order, whose
    tableau T(seed+z) satisfies C."""
    checker = BasisChecker(C, seed)
    n = C.n
    out = []
    for flat in product(range(-box, box + 1), repeat=n * (n + 1) // 2):
        z = []
        idx = 0
        for k in range(1, n + 1):
            z.append(tuple(flat[idx : idx + k]))
            idx += k
        z = tuple(z)
        if checker.check(z):
            out.append(z)
    return out
