"""Reference implementations that the library's fast paths are checked
against: a brute-force basis scan, the nested-commutator ladder for
E(m,1), the twisted action written out entry by entry, and empirical
kernel / image scans for the localization predicates."""

from fractions import Fraction
from itertools import product

from gtrel.action import GTVector, _act_primitive, _em1_tuples, act, gen_E
from gtrel.localization import twist_e21
from gtrel.tableau import BasisChecker, enumerate_basis_box, unit_shift


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


def em1_bracket(M, m, v):
    """E_{m,1} via the nested-commutator ladder."""
    if m == 2:
        return _act_primitive(M, ("E", 2, 1), v)
    low = ("E", m, m - 1)
    return _act_primitive(M, low, em1_bracket(M, m - 1, v)) - em1_bracket(
        M, m - 1, _act_primitive(M, low, v)
    )


def twisted_action_direct(M, x, g, v):
    """Generator action on twisted vectors T(w)^x, written out directly.

    M is the untwisted localized module; v lives over its shift basis.
    The entry w11 is everywhere replaced by w11 + x, and a term is kept
    only when its shift stays in the basis of the twisted module.
    """
    x = Fraction(x)
    tw = twist_e21(M, x) if x != 0 else M
    n = M.n

    def w(T, k, i):
        e = T.rows[k - 1][i - 1]
        return e + x if (k, i) == (1, 1) else e

    out = GTVector()
    for z, c in v.items():
        T = M.entries(z)
        if g[0] == "H":
            k = g[1]
            if k == 1:
                val = 2 * w(T, 1, 1) - w(T, 2, 1) - w(T, 2, 2) - 1
            else:
                val = (
                    2 * sum(w(T, k, i) for i in range(1, k + 1))
                    - sum(w(T, k - 1, i) for i in range(1, k))
                    - sum(w(T, k + 1, i) for i in range(1, k + 2))
                    - 1
                )
            out.iadd(z, c * val)
            continue
        _, a, b = g
        if (a, b) == (1, 2):
            coeff = -(w(T, 1, 1) - w(T, 2, 1)) * (w(T, 1, 1) - w(T, 2, 2))
            tgt = _shifted(n, z, 1, 1, +1)
            if tw.in_basis(tgt):
                out.iadd(tgt, c * coeff)
        elif (a, b) == (2, 1):
            tgt = _shifted(n, z, 1, 1, -1)
            if tw.in_basis(tgt):
                out.iadd(tgt, c)
        elif b == a + 1:
            k = a
            for i in range(1, k + 1):
                num = Fraction(1)
                for j in range(1, k + 2):
                    num *= w(T, k, i) - w(T, k + 1, j)
                den = Fraction(1)
                for j in range(1, k + 1):
                    if j != i:
                        den *= w(T, k, i) - w(T, k, j)
                tgt = _shifted(n, z, k, i, +1)
                if tw.in_basis(tgt):
                    out.iadd(tgt, -c * num / den)
        elif a == b + 1:
            k = b
            for i in range(1, k + 1):
                num = Fraction(1)
                for j in range(1, k):
                    num *= w(T, k, i) - w(T, k - 1, j)
                den = Fraction(1)
                for j in range(1, k + 1):
                    if j != i:
                        den *= w(T, k, i) - w(T, k, j)
                tgt = _shifted(n, z, k, i, -1)
                if tw.in_basis(tgt):
                    out.iadd(tgt, c * num / den)
        else:
            raise ValueError("only Chevalley-adjacent generators: %r" % (g,))
    return out


def _shifted(n, z, k, i, sign):
    delta = unit_shift(n, k, i)
    return tuple(
        tuple(a + sign * d for a, d in zip(row, drow)) for row, drow in zip(z, delta)
    )


def _em1_offsets(n, m):
    """All candidate shift differences of an E(m,1) application."""
    out = []
    for idx in _em1_tuples(m):
        z = [[0] * k for k in range(1, n + 1)]
        for s, i_s in enumerate(idx, start=1):
            z[s - 1][i_s - 1] -= 1
        out.append(tuple(tuple(r) for r in z))
    return out


def empirical_kernel_witness(M, m, box):
    """A basis shift killed by E(m,1) inside the box, or None."""
    for z in enumerate_basis_box(M.C, M.seed, box):
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        v = GTVector(((z, Fraction(1)),))
        if act(M, gen_E(m, 1), v).is_zero():
            return z
    return None


def empirical_surjective(M, m, box):
    """Every interior basis shift appears in some E(m,1) image."""
    pool = enumerate_basis_box(M.C, M.seed, box)
    inside = set(pool)
    offsets = _em1_offsets(M.n, m)
    for z in pool:
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        hit = False
        for off in offsets:
            src = tuple(
                tuple(a - d for a, d in zip(row, drow)) for row, drow in zip(z, off)
            )
            if src not in inside or not M.in_basis(src):
                continue
            v = GTVector(((src, Fraction(1)),))
            if act(M, gen_E(m, 1), v).get(z, 0) != 0:
                hit = True
                break
        if not hit:
            return False
    return True


def empirical_images_distinct(M, m, box):
    """E(m,1) images of distinct interior basis vectors are distinct and
    nonzero."""
    seen = {}
    for z in enumerate_basis_box(M.C, M.seed, box):
        if max(abs(x) for row in z for x in row) > box - m:
            continue
        v = GTVector(((z, Fraction(1)),))
        img = act(M, gen_E(m, 1), v)
        if img.is_zero():
            return False
        key = tuple(sorted(img.items()))
        if key in seen:
            return False
        seen[key] = z
    return True
