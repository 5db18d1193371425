"""Bundled triple systems and Lie algebras used throughout the test suites."""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .exactlin import ZERO
from .lts import LieAlgebra, TripleSystem, lts_from_involution, lts_from_lie

TWO = Fraction(2)


def s2():
    """The two-dimensional system with [e,f,e] = 2e and [e,f,f] = -2f."""
    return TripleSystem(2, ("e", "f"), {
        (0, 1, 0): {0: TWO},
        (0, 1, 1): {1: -TWO},
        (1, 0, 0): {0: -TWO},
        (1, 0, 1): {1: TWO},
    })


def abelian(d):
    """All products zero."""
    return TripleSystem(d, tuple(f"a{i}" for i in range(d)), {})


def sl2_lie():
    """sl(2) in the basis (h, e, f)."""
    return LieAlgebra(3, ("h", "e", "f"), {
        (0, 1): {1: TWO},
        (1, 0): {1: -TWO},
        (0, 2): {2: -TWO},
        (2, 0): {2: TWO},
        (1, 2): {0: Fraction(1)},
        (2, 1): {0: Fraction(-1)},
    })


def sl2_lts():
    """sl(2) viewed as a triple system via [[x,y],z]."""
    return lts_from_lie(sl2_lie())


def _gl3_basis():
    # sl(3) basis: E12, E13, E21, E23, E31, E32, H1 = E11-E22, H2 = E22-E33
    def E(i, j):
        return tuple(tuple(Fraction(1) if (a, b) == (i, j) else ZERO
                           for b in range(3)) for a in range(3))

    def D(*diag):
        return tuple(tuple(Fraction(diag[a]) if a == b else ZERO
                           for b in range(3)) for a in range(3))

    return [E(0, 1), E(0, 2), E(1, 0), E(1, 2), E(2, 0), E(2, 1),
            D(1, -1, 0), D(0, 1, -1)]


def _sl3_coords(m):
    # sparse coordinates of a traceless 3x3 matrix in the basis above
    coords = (m[0][1], m[0][2], m[1][0], m[1][2], m[2][0], m[2][1],
              m[0][0], -m[2][2])
    return {l: a for l, a in enumerate(coords) if a}


def sl3_lie():
    """sl(3) with structure constants computed from matrix commutators."""
    basis = _gl3_basis()
    names = ("e12", "e13", "e21", "e23", "e31", "e32", "h1", "h2")
    brackets = {}
    for i, j in iproduct(range(8), repeat=2):
        a, b = basis[i], basis[j]
        ab = tuple(tuple(sum(a[p][q] * b[q][r] for q in range(3))
                         - sum(b[p][q] * a[q][r] for q in range(3))
                         for r in range(3)) for p in range(3))
        assert ab[0][0] + ab[1][1] + ab[2][2] == 0
        coords = _sl3_coords(ab)
        if coords:
            brackets[(i, j)] = coords
    return LieAlgebra(8, names, brackets)


def sl3_transpose_lts():
    """The 5-dimensional system of symmetric traceless 3x3 matrices.

    Negative eigenspace of the involution x -> -x^T of sl(3).
    """
    lie = sl3_lie()
    # column j of the involution: the coordinates of -b_j^T
    sigma = {j: _sl3_coords(tuple(tuple(-b[q][p] for q in range(3)) for p in range(3)))
             for j, b in enumerate(_gl3_basis())}
    return lts_from_involution(lie, sigma)


def direct_sum(t1, t2):
    """Block direct sum of two triple systems."""
    d1, d2 = t1.dim, t2.dim
    constants = {}
    for (i, j, k), v in t1.constants.items():
        constants[(i, j, k)] = dict(v)
    for (i, j, k), v in t2.constants.items():
        constants[(d1 + i, d1 + j, d1 + k)] = {d1 + l: a for l, a in v.items()}
    names = tuple(f"{n}1" for n in t1.basis_names) + tuple(f"{n}2" for n in t2.basis_names)
    return TripleSystem(d1 + d2, names, constants)


def s2_plus_s2():
    return direct_sum(s2(), s2())


SYSTEMS = {
    "s2": s2,
    "sl2_lts": sl2_lts,
    "sl3_sym": sl3_transpose_lts,
    "abelian3": lambda: abelian(3),
    "s2_plus_s2": s2_plus_s2,
}
