"""The constructions the bundled data files come from, as test helpers.

``tests/test_provenance.py`` rebuilds each bundled system from its
definition and compares it with its data file: sl(3) from matrix
commutators, the -1 eigenspace of an involutive automorphism, and the
block direct sum of two triple systems.
"""

from fractions import Fraction
from itertools import product as iproduct

from triplex.exactlin import ONE, ZERO, accumulate, kernel
from triplex.lts import (InvalidStructure, LieAlgebra, TripleSystem, op_apply,
                         op_compose)


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


def sl3_transpose():
    """The involution x -> -x^T of sl(3): column j holds the coordinates
    of -b_j^T."""
    return {j: _sl3_coords(tuple(tuple(-b[q][p] for q in range(3)) for p in range(3)))
            for j, b in enumerate(_gl3_basis())}


def lts_from_involution(l, s):
    """Restrict [[x,y],z] to the -1 eigenspace of an involutive automorphism
    ``s`` of ``l`` (an operator on L)."""
    l.validate()
    d = l.dim
    if op_compose(s, s) != {x: {x: ONE} for x in range(d)}:
        raise InvalidStructure("map is not an involution (square != identity)")
    for i, j in iproduct(range(d), repeat=2):
        if (op_apply(s, l.brackets.get((i, j), {}))
                != l.bracket(s.get(i, {}), s.get(j, {}))):
            raise InvalidStructure("map is not a Lie algebra automorphism")
    # -1 eigenspace = kernel of (s + Id)
    ker = kernel([accumulate(dict(s.get(i, {})), {i: ONE}) for i in range(d)], d)
    basis = ker.rows
    k = len(basis)
    constants = {}
    for i, j, kk in iproduct(range(k), repeat=3):
        v = l.bracket(l.bracket(basis[i], basis[j]), basis[kk])
        coords = ker.coordinates(v)
        if coords is None:
            raise InvalidStructure("eigenspace is not closed under [[x,y],z]")
        constants[(i, j, kk)] = dict(enumerate(coords))
    names = tuple(f"t{i}" for i in range(k))
    return TripleSystem(k, names, constants)


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
