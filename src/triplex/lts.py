"""Lie triple systems, their operators, standard embedding and Killing form.

A triple system is given by structure constants for the trilinear
product on a chosen basis; everything else (inner derivations, the
standard embedding Lie algebra, the Killing form, Lie/associative
closures of the right-slot operators) is derived by exact linear
algebra.  Structure constants are stored sparsely, as the nonzero
coordinates of each nonzero basis product, and every check below
visits only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .exactlin import (ONE, ZERO, Echelon, Subspace, accumulate, echelonize,
                       kernel, mat_bracket, mat_flatten, mat_identity, mat_mul,
                       mat_trace, mat_unflatten, mat_vec)


class InvalidStructure(ValueError):
    """Structure constants fail a claimed algebraic property."""


def _sparse(dim, v):
    """Nonzero coordinates of ``v`` (a dict or a length-``dim`` sequence)."""
    if not isinstance(v, dict):
        if len(v) != dim:
            raise InvalidStructure(f"coordinate vector of length {len(v)} for dim {dim}")
        v = dict(enumerate(v))
    out = {}
    for l, a in v.items():
        if not 0 <= l < dim:
            raise InvalidStructure(f"coordinate index {l} out of range for dim {dim}")
        if a:
            out[l] = Fraction(a)
    return out


def _dense(dim, coords):
    out = [ZERO] * dim
    for l, a in coords.items():
        out[l] = a
    return tuple(out)


def unit_vector(d, i):
    return tuple(ONE if j == i else ZERO for j in range(d))


@dataclass(frozen=True)
class Operator:
    """A linear operator on T-coordinates."""
    matrix: tuple

    def __call__(self, x):
        return mat_vec(self.matrix, x)


class TripleSystem:
    """Basis-indexed structure constants of a trilinear product over Q."""

    def __init__(self, dim, basis_names, constants):
        self.dim = dim
        self.basis_names = tuple(basis_names)
        if len(self.basis_names) != dim:
            raise InvalidStructure("one basis name per dimension required")
        # (i,j,k) -> {l: a}: the nonzero coordinates of each nonzero [b_i,b_j,b_k]
        self.constants = {}
        for (i, j, k), v in constants.items():
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise InvalidStructure(f"index {idx} out of range for dim {dim}")
            coords = _sparse(dim, v)
            if coords:
                self.constants[(i, j, k)] = coords

    @classmethod
    def from_entries(cls, dim, basis_names, entries):
        """Build from a list of ((i,j,k), {index: Fraction}) pairs.

        Unlisted triples are zero.  Duplicate triples are an error; no
        symmetry completion is performed.
        """
        constants = {}
        for (i, j, k), coords in entries:
            if (i, j, k) in constants:
                raise InvalidStructure(f"duplicate entry for triple ({i},{j},{k})")
            constants[(i, j, k)] = dict(coords)
        return cls(dim, basis_names, constants)

    def basis_product(self, i, j, k):
        """[b_i, b_j, b_k] as a dense coordinate tuple."""
        return _dense(self.dim, self.constants.get((i, j, k), {}))

    def triple_product(self, x, y, z):
        """Trilinear extension of the structure constants."""
        d = self.dim
        if len(x) != d or len(y) != d or len(z) != d:
            raise InvalidStructure("coordinate length mismatch")
        consts = self.constants
        ys = [(j, b) for j, b in enumerate(y) if b]
        zs = [(k, c) for k, c in enumerate(z) if c]
        out = [ZERO] * d
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in ys:
                ab = a * b
                for k, c in zs:
                    coords = consts.get((i, j, k))
                    if coords:
                        abc = ab * c
                        for l, w in coords.items():
                            out[l] += abc * w
        return tuple(out)

    def r_op(self, a, b):
        """Matrix of x -> [x, a, b]."""
        d = self.dim
        cols = [self.triple_product(unit_vector(d, i), a, b) for i in range(d)]
        return Operator(tuple(tuple(cols[i][k] for i in range(d)) for k in range(d)))

    def d_op(self, a, b):
        """Matrix of x -> [a, b, x]."""
        d = self.dim
        cols = [self.triple_product(a, b, unit_vector(d, i)) for i in range(d)]
        return Operator(tuple(tuple(cols[i][k] for i in range(d)) for k in range(d)))


@dataclass
class AxiomVerdict:
    ok: bool
    counterexample: tuple | None = None


@dataclass
class AxiomReport:
    alternating: AxiomVerdict
    cyclic: AxiomVerdict
    derivation: AxiomVerdict

    @property
    def ok(self):
        return self.alternating.ok and self.cyclic.ok and self.derivation.ok


def _first_nonzero_sum(consts, orbit):
    """Lexicographically first basis triple t with sum of C[s], s in orbit(t), != 0.

    ``orbit(i, j, k)`` lists triples (repeats count) and must be closed
    under the symmetry it describes, so only the orbits of stored keys
    can have a nonzero sum.
    """
    for t in sorted({s for key in consts for s in orbit(*key)}):
        total = {}
        for s in orbit(*t):
            accumulate(total, consts.get(s, {}))
        if total:
            return t
    return None


def _derivation_failure(consts, op):
    """First basis triple (x,y,z), lexicographically, where ``op`` is no derivation.

    ``op`` maps a basis index x to the nonzero coordinates of op(b_x).
    The identity checked is
    op[x,y,z] = [op x,y,z] + [x,op y,z] + [x,y,op z];
    returns None if it holds on every basis triple.
    """
    op_t = {}  # the transpose: p -> {x: coefficient of b_p in op(b_x)}
    for x, col in op.items():
        for p, a in col.items():
            op_t.setdefault(p, {})[x] = a
    residue = {}
    for (p, q, r), coords in consts.items():
        lhs = residue.setdefault((p, q, r), {})
        for l, a in coords.items():
            if l in op:
                accumulate(lhs, op[l], a)
        for x, c in op_t.get(p, {}).items():
            accumulate(residue.setdefault((x, q, r), {}), coords, -c)
        for y, c in op_t.get(q, {}).items():
            accumulate(residue.setdefault((p, y, r), {}), coords, -c)
        for z, c in op_t.get(r, {}).items():
            accumulate(residue.setdefault((p, q, z), {}), coords, -c)
    for t in sorted(residue):
        if residue[t]:
            return t
    return None


def check_axioms(t):
    """Verify the three defining identities on all basis combinations.

    Each verdict's counterexample is the first failing basis combination
    in lexicographic order.
    """
    consts = t.constants

    alt = AxiomVerdict(True)
    squares = [(i, k) for i, j, k in consts if i == j]
    if squares:
        i, k = min(squares)
        alt = AxiomVerdict(False, ("[x,x,y] != 0", i, i, k))
    else:
        # linearization: [x,y,z] + [y,x,z] = 0 on all basis triples
        bad = _first_nonzero_sum(consts, lambda i, j, k: ((i, j, k), (j, i, k)))
        if bad:
            alt = AxiomVerdict(False, ("[x,y,z]+[y,x,z] != 0",) + bad)

    cyc = AxiomVerdict(True)
    bad = _first_nonzero_sum(consts,
                             lambda i, j, k: ((i, j, k), (j, k, i), (k, i, j)))
    if bad:
        cyc = AxiomVerdict(False, ("cyclic sum != 0",) + bad)

    # D_{a,b} b_x = [a,b,x]; D_{a,b} = 0 is trivially a derivation
    ops = {}
    for (a, b, x), coords in consts.items():
        ops.setdefault((a, b), {})[x] = coords
    der = AxiomVerdict(True)
    for a, b in sorted(ops):
        bad = _derivation_failure(consts, ops[(a, b)])
        if bad:
            der = AxiomVerdict(False, ("derivation identity fails", a, b) + bad)
            break

    return AxiomReport(alt, cyc, der)


class LieAlgebra:
    """Structure constants of a Lie bracket on a chosen basis."""

    def __init__(self, dim, basis_names, brackets):
        self.dim = dim
        self.basis_names = tuple(basis_names)
        if len(self.basis_names) != dim:
            raise InvalidStructure("one basis name per dimension required")
        # (i,j) -> {l: a}: the nonzero coordinates of each nonzero [b_i,b_j]
        self.brackets = {}
        for (i, j), v in brackets.items():
            for idx in (i, j):
                if not 0 <= idx < dim:
                    raise InvalidStructure(f"index {idx} out of range for dim {dim}")
            coords = _sparse(dim, v)
            if coords:
                self.brackets[(i, j)] = coords

    @classmethod
    def from_entries(cls, dim, basis_names, entries):
        brackets = {}
        for (i, j), coords in entries:
            if (i, j) in brackets:
                raise InvalidStructure(f"duplicate entry for pair ({i},{j})")
            brackets[(i, j)] = dict(coords)
        return cls(dim, basis_names, brackets)

    def basis_bracket(self, i, j):
        """[b_i, b_j] as a dense coordinate tuple."""
        return _dense(self.dim, self.brackets.get((i, j), {}))

    def bracket(self, x, y):
        brackets = self.brackets
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in ys:
                coords = brackets.get((i, j))
                if coords:
                    ab = a * b
                    for l, w in coords.items():
                        out[l] += ab * w
        return tuple(out)

    def _bracket_with_basis(self, i, coords):
        """[b_i, v] for v given by its sparse coordinates."""
        out = {}
        for l, a in coords.items():
            accumulate(out, self.brackets.get((i, l), {}), a)
        return out

    def validate(self):
        """Raise InvalidStructure unless antisymmetry and Jacobi hold."""
        d = self.dim
        brackets = self.brackets
        for i in range(d):
            if (i, i) in brackets:
                raise InvalidStructure(f"[b{i},b{i}] != 0")
            for j in range(d):
                total = accumulate(dict(brackets.get((i, j), {})),
                                   brackets.get((j, i), {}))
                if total:
                    raise InvalidStructure(f"[b{i},b{j}] + [b{j},b{i}] != 0")
        for i, j, k in iproduct(range(d), repeat=3):
            s = self._bracket_with_basis(i, brackets.get((j, k), {}))
            accumulate(s, self._bracket_with_basis(j, brackets.get((k, i), {})))
            accumulate(s, self._bracket_with_basis(k, brackets.get((i, j), {})))
            if s:
                raise InvalidStructure(f"Jacobi fails on basis triple ({i},{j},{k})")

    def killing(self):
        """K(b_i, b_j) = tr(ad b_i ad b_j) = sum over k of [b_i, [b_j, b_k]]_k."""
        d = self.dim
        return tuple(
            tuple(sum((self._bracket_with_basis(i, self.brackets.get((j, k), {}))
                       .get(k, ZERO) for k in range(d)), ZERO)
                  for j in range(d))
            for i in range(d))


def lts_from_lie(l):
    """The triple system [x,y,z] = [[x,y],z] of a Lie algebra."""
    l.validate()
    d = l.dim
    constants = {}
    for i, j, k in iproduct(range(d), repeat=3):
        v = {}
        for m, a in l.brackets.get((i, j), {}).items():
            accumulate(v, l.brackets.get((m, k), {}), a)
        constants[(i, j, k)] = v
    return TripleSystem(d, l.basis_names, constants)


def lts_from_involution(l, s):
    """Restrict [[x,y],z] to the -1 eigenspace of an involutive automorphism."""
    l.validate()
    d = l.dim
    m = s.matrix
    if mat_mul(m, m) != mat_identity(d):
        raise InvalidStructure("map is not an involution (square != identity)")
    e = lambda i: unit_vector(d, i)
    for i, j in iproduct(range(d), repeat=2):
        if mat_vec(m, l.basis_bracket(i, j)) != l.bracket(mat_vec(m, e(i)), mat_vec(m, e(j))):
            raise InvalidStructure("map is not a Lie algebra automorphism")
    # -1 eigenspace = kernel of (s + Id)
    splus = tuple(tuple(m[a][b] + (ONE if a == b else ZERO) for b in range(d))
                  for a in range(d))
    ker = kernel([_sparse(d, mat_vec(splus, e(i))) for i in range(d)], d)
    basis = [_dense(d, r) for r in ker.rows]
    k = len(basis)
    constants = {}
    for i, j, kk in iproduct(range(k), repeat=3):
        v = l.bracket(l.bracket(basis[i], basis[j]), basis[kk])
        coords = ker.coordinates(_sparse(d, v))
        if coords is None:
            raise InvalidStructure("eigenspace is not closed under [[x,y],z]")
        constants[(i, j, kk)] = coords
    names = tuple(f"t{i}" for i in range(k))
    return TripleSystem(k, names, constants)


def _columns(matrix):
    """Sparse columns of a square matrix: x -> nonzero coordinates of M b_x."""
    n = len(matrix)
    cols = {}
    for x in range(n):
        col = {k: matrix[k][x] for k in range(n) if matrix[k][x]}
        if col:
            cols[x] = col
    return cols


def inner_derivations(t):
    """Echelonized span of all D_{b_i,b_j}, verified closed and derivations.

    Returns (Subspace over flattened d*d matrices, list of basis matrices).
    """
    d = t.dim
    e = lambda i: unit_vector(d, i)
    gens = [t.d_op(e(i), e(j)).matrix for i in range(d) for j in range(d)]
    space = echelonize([mat_flatten(g) for g in gens], d * d)
    basis = [mat_unflatten(r, d) for r in space.rows]
    for a in basis:
        for b in basis:
            if not space.member(mat_flatten(mat_bracket(a, b))):
                raise InvalidStructure("inner derivations are not bracket-closed")
    for D in basis:
        if _derivation_failure(t.constants, _columns(D)) is not None:
            raise InvalidStructure("an inner derivation fails the derivation identity")
    return space, basis


@dataclass
class StandardEmbedding:
    """L(T) = InnDer(T) (+) T with its involution and Killing form."""
    lie: LieAlgebra
    inn_dim: int
    t_dim: int
    inn_basis: list            # matrices on T spanning InnDer(T), echelon basis
    sigma: Operator            # diagonal +-1 on L(T)
    killing: tuple             # trace form of the adjoint representation
    killing_t: tuple           # restriction of the Killing form to the T block

    @property
    def dim(self):
        return self.lie.dim


def standard_embedding(t):
    """Build L(T), validate Jacobi, and compute sigma and the Killing form."""
    d = t.dim
    e = lambda i: unit_vector(d, i)
    inn_space, inn_basis = inner_derivations(t)
    m = len(inn_basis)
    n = m + d

    def inn_coords(matrix):
        coords = inn_space.coordinates(mat_flatten(matrix))
        if coords is None:
            raise InvalidStructure("bracket leaves the inner derivation span")
        return dict(enumerate(coords))

    brackets = {}
    for p in range(m):
        for q in range(m):
            brackets[(p, q)] = inn_coords(mat_bracket(inn_basis[p], inn_basis[q]))
    for p in range(m):
        for i, col in sorted(_columns(inn_basis[p]).items()):
            brackets[(p, m + i)] = {m + k: a for k, a in col.items()}
            brackets[(m + i, p)] = {m + k: -a for k, a in col.items()}
    for i in range(d):
        for j in range(d):
            brackets[(m + i, m + j)] = inn_coords(t.d_op(e(i), e(j)).matrix)

    names = tuple(f"D{p}" for p in range(m)) + t.basis_names
    lie = LieAlgebra(n, names, brackets)
    try:
        lie.validate()
    except InvalidStructure as exc:
        raise InvalidStructure(f"standard embedding is not a Lie algebra: {exc}")

    sigma_m = tuple(tuple((ONE if i < m else -ONE) if i == j else ZERO
                          for j in range(n)) for i in range(n))
    sigma = Operator(sigma_m)
    killing = lie.killing()

    # sigma is an involutive automorphism preserving K; InnDer and T are
    # orthogonal under K
    assert mat_mul(sigma_m, sigma_m) == mat_identity(n)
    for i, j in iproduct(range(n), repeat=2):
        lhs = mat_vec(sigma_m, lie.basis_bracket(i, j))
        rhs = lie.bracket(mat_vec(sigma_m, unit_vector(n, i)),
                          mat_vec(sigma_m, unit_vector(n, j)))
        if lhs != rhs:
            raise InvalidStructure("sigma does not preserve the bracket")
    for p in range(m):
        for i in range(d):
            if killing[p][m + i]:
                raise InvalidStructure("InnDer(T) and T are not K-orthogonal")

    killing_t = tuple(tuple(killing[m + i][m + j] for j in range(d)) for i in range(d))
    return StandardEmbedding(lie, m, d, inn_basis, sigma, killing, killing_t)


@dataclass
class TraceIdentityReport:
    ok: bool
    failures: list = field(default_factory=list)


def trace_identity_check(t, emb=None):
    """2 tr(R_{b_i,b_j}) equals the Killing form K(b_i,b_j), all pairs."""
    emb = emb or standard_embedding(t)
    d = t.dim
    e = lambda i: unit_vector(d, i)
    failures = []
    for i, j in iproduct(range(d), repeat=2):
        lhs = 2 * mat_trace(t.r_op(e(i), e(j)).matrix)
        rhs = emb.killing_t[i][j]
        if lhs != rhs:
            failures.append((i, j, lhs, rhs))
    return TraceIdentityReport(not failures, failures)


def _span_closure(gens, product):
    """Smallest subspace of n x n matrices containing ``gens`` and closed
    under ``product``.

    Returns (canonical RREF Subspace over flattened matrices, list of its
    basis matrices).  Every ordered pair of basis elements is multiplied
    once, in order of discovery, and the search stops as soon as the span
    is all of the n*n matrices: the closure is then known, and its
    canonical basis with it.
    """
    if not gens:
        raise InvalidStructure("a span closure needs at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n or len(g[0]) != n:
            raise InvalidStructure("a span closure needs equal-size square matrices")
    full = n * n
    ech = Echelon()
    basis = []

    def candidates():
        yield from gens
        i = 0
        while i < len(basis):
            a = basis[i]
            for j in range(i + 1):
                yield product(a, basis[j])
                if j != i:
                    yield product(basis[j], a)
            i += 1

    for c in candidates():
        row = ech.insert(mat_flatten(c))
        if row is not None:
            basis.append(mat_unflatten(row, n))
            if ech.dim == full:
                break
    space = ech.subspace(full)
    return space, [mat_unflatten(r, n) for r in space.rows]


def lie_closure(gens):
    """Smallest bracket-closed subspace of matrices containing ``gens``.

    Returns (Subspace over flattened matrices, list of echelon basis
    matrices).  Stops early once the span is all of End(T).
    """
    return _span_closure(gens, mat_bracket)


def r_generators(t):
    d = t.dim
    e = lambda i: unit_vector(d, i)
    return [t.r_op(e(i), e(j)).matrix for i in range(d) for j in range(d)]


def endo_theorem_check(t):
    """True iff the Lie closure of all R_{b_i,b_j} is the full End(T)."""
    space, _ = lie_closure(r_generators(t))
    return space.dim == t.dim * t.dim


def associative_envelope(gens):
    """Span-closure of ``gens`` under the matrix product (no unit adjoined).

    Stops early once the span is all of End(T).
    """
    return _span_closure(gens, mat_mul)


@dataclass
class SimplicityReport:
    verdict: str               # "simple" | "not_simple" | "inconclusive"
    envelope_dim: int
    triple_nonzero: bool
    witness: Subspace | None = None


def simplicity_certificate(t):
    """Burnside-style simplicity certificate over Q.

    Ideals of T are exactly the subspaces invariant under all R_{b,c};
    a full associative envelope of those operators plus [T,T,T] != 0
    certifies simplicity.  A proper envelope alone is inconclusive
    unless an explicit invariant-subspace witness is found.
    """
    d = t.dim
    gens = r_generators(t)
    triple_nonzero = bool(t.constants)
    if not triple_nonzero:
        return SimplicityReport("not_simple", 0, False,
                                witness=Echelon([0]).subspace(d) if d else None)
    env_space, env_basis = associative_envelope(gens)
    if env_space.dim == d * d:
        return SimplicityReport("simple", env_space.dim, True)
    # witness search: R-stable subspace generated by a single basis vector
    for i in range(d):
        ech = Echelon([i])
        work = [unit_vector(d, i)]
        while work:
            new = []
            for v in work:
                for g in gens:
                    w = mat_vec(g, v)
                    if ech.insert(dict(enumerate(w))) is not None:
                        new.append(w)
            work = new
        if 0 < ech.dim < d:
            return SimplicityReport("not_simple", env_space.dim, True,
                                    ech.subspace(d))
    return SimplicityReport("inconclusive", env_space.dim, True)


def tau_map(emb, x, y):
    """The rank <= 1 operator z -> K(y,z) x on T."""
    d = emb.t_dim
    ky = mat_vec(emb.killing_t, y)
    return Operator(tuple(tuple(x[i] * ky[j] for j in range(d)) for i in range(d)))


def lambda_map(emb, x, y):
    a, b = tau_map(emb, x, y).matrix, tau_map(emb, y, x).matrix
    return Operator(tuple(tuple(p - q for p, q in zip(ra, rb))
                          for ra, rb in zip(a, b)))


def is_k_skew(emb, m):
    d = emb.t_dim
    kt = emb.killing_t
    mt = tuple(zip(*m))
    lhs = mat_mul(mt, kt)
    rhs = mat_mul(kt, m)
    return all(lhs[i][j] + rhs[i][j] == 0 for i in range(d) for j in range(d))


def tau_commutator_check(emb, dmat, x, y):
    """[d, tau_{x,y}] == tau_{d(x),y} + tau_{x,d(y)} for K-skew d."""
    if not is_k_skew(emb, dmat):
        raise InvalidStructure("operator is not skew with respect to the Killing form")
    lhs = mat_bracket(dmat, tau_map(emb, x, y).matrix)
    rhs_a = tau_map(emb, mat_vec(dmat, x), y).matrix
    rhs_b = tau_map(emb, x, mat_vec(dmat, y)).matrix
    rhs = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(rhs_a, rhs_b))
    return lhs == rhs
