"""Lie triple systems, their operators, standard embedding and Killing form.

A triple system is given by sparse structure constants on a chosen basis:
the nonzero coordinates of each nonzero basis product.  Vectors are
``{index: value}`` dicts and an operator is a dict of nonempty sparse
columns ``{x: {k: a}}`` (column x is the image of b_x), so equal operators
are equal dicts; a bilinear form K is stored the same way, K(b_k, b_x) at
[x][k].

The kernels compute on integers.  A system keeps its constants over one
denominator (``integer_constants``), a Lie algebra its brackets and an
embedding its form on T, and the ``op_*`` algebra takes ints or Fractions.
Each identity checked here is homogeneous in each of its inputs, and
spans and ranks do not change under scaling, so integer multiples of the
inputs give the same verdicts, counterexamples and spans.  Only returned
values are divided back into Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm

from .exactlin import ZERO, Echelon, Subspace, accumulate, integer_row, rational_row


class InvalidStructure(ValueError):
    """Structure constants fail a claimed algebraic property."""


def _validated(dim, basis_names, table, arity):
    """``basis_names`` as a tuple, and ``table`` (``arity`` basis indices ->
    ``{index: value}``) checked against ``dim``, with nonzero Fractions."""
    names = tuple(basis_names)
    if len(names) != dim:
        raise InvalidStructure("one basis name per dimension required")
    out = {}
    for key, v in table.items():
        if len(key) != arity:
            raise InvalidStructure(f"{key!r} is not a tuple of {arity} basis indices")
        for idx in key:
            if not 0 <= idx < dim:
                raise InvalidStructure(f"index {idx} out of range for dim {dim}")
        coords = {}
        for l, a in v.items():
            if not 0 <= l < dim:
                raise InvalidStructure(f"coordinate index {l} out of range for dim {dim}")
            if a:
                coords[l] = Fraction(a)
        if coords:
            out[key] = coords
    return names, out


def _integer_op(op):
    """``(den, w)``: the operator or table ``op`` is ``w / den``, w integer."""
    den = lcm(*(a.denominator for col in op.values() for a in col.values()))
    return den, {x: {k: a.numerator * (den // a.denominator) for k, a in col.items()}
                 for x, col in op.items()}


def _unique(entries, kind):
    """The ``(key, coords)`` pairs as a dict; a repeated key is an error."""
    table = {}
    for key, coords in entries:
        if key in table:
            raise InvalidStructure(
                f"duplicate entry for {kind} ({','.join(map(str, key))})")
        table[key] = coords
    return table


def op_apply(op, v):
    """The image of the sparse vector ``v``."""
    out = {}
    for x, a in v.items():
        col = op.get(x)
        if col:
            accumulate(out, col, a)
    return out


def op_compose(a, b):
    """The product ``a b`` (apply ``b`` first)."""
    out = {}
    for x, col in b.items():
        image = op_apply(a, col)
        if image:
            out[x] = image
    return out


def op_add(a, b, s=None):
    """``a + s b`` (``a + b`` if ``s`` is None), as a new operator."""
    out = {x: dict(col) for x, col in a.items()}
    for x, col in b.items():
        if not accumulate(out.setdefault(x, {}), col, s):
            del out[x]
    return out


def op_bracket(a, b):
    """The commutator ``a b - b a``."""
    return op_add(op_compose(a, b), op_compose(b, a), -1)


def op_transpose(op):
    out = {}
    for x, col in op.items():
        for k, a in col.items():
            out.setdefault(k, {})[x] = a
    return out


def _flatten(op, n):
    """An operator on Q^n as a vector of Q^(n*n): row k of column x at k*n + x."""
    return {k * n + x: a for x, col in op.items() for k, a in col.items()}


def _unflatten(v, n):
    out = {}
    for c, a in v.items():
        k, x = divmod(c, n)
        out.setdefault(x, {})[k] = a
    return out


class TripleSystem:
    """Basis-indexed structure constants of a trilinear product over Q."""

    def __init__(self, dim, basis_names, constants):
        self.dim = dim
        # (i,j,k) -> {l: a}: the nonzero coordinates of [b_i,b_j,b_k]
        self.basis_names, self.constants = _validated(dim, basis_names, constants, 3)
        self.integer_constants = _integer_op(self.constants)

    @classmethod
    def from_entries(cls, dim, basis_names, entries):
        """From ((i,j,k), {index: value}) pairs: unlisted triples are zero, a
        repeated one is an error."""
        return cls(dim, basis_names, _unique(entries, "triple"))

    def triple_product(self, x, y, z):
        """Trilinear extension of the structure constants."""
        consts = self.constants
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = a * b
                for k, c in z.items():
                    coords = consts.get((i, j, k))
                    if coords:
                        accumulate(out, coords, ab * c)
        return out

    def _op(self, free, a, b):
        """x -> the product with b_x in slot ``free`` and a, b in the others."""
        out = {}
        for key, coords in self.constants.items():
            i, j = key[:free] + key[free + 1:]
            c = a.get(i, ZERO) * b.get(j, ZERO)
            if c:
                accumulate(out.setdefault(key[free], {}), coords, c)
        return {x: col for x, col in out.items() if col}

    def r_op(self, a, b):
        """x -> [x, a, b]."""
        return self._op(0, a, b)

    def d_op(self, a, b):
        """x -> [a, b, x]."""
        return self._op(2, a, b)


def basis_operators(t, right=True):
    """The nonzero R_{b_i,b_j}: x -> [x, b_i, b_j] (or, if not ``right``,
    D_{b_i,b_j}: x -> [b_i, b_j, x]), by (i, j)."""
    den = t.integer_constants[0]
    return {key: {x: rational_row(den, col) for x, col in op.items()}
            for key, op in integer_operators(t, right).items()}


def integer_operators(t, right=True):
    """``basis_operators`` times ``t.integer_constants``' denominator: the
    columns are its dicts (do not mutate them)."""
    ops = {}
    for (p, q, r), coords in t.integer_constants[1].items():
        if right:
            ops.setdefault((q, r), {})[p] = coords
        else:
            ops.setdefault((p, q), {})[r] = coords
    return {key: ops[key] for key in sorted(ops)}


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
    """The first basis tuple t with sum of C[s], s in orbit(t), != 0.
    ``orbit(*t)`` lists tuples (repeats count), closed under its symmetry:
    only the orbits of stored keys can have a nonzero sum."""
    for t in sorted({s for key in consts for s in orbit(*key)}):
        total = {}
        for s in orbit(*t):
            accumulate(total, consts.get(s, {}))
        if total:
            return t
    return None


def _cyclic(i, j, k):
    return (i, j, k), (j, k, i), (k, i, j)


def _derivation_failure(consts, op):
    """The first basis triple (x,y,z) where ``op`` is no derivation:
    op[x,y,z] != [op x,y,z] + [x,op y,z] + [x,y,op z]; or None."""
    op_t = op_transpose(op)  # p -> {x: coefficient of b_p in op(b_x)}
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


def _derivation_pass(t):
    """``(ech, bad)``: the ``Echelon`` of the flattened D_{b_a,b_b}, and the
    first (a, b, x, y, z) where D_{a,b} is no derivation, or None (then ech
    holds every D).  The identity is linear in D, so only D's that enlarge
    the span are checked.  Kept on the system (insert nothing)."""
    if getattr(t, "_derivations", None) is None:
        d, ech, bad = t.dim, Echelon(), None
        for (a, b), op in integer_operators(t, right=False).items():
            if ech.insert(_flatten(op, d)) is not None and (
                    bad := _derivation_failure(t.integer_constants[1], op)):
                bad = (a, b) + bad
                break
        t._derivations = ech, bad
    return t._derivations


def check_axioms(t):
    """The three defining identities on all basis combinations, each with the
    first failing one as counterexample.  Kept on the system: do not mutate."""
    if getattr(t, "_axioms", None) is None:
        t._axioms = _axiom_report(t)
    return t._axioms


def _axiom_report(t):
    consts = t.integer_constants[1]
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
    bad = _first_nonzero_sum(consts, _cyclic)
    if bad:
        cyc = AxiomVerdict(False, ("cyclic sum != 0",) + bad)
    der = AxiomVerdict(True)
    bad = _derivation_pass(t)[1]
    if bad:
        der = AxiomVerdict(False, ("derivation identity fails",) + bad)
    return AxiomReport(alt, cyc, der)


class LieAlgebra:
    """Structure constants of a Lie bracket on a chosen basis."""

    def __init__(self, dim, basis_names, brackets):
        self.dim = dim
        # (i,j) -> {l: a}: the nonzero coordinates of [b_i,b_j]
        self.basis_names, self.brackets = _validated(dim, basis_names, brackets, 2)
        self.integer_brackets = _integer_op(self.brackets)

    @classmethod
    def from_entries(cls, dim, basis_names, entries):
        return cls(dim, basis_names, _unique(entries, "pair"))

    def bracket(self, x, y):
        brackets = self.brackets
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                coords = brackets.get((i, j))
                if coords:
                    accumulate(out, coords, a * b)
        return out

    def _nested(self):
        """[b_i, [b_j, b_k]] by (i, j, k) where it can be nonzero, over the
        square of the brackets' denominator."""
        brackets = self.integer_brackets[1]
        by_second = {}
        for (i, l), coords in brackets.items():
            by_second.setdefault(l, []).append((i, coords))
        out = {}
        for (j, k), inner in brackets.items():
            for l, a in inner.items():
                for i, coords in by_second.get(l, ()):
                    accumulate(out.setdefault((i, j, k), {}), coords, a)
        return out

    def validate(self):
        """Raise InvalidStructure unless antisymmetry and Jacobi hold, naming
        the first failing basis pair, then the first basis triple."""
        bad = _first_nonzero_sum(self.integer_brackets[1], lambda i, j: ((i, j), (j, i)))
        if bad:
            i, j = bad
            if (i, i) in self.brackets:
                raise InvalidStructure(f"[b{i},b{i}] != 0")
            raise InvalidStructure(f"[b{i},b{j}] + [b{j},b{i}] != 0")
        bad = _first_nonzero_sum(self._nested(), _cyclic)
        if bad:
            raise InvalidStructure("Jacobi fails on basis triple ({},{},{})".format(*bad))

    def killing(self):
        """K(b_i, b_j) = tr(ad b_i ad b_j) = sum over k of [b_i, [b_j, b_k]]_k."""
        out = {}
        for (i, j, k), coords in self._nested().items():
            if k in coords:
                accumulate(out.setdefault(i, {}), {j: coords[k]})
        den = self.integer_brackets[0] ** 2
        return {i: rational_row(den, row) for i, row in out.items() if row}


def lts_from_lie(l):
    """The triple system [x,y,z] = [[x,y],z] of a valid Lie algebra: that is
    -[b_k,[b_i,b_j]], which ``_nested`` holds at (k, i, j)."""
    l.validate()
    den = l.integer_brackets[0] ** 2
    constants = {(i, j, k): {m: Fraction(-a, den) for m, a in coords.items()}
                 for (k, i, j), coords in l._nested().items()}
    return TripleSystem(l.dim, l.basis_names, dict(sorted(constants.items())))


def inner_derivations(t):
    """(Subspace of flattened operators, its basis operators): the span of
    the D_{b_i,b_j}, all derivations, so bracket-closed: [D, D_{a,b}] =
    D_{Da,b} + D_{a,Db}."""
    ech, bad = _derivation_pass(t)
    if bad:
        raise InvalidStructure("an inner derivation fails the derivation identity")
    space = ech.subspace(t.dim ** 2)
    return space, [_unflatten(r, t.dim) for r in space.rows]


@dataclass
class StandardEmbedding:
    """L(T) = InnDer(T) (+) T with its Killing form.  Its involution fixes the
    first ``inn_dim`` basis vectors (InnDer(T)) and negates the rest (T)."""
    lie: LieAlgebra
    inn_dim: int
    t_dim: int
    inn_basis: list  # operators on T spanning InnDer(T), echelon basis
    killing: dict    # trace form of the adjoint representation
    killing_t: dict  # restriction of the Killing form to the T block

    def __post_init__(self):
        self.integer_killing_t = _integer_op(self.killing_t)

    @property
    def dim(self):
        return self.lie.dim


def _graded(brackets, m):
    """True iff [D,D], [T,T] lie in D and [D,T], [T,D] in T, for D spanned by
    the first ``m`` basis vectors: iff the involution keeps the bracket."""
    for (p, q), coords in brackets.items():
        odd = (p >= m) != (q >= m)
        if any((l >= m) != odd for l in coords):
            return False
    return True


def standard_embedding(t):
    """L(T) with Jacobi, the grading and its Killing form checked; InnDer(T)
    coordinates come from integer operators, over each block's denominator."""
    d = t.dim
    inn_space, inn_basis = inner_derivations(t)
    m = len(inn_basis)
    n = m + d

    def inn_coords(op, den):
        # coordinates in an RREF basis: the entries at its pivots
        v = _flatten(op, d)
        if inn_space.reduce(v):
            raise InvalidStructure("bracket leaves the inner derivation span")
        return {q: Fraction(v[p], den) for q, p in enumerate(inn_space.pivots) if p in v}

    scaled = [_integer_op(D) for D in inn_basis]
    brackets = {}
    for p, (da, a) in enumerate(scaled):
        for q, (db, b) in enumerate(scaled):
            brackets[(p, q)] = inn_coords(op_bracket(a, b), da * db)
    for p, D in enumerate(inn_basis):
        for i, col in sorted(D.items()):
            brackets[(p, m + i)] = {m + k: a for k, a in col.items()}
            brackets[(m + i, p)] = {m + k: -a for k, a in col.items()}
    for (i, j), D in integer_operators(t, right=False).items():
        brackets[(m + i, m + j)] = inn_coords(D, t.integer_constants[0])

    names = tuple(f"D{p}" for p in range(m)) + t.basis_names
    lie = LieAlgebra(n, names, brackets)
    try:
        lie.validate()
    except InvalidStructure as exc:
        raise InvalidStructure(f"standard embedding is not a Lie algebra: {exc}")
    if not _graded(lie.brackets, m):
        raise InvalidStructure("the bracket does not respect the grading InnDer(T) + T")

    killing = lie.killing()
    if any(j >= m for i, row in killing.items() if i < m for j in row):
        raise InvalidStructure("InnDer(T) and T are not K-orthogonal")
    killing_t = {i - m: {j - m: a for j, a in row.items()}
                 for i, row in killing.items() if i >= m}
    return StandardEmbedding(lie, m, d, inn_basis, killing, killing_t)


@dataclass
class TraceIdentityReport:
    ok: bool
    failures: list = field(default_factory=list)


def trace_identity_check(t, emb=None):
    """2 tr(R_{b_i,b_j}) = K(b_i,b_j) on all pairs; tr R_{b_i,b_j} is the sum
    over x of C[(x,i,j)][x], so only pairs with either side nonzero can fail."""
    emb = emb or standard_embedding(t)
    traces = {}
    for (x, i, j), coords in t.constants.items():
        if x in coords:
            traces[(i, j)] = traces.get((i, j), ZERO) + coords[x]
    kt = emb.killing_t
    failures = []
    for i, j in sorted(set(traces) | {(i, j) for i, row in kt.items() for j in row}):
        lhs = 2 * traces.get((i, j), ZERO)
        rhs = kt.get(i, {}).get(j, ZERO)
        if lhs != rhs:
            failures.append((i, j, lhs, rhs))
    return TraceIdentityReport(not failures, failures)


def _span_closure(gens, product, n):
    """(RREF Subspace of flattened operators, its basis operators): the least
    space on Q^n containing ``gens`` and closed under ``product``.  Each
    ordered pair of basis elements is multiplied once, until End(Q^n)."""
    for g in gens:
        for x, col in g.items():
            if not 0 <= x < n or any(not 0 <= k < n for k in col):
                raise InvalidStructure(f"a span closure needs operators on Q^{n}")
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
        row = ech.insert(_flatten(c, n))
        if row is not None:
            basis.append(_unflatten(row, n))
            if ech.dim == full:
                break
    space = ech.subspace(full)
    return space, [_unflatten(r, n) for r in space.rows]


def lie_closure(gens, n):
    """``_span_closure`` of ``gens`` under the bracket."""
    return _span_closure(gens, op_bracket, n)


def r_generators(t):
    """The nonzero R_{b_i,b_j}, in order of (i, j)."""
    return list(basis_operators(t).values())


def endo_theorem_check(t):
    """True iff the Lie closure of all R_{b_i,b_j} is the full End(T)."""
    space, _ = lie_closure(integer_operators(t).values(), t.dim)
    return space.dim == t.dim * t.dim


def associative_envelope(gens, n):
    """``_span_closure`` of ``gens`` under composition (no unit adjoined)."""
    return _span_closure(gens, op_compose, n)


@dataclass
class SimplicityReport:
    verdict: str               # "simple" | "not_simple" | "inconclusive"
    envelope_dim: int
    triple_nonzero: bool
    witness: Subspace | None = None


def simplicity_certificate(t):
    """Burnside-style certificate: ideals of T are the R_{b,c}-invariant
    subspaces, so a full associative envelope of the R's and [T,T,T] != 0
    make T simple; a proper one needs an invariant subspace as witness.
    Kept on the system: do not mutate it."""
    if getattr(t, "_simplicity", None) is None:
        t._simplicity = _simplicity_certificate(t)
    return t._simplicity


def _simplicity_certificate(t):
    d, gens = t.dim, integer_operators(t).values()
    if not t.constants:
        witness = generated_ideal(Echelon(), [{0: 1}], gens, d).subspace(d) if d else None
        return SimplicityReport("not_simple", 0, False, witness)
    env_space, _ = associative_envelope(gens, d)
    if env_space.dim == d * d:
        return SimplicityReport("simple", env_space.dim, True)
    # witness search: the ideal of a single basis vector
    for i in range(d):
        ideal = generated_ideal(Echelon(), [{i: 1}], gens, d)
        if 0 < ideal.dim < d:
            return SimplicityReport("not_simple", env_space.dim, True,
                                    ideal.subspace(d))
    return SimplicityReport("inconclusive", env_space.dim, True)


def generated_ideal(ech, vectors, ops, d):
    """Extend ``ech``, echelon of an ``ops``-stable subspace of Q^d, to the
    least ``ops``-stable one containing ``vectors`` (with the R_{b,c} as
    ``ops``, the ideal they generate), forming images one at a time.
    Returns ``ech``."""
    work = [iter(vectors)]
    while work and ech.dim < d:
        v = next(work[-1], None)
        if v is None:
            work.pop()
        elif ech.insert(v) is not None:
            work.append(map(op_apply, ops, repeat(v)))
    return ech


def _tau(kt, x, y):
    """z -> K(y,z) x for the form ``kt``, with no zero entry of x (no empty column)."""
    x = {i: a for i, a in x.items() if a}
    if not x:
        return {}
    return {z: {i: a * c for i, a in x.items()} for z, c in op_apply(kt, y).items()}


def _lambda(kt, x, y):
    return op_add(_tau(kt, x, y), _tau(kt, y, x), -1)


def _skew(kt, m):
    return not op_add(op_compose(op_transpose(m), kt), op_compose(kt, m))


def _tau_rule(kt, dmat, x, y):
    if not _skew(kt, dmat):
        raise InvalidStructure("operator is not skew with respect to the Killing form")
    return op_bracket(dmat, _tau(kt, x, y)) == op_add(
        _tau(kt, op_apply(dmat, x), y), _tau(kt, x, op_apply(dmat, y)))


def _rational(kernel, emb, x, y):
    (dk, kt), (dx, x), (dy, y) = emb.integer_killing_t, integer_row(x), integer_row(y)
    return {z: rational_row(dk * dx * dy, col) for z, col in kernel(kt, x, y).items()}


def tau_map(emb, x, y):
    """The rank <= 1 operator z -> K(y,z) x on T."""
    return _rational(_tau, emb, x, y)


def lambda_map(emb, x, y):
    return _rational(_lambda, emb, x, y)


def is_k_skew(emb, m):
    """True iff K(m u, v) + K(u, m v) = 0 for all u, v."""
    return _skew(emb.integer_killing_t[1], _integer_op(m)[1])


def tau_commutator_check(emb, dmat, x, y):
    """[d, tau_{x,y}] == tau_{d(x),y} + tau_{x,d(y)} for K-skew d."""
    return _tau_rule(emb.integer_killing_t[1], _integer_op(dmat)[1],
                     integer_row(x)[1], integer_row(y)[1])
