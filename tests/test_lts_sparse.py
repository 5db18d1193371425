"""Differential tests: the sparse ``lts`` layer against the dense code it replaces.

The reference section below is the dense implementation ``lts`` used
before its structure constants, vectors and operators were stored
sparsely: dense coordinate tuples, operators as row-major matrices, and
the standard embedding checked through its diagonal involution sigma.
The sparse code must return the same values: the same axiom verdicts
with the same counterexample tuples, the same products and operators,
the same inner derivations, Killing forms, trace-identity failures,
canonical closures and simplicity certificates.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from constructions import sl3_lie

from triplex import catalog, cli, lts, suites
from triplex.exactlin import ONE, ZERO, Echelon, echelonize
from triplex.lts import (AxiomReport, AxiomVerdict, InvalidStructure, LieAlgebra,
                         TripleSystem, _derivation_failure, _derivation_pass, _flatten,
                         _graded, _span_closure,
                         associative_envelope, basis_operators, check_axioms, inner_derivations, is_k_skew, lambda_map,
                         lie_closure, lts_from_lie, op_apply,
                         op_bracket, op_compose, r_generators, simplicity_certificate,
                         standard_embedding, tau_commutator_check, tau_map,
                         trace_identity_check)

F = Fraction

BUNDLED = {name: make() for name, make in catalog.SYSTEMS.items()}


# ---------------------------------------------------------------------------
# dense reference code

def unit_vector(d, i):
    return tuple(ONE if j == i else ZERO for j in range(d))


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _is_zero(x):
    return all(not a for a in x)


def mat_identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(ra, cb)), ZERO) for cb in bt)
                 for ra in a)


def mat_bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def mat_flatten(a):
    m = len(a[0])
    return {i * m + j: x for i, row in enumerate(a) for j, x in enumerate(row) if x}


def mat_unflatten(v, n):
    out = [[ZERO] * n for _ in range(n)]
    for c, a in v.items():
        out[c // n][c % n] = a
    return tuple(tuple(r) for r in out)


def dense(d, v):
    """A sparse vector as a length-d tuple."""
    return tuple(v.get(i, ZERO) for i in range(d))


def sparse(v):
    return {i: a for i, a in enumerate(v) if a}


def columns(matrix):
    """The sparse columns of a dense square matrix."""
    n = len(matrix)
    out = {}
    for x in range(n):
        col = {k: matrix[k][x] for k in range(n) if matrix[k][x]}
        if col:
            out[x] = col
    return out


def matrix(n, op):
    """The dense matrix of sparse columns on Q^n."""
    return tuple(tuple(op.get(x, {}).get(k, ZERO) for x in range(n)) for k in range(n))


class DenseTripleSystem:
    """Dense structure constants: (i,j,k) -> tuple of length dim."""

    def __init__(self, dim, constants):
        self.dim = dim
        self.constants = {}
        for key, coords in constants.items():
            vec = [ZERO] * dim
            for l, a in coords.items():
                vec[l] = F(a)
            if not _is_zero(vec):
                self.constants[key] = tuple(vec)

    def basis_product(self, i, j, k):
        return self.constants.get((i, j, k), (ZERO,) * self.dim)

    def triple_product(self, x, y, z):
        out = [ZERO] * self.dim
        for (i, j, k), vec in self.constants.items():
            c = x[i] * y[j] * z[k]
            if c:
                for l, a in enumerate(vec):
                    if a:
                        out[l] += c * a
        return tuple(out)

    def r_op(self, a, b):
        d = self.dim
        cols = [self.triple_product(unit_vector(d, i), a, b) for i in range(d)]
        return tuple(tuple(cols[i][k] for i in range(d)) for k in range(d))

    def d_op(self, a, b):
        d = self.dim
        cols = [self.triple_product(a, b, unit_vector(d, i)) for i in range(d)]
        return tuple(tuple(cols[i][k] for i in range(d)) for k in range(d))


def dense_system(t):
    return DenseTripleSystem(t.dim, t.constants)


def dense_derivation_failure(t, D):
    """First basis triple where the matrix ``D`` is no derivation, or None."""
    d = t.dim
    e = lambda i: unit_vector(d, i)
    for x, y, z in iproduct(range(d), repeat=3):
        lhs = mat_vec(D, t.basis_product(x, y, z))
        rhs = _add(_add(t.triple_product(mat_vec(D, e(x)), e(y), e(z)),
                        t.triple_product(e(x), mat_vec(D, e(y)), e(z))),
                   t.triple_product(e(x), e(y), mat_vec(D, e(z))))
        if lhs != rhs:
            return x, y, z
    return None


def dense_check_axioms(t):
    d = t.dim
    e = lambda i: unit_vector(d, i)

    alt = AxiomVerdict(True)
    for i, j in iproduct(range(d), repeat=2):
        if not _is_zero(t.triple_product(e(i), e(i), e(j))):
            alt = AxiomVerdict(False, ("[x,x,y] != 0", i, i, j))
            break
    if alt.ok:
        for i, j, k in iproduct(range(d), repeat=3):
            v = _add(t.basis_product(i, j, k), t.basis_product(j, i, k))
            if not _is_zero(v):
                alt = AxiomVerdict(False, ("[x,y,z]+[y,x,z] != 0", i, j, k))
                break

    cyc = AxiomVerdict(True)
    for i, j, k in iproduct(range(d), repeat=3):
        v = _add(_add(t.basis_product(i, j, k), t.basis_product(j, k, i)),
                 t.basis_product(k, i, j))
        if not _is_zero(v):
            cyc = AxiomVerdict(False, ("cyclic sum != 0", i, j, k))
            break

    der = AxiomVerdict(True)
    for a, b in iproduct(range(d), repeat=2):
        bad = dense_derivation_failure(t, t.d_op(e(a), e(b)))
        if bad:
            der = AxiomVerdict(False, ("derivation identity fails", a, b) + bad)
            break

    return AxiomReport(alt, cyc, der)


class DenseLie:
    """Dense Lie structure constants: (i,j) -> tuple of length dim."""

    def __init__(self, dim, brackets):
        self.dim = dim
        self.brackets = {key: dense(dim, v) for key, v in brackets.items()
                         if any(v.values())}

    def basis_bracket(self, i, j):
        return self.brackets.get((i, j), (ZERO,) * self.dim)

    def bracket(self, x, y):
        out = [ZERO] * self.dim
        for (i, j), vec in self.brackets.items():
            c = x[i] * y[j]
            if c:
                for l, a in enumerate(vec):
                    out[l] += c * a
        return tuple(out)

    def validate(self):
        d = self.dim
        e = lambda i: unit_vector(d, i)
        for i in range(d):
            if not _is_zero(self.basis_bracket(i, i)):
                raise InvalidStructure(f"[b{i},b{i}] != 0")
            for j in range(d):
                if not _is_zero(_add(self.basis_bracket(i, j), self.basis_bracket(j, i))):
                    raise InvalidStructure(f"[b{i},b{j}] + [b{j},b{i}] != 0")
        for i, j, k in iproduct(range(d), repeat=3):
            s = _add(_add(self.bracket(e(i), self.basis_bracket(j, k)),
                          self.bracket(e(j), self.basis_bracket(k, i))),
                     self.bracket(e(k), self.basis_bracket(i, j)))
            if not _is_zero(s):
                raise InvalidStructure(f"Jacobi fails on basis triple ({i},{j},{k})")

    def killing(self):
        d = self.dim
        ad = [tuple(tuple(self.basis_bracket(i, j)[k] for j in range(d))
                    for k in range(d)) for i in range(d)]
        return tuple(tuple(mat_trace(mat_mul(ad[i], ad[j])) for j in range(d))
                     for i in range(d))


def validation_error(lie):
    try:
        lie.validate()
    except InvalidStructure as exc:
        return str(exc)
    return None


def dense_lts_from_lie(l):
    """The dense constants [[b_i,b_j],b_k] of a valid DenseLie."""
    d = l.dim
    e = lambda i: unit_vector(d, i)
    return {(i, j, k): sparse(l.bracket(l.basis_bracket(i, j), e(k)))
            for i, j, k in iproduct(range(d), repeat=3)}


def dense_inner_derivations(t):
    d = t.dim
    e = lambda i: unit_vector(d, i)
    gens = [t.d_op(e(i), e(j)) for i in range(d) for j in range(d)]
    space = echelonize([mat_flatten(g) for g in gens], d * d)
    basis = [mat_unflatten(r, d) for r in space.rows]
    for a in basis:
        for b in basis:
            if not space.member(mat_flatten(mat_bracket(a, b))):
                raise InvalidStructure("inner derivations are not bracket-closed")
    for D in basis:
        if dense_derivation_failure(t, D) is not None:
            raise InvalidStructure("an inner derivation fails the derivation identity")
    return space, basis


def sigma_matrix(n, m):
    """diag(1, ..., 1, -1, ..., -1) with m entries 1."""
    return tuple(tuple((ONE if i < m else -ONE) if i == j else ZERO for j in range(n))
                 for i in range(n))


def dense_sigma_preserves(lie, sigma):
    n = lie.dim
    e = lambda i: unit_vector(n, i)
    return all(mat_vec(sigma, lie.basis_bracket(i, j))
               == lie.bracket(mat_vec(sigma, e(i)), mat_vec(sigma, e(j)))
               for i, j in iproduct(range(n), repeat=2))


def dense_standard_embedding(t):
    d = t.dim
    e = lambda i: unit_vector(d, i)
    inn_space, inn_basis = dense_inner_derivations(t)
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
        for i in range(d):
            col = {m + k: inn_basis[p][k][i] for k in range(d)}
            brackets[(p, m + i)] = col
            brackets[(m + i, p)] = {k: -a for k, a in col.items()}
    for i in range(d):
        for j in range(d):
            brackets[(m + i, m + j)] = inn_coords(t.d_op(e(i), e(j)))

    lie = DenseLie(n, brackets)
    error = validation_error(lie)
    if error:
        raise InvalidStructure(f"standard embedding is not a Lie algebra: {error}")
    sigma = sigma_matrix(n, m)
    assert mat_mul(sigma, sigma) == mat_identity(n)
    if not dense_sigma_preserves(lie, sigma):
        raise InvalidStructure("sigma does not preserve the bracket")
    killing = lie.killing()
    for p in range(m):
        for i in range(d):
            if killing[p][m + i]:
                raise InvalidStructure("InnDer(T) and T are not K-orthogonal")
    killing_t = tuple(tuple(killing[m + i][m + j] for j in range(d)) for i in range(d))
    return SimpleNamespace(lie=lie, inn_dim=m, inn_basis=inn_basis, sigma=sigma,
                           killing=killing, killing_t=killing_t)


def dense_trace_failures(t, emb):
    d = t.dim
    e = lambda i: unit_vector(d, i)
    failures = []
    for i, j in iproduct(range(d), repeat=2):
        lhs = 2 * mat_trace(t.r_op(e(i), e(j)))
        rhs = emb.killing_t[i][j]
        if lhs != rhs:
            failures.append((i, j, lhs, rhs))
    return failures


def dense_r_generators(t):
    d = t.dim
    e = lambda i: unit_vector(d, i)
    return [t.r_op(e(i), e(j)) for i in range(d) for j in range(d)]


def _closure_loop(gens, product):
    n = len(gens[0])
    ech = Echelon()
    basis = []
    work = []
    for g in gens:
        row = ech.insert(mat_flatten(g))
        if row is not None:
            mrow = mat_unflatten(row, n)
            basis.append(mrow)
            work.append(mrow)
    while work:
        new = []
        for a in work:
            for b in basis:
                for c in (product(a, b), product(b, a)):
                    row = ech.insert(mat_flatten(c))
                    if row is not None:
                        mrow = mat_unflatten(row, n)
                        basis.append(mrow)
                        new.append(mrow)
        work = new
    space = echelonize([mat_flatten(b) for b in basis], n * n)
    return space, [mat_unflatten(r, n) for r in space.rows]


def dense_lie_closure(gens):
    return _closure_loop(gens, mat_bracket)


def dense_associative_envelope(gens):
    return _closure_loop(gens, mat_mul)


def dense_simplicity_certificate(t):
    """(verdict, envelope_dim, triple_nonzero, witness)."""
    d = t.dim
    gens = dense_r_generators(t)
    if not t.constants:
        return "not_simple", 0, False, Echelon([0]).subspace(d)
    env_space, _ = dense_associative_envelope(gens)
    if env_space.dim == d * d:
        return "simple", env_space.dim, True, None
    for i in range(d):
        ech = Echelon([i])
        work = [unit_vector(d, i)]
        while work:
            new = []
            for v in work:
                for g in gens:
                    w = mat_vec(g, v)
                    if ech.insert(sparse(w)) is not None:
                        new.append(w)
            work = new
        if 0 < ech.dim < d:
            return "not_simple", env_space.dim, True, ech.subspace(d)
    return "inconclusive", env_space.dim, True, None


def dense_tau_map(kt, x, y):
    d = len(x)
    ky = mat_vec(kt, y)
    return tuple(tuple(x[i] * ky[j] for j in range(d)) for i in range(d))


def dense_lambda_map(kt, x, y):
    return mat_sub(dense_tau_map(kt, x, y), dense_tau_map(kt, y, x))


def dense_is_k_skew(kt, m):
    d = len(kt)
    lhs = mat_mul(tuple(zip(*m)), kt)
    rhs = mat_mul(kt, m)
    return all(lhs[i][j] + rhs[i][j] == 0 for i in range(d) for j in range(d))


def dense_tau_commutator_check(kt, dmat, x, y):
    if not dense_is_k_skew(kt, dmat):
        raise InvalidStructure("operator is not skew with respect to the Killing form")
    lhs = mat_bracket(dmat, dense_tau_map(kt, x, y))
    rhs_a = dense_tau_map(kt, mat_vec(dmat, x), y)
    rhs_b = dense_tau_map(kt, x, mat_vec(dmat, y))
    rhs = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(rhs_a, rhs_b))
    return lhs == rhs


# ---------------------------------------------------------------------------
# generated structure constants

def _raw(t):
    return {key: dict(v) for key, v in t.constants.items()}


def _add_at(consts, key, l, a):
    coords = consts.setdefault(key, {})
    coords[l] = coords.get(l, ZERO) + a


def alternating_part(consts):
    """A - A(swap of the first two slots)."""
    out = {}
    for (i, j, k), coords in consts.items():
        for l, a in coords.items():
            _add_at(out, (i, j, k), l, a)
            _add_at(out, (j, i, k), l, -a)
    return out


def alt_cyclic_part(consts):
    """Project a tensor onto those that are alternating with zero cyclic sum.

    E = A - A(swap of the first two slots) is alternating; its cyclic sum
    S is totally antisymmetric, and E - S/3 keeps both properties.
    """
    e = alternating_part(consts)
    out = {}
    for (i, j, k), coords in e.items():
        for l, a in coords.items():
            _add_at(out, (i, j, k), l, a)
            for rot in ((i, j, k), (j, k, i), (k, i, j)):
                _add_at(out, rot, l, -a / 3)
    return out


@st.composite
def tensors(draw):
    """Small random trilinear constants: raw, alternating, or alternating and cyclic."""
    d = draw(st.integers(1, 3))
    idx = st.integers(0, d - 1)
    entries = draw(st.lists(st.tuples(idx, idx, idx, idx, st.integers(-2, 2)),
                            max_size=8))
    consts = {}
    for i, j, k, l, a in entries:
        _add_at(consts, (i, j, k), l, F(a))
    shape = draw(st.sampled_from(["raw", "alternating", "alt_cyclic"]))
    if shape == "alternating":
        consts = alternating_part(consts)
    elif shape == "alt_cyclic":
        consts = alt_cyclic_part(consts)
    return d, consts


def assert_same_report(d, consts):
    rep = check_axioms(TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts))
    assert rep == dense_check_axioms(DenseTripleSystem(d, consts))
    return rep


# ---------------------------------------------------------------------------
# axiom checks

@pytest.mark.parametrize("name", ["s2", "sl2_lts", "abelian3", "s2_plus_s2"])
def test_check_axioms_bundled_matches_dense(name):
    t = BUNDLED[name]
    assert assert_same_report(t.dim, _raw(t)).ok


@settings(max_examples=150, deadline=None)
@given(tensors())
def test_check_axioms_random_matches_dense(case):
    assert_same_report(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s2", "sl2_lts", "s2_plus_s2"]), st.data())
def test_one_broken_axiom_at_chosen_index(name, data):
    t = BUNDLED[name]
    d = t.dim
    idx = st.integers(0, d - 1)
    i, j, k, l = (data.draw(idx) for _ in range(4))
    a = F(data.draw(st.sampled_from([-2, -1, 1, 3])))
    consts = _raw(t)
    kind = data.draw(st.sampled_from(["square", "antisymmetry", "cyclic",
                                      "derivation"]))
    if kind == "square":
        _add_at(consts, (i, i, k), l, a)
        rep = assert_same_report(d, consts)
        assert rep.alternating.counterexample == ("[x,x,y] != 0", i, i, k)
    elif kind == "antisymmetry":
        if i == j:
            j = (i + 1) % d
        _add_at(consts, (i, j, k), l, a)
        rep = assert_same_report(d, consts)
        first = min((i, j, k), (j, i, k))
        assert rep.alternating.counterexample == ("[x,y,z]+[y,x,z] != 0",) + first
    elif kind == "cyclic":
        # a totally antisymmetric tensor keeps the alternating identity
        if d < 3:
            return
        i, j, k = sorted(data.draw(st.permutations(range(d)))[:3])
        for p, q, r, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1),
                              (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
            _add_at(consts, (p, q, r), l, sign * a)
        rep = assert_same_report(d, consts)
        assert rep.alternating.ok
        assert rep.cyclic.counterexample == ("cyclic sum != 0", i, j, k)
    else:
        # the two linear identities survive adding an alternating, cyclic tensor
        for key, coords in alt_cyclic_part({(i, j, k): {l: a}}).items():
            for m, b in coords.items():
                _add_at(consts, key, m, b)
        rep = assert_same_report(d, consts)
        assert rep.alternating.ok and rep.cyclic.ok


def test_derivation_only_failure():
    consts = _raw(BUNDLED["sl2_lts"])
    for key, coords in alt_cyclic_part({(0, 1, 2): {0: ONE}}).items():
        for l, a in coords.items():
            _add_at(consts, key, l, a)
    t = TripleSystem(3, ("h", "e", "f"), consts)
    rep = assert_same_report(3, consts)
    assert rep.alternating.ok and rep.cyclic.ok
    assert rep.derivation.counterexample == ("derivation identity fails",
                                             0, 1, 0, 2, 0)
    with pytest.raises(InvalidStructure):
        inner_derivations(t)


def raises_invalid(f, *args):
    try:
        f(*args)
    except InvalidStructure:
        return True
    return False


# [a,b,a] = -b and [a,c,c] = a, with the swaps that make the product
# alternating; its cyclic sums vanish, but its D's span no bracket-closed space
UNCLOSED = {(0, 1, 0): {1: -ONE}, (1, 0, 0): {1: ONE},
            (0, 2, 2): {0: ONE}, (2, 0, 2): {0: -ONE}}
UNCLOSED_MESSAGE = "an inner derivation fails the derivation identity"


def test_unclosed_inner_derivations_fail_the_derivation_identity(tmp_path, capsys):
    # the dense reference meets the open bracket first; closure follows from
    # the derivation identity, so the sparse code names that identity instead
    t = TripleSystem(3, ("a", "b", "c"), UNCLOSED)
    with pytest.raises(InvalidStructure, match="not bracket-closed"):
        dense_inner_derivations(DenseTripleSystem(3, UNCLOSED))
    rep = check_axioms(t)
    assert rep.alternating.ok and rep.cyclic.ok
    assert rep.derivation == AxiomVerdict(False, ("derivation identity fails",
                                                  0, 1, 0, 2, 2))
    for build in (inner_derivations, standard_embedding):
        with pytest.raises(InvalidStructure, match=UNCLOSED_MESSAGE):
            build(t)
    path = tmp_path / "unclosed.json"
    path.write_text(json.dumps({
        "kind": "lts", "dim": 3, "basis": ["a", "b", "c"],
        "entries": [{"args": list(key), "value": {str(l): str(a) for l, a in v.items()}}
                    for key, v in UNCLOSED.items()]}))
    assert cli.main(["verify", str(path), "--suite", "embedding", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["records"] == [{"id": "embedding_build", "params": {},
                                  "verdict": "fail", "witness": UNCLOSED_MESSAGE}]


def scan_derivation(t):
    """The per-operator scan: the first D_{a,b}, in (a, b) order, that is no
    derivation, checking every operator."""
    for (a, b), op in basis_operators(t, right=False).items():
        bad = _derivation_failure(t.constants, op)
        if bad:
            return AxiomVerdict(False, ("derivation identity fails", a, b) + bad)
    return AxiomVerdict(True)


@st.composite
def perturbed_bundled(draw, names=tuple(sorted(BUNDLED))):
    """A bundled system (one of ``names``) plus up to two alternating, cyclic
    tensors: the two linear identities still hold, and the derivation
    identity mostly fails."""
    t = BUNDLED[draw(st.sampled_from(names))]
    d, consts = t.dim, _raw(t)
    idx = st.integers(0, d - 1)
    for _ in range(draw(st.integers(0, 2))):
        i, j, k, l = (draw(idx) for _ in range(4))
        a = F(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.integers(1, 2)))
        for key, coords in alt_cyclic_part({(i, j, k): {l: a}}).items():
            for m, b in coords.items():
                _add_at(consts, key, m, b)
    return d, consts


@settings(max_examples=80, deadline=None)
@given(st.one_of(tensors(), perturbed_bundled(("abelian3", "s2", "s2_plus_s2", "sl2_lts"))))
def test_inner_derivations_fail_iff_derivation_fails(case):
    # against the dense reference, which checks bracket closure and each
    # basis operator on its own: the sparse check_axioms and
    # inner_derivations share one derivation pass.  The perturbed bundled
    # systems pass their first D_{a,b} and fail a later one, which the
    # small random tensors seldom do (sl3_sym is left out: the dense
    # axiom check takes about 5 s on it)
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    ref = DenseTripleSystem(d, consts)
    raised = raises_invalid(inner_derivations, t)
    assert raised == raises_invalid(dense_inner_derivations, ref)
    assert raised == (not dense_check_axioms(ref).derivation.ok)
    if not raised:
        assert inner_derivations(t)[0] == dense_inner_derivations(ref)[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(tensors(), perturbed_bundled()))
def test_derivation_verdict_matches_per_operator_scan(case):
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    assert check_axioms(t).derivation == scan_derivation(t)


def reference_derivation_pass(t):
    """The derivation pass without the memo: ``(ech, bad)`` from a scan of
    the D_{a,b} that enlarge the span, made on every call."""
    d, ech = t.dim, Echelon()
    for (a, b), op in basis_operators(t, right=False).items():
        if ech.insert(_flatten(op, d)) is not None:
            bad = _derivation_failure(t.constants, op)
            if bad:
                return ech, (a, b) + bad
    return ech, None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(tensors(), perturbed_bundled()), min_size=2, max_size=4))
def test_kept_derivation_pass_matches_a_fresh_pass(cases):
    # several systems in turn, each asked through every caller of the pass:
    # each keeps its own pass, equal to a fresh one on an equal but
    # separate system
    def system(d, consts):
        return TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)

    systems = [system(*case) for case in cases]
    for t in systems:
        check_axioms(t)
        raises_invalid(inner_derivations, t)
    for t, case in zip(systems, cases):
        ech, bad = _derivation_pass(t)
        assert _derivation_pass(t)[0] is ech
        fresh, fresh_bad = reference_derivation_pass(system(*case))
        assert bad == fresh_bad
        assert ech.rref_rows() == fresh.rref_rows()


def test_one_verify_run_makes_one_derivation_pass(monkeypatch):
    # check_axioms in the axioms suite and in the build, and
    # inner_derivations in the embedding suite, share one pass
    scanned = []
    scan = lts._derivation_failure
    monkeypatch.setattr(lts, "_derivation_failure",
                        lambda consts, op: scanned.append(op) or scan(consts, op))
    t = BUNDLED["sl2_lts"]
    t = TripleSystem(t.dim, t.basis_names, t.constants)  # no pass kept yet
    assert suites.run_suite("all", t, 4).ok
    inner_derivations(t)
    assert len(scanned) == reference_derivation_pass(t)[0].dim == 3


def test_one_verify_run_makes_each_lts_verdict_once(monkeypatch):
    # check_axioms in the build and in the axioms suite share one report (one
    # alternating and one cyclic scan of the system's integer constants), and the
    # simple and mainthm suites one simplicity certificate (one associative
    # envelope)
    t = BUNDLED["sl2_lts"]
    t = TripleSystem(t.dim, t.basis_names, t.constants)  # no verdict kept yet
    scans, envelopes = [], []
    scan, envelope = lts._first_nonzero_sum, lts.associative_envelope
    monkeypatch.setattr(lts, "_first_nonzero_sum",
                        lambda consts, orbit: scans.append(consts is t.integer_constants[1])
                        or scan(consts, orbit))
    monkeypatch.setattr(lts, "associative_envelope",
                        lambda gens, n: envelopes.append(n) or envelope(gens, n))
    assert suites.run_suite("all", t, 4).ok
    assert scans.count(True) == 2 and envelopes == [3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(tensors(), perturbed_bundled()), min_size=2, max_size=4))
def test_kept_lts_verdicts_match_a_fresh_system(cases):
    # several systems in turn: each keeps its own axiom report and simplicity
    # certificate, equal to those of an equal but separate system
    def system(d, consts):
        return TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)

    systems = [system(*case) for case in cases]
    kept = [(check_axioms(t), simplicity_certificate(t)) for t in systems]
    for t, case, (axioms, cert) in zip(systems, cases, kept):
        assert check_axioms(t) is axioms and simplicity_certificate(t) is cert
        # made anew, without the kept ones, on an equal but separate system
        fresh = system(*case)
        assert axioms == lts._axiom_report(fresh)
        assert cert == lts._simplicity_certificate(fresh)


def test_derivation_failure_named_by_the_scan():
    # D_{0,1} stays a derivation and D_{0,2} does not: the first failing
    # D_{a,b} in (a, b) order is named, not just some failing one
    consts = _raw(BUNDLED["s2_plus_s2"])
    for key, coords in alt_cyclic_part({(0, 2, 3): {0: ONE}}).items():
        for l, a in coords.items():
            _add_at(consts, key, l, a)
    t = TripleSystem(4, tuple(f"b{i}" for i in range(4)), consts)
    rep = check_axioms(t)
    assert rep.alternating.ok and rep.cyclic.ok
    assert rep.derivation == scan_derivation(t) == AxiomVerdict(
        False, ("derivation identity fails", 0, 2, 0, 1, 3))
    assert min(basis_operators(t, right=False)) == (0, 1)


@settings(max_examples=80, deadline=None)
@given(tensors(), st.data())
def test_triple_product_and_operators_match_dense(case, data):
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    ref = DenseTripleSystem(d, consts)
    vec = st.tuples(*[st.integers(-2, 2).map(F)] * d)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    sx, sy, sz = sparse(x), sparse(y), sparse(z)
    assert t.triple_product(sx, sy, sz) == sparse(ref.triple_product(x, y, z))
    assert t.r_op(sx, sy) == columns(ref.r_op(x, y))
    assert t.d_op(sx, sy) == columns(ref.d_op(x, y))
    for i, j, k in iproduct(range(d), repeat=3):
        assert t.constants.get((i, j, k), {}) == sparse(ref.basis_product(i, j, k))


def test_killing_form_matches_trace_of_adjoints():
    for lie in (catalog.sl2_lie(), sl3_lie()):
        d = lie.dim
        ad = [tuple(tuple(lie.brackets.get((i, j), {}).get(k, ZERO) for j in range(d))
                    for k in range(d)) for i in range(d)]
        assert lie.killing() == columns(tuple(
            tuple(mat_trace(mat_mul(ad[i], ad[j])) for j in range(d))
            for i in range(d)))


# ---------------------------------------------------------------------------
# Lie algebras: validation and the triple system [[x,y],z]

@st.composite
def bracket_tables(draw):
    """Small random bracket constants: raw or antisymmetric."""
    d = draw(st.integers(1, 3))
    idx = st.integers(0, d - 1)
    entries = draw(st.lists(st.tuples(idx, idx, idx, st.integers(-2, 2)), max_size=6))
    antisymmetric = draw(st.booleans())
    brackets = {}
    for i, j, l, a in entries:
        _add_at(brackets, (i, j), l, F(a))
        if antisymmetric:
            _add_at(brackets, (j, i), l, -F(a))
    return d, brackets


def assert_lie_layer_matches(lie):
    ref = DenseLie(lie.dim, lie.brackets)
    error = validation_error(lie)
    assert error == validation_error(ref)
    if error is None:
        assert lie.killing() == columns(ref.killing())
        assert lts_from_lie(lie).constants == {key: v for key, v in
                                               dense_lts_from_lie(ref).items() if v}


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_lie_layer_random_matches_dense(case):
    d, brackets = case
    assert_lie_layer_matches(LieAlgebra(d, tuple(f"b{i}" for i in range(d)), brackets))


LIES = {"sl2": catalog.sl2_lie, "sl3": sl3_lie,
        **{f"L({name})": (lambda t=t: standard_embedding(t).lie)
           for name, t in BUNDLED.items()}}


@pytest.mark.parametrize("name", sorted(LIES))
def test_lie_layer_bundled_matches_dense(name):
    assert_lie_layer_matches(LIES[name]())


# ---------------------------------------------------------------------------
# the standard embedding, the trace identity, closures, simplicity

def assert_lts_layer_matches(t):
    """Every lts result on ``t`` equals the dense reference's."""
    d = t.dim
    ref_t = dense_system(t)
    try:
        ref = dense_standard_embedding(ref_t)
    except InvalidStructure:
        with pytest.raises(InvalidStructure):
            standard_embedding(t)
        ref = None
    if ref is not None:
        emb = standard_embedding(t)
        assert emb.inn_dim == ref.inn_dim and emb.t_dim == d
        assert emb.inn_basis == [columns(b) for b in ref.inn_basis]
        assert inner_derivations(t)[0] == dense_inner_derivations(ref_t)[0]
        assert emb.lie.brackets == {key: sparse(v) for key, v in ref.lie.brackets.items()}
        assert emb.killing == columns(ref.killing)
        assert emb.killing_t == columns(ref.killing_t)
        assert _graded(emb.lie.brackets, emb.inn_dim)
        assert (trace_identity_check(t, emb).failures
                == dense_trace_failures(ref_t, ref))
    gens, ref_gens = r_generators(t), dense_r_generators(ref_t)
    for closure, dense_closure in ((lie_closure, dense_lie_closure),
                                   (associative_envelope, dense_associative_envelope)):
        space, basis = closure(gens, d)
        ref_space, ref_basis = dense_closure(ref_gens)
        assert space == ref_space
        assert basis == [columns(b) for b in ref_basis]
    cert = simplicity_certificate(t)
    assert ((cert.verdict, cert.envelope_dim, cert.triple_nonzero, cert.witness)
            == dense_simplicity_certificate(ref_t))
    return ref and (emb, ref)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_lts_layer_bundled_matches_dense(name):
    assert_lts_layer_matches(BUNDLED[name])


@settings(max_examples=80, deadline=None)
@given(tensors())
def test_lts_layer_random_matches_dense(case):
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    if check_axioms(t).ok:
        assert_lts_layer_matches(t)


def in_basis(t, p, pinv):
    """``t`` in the basis b'_i = P b_i, for P given with its inverse
    ``pinv``: [b'_i, b'_j, b'_k] in the new basis."""
    d = t.dim
    constants = {(i, j, k): op_apply(pinv, t.triple_product(p[i], p[j], p[k]))
                 for i, j, k in iproduct(range(d), repeat=3)}
    return TripleSystem(d, t.basis_names, constants)


def scaled(t, scale):
    """``t`` in the basis b'_i = c_i b_i."""
    return in_basis(t, {x: {x: c} for x, c in enumerate(scale)},
                    {x: {x: 1 / c} for x, c in enumerate(scale)})


def rebased(draw, t, p, pinv, shears):
    """``in_basis`` of P S, for S a product of up to ``shears`` elementary
    matrices I + c E_{ab}."""
    d = t.dim
    idx = st.integers(0, d - 1)
    for a, b, c in draw(st.lists(st.tuples(idx, idx, st.integers(-2, 2)),
                                 max_size=shears)):
        if a != b and c:
            p = op_compose(p, {x: {x: ONE} for x in range(d)} | {b: {a: F(c), b: ONE}})
            pinv = op_compose({x: {x: ONE} for x in range(d)} | {b: {a: F(-c), b: ONE}},
                              pinv)
    return in_basis(t, p, pinv)


@st.composite
def rebased_systems(draw):
    """A bundled system in a random basis b'_i = P b_i, P a product of
    elementary matrices I + c E_{ab}: [b'_i, b'_j, b'_k] in the new basis."""
    t = BUNDLED[draw(st.sampled_from(["s2", "sl2_lts", "s2_plus_s2"]))]
    identity = {x: {x: ONE} for x in range(t.dim)}
    return rebased(draw, t, identity, identity, 4)


@st.composite
def rational_rebases(draw, names=("s2", "sl2_lts", "s2_plus_s2")):
    """A bundled system in the basis b'_i = c_i S b_i: a diagonal scaling
    with denominators 2..7, times up to two shears.  Its constants, inner
    derivations and Killing form carry denominators, so every integer
    kernel of ``lts`` scales them away and divides them back."""
    t = BUNDLED[draw(st.sampled_from(names))]
    scale = [F(draw(st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 7])), draw(st.integers(2, 7)))
             for _ in range(t.dim)]
    return rebased(draw, t, {x: {x: c} for x, c in enumerate(scale)},
                   {x: {x: 1 / c} for x, c in enumerate(scale)}, 2)


@settings(max_examples=20, deadline=None)
@given(rebased_systems())
def test_lts_layer_rebased_matches_dense(t):
    assert check_axioms(t).ok
    assert_lts_layer_matches(t)


@pytest.mark.parametrize("m, graded", [(1, True), (2, False)])
def test_grading_check_on_sl2(m, graded):
    # basis (h, e, f): D = {h} is the Cartan split; with D = {h, e},
    # [e, f] = h lands in D although e is in D and f is not
    lie = catalog.sl2_lie()
    assert _graded(lie.brackets, m) == graded
    assert dense_sigma_preserves(DenseLie(3, lie.brackets), sigma_matrix(3, m)) == graded


@cache
def embeddings(name):
    t = BUNDLED[name]
    return standard_embedding(t), dense_standard_embedding(dense_system(t))


def assert_tau_helpers_match(emb, ref, data, entry):
    """The tau helpers on vectors with entries drawn from ``entry`` equal the
    dense reference's, Fraction for Fraction, and so do the verdicts on an
    operator that is K-skew and on a random one."""
    d = emb.t_dim
    kt = ref.killing_t
    vec = st.tuples(*[entry] * d)
    x, y, u, v = (data.draw(vec) for _ in range(4))
    tau = tau_map(emb, sparse(x), sparse(y))
    assert tau == columns(dense_tau_map(kt, x, y))
    lam = lambda_map(emb, sparse(u), sparse(v))
    assert lam == columns(dense_lambda_map(kt, u, v))
    assert all(type(a) is F for op in (tau, lam) for col in op.values() for a in col.values())
    assert is_k_skew(emb, lam) and dense_is_k_skew(kt, matrix(d, lam))
    assert (tau_commutator_check(emb, lam, sparse(x), sparse(y))
            == dense_tau_commutator_check(kt, matrix(d, lam), x, y))
    other = data.draw(st.tuples(*[vec] * d))
    assert is_k_skew(emb, columns(other)) == dense_is_k_skew(kt, other)
    assert (raises_invalid(tau_commutator_check, emb, columns(other), sparse(x), sparse(y))
            == raises_invalid(dense_tau_commutator_check, kt, other, x, y))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s2", "sl2_lts", "sl3_sym", "s2_plus_s2"]), st.data())
def test_tau_helpers_match_dense(name, data):
    assert_tau_helpers_match(*embeddings(name), data, st.integers(-3, 3).map(F))


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def assert_rebase_matches_dense(t, data):
    """check_axioms, the whole lts layer, the tau helpers on rational vectors
    and the embedding suite of a rebased system against the dense reference."""
    assert check_axioms(t) == dense_check_axioms(dense_system(t))
    assert_tau_helpers_match(*assert_lts_layer_matches(t), data, RATIONALS)
    assert suites.suite_embedding(t, None, 2, data.draw(st.integers(0, 3))).ok


def rational_scale(d):
    """The basis b'_k = (k+2)/(2k+3) b_k, as CI rebases sl3_sym."""
    return [F(k + 2, 2 * k + 3) for k in range(d)]


@pytest.mark.parametrize("name", ["s2", "sl2_lts", "s2_plus_s2"])
def test_lts_layer_with_denominators_matches_dense(name):
    # one fixed rational basis and one pair of rational vectors, without
    # Hypothesis: the quick witness of the integer kernels' denominators (the
    # random rebases and vectors below are the broad one)
    t = scaled(BUNDLED[name], rational_scale(BUNDLED[name].dim))
    assert check_axioms(t) == dense_check_axioms(dense_system(t))
    emb, ref = assert_lts_layer_matches(t)
    x = tuple(F(1 - k, k + 2) for k in range(t.dim))
    y = tuple(F(2 * k + 1, 3) for k in range(t.dim))
    assert tau_map(emb, sparse(x), sparse(y)) == columns(dense_tau_map(ref.killing_t, x, y))
    assert lambda_map(emb, sparse(x), sparse(y)) == columns(
        dense_lambda_map(ref.killing_t, x, y))


@cache
def rational_embeddings(name):
    t = scaled(BUNDLED[name], rational_scale(BUNDLED[name].dim))
    return standard_embedding(t), dense_standard_embedding(dense_system(t))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s2", "sl2_lts", "sl3_sym", "s2_plus_s2"]), st.data())
def test_tau_helpers_with_denominators_match_dense(name, data):
    assert_tau_helpers_match(*rational_embeddings(name), data, RATIONALS)


@settings(max_examples=15, deadline=None)
@given(rational_rebases(), st.data())
def test_lts_layer_rational_rebase_matches_dense(t, data):
    assert_rebase_matches_dense(t, data)


@settings(max_examples=2, deadline=None)
@given(rational_rebases(("sl3_sym",)), st.data())
def test_sl3_sym_rational_rebase_matches_dense(t, data):
    # two examples: the dense axiom check alone takes about 3 s on sl3_sym
    assert_rebase_matches_dense(t, data)


# ---------------------------------------------------------------------------
# span closures

@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_span_closure_bundled_matches_loops(name):
    t = BUNDLED[name]
    gens = r_generators(t)
    ref_gens = dense_r_generators(dense_system(t))
    assert [columns(g) for g in ref_gens if any(map(any, g))] == gens
    for closure, loop in ((lie_closure, dense_lie_closure),
                          (associative_envelope, dense_associative_envelope)):
        space, basis = closure(gens, t.dim)
        ref_space, ref_basis = loop(ref_gens)
        assert space == ref_space and basis == [columns(b) for b in ref_basis]


def test_non_full_closure_s2_plus_s2():
    t = BUNDLED["s2_plus_s2"]
    space, basis = lie_closure(r_generators(t), 4)
    assert space.dim == 8 and space.ambient == 16
    ref_space, ref_basis = dense_lie_closure(dense_r_generators(dense_system(t)))
    assert space == ref_space and basis == [columns(b) for b in ref_basis]


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 3))
    # mostly zero entries, so that many closures stay proper subspaces
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2]).map(F)
    matrix = st.tuples(*[st.tuples(*[entry] * n)] * n)
    return draw(st.lists(matrix, min_size=1, max_size=3))


PRODUCTS = {"bracket": (op_bracket, mat_bracket), "compose": (op_compose, mat_mul)}


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.sampled_from(sorted(PRODUCTS)))
def test_span_closure_random_matches_loop(gens, product):
    sparse_product, dense_product = PRODUCTS[product]
    space, basis = _span_closure([columns(g) for g in gens], sparse_product, len(gens[0]))
    ref_space, ref_basis = _closure_loop(gens, dense_product)
    assert space == ref_space
    assert basis == [columns(b) for b in ref_basis]


def test_span_closure_uses_both_orders():
    # E12 E21 = E11 and E21 E12 = E22: the product algebra needs both orders
    e12 = ((ZERO, ONE), (ZERO, ZERO))
    e21 = ((ZERO, ZERO), (ONE, ZERO))
    space, basis = associative_envelope([columns(e12), columns(e21)], 2)
    assert space.dim == 4
    ref_space, ref_basis = dense_associative_envelope([e12, e21])
    assert space == ref_space and basis == [columns(b) for b in ref_basis]


@pytest.mark.parametrize("x, y", [({1: F(0)}, {0: F(1)}), ({0: F(1), 1: F(0)}, {1: F(1)}),
                                  ({0: F(1)}, {0: F(0), 1: F(2)}), ({0: F(0)}, {1: F(0)})])
def test_tau_helpers_drop_explicit_zero_entries(x, y):
    # an explicit zero in either argument gives the operator of the vectors
    # without it: no empty column, and no zero entry
    emb = standard_embedding(BUNDLED["s2"])
    drop = lambda v: {i: a for i, a in v.items() if a}
    for helper in (tau_map, lambda_map):
        op = helper(emb, x, y)
        assert op == helper(emb, drop(x), drop(y))
        assert all(col and all(col.values()) for col in op.values())
