"""Differential tests: the sparse ``lts`` checks against the dense code they replace.

``DenseTripleSystem``, ``dense_check_axioms`` and the two closure loops
are the implementations ``lts`` used before its structure constants were
stored sparsely.  The sparse code must return the same values: the same
axiom verdicts with the same counterexample tuples, the same products
and the same canonical closures.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from triplex import catalog
from triplex.exactlin import (ONE, ZERO, Echelon, echelonize, mat_bracket,
                              mat_flatten, mat_mul, mat_trace, mat_unflatten,
                              mat_vec)
from triplex.lts import (AxiomReport, AxiomVerdict, InvalidStructure,
                         TripleSystem, _span_closure, associative_envelope,
                         check_axioms, inner_derivations, lie_closure,
                         r_generators, unit_vector)

F = Fraction

BUNDLED = {name: make() for name, make in catalog.SYSTEMS.items()}


# ---------------------------------------------------------------------------
# dense reference code

def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _is_zero(x):
    return all(not a for a in x)


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

    def d_op(self, a, b):
        d = self.dim
        cols = [self.triple_product(a, b, unit_vector(d, i)) for i in range(d)]
        return tuple(tuple(cols[i][k] for i in range(d)) for k in range(d))


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
        D = t.d_op(e(a), e(b))
        for x, y, z in iproduct(range(d), repeat=3):
            lhs = mat_vec(D, t.basis_product(x, y, z))
            rhs = _add(_add(t.triple_product(mat_vec(D, e(x)), e(y), e(z)),
                            t.triple_product(e(x), mat_vec(D, e(y)), e(z))),
                       t.triple_product(e(x), e(y), mat_vec(D, e(z))))
            if lhs != rhs:
                der = AxiomVerdict(False, ("derivation identity fails", a, b, x, y, z))
                break
        if not der.ok:
            break

    return AxiomReport(alt, cyc, der)


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


@settings(max_examples=80, deadline=None)
@given(tensors())
def test_inner_derivations_fail_iff_derivation_fails(case):
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    try:
        inner_derivations(t)
        raised = False
    except InvalidStructure:
        raised = True
    assert raised == (not check_axioms(t).derivation.ok)


@settings(max_examples=80, deadline=None)
@given(tensors(), st.data())
def test_triple_product_and_operators_match_dense(case, data):
    d, consts = case
    t = TripleSystem(d, tuple(f"b{i}" for i in range(d)), consts)
    ref = DenseTripleSystem(d, consts)
    vec = st.tuples(*[st.integers(-2, 2).map(F)] * d)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert t.triple_product(x, y, z) == ref.triple_product(x, y, z)
    assert t.d_op(x, y).matrix == ref.d_op(x, y)
    for i, j, k in iproduct(range(d), repeat=3):
        assert t.basis_product(i, j, k) == ref.basis_product(i, j, k)


def test_killing_form_matches_trace_of_adjoints():
    for lie in (catalog.sl2_lie(), catalog.sl3_lie()):
        d = lie.dim
        ad = [tuple(tuple(lie.basis_bracket(i, j)[k] for j in range(d))
                    for k in range(d)) for i in range(d)]
        assert lie.killing() == tuple(
            tuple(mat_trace(mat_mul(ad[i], ad[j])) for j in range(d))
            for i in range(d))


# ---------------------------------------------------------------------------
# span closures

@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_span_closure_bundled_matches_loops(name):
    gens = r_generators(BUNDLED[name])
    assert lie_closure(gens) == dense_lie_closure(gens)
    assert associative_envelope(gens) == dense_associative_envelope(gens)


def test_non_full_closure_s2_plus_s2():
    gens = r_generators(BUNDLED["s2_plus_s2"])
    space, basis = lie_closure(gens)
    assert space.dim == 8 and space.ambient == 16
    assert (space, basis) == dense_lie_closure(gens)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 3))
    # mostly zero entries, so that many closures stay proper subspaces
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2]).map(F)
    matrix = st.tuples(*[st.tuples(*[entry] * n)] * n)
    return draw(st.lists(matrix, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.sampled_from([mat_bracket, mat_mul]))
def test_span_closure_random_matches_loop(gens, product):
    assert _span_closure(gens, product) == _closure_loop(gens, product)


def test_span_closure_uses_both_orders():
    # E12 E21 = E11 and E21 E12 = E22: the product algebra needs both orders
    e12 = ((ZERO, ONE), (ZERO, ZERO))
    e21 = ((ZERO, ZERO), (ONE, ZERO))
    closure = associative_envelope([e12, e21])
    assert closure[0].dim == 4
    assert closure == dense_associative_envelope([e12, e21])
