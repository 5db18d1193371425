import re
from fractions import Fraction

import pytest

from constructions import lts_from_involution, sl3_lie, sl3_transpose

from triplex import catalog
from triplex.exactlin import echelonize
from triplex.lts import (InvalidStructure, LieAlgebra, TripleSystem, _flatten,
                         _unflatten, associative_envelope, check_axioms,
                         endo_theorem_check, inner_derivations, is_k_skew,
                         lambda_map, lie_closure, lts_from_lie,
                         op_bracket, r_generators, simplicity_certificate,
                         standard_embedding, tau_commutator_check, tau_map,
                         trace_identity_check)

F = Fraction

# operators are sparse columns: column x holds the image of b_x
E = {0: F(1)}
FF = {1: F(1)}


def cols(rows):
    """The sparse columns of a matrix given by its rows."""
    out = {}
    for k, row in enumerate(rows):
        for x, a in enumerate(row):
            if a:
                out.setdefault(x, {})[k] = F(a)
    return out


def test_axioms_catalog_systems(s2, sl2_lts):
    for t in (s2, sl2_lts, catalog.abelian(3), catalog.sl3_transpose_lts(),
              catalog.s2_plus_s2()):
        assert check_axioms(t).ok


def test_axioms_reject_broken_system():
    bad = TripleSystem(2, ("a", "b"), {(0, 0, 1): {0: F(1)}})
    rep = check_axioms(bad)
    assert not rep.alternating.ok
    assert rep.alternating.counterexample is not None


def test_axioms_reject_noncyclic():
    bad = TripleSystem(3, ("a", "b", "c"), {
        (0, 1, 2): {0: F(1)},
        (1, 0, 2): {0: F(-1)},
    })
    rep = check_axioms(bad)
    assert rep.alternating.ok
    assert not rep.cyclic.ok


def test_s2_r_matrices(s2):
    assert s2.r_op(E, E) == {1: {0: F(-2)}} == cols([[0, -2], [0, 0]])
    assert s2.r_op(E, FF) == {1: {1: F(2)}} == cols([[0, 0], [0, 2]])
    assert s2.r_op(FF, E) == {0: {0: F(2)}} == cols([[2, 0], [0, 0]])
    assert s2.r_op(FF, FF) == {0: {1: F(-2)}} == cols([[0, 0], [-2, 0]])


def test_s2_d_op(s2):
    # D_{e,f} = diag(2, -2): [e,f,e] = 2e and [e,f,f] = -2f
    assert s2.d_op(E, FF) == {0: {0: F(2)}, 1: {1: F(-2)}}
    assert s2.d_op(E, E) == {}


def test_triple_product_linear(s2):
    x = {0: F(1), 1: F(2)}
    y = {1: F(1)}
    z = {0: F(3), 1: F(-1)}
    lhs = s2.triple_product({i: 2 * a for i, a in x.items()}, y, z)
    rhs = {l: 2 * a for l, a in s2.triple_product(x, y, z).items()}
    assert lhs == rhs == {0: F(12), 1: F(4)}


def test_flatten_roundtrip():
    # row k of column x goes to k*n + x: the row-major flattening
    a = cols([[1, 0, F(1, 2)], [0, -3, 0], [0, 0, 0]])
    assert _flatten(a, 3) == {0: F(1), 2: F(1, 2), 4: F(-3)}
    assert _unflatten(_flatten(a, 3), 3) == a


def test_op_bracket_examples():
    a = cols([[1, 2], [3, 4]])
    assert op_bracket(a, a) == {}
    e11 = cols([[1, 0], [0, 0]])
    e12 = cols([[0, 1], [0, 0]])
    assert op_bracket(e11, e12) == e12


def test_op_bracket_s2_r_operators(s2):
    # [R_{f,e}, R_{e,e}] = -4 E12
    r_fe, r_ee = s2.r_op(FF, E), s2.r_op(E, E)
    assert r_fe == cols([[2, 0], [0, 0]]) and r_ee == cols([[0, -2], [0, 0]])
    assert op_bracket(r_fe, r_ee) == {1: {0: F(-4)}} == cols([[0, -4], [0, 0]])


def test_span_closure_rejects_out_of_range_operators():
    with pytest.raises(InvalidStructure):
        lie_closure([cols([[1]]), cols([[1, 0], [0, 1]])], 1)


AB = ("a", "b")


@pytest.mark.parametrize("make, message", [
    (lambda: TripleSystem(2, ("a",), {}), "one basis name per dimension required"),
    (lambda: LieAlgebra(2, ("a",), {}), "one basis name per dimension required"),
    (lambda: TripleSystem(2, AB, {(0, 1, 2): {0: 1}}), "index 2 out of range for dim 2"),
    (lambda: LieAlgebra(2, AB, {(-1, 0): {0: 1}}), "index -1 out of range for dim 2"),
    (lambda: TripleSystem(2, AB, {(0, 1, 0): {2: 1}}),
     "coordinate index 2 out of range for dim 2"),
    (lambda: LieAlgebra(2, AB, {(0, 1): {5: 1}}), "coordinate index 5 out of range for dim 2"),
    (lambda: TripleSystem(2, AB, {(0, 1): {0: 1}}), "(0, 1) is not a tuple of 3 basis indices"),
    (lambda: LieAlgebra(2, AB, {(0, 1, 1): {0: 1}}),
     "(0, 1, 1) is not a tuple of 2 basis indices"),
    (lambda: TripleSystem.from_entries(2, AB, [((0, 1, 0), {0: 1}), ((0, 1, 0), {1: 1})]),
     "duplicate entry for triple (0,1,0)"),
    (lambda: LieAlgebra.from_entries(2, AB, [((0, 1), {0: 1}), ((0, 1), {1: 1})]),
     "duplicate entry for pair (0,1)"),
])
def test_structure_constants_are_validated(make, message):
    with pytest.raises(InvalidStructure, match=f"^{re.escape(message)}$"):
        make()


def test_structure_constants_keep_nonzero_fractions():
    t = TripleSystem(2, AB, {(0, 1, 0): {0: 0, 1: 3}, (1, 0, 0): {0: F(0)}})
    l = LieAlgebra.from_entries(2, AB, [((0, 1), {1: F(1, 2), 0: 0})])
    assert t.constants == {(0, 1, 0): {1: F(3)}} and type(t.constants[0, 1, 0][1]) is F
    assert l.brackets == {(0, 1): {1: F(1, 2)}}


def test_lie_algebra_validate(sl2_lts):
    catalog.sl2_lie().validate()
    sl3_lie().validate()
    bad = LieAlgebra(2, ("a", "b"), {(0, 1): {0: F(1)}})
    with pytest.raises(InvalidStructure):
        bad.validate()


def test_lts_from_lie_sl2():
    t = lts_from_lie(catalog.sl2_lie())
    assert t.dim == 3
    assert check_axioms(t).ok
    # [[h,e],e] = [2e,e] = 0 and [[h,e],f] = [2e,f] = 2h
    assert (0, 1, 1) not in t.constants
    assert t.constants[(0, 1, 2)] == {0: F(2)}


def test_lts_from_involution_sl3():
    t = lts_from_involution(sl3_lie(), sl3_transpose())
    assert t.dim == 5
    assert check_axioms(t).ok


def test_lts_from_involution_rejects_non_involution():
    lie = catalog.sl2_lie()
    not_inv = cols([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvalidStructure):
        lts_from_involution(lie, not_inv)


def test_lts_from_involution_sl2_gives_s2():
    # h -> h, e -> -e, f -> -f; on span(e, f), [[e,f],e] = 2e, [[e,f],f] = -2f
    t = lts_from_involution(catalog.sl2_lie(), cols([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert t.dim == 2
    assert t.constants == catalog.s2().constants


def test_inner_derivation_dims(s2, sl2_lts):
    assert inner_derivations(s2)[0].dim == 1
    assert inner_derivations(catalog.abelian(3))[0].dim == 0
    assert inner_derivations(sl2_lts)[0].dim == 3


def test_standard_embedding_s2(s2):
    emb = standard_embedding(s2)
    assert emb.dim == 3
    assert emb.inn_dim == 1
    assert emb.t_dim == 2
    emb.lie.validate()
    # restricted Killing form: K(e,e) = K(f,f) = 0, K(e,f) = 4
    assert emb.killing_t == {0: {1: F(4)}, 1: {0: F(4)}}
    # InnDer(T) is spanned by D = diag(1,-1) (ad D = diag(0, 1, -1)), so K(D,D) = 2
    assert emb.killing == {0: {0: F(2)}, 1: {2: F(4)}, 2: {1: F(4)}}
    assert emb.inn_basis == [{0: {0: F(1)}, 1: {1: F(-1)}}]


def test_standard_embedding_sl2(sl2_lts):
    emb = standard_embedding(sl2_lts)
    assert emb.dim == 6
    assert emb.inn_dim == 3


def test_trace_identity_catalog(s2, sl2_lts):
    for t in (s2, sl2_lts, catalog.abelian(3), catalog.sl3_transpose_lts(),
              catalog.s2_plus_s2()):
        assert trace_identity_check(t).ok


def test_trace_identity_s2_value(s2):
    r_ef = s2.r_op(E, FF)
    assert 2 * sum(col.get(x, 0) for x, col in r_ef.items()) == 4


def test_lie_closure_dims(s2, sl2_lts):
    assert lie_closure(r_generators(s2), 2)[0].dim == 4
    assert lie_closure(r_generators(sl2_lts), 3)[0].dim == 9
    assert lie_closure(r_generators(catalog.sl3_transpose_lts()), 5)[0].dim == 25


def test_endo_theorem_positive_and_negative(s2, sl2_lts):
    assert endo_theorem_check(s2)
    assert endo_theorem_check(sl2_lts)
    assert not endo_theorem_check(catalog.abelian(3))
    assert not endo_theorem_check(catalog.s2_plus_s2())


def test_endo_direct_sum_closure_dim():
    t = catalog.s2_plus_s2()
    space, _ = lie_closure(r_generators(t), 4)
    assert space.dim == 8  # block diagonal, well short of 16


def test_associative_envelope_s2(s2):
    space, _ = associative_envelope(r_generators(s2), 2)
    assert space.dim == 4


def test_simplicity_certificates(s2, sl2_lts):
    assert simplicity_certificate(s2).verdict == "simple"
    assert simplicity_certificate(sl2_lts).verdict == "simple"
    assert simplicity_certificate(catalog.sl3_transpose_lts()).verdict == "simple"
    abel = simplicity_certificate(catalog.abelian(3))
    assert abel.verdict == "not_simple"
    pair = simplicity_certificate(catalog.s2_plus_s2())
    assert pair.verdict == "not_simple"
    assert pair.witness is not None and pair.witness.dim == 2


def test_tau_rank_and_commutator(s2):
    emb = standard_embedding(s2)
    x = {0: F(1), 1: F(2)}
    y = {0: F(3), 1: F(-1)}
    m = tau_map(emb, x, y)
    # z -> K(y,z) x with K(y,e) = -4 and K(y,f) = 12
    assert m == {0: {0: F(-4), 1: F(-8)}, 1: {0: F(12), 1: F(24)}}
    assert echelonize(m.values(), 2).dim == 1
    lam = lambda_map(emb, x, y)
    assert lam == {0: {0: F(-28)}, 1: {1: F(28)}}
    assert is_k_skew(emb, lam)
    assert tau_commutator_check(emb, lam, x, y)
    assert tau_commutator_check(emb, lam, E, FF)


def test_tau_commutator_rejects_non_skew(s2):
    emb = standard_embedding(s2)
    not_skew = cols([[1, 0], [0, 1]])
    assert not is_k_skew(emb, not_skew)
    with pytest.raises(InvalidStructure):
        tau_commutator_check(emb, not_skew, E, FF)


def test_from_entries_duplicate():
    with pytest.raises(InvalidStructure):
        TripleSystem.from_entries(2, ("a", "b"),
                                  [((0, 1, 0), {0: F(1)}), ((0, 1, 0), {0: F(2)})])
