from fractions import Fraction

import pytest

from triplex import catalog
from triplex.exactlin import mat, mat_trace
from triplex.lts import (InvalidStructure, LieAlgebra, TripleSystem,
                         associative_envelope, check_axioms,
                         endo_theorem_check, inner_derivations, is_k_skew,
                         lambda_map, lie_closure, lts_from_involution,
                         lts_from_lie, r_generators, simplicity_certificate,
                         standard_embedding, tau_commutator_check, tau_map,
                         trace_identity_check, unit_vector)

F = Fraction


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
    e = unit_vector(2, 0)
    f = unit_vector(2, 1)
    assert s2.r_op(e, e).matrix == mat([[0, -2], [0, 0]])
    assert s2.r_op(e, f).matrix == mat([[0, 0], [0, 2]])
    assert s2.r_op(f, e).matrix == mat([[2, 0], [0, 0]])
    assert s2.r_op(f, f).matrix == mat([[0, 0], [-2, 0]])


def test_s2_d_op(s2):
    e = unit_vector(2, 0)
    f = unit_vector(2, 1)
    # D_{e,f} = diag(2, -2): [e,f,e] = 2e and [e,f,f] = -2f
    assert s2.d_op(e, f).matrix == mat([[2, 0], [0, -2]])
    assert s2.d_op(e, e).matrix == mat([[0, 0], [0, 0]])


def test_triple_product_linear(s2):
    x = (F(1), F(2))
    y = (F(0), F(1))
    z = (F(3), F(-1))
    lhs = s2.triple_product(tuple(2 * a for a in x), y, z)
    rhs = tuple(2 * a for a in s2.triple_product(x, y, z))
    assert lhs == rhs


def test_lie_algebra_validate(sl2_lts):
    catalog.sl2_lie().validate()
    catalog.sl3_lie().validate()
    bad = LieAlgebra(2, ("a", "b"), {(0, 1): {0: F(1)}})
    with pytest.raises(InvalidStructure):
        bad.validate()


def test_lts_from_lie_sl2(sl2_lts):
    assert sl2_lts.dim == 3
    assert check_axioms(sl2_lts).ok
    # [[h,e],e] = [2e,e] = 0 and [[h,e],f] = [2e,f] = 2h
    assert sl2_lts.basis_product(0, 1, 1) == (F(0), F(0), F(0))
    assert sl2_lts.basis_product(0, 1, 2) == (F(2), F(0), F(0))


def test_lts_from_involution_sl3():
    t = catalog.sl3_transpose_lts()
    assert t.dim == 5
    assert check_axioms(t).ok


def test_lts_from_involution_rejects_non_involution():
    from triplex.lts import Operator
    lie = catalog.sl2_lie()
    not_inv = Operator(mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(InvalidStructure):
        lts_from_involution(lie, not_inv)


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
    assert emb.killing_t == mat([[0, 4], [4, 0]])
    # sigma fixes the derivation block and negates the T block
    assert emb.sigma.matrix[0][0] == 1
    assert emb.sigma.matrix[1][1] == -1


def test_standard_embedding_sl2(sl2_lts):
    emb = standard_embedding(sl2_lts)
    assert emb.dim == 6
    assert emb.inn_dim == 3


def test_trace_identity_catalog(s2, sl2_lts):
    for t in (s2, sl2_lts, catalog.abelian(3), catalog.sl3_transpose_lts(),
              catalog.s2_plus_s2()):
        assert trace_identity_check(t).ok


def test_trace_identity_s2_value(s2):
    e = unit_vector(2, 0)
    f = unit_vector(2, 1)
    assert 2 * mat_trace(s2.r_op(e, f).matrix) == 4


def test_lie_closure_dims(s2, sl2_lts):
    assert lie_closure(r_generators(s2))[0].dim == 4
    assert lie_closure(r_generators(sl2_lts))[0].dim == 9
    assert lie_closure(r_generators(catalog.sl3_transpose_lts()))[0].dim == 25


def test_endo_theorem_positive_and_negative(s2, sl2_lts):
    assert endo_theorem_check(s2)
    assert endo_theorem_check(sl2_lts)
    assert not endo_theorem_check(catalog.abelian(3))
    assert not endo_theorem_check(catalog.s2_plus_s2())


def test_endo_direct_sum_closure_dim():
    t = catalog.s2_plus_s2()
    space, _ = lie_closure(r_generators(t))
    assert space.dim == 8  # block diagonal, well short of 16


def test_associative_envelope_s2(s2):
    space, _ = associative_envelope(r_generators(s2))
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
    x = (F(1), F(2))
    y = (F(3), F(-1))
    m = tau_map(emb, x, y).matrix
    from triplex.exactlin import echelonize
    assert echelonize([dict(enumerate(r)) for r in m], 2).dim == 1
    lam = lambda_map(emb, x, y).matrix
    assert is_k_skew(emb, lam)
    assert tau_commutator_check(emb, lam, x, y)
    assert tau_commutator_check(emb, lam, (F(1), F(0)), (F(0), F(1)))


def test_tau_commutator_rejects_non_skew(s2):
    emb = standard_embedding(s2)
    not_skew = mat([[1, 0], [0, 1]])
    assert not is_k_skew(emb, not_skew)
    with pytest.raises(InvalidStructure):
        tau_commutator_check(emb, not_skew, (F(1), F(0)), (F(0), F(1)))


def test_from_entries_duplicate():
    with pytest.raises(InvalidStructure):
        TripleSystem.from_entries(2, ("a", "b"),
                                  [((0, 1, 0), {0: F(1)}), ((0, 1, 0), {0: F(2)})])
