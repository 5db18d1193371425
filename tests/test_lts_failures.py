"""Every failure branch of the lts checks and of the embedding suite fires.

Each test corrupts one input (a Killing form, a table of operators, a
bracket table, a basis of InnDer(T)) or swaps in a wrong operator, and
expects the named failure.  These checks hold by construction on every
valid system, so without such a test a mutant that deletes the branch
would survive.
"""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from triplex import catalog, cli, lts, suites
from triplex.exactlin import echelonize
from triplex.lts import (InvalidStructure, LieAlgebra, op_add, op_apply, op_bracket,
                         standard_embedding, trace_identity_check)

EMBEDDING_RECORDS = ("embedding_build", "killing_adjointness", "tau_commutator_rule",
                     "tau_rank_le_one", "trace_identity")


def embedding_verdicts(t=None):
    """The verdict of each record of the embedding suite on ``t`` (sl3_sym)."""
    rep = suites.suite_embedding(t or catalog.sl3_transpose_lts(), None, 4, 0)
    return {r["id"]: r["verdict"] for r in rep.to_dict(machine=True)["records"]}


def failing_only(name):
    return {r: "fail" if r == name else "pass" for r in EMBEDDING_RECORDS}


def test_embedding_suite_passes_unchanged():
    assert embedding_verdicts() == failing_only(None)


def test_killing_adjointness_fails_on_a_wrong_operator(monkeypatch):
    # R_{a,b} doubled for the first pair with a != b: R_{a,b}^T K = K R_{b,a}
    # fails there
    operators = suites.integer_operators

    def doubled(t, right=True):
        ops = operators(t, right)
        key = min(key for key in ops if key[0] != key[1])
        ops[key] = {x: {k: 2 * a for k, a in col.items()} for x, col in ops[key].items()}
        return ops

    monkeypatch.setattr(suites, "integer_operators", doubled)
    assert embedding_verdicts() == failing_only("killing_adjointness")


def test_tau_rank_fails_on_a_rank_two_map(monkeypatch):
    # the symmetrized map z -> K(y,z) x + K(x,z) y has rank 2 on independent x, y
    monkeypatch.setattr(suites, "_tau",
                        lambda kt, x, y: op_add(lts._tau(kt, x, y), lts._tau(kt, y, x)))
    assert embedding_verdicts() == failing_only("tau_rank_le_one")


def test_tau_commutator_rule_fails_without_a_term(monkeypatch):
    # the rule without its tau_{x,d(y)} term
    def rule(kt, dmat, x, y):
        return op_bracket(dmat, lts._tau(kt, x, y)) == lts._tau(kt, op_apply(dmat, x), y)

    monkeypatch.setattr(suites, "_tau_rule", rule)
    assert embedding_verdicts() == failing_only("tau_commutator_rule")


def doubled_form(emb):
    """``emb`` with 2K in place of K on T: every homogeneous check still
    holds, and 2 tr R = K fails wherever K is nonzero."""
    return dataclasses.replace(emb, killing_t={i: {j: 2 * a for j, a in row.items()}
                                               for i, row in emb.killing_t.items()})


@pytest.mark.parametrize("name", ["s2", "sl3_sym", "s2_plus_s2"])
def test_trace_identity_names_each_failing_pair(name):
    t = catalog.SYSTEMS[name]()
    kt = standard_embedding(t).killing_t
    rep = trace_identity_check(t, doubled_form(standard_embedding(t)))
    assert not rep.ok
    assert rep.failures == [(i, j, kt[i][j], 2 * kt[i][j])
                            for i in sorted(kt) for j in sorted(kt[i])]
    assert all(type(a) is F for *_, lhs, rhs in rep.failures for a in (lhs, rhs))


def test_trace_identity_fails_in_the_suite(monkeypatch):
    embedding = suites.standard_embedding
    monkeypatch.setattr(suites, "standard_embedding", lambda t: doubled_form(embedding(t)))
    assert embedding_verdicts() == failing_only("trace_identity")


# antisymmetric, with [a,b] = c/2 and [a,c] = a: the Jacobi sum of (a,b,c) is
# [b,[c,a]] = -[b,a] = c/2
NOT_JACOBI = {(0, 1): {2: F(1, 2)}, (1, 0): {2: F(-1, 2)},
              (0, 2): {0: F(1)}, (2, 0): {0: F(-1)}}


def test_validate_names_the_jacobi_failure(tmp_path, capsys):
    lie = LieAlgebra(3, ("a", "b", "c"), NOT_JACOBI)
    with pytest.raises(InvalidStructure, match=r"^Jacobi fails on basis triple \(0,1,2\)$"):
        lie.validate()
    path = tmp_path / "not_jacobi.json"
    path.write_text(json.dumps({
        "kind": "lie", "dim": 3, "basis": ["a", "b", "c"],
        "entries": [{"args": list(key), "value": {str(l): str(a) for l, a in v.items()}}
                    for key, v in NOT_JACOBI.items()]}))
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL lie algebra: Jacobi fails on basis triple (0,1,2)\n")


def test_embedding_fails_when_a_bracket_leaves_the_span(monkeypatch):
    # InnDer(T) without its last basis derivation: the D_{b_i,b_j} leave it
    inner = lts.inner_derivations

    def smaller(t):
        basis = inner(t)[1][:-1]
        return echelonize([lts._flatten(b, t.dim) for b in basis], t.dim ** 2), basis

    monkeypatch.setattr(lts, "inner_derivations", smaller)
    with pytest.raises(InvalidStructure, match="^bracket leaves the inner derivation span$"):
        standard_embedding(catalog.sl3_transpose_lts())


def test_embedding_fails_when_it_is_no_lie_algebra(monkeypatch):
    # the first basis derivation doubled, with the same span: its brackets
    # with T double, while its coordinates do not
    inner = lts.inner_derivations

    def doubled(t):
        space, basis = inner(t)
        return space, [op_add(basis[0], basis[0])] + basis[1:]

    monkeypatch.setattr(lts, "inner_derivations", doubled)
    with pytest.raises(InvalidStructure,
                       match=r"^standard embedding is not a Lie algebra: Jacobi fails"):
        standard_embedding(catalog.sl3_transpose_lts())


def test_embedding_fails_on_a_wrong_grading(monkeypatch):
    # the grading checked with the first T vector counted in InnDer(T)
    graded = lts._graded
    monkeypatch.setattr(lts, "_graded", lambda brackets, m: graded(brackets, m + 1))
    with pytest.raises(InvalidStructure,
                       match=r"^the bracket does not respect the grading InnDer\(T\) \+ T$"):
        standard_embedding(catalog.s2())


def test_embedding_fails_when_innder_and_t_are_not_orthogonal(monkeypatch):
    # a Killing form with one entry K(D_0, b_last) != 0
    killing = LieAlgebra.killing

    def crossed(self):
        form = killing(self)
        form.setdefault(0, {})[self.dim - 1] = F(1)
        return form

    monkeypatch.setattr(LieAlgebra, "killing", crossed)
    with pytest.raises(InvalidStructure, match="^InnDer\\(T\\) and T are not K-orthogonal$"):
        standard_embedding(catalog.s2())
