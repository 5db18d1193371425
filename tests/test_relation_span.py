"""Differential tests of the quotient-side build against the free-table
build (``free_table.FreeTable``), and of that reference itself.

The free-table build closes the relators into a two-sided ideal of the
free algebra, over every free monomial within the cap; the quotient-side
build in ``triplex.envelope`` works one degree at a time over symbols
P(i, j) of basis monomials.  Both must give the same dims, the same
normal form for every monomial of the table, the same basis products and
the same certificate verdicts.

Two more references are kept here as they were.  ``all_tree_relators`` is
the relator list with the nucleus family over every free tree, where
``envelope.relators`` takes the PBW representatives only.  The
round-based closure is the free-table build's earlier schedule: it
inserts those relators, then, round by round, the products of every new
row with every monomial within the budget, on both sides, as soon as
they are made.  The closure is fixed by its span, so the free-table
builds must give the same pivots, the same canonical rows, the same
per-degree dims and the same normal form for every monomial of the table.
"""

from importlib import resources
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from free_table import FreeTable, pairs
from test_lts_sparse import rebased_systems

from triplex import cli, envelope
from triplex.envelope import EnvelopingAlgebra, PBWCertificateFailure
from triplex.exactlin import ONE, Echelon, accumulate
from triplex.freealg import _trees, tree_degree, tree_key
from triplex.lts import TripleSystem

SYSTEMS = ("abelian3", "s2", "s2_plus_s2", "sl2", "sl2_lts", "sl3_sym")
CASES = [(name, cap) for name in SYSTEMS
         for cap in ((2, 3, 4) if name == "sl3_sym" else (2, 3, 4, 5))]


def load(name):
    path = resources.files("triplex") / "data" / f"{name}.json"
    return cli._as_lts(cli.load_system(str(path)))


def all_tree_relators(system, cap):
    """The relators of ``envelope.relators``, with m1 and m2 of the nucleus
    family over every free tree of their degrees."""
    d = system.dim
    rels = []

    def add(*terms):
        out = {}
        for c, t in terms:
            accumulate(out, {t: c})
        rels.append(out)

    if cap >= 2:
        for i in range(d):
            for j in range(i + 1, d):
                add((ONE, (i, j)), (-ONE, (j, i)))
    for a in range(d):
        for n1 in range(1, cap - 1):
            for n2 in range(1, cap - n1):
                for m1 in _trees(d, n1):
                    for m2 in _trees(d, n2):
                        add((ONE, ((a, m1), m2)), (-ONE, (a, (m1, m2))),
                            (ONE, ((m1, a), m2)), (-ONE, (m1, (a, m2))))
    if cap >= 3:
        for i, j, k in iproduct(range(d), repeat=3):
            bracket = system.constants.get((i, j, k), {})
            add((ONE, (i, (j, k))), (-ONE, (j, (i, k))),
                *((-c, l) for l, c in bracket.items()))
    return rels


class RoundBased(FreeTable):
    """The algebra built by the round-based closure."""

    def relators(self, system, cap):
        return all_tree_relators(system, cap)

    def _insert_relation(self, coeffs, work):
        # insert the fully reduced residue, so that the rows the next round
        # multiplies carry no unreduced tail
        row = self._ech.insert(self._ech.reduce(
            {self._elim_col[i]: a for i, a in coeffs.items()}))
        if row is not None:
            top = self._degrees[self._elim_index[min(row)]]
            work.append((top, {self._elim_index[c]: a for c, a in row.items()}))

    def _build_relation_span(self):
        N, table = self.cap, self.table
        pair = pairs(table)
        work = []
        for rel in self.relators(self.system, N):
            self._insert_relation({table.index[t]: a for t, a in rel.items()}, work)
        while work:
            work.sort(key=lambda item: item[0])
            new = []
            for top, row in work:
                for n in range(1, N - top + 1):
                    for m in range(*table.degree_start[n:n + 2]):
                        self._insert_relation(
                            {pair[i, m]: a for i, a in row.items()}, new)
                        self._insert_relation(
                            {pair[m, i]: a for i, a in row.items()}, new)
            work = new


def canonical_rows(ech):
    """``ech.rref_rows()``, from the forward rows re-inserted into a fresh
    echelon highest pivot (lowest degree) first, each as its residue: the
    same span, without back-substitution through the round-based build's
    long rows."""
    fresh = Echelon()
    for p in sorted(ech._rows, reverse=True):
        pv, tail = ech._rows[p]
        fresh.insert(fresh.reduce({p: pv, **dict(tail)}))
    return fresh.rref_rows()


def normal_forms(alg, rref_rows):
    """Normal form of every table monomial, read off canonical rows: a
    pivot column reduces to minus the rest of its row, any other column
    to itself."""
    by_pivot = {min(row): row for row in rref_rows}
    out = {}
    for c, i in enumerate(alg._elim_index):
        row = by_pivot.get(c)
        residue = ({k: -a for k, a in row.items() if k != c} if row is not None
                   else {c: ONE})
        out[alg.table.trees[i]] = {alg._elim_nf[k]: a for k, a in residue.items()}
    return out


@pytest.mark.parametrize("name, cap", CASES, ids=[f"{n}-N{c}" for n, c in CASES])
def test_build_matches_round_based_closure(name, cap):
    system = load(name)
    alg, ref = FreeTable(system, cap), RoundBased(system, cap)
    assert alg._ech.pivots() == ref._ech.pivots()
    rows = canonical_rows(ref._ech)
    if cap <= 4:
        assert ref._ech.rref_rows() == rows
    assert alg._ech.rref_rows() == rows
    assert alg.relspan_degree_dims == ref.relspan_degree_dims
    assert alg.degree_dims == ref.degree_dims
    expected = normal_forms(ref, rows)
    for t in alg.table.trees:
        assert alg.reduce_tree(t).coeffs == expected[t], t


class AllTrees(FreeTable):
    """The free-table build from ``all_tree_relators``."""

    def relators(self, system, cap):
        return all_tree_relators(system, cap)


def assert_same_algebra(alg, ref):
    assert alg.degree_dims == ref.degree_dims
    assert alg.relspan_degree_dims == ref.relspan_degree_dims
    assert alg.relspan_dim == ref.relspan_dim
    for t in alg.table.trees:
        assert alg.reduce_tree(t).coeffs == ref.reduce_tree(t).coeffs, t
    for i, n in enumerate(alg.nf_degree):
        for j in range(alg.count_upto(alg.cap - n)):
            assert alg.basis_product(i, j) == ref.basis_product(i, j), (i, j)


@pytest.mark.parametrize("name, cap", CASES, ids=[f"{n}-N{c}" for n, c in CASES])
def test_quotient_build_matches_free_table(name, cap):
    system = load(name)
    assert_same_algebra(EnvelopingAlgebra(system, cap), FreeTable(system, cap))


@settings(max_examples=10, deadline=None)
@given(rebased_systems())
def test_quotient_build_matches_free_table_on_rebased_systems(system):
    assert_same_algebra(EnvelopingAlgebra(system, 4), FreeTable(system, 4))


@pytest.mark.parametrize("name, cap", CASES, ids=[f"{n}-N{c}" for n, c in CASES])
def test_representative_relators_match_all_tree_relators(name, cap):
    system = load(name)
    assert_same_algebra(EnvelopingAlgebra(system, cap), AllTrees(system, cap))


@pytest.mark.parametrize("name, cap, count, full_count", [
    ("s2", 6, 179, 1105), ("sl3_sym", 4, 1010, 1510), ("s2_plus_s2", 4, 454, 646)])
def test_representative_relators_are_fewer(name, cap, count, full_count):
    system = load(name)
    rels, full = envelope.relators(system, cap), all_tree_relators(system, cap)
    assert (len(rels), len(full)) == (count, full_count)
    # every relator is one of the full family's
    assert {frozenset(r.items()) for r in rels} <= {frozenset(r.items()) for r in full}
    # with generators for m1 and m2, the families are the same list
    # (the coideal certificate reads them at cap 3)
    assert ({frozenset(r.items()) for r in envelope.relators(system, 3)}
            == {frozenset(r.items()) for r in all_tree_relators(system, 3)})


@settings(max_examples=10, deadline=None)
@given(rebased_systems())
def test_representative_relators_match_on_rebased_systems(system):
    assert_same_algebra(EnvelopingAlgebra(system, 4), AllTrees(system, 4))


@st.composite
def triple_tensors(draw):
    """A sparse trilinear product on 2 or 3 generators with small integer
    constants: mostly not a Lie triple system."""
    d = draw(st.integers(2, 3))
    idx = st.integers(0, d - 1)
    entries = draw(st.dictionaries(
        st.tuples(idx, idx, idx),
        st.dictionaries(idx, st.integers(-2, 2), min_size=1, max_size=2),
        max_size=6))
    return TripleSystem(d, [f"b{i}" for i in range(d)], entries)


def build_or_failure(build, system, cap):
    try:
        return build(system, cap)
    except PBWCertificateFailure:
        return None


@settings(max_examples=40, deadline=None)
@given(triple_tensors())
def test_representative_relators_give_the_same_verdict(system):
    # the quotient-side build against the free-table build, from the same
    # relators and from the nucleus family over every free tree
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "check_axioms", lambda t: SimpleNamespace(ok=True))
        alg = build_or_failure(EnvelopingAlgebra, system, 4)
        ref = build_or_failure(FreeTable, system, 4)
        full = build_or_failure(AllTrees, system, 4)
    assert (alg is None) == (ref is None) == (full is None)
    if alg is not None:
        assert_same_algebra(alg, ref)
        assert_same_algebra(alg, full)


E, F = 0, 1  # the generators of s2; normal-form indices 2 and 1


@pytest.mark.parametrize("rels, message", [
    # e f = -e: the relation pivots on the representative e f, while f e
    # stays free, so the rank is right and only the collapse shows it
    ([{(E, F): ONE, E: ONE}], "level 2 collapsed"),
    # no commutator: f e is not eliminated
    ([], "quotient dimension 7 at filtration level 2"),
    # e = 0: a relator of degree 1 collapses T itself
    ([{(E, F): ONE, (F, E): -ONE}, {E: ONE}], "level 2 collapsed"),
], ids=["collapse-at-full-rank", "rank-deficient", "degree-one-relator"])
def test_certificate_failures_match_the_free_table(monkeypatch, rels, message):
    monkeypatch.setattr(envelope, "relators", lambda system, cap: rels)
    system = load("s2")
    with pytest.raises(PBWCertificateFailure):
        FreeTable(system, 2)
    with pytest.raises(PBWCertificateFailure, match=message):
        EnvelopingAlgebra(system, 2)


def test_cursor_moves_back_after_a_degree_fall(monkeypatch):
    # e(ef) + e and e(ef) have top degree 3, and their difference e has top
    # degree 1: its degree-2 products enter the schedule after it has
    # passed degree 2.  The quotient is then too small for the
    # certificate, so the spans are compared before it.
    e, f = 0, 1
    rels = lambda system, cap: [{(e, (e, f)): ONE, e: ONE}, {(e, (e, f)): ONE}]
    monkeypatch.setattr(envelope, "relators", rels)
    monkeypatch.setattr(RoundBased, "relators", staticmethod(rels))
    monkeypatch.setattr(FreeTable, "_certify", lambda self: None)
    monkeypatch.setattr(FreeTable, "_verify_power_bracketings", lambda self: None)
    system = load("s2")
    for cap in (3, 4):
        alg, ref = FreeTable(system, cap), RoundBased(system, cap)
        assert alg._ech.pivots() == ref._ech.pivots()
        assert alg._ech.rref_rows() == ref._ech.rref_rows()
        # the span holds e and its degree-2 products
        for t in (e, (e, e), (e, f), (f, e)):
            assert alg._ech.contains({alg._elim_col[alg.table.index[t]]: ONE}), t


@pytest.mark.parametrize("name, cap", CASES, ids=[f"{n}-N{c}" for n, c in CASES])
def test_index_order_and_pair_table_match_the_trees(name, cap):
    alg = FreeTable(load(name), cap)
    table, reps = alg.table, set(alg.rep_tree)
    # the elimination order over table indices is the order the build
    # used when it sorted the trees themselves
    by_trees = sorted(table.trees,
                      key=lambda t: (-tree_degree(t), t in reps, tree_key(t)))
    assert [table.trees[i] for i in alg._elim_index] == by_trees
    assert all(alg._elim_col[i] == c for c, i in enumerate(alg._elim_index))
    # column -> normal-form index names each representative once
    assert all(table.trees[i] == alg.rep_tree[k]
               for i, k in zip(alg._elim_index, alg._elim_nf) if k is not None)
    assert sorted(k for k in alg._elim_nf if k is not None) == list(range(alg.nf_size))
    # pairs(table)[i, j] names the tree (trees[i], trees[j]), for every
    # product of two non-unit monomials within the cap
    pair = pairs(table)
    for (i, j), k in pair.items():
        assert table.trees[k] == (table.trees[i], table.trees[j])
    assert len(pair) == table.size - 1 - alg.d
    assert table.degree_start[-1] == table.size
