import re
from fractions import Fraction
from math import comb

import pytest

from triplex import freealg
from triplex.envelope import EnvelopingAlgebra
from triplex.freealg import (UNIT, DegreeBudgetExceeded, ExprSyntaxError,
                             MonomialTable, SizeGuardExceeded, _trees,
                             graft, parse, power_tree, tree_degree, tree_key)
from triplex.lts import TripleSystem

F = Fraction


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_tree_counts_match_catalan():
    for d in (1, 2, 3):
        for n in range(1, 6):
            assert len(_trees(d, n)) == catalan(n - 1) * d ** n


def test_degree_three_count_two_generators():
    assert len(_trees(2, 3)) == 16


def test_monomial_table_sizes():
    t = MonomialTable(2, 6)
    assert t.size == sum(catalan(n - 1) * 2 ** n for n in range(1, 7)) + 1
    assert t.size == 3239
    assert t.degree_start[1] - t.degree_start[0] == 1
    assert t.degree_start[4] - t.degree_start[3] == 16
    assert t.degree_start[3] == 1 + 2 + 4
    assert t.degree_start[-1] == t.size
    assert MonomialTable(3, 4).size == 1 + 3 + 9 + 54 + 405


def test_monomial_table_guard():
    with pytest.raises(SizeGuardExceeded):
        MonomialTable(2, 6, max_monomials=100)
    # the guard is exact: a table of exactly max_monomials builds
    assert MonomialTable(2, 6, max_monomials=3239).size == 3239
    with pytest.raises(SizeGuardExceeded):
        MonomialTable(2, 6, max_monomials=3238)


def test_monomial_table_guard_counts_before_building(monkeypatch):
    # a stratum over the guard is rejected from its size, never built
    guard = 1000
    build = freealg._trees

    def trees(d, n):
        assert n == 0 or catalan(n - 1) * d ** n <= guard, (d, n)
        return build(d, n)

    monkeypatch.setattr(freealg, "_trees", trees)
    with pytest.raises(SizeGuardExceeded, match="d=30, N=4"):
        MonomialTable(30, 4, max_monomials=guard)


def test_monomial_table_index_refines_degree():
    t = MonomialTable(2, 4)
    degrees = [tree_degree(tr) for tr in t.trees]
    assert degrees == sorted(degrees)
    assert all(t.index[tr] == i for i, tr in enumerate(t.trees))
    assert all(degrees[i] == n for n in range(t.cap + 1)
               for i in range(*t.degree_start[n:n + 2]))
    assert power_tree(0, 5) not in t.index


def test_graft_unit_laws():
    assert graft(UNIT, 0) == 0
    assert graft(0, UNIT) == 0
    assert graft(UNIT, UNIT) == UNIT
    assert graft(0, 1) == (0, 1)


def test_power_tree_left_nested():
    assert power_tree(0, 1) == 0
    assert power_tree(0, 3) == ((0, 0), 0)
    assert power_tree(1, 0) == UNIT


def test_tree_key_total_order():
    trees = list(_trees(2, 3))
    keys = [tree_key(t) for t in trees]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def sorted_trees(d, n):
    """The trees of degree n, grafted from every split and sorted by
    ``tree_key``: the reference for ``_trees``, which sorts nothing."""
    if n <= 1:
        return [UNIT] if n == 0 else list(range(d))
    return sorted(((l, r) for i in range(1, n)
                   for l in sorted_trees(d, i) for r in sorted_trees(d, n - i)),
                  key=tree_key)


# d <= 5 and n <= 6, except the strata of more than 50,000 trees
TREE_STRATA = [(d, n) for d in range(1, 6) for n in range(1, 7)
               if catalan(n - 1) * d ** n <= 50_000]


@pytest.mark.parametrize("d, n", TREE_STRATA)
def test_trees_come_in_tree_key_order(d, n):
    assert list(_trees(d, n)) == sorted_trees(d, n)


@pytest.mark.parametrize("d, cap", [(2, 6), (3, 5), (5, 4)])
def test_monomial_table_numbers_the_sorted_strata(d, cap):
    # perfbench's golden normal-form digests are keyed by table index
    t = MonomialTable(d, cap)
    assert t.trees == [tr for n in range(cap + 1) for tr in sorted_trees(d, n)]
    assert t.index == {tr: i for i, tr in enumerate(t.trees)}


def test_parse_basic(s2_n6):
    alg = s2_n6
    e, f = alg.generator(0), alg.generator(1)
    assert parse("e", alg) == e
    assert parse("e*f", alg) == alg.monomial((1, 1))
    assert parse("e^3", alg) == alg.monomial((3, 0))
    assert parse("1", alg) == alg.one()
    assert parse("2*e - f", alg) == 2 * e - f
    assert parse("1/2*e", alg) == F(1, 2) * e
    # s2 is not commutative: e(ef) = e^2 f but (ef)e = -e + e^2 f
    assert parse("(e*f)*e", alg) == alg.monomial((2, 1)) - e
    assert parse("e*(f*e)", alg) == alg.monomial((2, 1))
    assert parse("-e + 3", alg) == 3 * alg.one() - e


def test_parse_coefficient_one_over_one(s2_n6):
    alg = s2_n6
    for text in ("1/1", "2/2", "1/0001"):
        assert parse(text, alg) == alg.one()
    assert parse("1/1*e", alg) == alg.generator(0)
    assert parse("1/1 - e", alg) == alg.one() - alg.generator(0)


def test_parse_nonassociative_guard(s2_n6):
    with pytest.raises(ExprSyntaxError):
        parse("e*f*e", s2_n6)


def test_parse_power_of_non_generator(s2_n6):
    with pytest.raises(ExprSyntaxError):
        parse("(e*f)^2", s2_n6)


def test_parse_errors(s2_n6):
    for bad in ("g", "e +", "e)", "(e", "1/0*e", "e^", "e @ f", ""):
        with pytest.raises(ExprSyntaxError):
            parse(bad, s2_n6)


def test_parse_rejects_repeated_basis_names(s2):
    twin = TripleSystem(2, ("a", "a"), s2.constants)
    with pytest.raises(ValueError, match="basis name 'a' is repeated"):
        parse("a", EnvelopingAlgebra(twin, 2))


def test_format_zero(s2_n6):
    assert parse("e - e", s2_n6).is_zero()
    assert parse("e - e", s2_n6).format() == "0"


def test_parse_cap_uses_normal_form_degrees(s2_n4):
    # ef = fe in U(T): the factor of degree 6 in the free algebra is 0
    assert parse("((e*f - f*e)*e)*e^4", s2_n4).is_zero()
    # every over-cap message names the cap
    for text, message in (("e^5", "power 5 exceeds cap 4"),
                          ("(e*f)*(e^2*f)", "product degree 2+3 exceeds cap 4")):
        with pytest.raises(DegreeBudgetExceeded, match=re.escape(message)):
            parse(text, s2_n4)

