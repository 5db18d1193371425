import random
from fractions import Fraction
from math import comb

import pytest

from triplex import freealg
from triplex.freealg import (UNIT, DegreeBudgetExceeded, ExprSyntaxError,
                             FreeElement, MonomialTable, SizeGuardExceeded,
                             _trees, fmul, format_element, format_tree, graft,
                             parse, power_tree, tree_degree, tree_key)

F = Fraction
CAP = 6  # above every degree parsed here


def max_degree(x):
    """Largest tree degree in a free element (0 for zero)."""
    return max((tree_degree(t) for t in x.coeffs), default=0)


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
    assert t.degree_count(0) == 1
    assert t.degree_count(3) == 16
    assert t.cumulative_count(2) == 1 + 2 + 4
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
    assert [t.degree(tr) for tr in t.trees] == degrees
    with pytest.raises(KeyError):
        t.degree(power_tree(0, 5))


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


def test_fmul_unit_and_degree():
    x = FreeElement({(0, 1): F(2), 0: F(1)})
    one = FreeElement.unit()
    assert fmul(one, x, CAP) == x
    assert fmul(x, one, CAP) == x
    y = FreeElement.generator(1)
    z = fmul(x, y, CAP)
    assert max_degree(z) == max_degree(x) + 1


def test_fmul_bilinear():
    a = FreeElement.generator(0)
    b = FreeElement.generator(1)
    lhs = fmul(a + b, a, CAP)
    rhs = fmul(a, a, CAP) + fmul(b, a, CAP)
    assert lhs == rhs


def test_fmul_degree_budget():
    x = FreeElement.monomial(power_tree(0, 3))
    with pytest.raises(DegreeBudgetExceeded):
        fmul(x, x, cap=5)
    assert max_degree(fmul(x, x, cap=6)) == 6


def test_parse_basic():
    names = ("e", "f")
    assert parse("e", names, CAP) == FreeElement.generator(0)
    assert parse("e*f", names, CAP) == FreeElement.monomial((0, 1))
    assert parse("e^3", names, CAP) == FreeElement.monomial(((0, 0), 0))
    assert parse("1", names, CAP) == FreeElement.unit()
    assert parse("2*e - f", names, CAP) == (2 * FreeElement.generator(0)
                                            - FreeElement.generator(1))
    assert parse("1/2*e", names, CAP) == F(1, 2) * FreeElement.generator(0)
    assert parse("(e*f)*e", names, CAP) == FreeElement.monomial(((0, 1), 0))
    assert parse("e*(f*e)", names, CAP) == FreeElement.monomial((0, (1, 0)))
    assert parse("-e + 3", names, CAP) == (3 * FreeElement.unit()
                                           - FreeElement.generator(0))


def test_parse_coefficient_one_over_one():
    names = ("e", "f")
    for text in ("1/1", "2/2", "1/0001"):
        assert parse(text, names, CAP) == FreeElement.unit()
    assert parse("1/1*e", names, CAP) == FreeElement.generator(0)
    assert parse("1/1 - e", names, CAP) == FreeElement.unit() - FreeElement.generator(0)


def test_parse_nonassociative_guard():
    with pytest.raises(ExprSyntaxError):
        parse("e*f*e", ("e", "f"), CAP)


def test_parse_power_of_non_generator():
    with pytest.raises(ExprSyntaxError):
        parse("(e*f)^2", ("e", "f"), CAP)


def test_parse_errors():
    names = ("e", "f")
    for bad in ("g", "e +", "e)", "(e", "1/0*e", "e^", "e @ f", ""):
        with pytest.raises(ExprSyntaxError):
            parse(bad, names, CAP)


def test_format_tree():
    names = ("e", "f")
    assert format_tree(UNIT, names) == "1"
    assert format_tree((0, (1, 0)), names) == "(e*(f*e))"


def test_parse_format_roundtrip_seeded_corpus():
    names = ("e", "f", "g")
    rng = random.Random(20240817)
    pool = [t for n in range(0, 5) for t in _trees(3, n)]
    for _ in range(1000):
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            t = rng.choice(pool)
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            if c:
                coeffs[t] = coeffs.get(t, F(0)) + c
        x = FreeElement(coeffs)
        assert parse(format_element(x, names), names, CAP) == x


def test_format_zero():
    assert format_element(FreeElement(), ("e",)) == "0"
    assert parse("e - e", ("e",), CAP) == FreeElement()
