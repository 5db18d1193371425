from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triplex import catalog
from triplex.envelope import Element, EnvelopingAlgebra
from triplex.exactlin import (DimensionMismatch, accumulate, echelonize, kernel,
                              parse_rational)

F = Fraction


def sv(values):
    return {i: F(v) for i, v in enumerate(values) if v}


def test_echelonize_full_plane():
    s = echelonize([sv([1, 0]), sv([0, 1]), sv([1, 1])], 2)
    assert s.dim == 2
    assert s.pivots == [0, 1]


def test_echelonize_empty():
    s = echelonize([], 3)
    assert s.dim == 0


def test_echelonize_scaling_normalization():
    s = echelonize([sv([2, 4])], 2)
    assert s.rows == [sv([1, 2])]


def test_echelonize_order_independent():
    vecs = [sv([1, 2, 3]), sv([0, 1, 1]), sv([1, 3, 4])]
    a = echelonize(vecs, 3)
    b = echelonize(list(reversed(vecs)), 3)
    assert a == b


def test_echelonize_idempotent():
    s = echelonize([sv([1, 2, 0]), sv([0, 0, 3]), sv([2, 4, 3])], 3)
    assert echelonize(s.rows, 3) == s


def test_member_examples():
    assert echelonize([sv([1, 2])], 2).member(sv([1, 2]))
    assert not echelonize([sv([0, 1])], 2).member(sv([1, 0]))
    assert echelonize([sv([1, 2])], 2).member(sv([3, 6]))


def test_member_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        echelonize([sv([1, 2])], 2).member(sv([1, 2, 3]))


def test_columns_outside_the_ambient_are_rejected():
    with pytest.raises(DimensionMismatch):
        echelonize([sv([1, 2, 3])], 2)
    with pytest.raises(DimensionMismatch):
        echelonize([{-1: F(1)}], 2)
    with pytest.raises(DimensionMismatch):
        kernel([sv([1]), sv([0, 1])], 1)


def test_coordinates_in_the_rref_basis():
    s = echelonize([sv([1, 2, 0]), sv([0, 0, 1])], 3)
    assert s.coordinates(sv([2, 4, -3])) == [F(2), F(-3)]
    assert s.coordinates(sv([0, 1, 0])) is None


def test_kernel_simple():
    imgs = [sv([1]), sv([0]), sv([1])]
    k = kernel(imgs, 1)
    assert k.dim == 2
    assert all(r.get(0, 0) * F(1) + r.get(2, 0) * F(1) == r.get(0, 0) + r.get(2, 0)
               for r in k.rows)
    for r in k.rows:
        assert r.get(0, 0) + r.get(2, 0) == 0 or r.get(0, 0) == 0


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


@given(rationals, rationals)
def test_scalar_roundtrip_add(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda b: b != 0))
def test_scalar_roundtrip_mul(a, b):
    assert (a * b) / b == a


@st.composite
def dense_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    nrows = draw(st.integers(min_value=0, max_value=6))
    rows = [[F(draw(st.integers(-3, 3))) for _ in range(dim)] for _ in range(nrows)]
    target = [F(draw(st.integers(-3, 3))) for _ in range(dim)]
    return rows, target


def dense_solvable(rows, target):
    """Naive dense rank comparison: target in span(rows)?"""
    def rank(m):
        m = [list(r) for r in m]
        r = 0
        for c in range(len(m[0]) if m else 0):
            piv = next((i for i in range(r, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c] / m[r][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            r += 1
        return r

    if not rows:
        return all(x == 0 for x in target)
    return rank(rows) == rank(rows + [target])


@given(dense_systems())
@settings(max_examples=200, deadline=None)
def test_member_matches_dense_solver(data):
    rows, target = data
    dim = len(target)
    space = echelonize([dict(enumerate(r)) for r in rows], dim)
    assert space.member(dict(enumerate(target))) == dense_solvable(rows, target)


def test_parse_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-4/6") == F(-2, 3)
    with pytest.raises(ValueError):
        parse_rational("1/-2")
    with pytest.raises(ValueError):
        parse_rational("x")


# -- the shared sparse-combination core --------------------------------------

_S2_N3 = EnvelopingAlgebra(catalog.s2(), 3)
_S2_N2 = EnvelopingAlgebra(catalog.s2(), 2)

mixed = st.fractions(min_value=-4, max_value=4, max_denominator=6)
sparse_dicts = st.dictionaries(st.integers(0, 5), mixed, max_size=6)


def naive_sum(x, y, a=1):
    keys = set(x) | set(y)
    out = {k: x.get(k, 0) + a * y.get(k, 0) for k in keys}
    return {k: v for k, v in out.items() if v}


@given(sparse_dicts, sparse_dicts, mixed)
def test_accumulate_matches_naive_sum(x, y, a):
    out = {k: v for k, v in x.items() if v}
    assert accumulate(out, y, a) is out
    assert out == naive_sum(x, y, a)
    assert all(out.values())


@given(sparse_dicts, sparse_dicts)
def test_accumulate_without_scalar_adds(x, y):
    out = {k: v for k, v in x.items() if v}
    accumulate(out, y)
    assert out == naive_sum(x, y)
    assert all(out.values())


@given(sparse_dicts, sparse_dicts)
def test_accumulate_zero_scalar_is_a_no_op(x, y):
    out = dict(x)
    accumulate(out, y, 0)
    assert out == x


@st.composite
def combination_triples(draw):
    alg = draw(st.sampled_from([_S2_N3, _S2_N2]))
    coeffs = st.dictionaries(st.sampled_from(range(alg.nf_size)),
                             st.one_of(mixed, st.integers(-3, 3)), max_size=6)
    return Element(alg, draw(coeffs)), Element(alg, draw(coeffs)), draw(mixed)


def assert_clean(x):
    assert all(type(v) is Fraction and v for v in x.coeffs.values())


@given(combination_triples())
def test_combination_arithmetic(triple):
    x, y, a = triple
    for z in (x, y, x + y, x - y, -x, a * x, 3 * x):
        assert type(z) is Element and z.algebra is x.algebra
        assert_clean(z)
    assert x + y - y == x
    assert ((-x) + x).is_zero()
    assert (x - x).is_zero()
    assert a * (x + y) == a * x + a * y
    assert (0 * x).is_zero()


def test_constructor_drops_zeros_and_wraps_values():
    # normal-form indices 2, 1 and 4: e, f and ef
    x = Element(_S2_N3, {2: 2, 1: 0, 4: F(1, 3)})
    assert x.coeffs == {2: F(2), 4: F(1, 3)}
    assert x.format() == "2*e + 1/3*e*f"
    assert_clean(x)


def test_elements_of_different_algebras_differ():
    v = 2  # e, at both caps
    x, y = Element(_S2_N3, {v: 1}), Element(_S2_N2, {v: 1})
    assert x.coeffs == y.coeffs
    assert x != y
    assert x == Element(_S2_N3, {v: F(1)})
    assert x != x.coeffs
