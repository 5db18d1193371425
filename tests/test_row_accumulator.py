"""Differential tests of the one integer-row accumulator (``add_row``) and
the products that add through it, against the kernels they replaced.

Each reference below is one of the four written-out loops that summed
``c * row / d`` over one lcm denominator before ``exactlin.add_row``
existed: ``sum_integer_rows``, ``EnvelopingAlgebra.mul_rows`` and
``mul_basis``, and ``hopf._tensor_rows``.  The rows drawn here have
denominators other than 1, and accumulators that already hold a sum
over a denominator sharing some, but not all, of the incoming row's
factors.  The aliasing guard checks that no accumulator ever was a
shared table, normal-form or comultiplication row, and that no
``Element`` handed out by ``reduce_tree`` writes into its cached row.
"""

import copy
from functools import lru_cache
from importlib import resources
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex import cli, hopf, suites
from triplex.envelope import EnvelopingAlgebra
from triplex.exactlin import add_row, rational_row, same_row, sum_integer_rows
from triplex.freealg import graft


@lru_cache(maxsize=None)
def algebra(name, cap):
    path = resources.files("triplex") / "data" / f"{name}.json"
    return EnvelopingAlgebra(cli._as_lts(cli.load_system(str(path))), cap)


# -- references ----------------------------------------------------------------

def reference_sum_integer_rows(terms):
    out, den = {}, 1
    for c, (d, row) in terms:
        if d != den:
            new = lcm(den, d)
            if new != den:
                for k in out:
                    out[k] *= new // den
                den = new
            c *= den // d
        for k, b in row.items():
            out[k] = out.get(k, 0) + c * b
    return den, out


def reference_mul_rows(alg, x, y):
    (dx, xs), (dy, ys) = x, y
    out, den = {}, 1
    for i, a in xs.items():
        if not a:
            continue
        for j, b in ys.items():
            if not b:
                continue
            d, row = alg.basis_product(i, j)
            c = a * b
            if d != den:
                new = lcm(den, d)
                if new != den:
                    for k in out:
                        out[k] *= new // den
                    den = new
                c *= den // d
            for k, e in row.items():
                out[k] = out.get(k, 0) + c * e
    return den * dx * dy, out


def reference_mul_basis(alg, k, x, right=False):
    dx, xs = x
    out, den = {}, 1
    for i, a in xs.items():
        if not a:
            continue
        d, row = alg.basis_product(*((i, k) if right else (k, i)))
        if d != den:
            new = lcm(den, d)
            if new != den:
                for j in out:
                    out[j] *= new // den
                den = new
            a *= den // d
        for j, e in row.items():
            out[j] = out.get(j, 0) + a * e
    return den * dx, out


def reference_tensor_rows(alg, s, t):
    (ds, s), (dt, t) = s, t
    out, den = {}, 1
    for (l1, r1), a in s.items():
        for (l2, r2), b in t.items():
            d1, left = alg.basis_product(l1, l2)
            d2, right = alg.basis_product(r1, r2)
            d, c = d1 * d2, a * b
            if d != den:
                new = lcm(den, d)
                if new != den:
                    for k in out:
                        out[k] *= new // den
                    den = new
                c *= den // d
            for kl, p in left.items():
                p *= c
                for kr, q in right.items():
                    out[kl, kr] = out.get((kl, kr), 0) + p * q
    return den * ds * dt, out


def assert_same(got, want):
    """The same rational row, with the same entries kept (zeros included)."""
    assert same_row(got, want)
    assert rational_row(*got) == rational_row(*want)
    assert set(got[1]) == set(want[1])


# -- random integer rows -------------------------------------------------------------

coefficients = st.integers(-6, 6)
denominators = st.sampled_from([2, 3, 4, 6, 9, 10, 12, 15])


@st.composite
def rows(draw, keys, min_size=0):
    """An integer row with keys drawn from ``keys`` and a denominator other
    than 1; its entries may be zero."""
    w = draw(st.dictionaries(keys, coefficients, min_size=min_size, max_size=4))
    return draw(denominators), w


# (s, u, v), pairwise coprime: an accumulator over s * u and an incoming
# row over s * v share the factor s, and the row brings the new factor v
SPLITS = st.sampled_from([(2, 3, 5), (4, 9, 5), (3, 2, 7), (6, 5, 7)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sum_integer_rows_matches_the_reference(data):
    terms = data.draw(st.lists(st.tuples(coefficients, rows(st.sampled_from(range(8)))),
                               max_size=5))
    den, w = sum_integer_rows(terms)
    assert (den, w) == reference_sum_integer_rows(terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_row_into_a_non_empty_accumulator(data):
    s, u, v = data.draw(SPLITS)
    keys = range(6)
    acc = [s * u, data.draw(st.dictionaries(st.sampled_from(keys), coefficients,
                                            min_size=1, max_size=4))]
    row = s * v, data.draw(st.dictionaries(st.sampled_from(keys), coefficients,
                                           min_size=1, max_size=4))
    c = data.draw(coefficients)
    want = reference_sum_integer_rows([(1, tuple(acc)), (c, row)])
    w = acc[1]
    assert add_row(acc, c, *row) is acc
    # rescaled in place, to the lcm of the two denominators
    assert acc[1] is w and acc[0] == s * u * v
    assert tuple(acc) == want


def half_degree_keys(name, cap):
    """The normal-form indices of degree <= cap // 2 of an algebra."""
    return range(algebra(name, cap).count_upto(cap // 2))


ALGEBRAS = [("sl3_sym", 4), ("s2_plus_s2", 4), ("s2", 6)]


@pytest.mark.parametrize("name, cap", ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_match_the_references(name, cap, data):
    alg = algebra(name, cap)
    keys = half_degree_keys(name, cap)
    x, y = (data.draw(rows(st.sampled_from(keys))) for _ in range(2))
    k, right = data.draw(st.sampled_from(keys)), data.draw(st.booleans())
    assert_same(alg.mul_basis(k, x, right=right), reference_mul_basis(alg, k, x, right))
    assert_same(alg.mul_rows(x, y), reference_mul_rows(alg, x, y))


@pytest.mark.parametrize("name, cap", ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_into_a_non_empty_accumulator(name, cap, data):
    alg = algebra(name, cap)
    keys = half_degree_keys(name, cap)
    s, u, v = data.draw(SPLITS)
    x = s * v, data.draw(rows(st.sampled_from(keys), min_size=1))[1]
    y = data.draw(rows(st.sampled_from(keys), min_size=1))
    k, right, c = (data.draw(st.sampled_from(keys)), data.draw(st.booleans()),
                   data.draw(coefficients))
    start = s * u, {0: 1, keys[-1]: -2}
    acc = [start[0], dict(start[1])]
    assert alg.mul_basis(k, x, right=right, into=acc, c=c) is acc
    assert_same(acc, reference_sum_integer_rows(
        [(1, start), (c, reference_mul_basis(alg, k, x, right))]))
    acc = [start[0], dict(start[1])]
    assert alg.mul_rows(x, y, into=acc, c=c) is acc
    assert_same(acc, reference_sum_integer_rows(
        [(1, start), (c, reference_mul_rows(alg, x, y))]))


@pytest.mark.parametrize("name, cap", ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_by_the_unit_match_the_table_path(name, cap, data):
    # by the unit, mul_basis adds x itself and reads no table row: the same
    # row, with the same kept entries, as the table rows (0, i) and (i, 0)
    alg = algebra(name, cap)
    keys = st.sampled_from(range(alg.nf_size))
    x = data.draw(rows(keys))
    right, c = data.draw(st.booleans()), data.draw(coefficients)
    assert_same(alg.mul_basis(0, x, right=right), reference_mul_basis(alg, 0, x, right))
    s, u, v = data.draw(SPLITS)
    x = s * v, x[1]
    start = s * u, {0: 1, alg.nf_size - 1: -2}
    acc = [start[0], dict(start[1])]
    assert alg.mul_basis(0, x, right=right, into=acc, c=c) is acc
    assert_same(acc, reference_sum_integer_rows(
        [(1, start), (c, reference_mul_basis(alg, 0, x, right))]))
    if not any(x[1].values()):
        # nothing to add: the accumulator keeps its denominator
        assert acc == [start[0], start[1]]


@pytest.mark.parametrize("name, cap", ALGEBRAS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tensor_rows_match_the_reference(name, cap, data):
    alg = algebra(name, cap)
    keys = half_degree_keys(name, cap)
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    s, t = (data.draw(rows(pairs)) for _ in range(2))
    assert_same(hopf._tensor_rows(alg, s, t), reference_tensor_rows(alg, s, t))


# -- aliasing guard ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sl3_sym", "s2_plus_s2"])
def test_no_suite_writes_into_a_shared_row(name):
    # every accumulator is a fresh list: after every suite has run, each
    # table row and each cached Delta row equals the one a fresh algebra
    # computes
    system = algebra(name, 4).system
    alg = EnvelopingAlgebra(system, 4)
    for n in suites.SUITE_NAMES:
        if n not in ("all", "s2"):
            suites._SUITES[n](system, lambda cap: alg, 4, 0)
    fresh = EnvelopingAlgebra(system, 4)
    # the suites fill the whole table and every Delta row
    assert sum(map(len, alg._products)) == sum(alg.count_upto(4 - k) for k in alg.nf_degree)
    assert alg._hopf_comult.keys() == set(alg.rep_tree)
    for i, rows in enumerate(alg._products):
        for j, row in rows.items():
            assert row == fresh.basis_product(i, j), (i, j)
            # the table and the tree-keyed normal forms share each row
            assert row is alg._nf_row(graft(alg.rep_tree[i], alg.rep_tree[j])), (i, j)
    for t, row in alg._nf_rows.items():
        assert row == fresh._nf_row(t), t
    hopf.check_coideal(fresh)
    for k, t in enumerate(alg.rep_tree):
        assert alg._hopf_comult[t] == hopf._comult_basis(fresh, k), k


@pytest.mark.parametrize("name", ["s2_plus_s2", "sl3_sym"])
def test_run_suite_all_writes_into_no_shared_row(monkeypatch, name):
    # every shared row is made before the run (the whole product table,
    # every table tree's normal form and every Delta row) and deep-copied;
    # run_suite("all") then runs on that algebra, and must leave each row
    # as it was
    system = algebra(name, 4).system
    alg = EnvelopingAlgebra(system, 4)
    for i in range(alg.nf_size):
        for j in range(alg.count_upto(4 - alg.nf_degree[i])):
            alg.basis_product(i, j)
    for t in alg.table.trees:
        alg._nf_row(t)
    hopf.check_coideal(alg)
    for k in range(alg.nf_size):
        hopf._comult_basis(alg, k)
    before = copy.deepcopy((alg._products, alg._nf_rows, alg._hopf_comult))
    built = []

    def prebuilt(system, cap, max_monomials):
        built.append(cap)
        return alg

    monkeypatch.setattr(suites, "EnvelopingAlgebra", prebuilt)
    got = suites.run_suite("all", system, 4, 0).to_dict(machine=True)
    assert built == [4]
    assert (alg._products, alg._nf_rows, alg._hopf_comult) == before
    monkeypatch.undo()
    assert got == suites.run_suite("all", system, 4, 0).to_dict(machine=True)


def test_reduce_tree_hands_out_a_fresh_element():
    # writing into a returned Element leaves the cached row as it was
    alg = EnvelopingAlgebra(algebra("s2", 4).system, 4)
    for t in alg.table.trees:
        x = alg.reduce_tree(t)
        want = dict(x.coeffs)
        for k in x.coeffs:
            x.coeffs[k] += 1
        x.coeffs[alg.nf_size] = 1
        assert alg.reduce_tree(t).coeffs == want, t


# -- same_row ------------------------------------------------------------------------

def reference_same_row(r, s):
    """The cross-multiplied comparison, for any two denominators."""
    (dr, wr), (ds, ws) = r, s
    return all(wr.get(k, 0) * ds == ws.get(k, 0) * dr for k in wr.keys() | ws.keys())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_same_row_over_one_denominator_matches_cross_multiplication(data):
    # two rows over one denominator, the second made from the first: its
    # zero entries dropped or new ones added, and perhaps one entry changed
    d, w = data.draw(rows(st.sampled_from(range(6))))
    other = {k: a for k, a in w.items() if a or data.draw(st.booleans())}
    other.update(dict.fromkeys(data.draw(st.sets(st.sampled_from(range(6, 9)))), 0))
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from(range(9)))
        other[k] = other.get(k, 0) + data.draw(st.sampled_from([-1, 1]))
    for r, s in [((d, w), (d, other)), ((d, other), (d, w))]:
        assert same_row(r, s) == reference_same_row(r, s)
    # and against the same vector over another denominator
    assert same_row((d, w), (3 * d, {k: 3 * a for k, a in other.items()})) \
        == same_row((d, w), (d, other))
