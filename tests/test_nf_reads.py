"""Differential tests of the normal-form reads against the per-entry path.

``reduce_tree`` wraps a fresh dict of the cached row's nonzero values,
each a ``Fraction`` that the algebra forms once per distinct value of its
cached rows (``_nf_fractions``, ``exactlin.rational_row``'s memo), in an
``Element`` built without ``Element``'s checks.  ``mul`` converts its row
with a memo of its own.  The reference is the path they replace: one
``Fraction(b, den)`` per entry, through ``Element(algebra, coeffs)``.
sl3_sym's rows have denominator 2, so a memo keyed by the numerator alone
fails here; the product (g0 + g1)(g0 - g1) leaves zero entries in its
accumulator (g0 g1 and g1 g0 have one normal form), which ``rational_row``
must drop.
"""

import random
from fractions import Fraction
from importlib import resources
from itertools import islice

import pytest

from triplex import cli
from triplex.envelope import Element, EnvelopingAlgebra
from triplex.exactlin import integer_row

CASES = [("s2", 6), ("s2_plus_s2", 4), ("sl3_sym", 4)]
IDS = [f"{name}-N{cap}" for name, cap in CASES]


def fresh_algebra(name, cap):
    path = resources.files("triplex") / "data" / f"{name}.json"
    return EnvelopingAlgebra(cli._as_lts(cli.load_system(str(path))), cap)


def per_entry_element(alg, row):
    """The integer row ``(den, w)`` as an ``Element``, one ``Fraction`` per entry."""
    den, w = row
    return Element(alg, {k: Fraction(b, den) for k, b in w.items()})


def memo_size(alg):
    return sum(map(len, alg._nf_fractions.values()))


def exact_nonzero(x):
    return all(type(a) is Fraction and a for a in x.coeffs.values())


@pytest.mark.parametrize("name, cap", CASES, ids=IDS)
def test_reduce_tree_matches_the_per_entry_element(name, cap):
    alg = fresh_algebra(name, cap)
    # the distinct (den, value) pairs of the cached rows, kept up to date
    values, seen = set(), 0
    for t in alg.table.trees:
        x = alg.reduce_tree(t)
        assert x == per_entry_element(alg, alg._nf_rows[t]), t
        assert exact_nonzero(x), t
        for den, w in islice(alg._nf_rows.values(), seen, None):
            values.update((den, b) for b in w.values() if b)
        seen = len(alg._nf_rows)
        assert memo_size(alg) <= len(values), t


@pytest.mark.parametrize("name, cap", CASES, ids=IDS)
def test_reads_hand_out_fresh_coefficient_dicts(name, cap):
    alg = fresh_algebra(name, cap)
    for t in alg.table.trees:
        x, y = alg.reduce_tree(t), alg.reduce_tree(t)
        assert x.coeffs is not y.coeffs, t
        want = dict(y.coeffs)
        for k in x.coeffs:
            x.coeffs[k] += 1
        x.coeffs[alg.nf_size] = Fraction(1)
        assert alg.reduce_tree(t).coeffs == want == y.coeffs, t


def large_element(alg, rng, top):
    """A seeded element of degree <= top with large, non-integer coefficients."""
    ks = rng.sample(range(alg.count_upto(top)), min(6, alg.count_upto(top)))
    return Element(alg, {k: Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
                         for k in ks})


@pytest.mark.parametrize("name, cap", CASES, ids=IDS)
def test_products_match_the_per_entry_element_and_leave_the_memo_alone(name, cap):
    alg = fresh_algebra(name, cap)
    for t in alg.table.trees:
        alg.reduce_tree(t)
    size = memo_size(alg)
    g0, g1 = alg.generator(0), alg.generator(1)
    pairs = [(g0 + g1, g0 - g1)]
    # its accumulator keeps the cancelled entries that the Element drops
    assert 0 in alg.mul_rows(*(integer_row(x.coeffs) for x in pairs[0]))[1].values()
    rng = random.Random(0)
    for _ in range(20):
        top = rng.randint(0, cap)
        pairs.append((large_element(alg, rng, top), large_element(alg, rng, cap - top)))
    for x, y in pairs:
        z = x * y
        want = per_entry_element(alg, alg.mul_rows(integer_row(x.coeffs), integer_row(y.coeffs)))
        assert z == want
        assert exact_nonzero(z)
    assert memo_size(alg) == size
