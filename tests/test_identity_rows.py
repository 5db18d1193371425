"""Differential tests of the identity checks on integer rows against the
element-level checks they replace.

The references are the checks as they were written on ``Element``s: every
product an ``Element`` product, every scalar a ``Fraction``.  Both read
the same basis-product table, so they agree on any algebra, also on one
whose table has been corrupted, where both must report the same failures.
"""

from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triplex import cli, suites
from triplex.envelope import Element, EnvelopingAlgebra
from triplex.exactlin import same_row
from triplex.freealg import DegreeBudgetExceeded

SYSTEMS = ("abelian3", "s2", "s2_plus_s2", "sl2", "sl2_lts", "sl3_sym")


def load(name):
    path = resources.files("triplex") / "data" / f"{name}.json"
    return cli._as_lts(cli.load_system(str(path)))


@lru_cache(maxsize=None)
def algebra(name, cap):
    return EnvelopingAlgebra(load(name), cap)


# the six data files at their default caps, s2 at N=6 and sl2_lts at N=5
CASES = sorted({(name, suites.default_cap(load(name))) for name in SYSTEMS}
               | {("s2", 6), ("sl2_lts", 5)})
CASE_IDS = [f"{name}-N{cap}" for name, cap in CASES]


# -- references ----------------------------------------------------------------

def d_operator(a, b):
    """D_{a,b} = [L_a, L_b] acting on elements: z -> a(bz) - b(az)."""
    def apply(z):
        return a * (b * z) - b * (a * z)
    return apply


def reference_jordan(alg, a, x):
    k = alg.cap - x.degree() - a.degree()
    if k < 0:
        raise DegreeBudgetExceeded("no domain left for the operator identity")
    lhs_mult = a * x + x * a
    for v in alg.monomials_upto(k):
        y = alg.monomial(v)
        if lhs_mult * y != a * (x * y) + x * (a * y):
            return False
    return True


def reference_d_derivation(alg, ai, bi, x, y):
    a, b = alg.generator(ai), alg.generator(bi)
    if x.degree() + y.degree() + 2 > alg.cap:
        raise DegreeBudgetExceeded("derivation check exceeds the degree budget")
    D = d_operator(a, b)
    if D(x * y) != D(x) * y + x * D(y):
        return False
    consts = alg.system.constants
    for g in range(alg.d):
        if D(alg.generator(g)) != alg.inject(consts.get((ai, bi, g), {})):
            return False
    return True


def reference_lemma(alg, c, a, b, n):
    if n + 2 > alg.cap:
        raise DegreeBudgetExceeded("lemma check exceeds the degree budget")
    ca, cb, cc = alg.generator(a), alg.generator(b), alg.generator(c)
    lhs = alg.associator(alg.power(c, n), ca, cb)
    if n == 0:
        residue = lhs
    else:
        residue = lhs - Fraction(n) * (alg.power(c, n - 1) * alg.associator(cc, ca, cb))
    return residue.is_zero() or residue.degree() <= n - 2


def reference_expansion(alg, c, a, b, n):
    if n + 2 > alg.cap:
        raise DegreeBudgetExceeded("expansion check exceeds the degree budget")
    ea, eb, ec = alg.generator(a), alg.generator(b), alg.generator(c)
    lhs = alg.associator(alg.power(c, n), ea, eb)
    rhs = alg.zero()
    if n >= 1:
        bracket = alg.system.constants.get((a, c, b), {})
        rhs = Fraction(n, 2) * (alg.power(c, n - 1) * alg.inject(bracket))
    D = d_operator(ea, ec)
    for i in range(0, n - 1):
        mid = D(alg.power(c, n - 1 - i))
        rhs = rhs - Fraction(1, 2) * alg.associator(alg.power(c, i), mid, eb)
    return lhs == rhs


# -- the cases the suites run, plus the derivation check's ----------------------

def verdicts(alg, row_checks, scale=1):
    """``{case: verdict}`` over the jordan, lemma, expansion and derivation
    cases of ``alg``, through the row checks or the references, with the
    jordan and derivation operands scaled by ``scale`` (the checks are
    linear in each operand)."""
    d, N = alg.d, alg.cap
    jordan, derivation, lemma, expansion = (
        (alg.check_jordan, alg.check_d_derivation, alg.check_lemma_derivation,
         alg.check_assoc_expansion) if row_checks else
        (lambda a, x: reference_jordan(alg, a, x),
         lambda ai, bi, x, y: reference_d_derivation(alg, ai, bi, x, y),
         lambda c, a, b, n: reference_lemma(alg, c, a, b, n),
         lambda c, a, b, n: reference_expansion(alg, c, a, b, n)))
    out = {}
    for a in range(d):
        for v in alg.monomials_upto(N - 2):
            out["jordan", a, v] = jordan(scale * alg.generator(a), scale * alg.monomial(v))
    # x of degree <= 1 against every y the budget leaves, for each (a, b)
    for ai, bi in iproduct(range(d), repeat=2):
        for vx in alg.monomials_upto(1):
            for vy in alg.monomials_upto(N - 2 - sum(vx)):
                out["derivation", ai, bi, vx, vy] = derivation(
                    ai, bi, scale * alg.monomial(vx), scale * alg.monomial(vy))
    for c, a, b in iproduct(range(d), repeat=3):
        for n in range(N - 1):
            out["lemma", c, a, b, n] = lemma(c, a, b, n)
            out["expansion", c, a, b, n] = expansion(c, a, b, n)
    return out


@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
def test_row_checks_match_element_checks(name, cap):
    alg = algebra(name, cap)
    rows = verdicts(alg, True)
    assert rows == verdicts(alg, False)
    # every bundled system satisfies the identities
    assert all(rows.values())


@pytest.mark.parametrize("name, cap, pair", [("s2", 6, (2, 1)), ("sl2_lts", 4, (3, 1))],
                         ids=["s2-N6", "sl2_lts-N4"])
def test_row_checks_match_element_checks_on_a_corrupted_table(name, cap, pair):
    # a fresh algebra whose product of two generators is halved before the
    # first check: both versions multiply through the same wrong table
    alg = EnvelopingAlgebra(load(name), cap)
    den, row = alg.basis_product(*pair)
    alg._products[pair[0]][pair[1]] = (2 * den, row)
    rows = verdicts(alg, True)
    assert rows == verdicts(alg, False)
    assert not all(rows.values())


def corrupted_s2():
    # a fresh s2 algebra whose product e f is divided by 3
    alg = EnvelopingAlgebra(load("s2"), 4)
    e, f = alg.exp_index[1, 0], alg.exp_index[0, 1]
    den, row = alg.basis_product(e, f)
    alg._products[e][f] = 3 * den, row
    return alg


@pytest.mark.parametrize("suite, failure", [("jordan", "jordan_operator_identity"),
                                            ("lemma", "lemma_residue"),
                                            ("expansion", "associator_expansion")])
def test_identity_suites_name_their_failures_on_a_corrupted_table(suite, failure):
    # e f divided by 3 before the first check: every failing case gets the
    # suite's named record, and the verdict over all cases fails
    alg = corrupted_s2()
    rep = getattr(suites, f"suite_{suite}")(alg.system, lambda cap: alg, 4, 0)
    failed = [r["id"] for r in rep.records if r["verdict"] == "fail"]
    # the named failing cases, then the failing summary
    assert failed[:-1] and set(failed[:-1]) == {failure}
    assert failed[-1] == rep.records[-1]["id"] == f"{suite}_exhaustive"


# -- the basis-operand branch: a basis operand reads its shared table row ---------

def operand_rows(alg, scale):
    """``_basis_associator(i, y, k)`` and ``_d_rows(a, b, y)`` for every
    basis monomial m within the cap, with y = ``(scale, {m: scale})``:
    scale 1 is the basis row of m, which takes the branch; another scale
    is the same element, which takes the general path."""
    out = {}
    for m in range(alg.nf_size):
        y, room = (scale, {m: scale}), alg.cap - alg.nf_degree[m]
        for i in range(alg.count_upto(room)):
            for k in range(alg.count_upto(room - alg.nf_degree[i])):
                out["associator", i, m, k] = alg._basis_associator(i, y, k)
        if room >= 2:
            for a, b in iproduct(range(1, alg.d + 1), repeat=2):
                out["d", a, b, m] = alg._d_rows(a, b, y)
    return out


@pytest.mark.parametrize("name, cap", CASES + [("s2-corrupted", 4)],
                         ids=CASE_IDS + ["s2-corrupted-N4"])
def test_basis_operand_branch_matches_the_general_path(name, cap):
    # scale 1 takes the branch wherever an operand is a basis monomial;
    # scale 2 takes the general path everywhere
    alg = corrupted_s2() if name == "s2-corrupted" else algebra(name, cap)
    rows = verdicts(alg, True)
    assert verdicts(alg, True, scale=2) == rows
    assert all(rows.values()) != (name == "s2-corrupted")
    basis, general = operand_rows(alg, 1), operand_rows(alg, 2)
    assert basis.keys() == general.keys()
    for key, row in basis.items():
        assert same_row(row, general[key]), key


scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def elements(draw, alg, max_degree):
    support = range(alg.count_upto(max_degree))
    return Element(alg, draw(st.dictionaries(st.sampled_from(support), scalars,
                                             min_size=1, max_size=4)))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_row_checks_match_element_checks_on_sums(data):
    # sums of monomials with fractional coefficients, whose products cancel
    alg = algebra("sl2_lts", 4)
    a, x = data.draw(elements(alg, 1)), data.draw(elements(alg, 2))
    assert alg.check_jordan(a, x) == reference_jordan(alg, a, x)
    x, y = data.draw(elements(alg, 1)), data.draw(elements(alg, 1))
    ai, bi = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    assert (alg.check_d_derivation(ai, bi, x, y)
            == reference_d_derivation(alg, ai, bi, x, y))


def test_lemma_degree_ignores_cancelled_top_degree_entries():
    # the residue keeps the entries its terms cancel: the top degree n + 2
    # always cancels, and the check must read only the nonzero entries; at
    # sl2_lts N=5 this residue is -4 times a generator, of degree n - 2
    alg = algebra("sl2_lts", 5)
    c, a, b, n = 0, 1, 0, 3
    _, w = alg._lemma_residue(c, a, b, n)
    assert any(not v and alg.nf_degree[k] == n + 2 for k, v in w.items())
    assert [alg.nf_degree[k] for k, v in w.items() if v] == [n - 2]
    assert alg.check_lemma_derivation(c, a, b, n)
    assert reference_lemma(alg, c, a, b, n)


def test_row_checks_keep_their_budget_errors(s2_n4):
    e = s2_n4.generator(0)
    with pytest.raises(DegreeBudgetExceeded):
        s2_n4.check_jordan(e, s2_n4.power(1, 4))
    with pytest.raises(DegreeBudgetExceeded):
        s2_n4.check_d_derivation(0, 1, e, s2_n4.power(1, 2))
    with pytest.raises(DegreeBudgetExceeded):
        s2_n4.check_lemma_derivation(0, 1, 0, 3)
    with pytest.raises(DegreeBudgetExceeded):
        s2_n4.check_assoc_expansion(0, 1, 0, 3)
