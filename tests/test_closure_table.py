"""Differential tests of the basis-product table and the right ideal closure
against the slow paths they replace.

The references are kept here as they were before the table: a product
that grafts the representative trees of every pair of terms and reduces
the graft, and a right ideal closure that runs to its full fixpoint
through that product, with no early exit.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from constructions import direct_sum
from fraction_hopf import tensor_mul
from test_lts_sparse import rebased_systems

from triplex import cli, envelope, lts, suites
from triplex.envelope import (Element, EnvelopingAlgebra, IdealClosure,
                              representative_tree)
from triplex.exactlin import ONE, Echelon, accumulate, echelonize, integer_row
from triplex.freealg import DegreeBudgetExceeded, graft
from triplex.lts import (associative_envelope, generated_ideal, lie_closure,
                         r_generators)

SYSTEMS = ("abelian3", "s2", "s2_plus_s2", "sl2", "sl2_lts", "sl3_sym")
CASES = [(name, cap) for name in SYSTEMS for cap in (2, 3, 4)] + [("s2", 6)]
CASE_IDS = [f"{name}-N{cap}" for name, cap in CASES]


@lru_cache(maxsize=None)
def algebra(name, cap):
    path = resources.files("triplex") / "data" / f"{name}.json"
    return EnvelopingAlgebra(cli._as_lts(cli.load_system(str(path))), cap)


# -- references ----------------------------------------------------------------

def reference_mul(alg, x, y):
    """The product through a graft and a tree reduction per pair of terms."""
    if x.degree() + y.degree() > alg.cap:
        raise DegreeBudgetExceeded("product exceeds the cap")
    out = {}
    for i, a in x.coeffs.items():
        tx = representative_tree(alg.exponents[i])
        for j, b in y.coeffs.items():
            ty = representative_tree(alg.exponents[j])
            accumulate(out, alg.reduce_tree(graft(tx, ty)).coeffs, a * b)
    return Element(alg, out)


def reference_closure(alg, gens):
    """The full right-multiplication fixpoint, with no early exit."""
    N = alg.cap
    order = sorted(range(alg.nf_size),
                   key=lambda i: (-sum(alg.exponents[i]), alg.exponents[i]))
    elim_of_nf = {nf: e for e, nf in enumerate(order)}
    ech = Echelon()

    def insert(x, out):
        row = ech.insert({elim_of_nf[k]: a for k, a in x.coeffs.items()})
        if row is not None:
            out.append(Element(alg, {order[c]: a for c, a in row.items()}))

    work = []
    for g in gens:
        insert(g, work)
    while work:
        new = []
        for v in work:
            for n in range(1, N - v.degree() + 1):
                for exps in alg.exponents:
                    if sum(exps) == n:
                        insert(reference_mul(alg, v, alg.monomial(exps)), new)
        work = new
    subspace = echelonize([{order[c]: a for c, a in row.items()}
                           for row in ech.rref_rows()], alg.nf_size)
    per_degree = [sum(1 for p in ech.pivots() if sum(alg.exponents[order[p]]) <= k)
                  for k in range(N + 1)]
    contains_one = subspace.member({alg.exp_index[(0,) * alg.d]: ONE})
    t_span = echelonize([{alg.exp_index[v]: ONE}
                         for v in alg.exponents if sum(v) == 1], alg.nf_size)
    safe = N - max(g.degree() for g in gens)
    stabilization = None
    for n0 in range(safe + 1):
        if all(subspace.member({alg.exp_index[v]: ONE})
               for v in alg.exponents if n0 <= sum(v) <= safe):
            stabilization = n0
            break
    meets_t = (subspace.dim + t_span.dim
               - echelonize(subspace.rows + t_span.rows, alg.nf_size).dim)
    return IdealClosure(subspace, per_degree, contains_one, meets_t, stabilization, safe)


def assert_same_closure(alg, gens):
    fast, slow = alg.right_ideal_closure(gens), reference_closure(alg, gens)
    assert fast.subspace == slow.subspace
    assert fast.per_degree_dims == slow.per_degree_dims
    assert fast.contains_one == slow.contains_one
    assert fast.meets_t_dim == slow.meets_t_dim
    assert fast.stabilization_degree == slow.stabilization_degree
    assert fast.safe_window == slow.safe_window


# -- random elements -------------------------------------------------------------

scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def elements(draw, alg, counit, max_degree=2):
    """A nonzero element of degree <= max_degree (and < the cap); ``counit``
    is True for a nonzero constant term, False for none, None for either."""
    support = range(1, alg.count_upto(min(max_degree, alg.cap - 1)))
    coeffs = draw(st.dictionaries(st.sampled_from(support), scalars,
                                  min_size=0 if counit else 1, max_size=4))
    if counit or (counit is None and draw(st.booleans())):
        coeffs[0] = draw(scalars)
    return Element(alg, coeffs)


@st.composite
def generator_sets(draw, alg, kind):
    if kind == "mixed":
        gens = [draw(elements(alg, False)), draw(elements(alg, True))]
        gens += draw(st.lists(elements(alg, None), max_size=1))
        return draw(st.permutations(gens))
    return draw(st.lists(elements(alg, kind == "counit_nonzero"), min_size=1, max_size=3))


closure_settings = settings(max_examples=4, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


# -- the product table -------------------------------------------------------------

@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
def test_basis_products_match_grafted_reductions(name, cap):
    alg = algebra(name, cap)
    for i, vx in enumerate(alg.exponents):
        for j, vy in enumerate(alg.monomials_upto(cap - sum(vx))):
            expected = alg.reduce_tree(graft(representative_tree(vx),
                                             representative_tree(vy)))
            den, row = alg.basis_product(i, j)
            assert {k: Fraction(b, den) for k, b in row.items()} == expected.coeffs
            assert den == integer_row(expected.coeffs)[0]
    top = alg.nf_size - 1
    with pytest.raises(DegreeBudgetExceeded, match="exceeds cap"):
        alg.basis_product(top, 1)
    assert 1 not in alg._products[top]


def test_each_level_symbol_is_reduced_once(monkeypatch):
    # the build, the product table and reduce_tree share one row per tree, so
    # reading every table tree of s2 at N=6 reduces the symbol of each of its
    # 155 representative pairs once
    calls, reduce = [], Echelon.reduce
    monkeypatch.setattr(Echelon, "reduce",
                        lambda ech, vec: calls.append((id(ech), *vec)) or reduce(ech, vec))
    alg = EnvelopingAlgebra(algebra("s2", 6).system, 6)
    for t in alg.table.trees:
        alg.reduce_tree(t)
    assert len(calls) == len(set(calls)) == 155


@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mul_and_tensor_products_match_reference(name, cap, data):
    alg = algebra(name, cap)
    x = data.draw(elements(alg, None, max_degree=cap // 2))
    y = data.draw(elements(alg, None, max_degree=cap // 2))
    assert x * y == reference_mul(alg, x, y)
    # tensor products read the table legwise
    keys = range(alg.count_upto(cap // 2))
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    s, t = (data.draw(st.dictionaries(pairs, scalars, max_size=3)) for _ in range(2))
    expected = {}
    for (l1, r1), a in s.items():
        for (l2, r2), b in t.items():
            left = reference_mul(alg, alg.basis(l1), alg.basis(l2))
            right = reference_mul(alg, alg.basis(r1), alg.basis(r2))
            accumulate(expected, {(vl, vr): p * q for vl, p in left.coeffs.items()
                                  for vr, q in right.coeffs.items()}, a * b)
    assert tensor_mul(alg, s, t) == expected


@lru_cache(maxsize=None)
def fractional_pairs(name, cap):
    """The pairs of basis monomials whose table row has a denominator other
    than 1: their products sum over an lcm larger than 1."""
    alg = algebra(name, cap)
    return [(i, j) for i, vx in enumerate(alg.exponents)
            for j in range(alg.count_upto(cap - sum(vx)))
            if alg.basis_product(i, j)[0] != 1]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_products_match_reference_on_fractional_rows(data):
    alg = algebra("sl3_sym", 4)
    pairs = fractional_pairs("sl3_sym", 4)
    assert len(pairs) == 130
    vx, vy = data.draw(st.sampled_from(pairs))
    deg = alg.nf_degree
    # non-monomial factors with fractional coefficients, one term on each
    # side forming a fractional row
    x = data.draw(elements(alg, None, max_degree=deg[vx]))
    y = data.draw(elements(alg, None, max_degree=deg[vy]))
    x = Element(alg, {**x.coeffs, vx: data.draw(scalars)})
    y = Element(alg, {**y.coeffs, vy: data.draw(scalars)})
    assert x * y == reference_mul(alg, x, y)
    # tensors whose left legs multiply to vx vy, and right legs to vy vx
    upto = lambda k: range(alg.count_upto(deg[k]))
    legs = lambda a, b: st.tuples(st.sampled_from(upto(a)), st.sampled_from(upto(b)))
    s = {**data.draw(st.dictionaries(legs(vx, vy), scalars, max_size=2)),
         (vx, vy): data.draw(scalars)}
    t = {**data.draw(st.dictionaries(legs(vy, vx), scalars, max_size=2)),
         (vy, vx): data.draw(scalars)}
    expected = {}
    for (l1, r1), a in s.items():
        for (l2, r2), b in t.items():
            left = reference_mul(alg, alg.basis(l1), alg.basis(l2))
            right = reference_mul(alg, alg.basis(r1), alg.basis(r2))
            accumulate(expected, {(vl, vr): p * q for vl, p in left.coeffs.items()
                                  for vr, q in right.coeffs.items()}, a * b)
    assert tensor_mul(alg, s, t) == expected


def test_products_over_the_cap_still_raise():
    alg = algebra("s2", 3)
    x = alg.power(0, 2)
    with pytest.raises(DegreeBudgetExceeded, match="product degree 2\\+2 exceeds cap 3"):
        x * x
    tx = {(alg.exp_index[(2, 0)], 0): ONE}
    with pytest.raises(DegreeBudgetExceeded, match="product degree 2\\+2 exceeds cap 3"):
        tensor_mul(alg, tx, tx)


@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_counit_is_multiplicative(name, cap, data):
    # the closure's early exit rests on this
    alg = algebra(name, cap)
    x = data.draw(elements(alg, None, max_degree=cap // 2))
    y = data.draw(elements(alg, None, max_degree=cap - x.degree()))
    assert (x * y).counit() == x.counit() * y.counit()


# -- the right ideal closure ---------------------------------------------------------

@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
def test_closure_of_generators_and_monomials_matches_reference(name, cap):
    alg = algebra(name, cap)
    for g in range(alg.d):
        assert_same_closure(alg, [alg.generator(g)])
    assert_same_closure(alg, [alg.monomial(v) for v in alg.exponents[1:]])


@pytest.mark.parametrize("kind", ["augmentation", "counit_nonzero", "mixed"])
@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
@closure_settings
@given(data=st.data())
def test_closure_of_random_sets_matches_reference(name, cap, kind, data):
    alg = algebra(name, cap)
    assert_same_closure(alg, data.draw(generator_sets(alg, kind)))


@pytest.mark.parametrize("cap", (2, 3, 4))
def test_closure_meeting_filtration_one_outside_t_without_one(cap):
    # the envelope of an abelian system is the polynomial ring, where 1 + e
    # has no inverse below the cap: the closure meets filtration(1) in the
    # line of 1 + e (and of f and g when they are generators) but does not
    # contain 1, although e, f and g span T modulo the unit
    alg = algebra("abelian3", cap)
    e, f, g = (alg.generator(i) for i in range(3))
    for gens, per_degree_1, meets_t in (([alg.one() + e], 1, 0),
                                        ([alg.one() + e, f], 2, 1),
                                        ([alg.one() + e, f, g], 3, 2)):
        ic = alg.right_ideal_closure(gens)
        assert (ic.contains_one, ic.per_degree_dims[1], ic.meets_t_dim) == (
            False, per_degree_1, meets_t)
        assert_same_closure(alg, gens)


def reference_seeded_elements(alg, seed, count, augmentation):
    """mainthm's samples as sums of ``Element``s, one addition per nonzero
    coefficient, drawing the coefficients in the same order."""
    rng = random.Random(seed)
    monomials = [v for v in alg.exponents if 1 <= sum(v) <= 2]
    out = []
    while len(out) < count:
        x = alg.zero()
        for v in monomials:
            c = rng.randint(-3, 3)
            if c:
                x = x + Fraction(c) * alg.monomial(v)
        if not augmentation:
            x = x + Fraction(rng.choice([1, 2, 3])) * alg.one()
        if not x.is_zero():
            out.append(x)
    return out


@pytest.mark.parametrize("name, cap", [(name, 4) for name in SYSTEMS] + [("s2", 6)])
def test_seeded_elements_match_the_element_sums(name, cap):
    # mainthm's caps: 4, and s2's default 6
    alg = algebra(name, cap)
    for seed in range(6):
        for augmentation in (True, False):
            got = suites._seeded_elements(alg, seed, 20, augmentation)
            want = reference_seeded_elements(alg, seed, 20, augmentation)
            # the same samples, with their terms in the same order
            assert ([list(x.coeffs.items()) for x in got]
                    == [list(x.coeffs.items()) for x in want]), (seed, augmentation)


def test_mainthm_fails_a_closure_outside_the_augmentation_ideal(monkeypatch):
    # a closure spanned by 1 + e and f contains no 1 and meets T: only the
    # containment in the augmentation ideal rejects it
    alg = algebra("s2", 4)
    e, f = alg.generator(0), alg.generator(1)
    span = echelonize([x.coeffs for x in (alg.one() + e, f)], alg.nf_size)
    fake = IdealClosure(span, [0, 2, 2, 2, 2], False, 1, None, 3)
    monkeypatch.setattr(alg, "right_ideal_closure", lambda gens: fake)
    rep = suites.suite_mainthm(alg.system, lambda cap: alg, 4, 0)
    verdicts = [r["verdict"] for r in rep.records if r["id"] == "closure_of_generator"]
    assert verdicts == ["fail", "fail"]


def test_mainthm_fails_a_proper_closure_below_the_augmentation_ideal(monkeypatch):
    # s2 is simple, so every proper closure must be the augmentation ideal:
    # the span of T is inside it, holds no 1 and meets T, and still fails
    alg = algebra("s2", 4)
    span = echelonize([alg.generator(g).coeffs for g in range(alg.d)], alg.nf_size)
    fake = IdealClosure(span, [0, 2, 2, 2, 2], False, 2, None, 3)
    monkeypatch.setattr(alg, "right_ideal_closure", lambda gens: fake)
    rep = suites.suite_mainthm(alg.system, lambda cap: alg, 4, 0)
    verdicts = {r["verdict"] for r in rep.records
                if r["id"] in ("closure_of_generator", "closure_of_augmentation_element")}
    assert verdicts == {"fail"}


def test_mainthm_generator_closures_meet_the_ideal_they_generate():
    # s2_plus_s2 is not simple: each generator generates its s2 summand, a
    # 2-dim ideal of T, and its right ideal closure meets T in all of it
    alg = algebra("s2_plus_s2", 4)
    ops = r_generators(alg.system)
    assert [generated_ideal(Echelon(), [{g: ONE}], ops, alg.d).dim
            for g in range(alg.d)] == [2] * 4
    rep = suites.suite_mainthm(alg.system, lambda cap: alg, 4, 0)
    records = [r for r in rep.records if r["id"] == "closure_of_generator"]
    assert {r["verdict"] for r in records} == {"pass"}
    assert [r["params"]["meets_t"] for r in records] == [2] * 4


def test_mainthm_fails_a_generator_closure_short_of_its_ideal(monkeypatch):
    # a closure spanned by the generator alone meets T in one dimension,
    # one short of the s2 summand it generates; it holds no 1 and meets T,
    # so only the ideal's dimension rejects it
    alg = algebra("s2_plus_s2", 4)
    span = echelonize([alg.generator(0).coeffs], alg.nf_size)
    fake = IdealClosure(span, [0, 1, 1, 1, 1], False, 1, None, 3)
    monkeypatch.setattr(alg, "right_ideal_closure", lambda gens: fake)
    rep = suites.suite_mainthm(alg.system, lambda cap: alg, 4, 0)
    verdicts = {}
    for r in rep.records:
        verdicts.setdefault(r["id"], set()).add(r["verdict"])
    assert verdicts["closure_of_generator"] == {"fail"}
    assert verdicts["closure_of_augmentation_element"] == {"pass"}


def counting_inserts(monkeypatch):
    """The list of vectors that right ideal closures insert into their own
    echelons from now on (``generated_ideal`` fills the T-ideal's)."""
    inserts = []

    class Counting(Echelon):
        def _insert(self, work):
            if sys._getframe(1).f_code.co_name == "_close":
                inserts.append(dict(work))
            return super()._insert(work)

    monkeypatch.setattr(envelope, "Echelon", Counting)
    return inserts


def test_closure_stops_at_the_augmentation_ceiling(monkeypatch):
    alg = algebra("s2_plus_s2", 4)
    gens = [alg.monomial(v) for v in alg.exponents[1:]]
    # the closure of T is primed first, so that only this closure's inserts
    # are counted
    assert alg.closure_of_t().exit == "ceiling"
    inserts = counting_inserts(monkeypatch)
    ic = alg.right_ideal_closure(gens)
    # the generators come in basis order, degree 1 first: f2 generates the
    # second s2 summand as an ideal of T, e2 lies in it, and f1 completes T,
    # so the closure stops after three inserts, before any product
    assert (len(inserts), ic.exit) == (3, "t")
    assert ic.subspace == alg.augmentation_ideal()
    # without the T-ideal exit every monomial of positive degree is
    # accepted, and then the span is the augmentation ideal: no product is
    # formed
    inserts.clear()
    ic = alg._close(gens, t_exit=False)
    assert (len(inserts), ic.exit) == (alg.nf_size - 1, "ceiling")
    assert ic.subspace == alg.augmentation_ideal()


# -- the early exits ---------------------------------------------------------------

@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
def test_closure_of_t_is_the_augmentation_ideal(name, cap):
    # the T-ideal exit is in force on every bundled case: check its premise
    # against the reference fixpoint
    alg = algebra(name, cap)
    ic = alg.closure_of_t()
    slow = reference_closure(alg, [alg.generator(g) for g in range(alg.d)])
    assert ic.subspace == slow.subspace == alg.augmentation_ideal()
    assert ic.exit == "ceiling"
    assert_same_closure(alg, [alg.generator(g) for g in range(alg.d)])


def test_counit_nonzero_generator_with_t_in_its_span_exits_by_the_unit():
    # 1 + e and f put d = 2 pivots on the degree-1 columns, but 1 + e has a
    # unit term: it stays out of the T-rows, f alone generates T, and the
    # closure holds 1
    alg = algebra("s2", 4)
    e, f = alg.generator(0), alg.generator(1)
    gens = [alg.one() + e, f]
    ic = alg.right_ideal_closure(gens)
    assert (ic.subspace.dim, ic.contains_one, ic.exit) == (15, True, "unit")
    assert ic.subspace == alg.filtration(4)
    assert_same_closure(alg, gens)


def test_counit_nonzero_generator_exits_once_its_products_generate_t(monkeypatch):
    alg = algebra("s2", 4)
    gens = [alg.one() + alg.generator(0)]
    alg.closure_of_t()
    inserts = counting_inserts(monkeypatch)
    ic = alg.right_ideal_closure(gens)
    # 1 + e stays out of the echelon, and its products enter it: the tenth
    # insert is a row in T, which generates T (s2 is simple), so the
    # closure, which holds 1 + e, is everything
    assert (len(inserts), ic.exit) == (10, "unit")
    assert ic.subspace == alg.filtration(4)
    assert_same_closure(alg, gens)


def test_closure_of_all_positive_monomials_exits_by_the_t_ideal(monkeypatch):
    # the generators come first, in basis order, and the closure stops at
    # the first one that completes the ideal of T they generate (from cap 3;
    # below it, their span), before any product is formed
    inserts = counting_inserts(monkeypatch)
    for name, cap in CASES:
        alg = algebra(name, cap)
        gens = [alg.monomial(v) for v in alg.exponents[1:]]
        ops, ideal = r_generators(alg.system) if cap >= 3 else [], Echelon()
        first = next(k for k, g in enumerate(gens[:alg.d], 1) if generated_ideal(
            ideal, [{alg.d - max(g.coeffs): ONE}], ops, alg.d).dim == alg.d)
        alg.closure_of_t()
        inserts.clear()
        assert alg.right_ideal_closure(gens).exit == "t"
        assert len(inserts) == first
        assert_same_closure(alg, gens)


def test_closure_without_t_saturates():
    # s2_plus_s2 is not simple: a generator's closure meets T in its own
    # summand only and never reaches the ceiling
    alg = algebra("s2_plus_s2", 4)
    ic = alg.right_ideal_closure([alg.generator(0)])
    assert (ic.exit, ic.meets_t_dim, ic.subspace.dim) == ("saturated", 2, 55)
    assert_same_closure(alg, [alg.generator(0)])


def test_the_exit_stays_out_of_the_ideal_text(capsys):
    assert cli.main(["ideal", str(resources.files("triplex") / "data" / "s2.json"),
                     "-N", "4", "--right", "1+e"]) == 0
    assert capsys.readouterr().out == (
        "right ideal closure: dim 15 / 15\n"
        "per-degree dims: [1, 3, 6, 10, 15]\n"
        "contains 1: True\n"
        "intersection with T: dim 2\n"
        "stabilization degree: 0 (safe window 3)\n")


def test_a_short_closure_of_t_fails_mainthm_and_turns_the_t_exit_off(monkeypatch):
    alg = algebra("s2", 4)
    aug = alg.augmentation_ideal()

    def stable_records():
        rep = suites.suite_mainthm(alg.system, lambda cap: alg, 4, 0)
        return [(r["params"], r["verdict"]) for r in rep.records
                if r["id"] == "augmentation_closure_stable"]

    assert stable_records() == [({"dim": aug.dim, "expected": aug.dim}, "pass")]
    # a closure of T one dimension short of the augmentation ideal
    span = echelonize([{k: ONE} for k in range(1, alg.nf_size - 1)], alg.nf_size)
    small = IdealClosure(span, [0, 2, 5, 9, 13], False, 2, None, 3)
    monkeypatch.setattr(alg, "closure_of_t", lambda: small)
    assert stable_records() == [({"dim": aug.dim - 1, "expected": aug.dim}, "fail")]
    # the T-ideal exit rests on the closure of T: without it the closure of
    # every monomial of positive degree runs to the ceiling
    ic = alg.right_ideal_closure([alg.monomial(v) for v in alg.exponents[1:]])
    assert (ic.exit, ic.subspace) == ("ceiling", aug)


# -- the T-ideal exit: rebased systems, s2^3, the premise and the kept generators -----

@pytest.mark.parametrize("kind", ["augmentation", "counit_nonzero", "mixed"])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=rebased_systems(), data=st.data())
def test_closure_of_random_sets_on_rebased_systems_matches_reference(kind, system, data):
    alg = EnvelopingAlgebra(system, 4)
    assert_same_closure(alg, data.draw(generator_sets(alg, kind)))


@lru_cache(maxsize=None)
def s2_cubed():
    s2 = algebra("s2", 2).system
    return EnvelopingAlgebra(direct_sum(direct_sum(s2, s2), s2), 4)


def test_closure_of_generators_on_s2_cubed_matches_reference():
    # s2^3 is not simple: each generator's closure saturates in its summand
    alg = s2_cubed()
    for g in range(alg.d):
        assert alg.right_ideal_closure([alg.generator(g)]).exit == "saturated"
        assert_same_closure(alg, [alg.generator(g)])


@pytest.mark.parametrize("kind", ["augmentation", "counit_nonzero", "mixed"])
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_closure_of_random_sets_on_s2_cubed_matches_reference(kind, data):
    alg = s2_cubed()
    assert_same_closure(alg, data.draw(generator_sets(alg, kind)))


def test_a_failed_premise_leaves_the_t_rows_unclosed():
    # a fresh algebra whose product of two generators is doubled in place,
    # in the row that the product table and reduce_tree share: the
    # associator no longer gives 2(t,a,b) = -[t,a,b], so the T-rows' ideal
    # is their span, and every closure still equals the reference fixpoint
    alg = EnvelopingAlgebra(algebra("s2", 4).system, 4)
    _, row = alg.basis_product(1, 1)
    for k in row:
        row[k] *= 2
    assert alg.closure_of_t().subspace == alg.augmentation_ideal()
    gens = [[alg.generator(g)] for g in range(alg.d)] + [[alg.one() + alg.generator(0)]]
    for x in gens:
        assert_same_closure(alg, x)
    assert alg._r_ops == []
    # on the sound algebra the T-rows' ideal is closed under the R_{b,c}
    alg = algebra("s2", 4)
    alg.right_ideal_closure([alg.generator(0)])
    assert alg._r_ops == r_generators(alg.system) != []


@pytest.mark.parametrize("name, cap, gens", [
    ("s2", 2, lambda a: [a.one() + a.power(0, 2), a.power(0, 2)]),
    ("abelian3", 3, lambda a: [a.one() + a.generator(0) + a.power(1, 2), a.power(1, 2)])])
def test_a_kept_generator_whose_top_degree_falls_has_its_own_products(name, cap, gens):
    # the generator of nonzero counit enters the saturated echelon as 1 (s2)
    # or 1 + e (abelian3), of lower degree than itself: only the products
    # of that row put the closure past span(gens) + span(products)
    alg = algebra(name, cap)
    ic = alg.right_ideal_closure(gens(alg))
    assert ic.exit == "saturated"
    assert ic.contains_one == (name == "s2")
    assert_same_closure(alg, gens(alg))


# -- stored rows reduced only up to their pivot change no closure -----------------

def fully_reducing_insert(self, work):
    """``Echelon._insert`` as it was before its rows were reduced only up to
    their pivot: the stored row is the whole residue, made primitive."""
    finals, scale, _ = self._eliminate(1, work)
    if not finals:
        return None
    ints = [(c, w * (scale // s)) for c, w, s in finals]
    g = gcd(*(w for _, w in ints))
    g = -g if ints[0][1] < 0 else g
    row = [(c, w // g) for c, w in ints]
    self._rows[row[0][0]] = (row[0][1], row[1:])
    return dict(row)


def counting_echelon(insert):
    """An ``Echelon`` whose inserts (public or the closures' own) run
    ``insert``, and the list [inserts, accepted] that they count."""
    counts = [0, 0]

    class Counted(Echelon):
        def _insert(self, work):
            row = insert(self, work)
            counts[0] += 1
            counts[1] += row is not None
            return row

    return Counted, counts


@pytest.mark.parametrize("name", SYSTEMS + ("s2^3",))
def test_closures_match_the_fully_reducing_insert(name, monkeypatch):
    # every closure of mainthm at seeds 0 and 1 (each IdealClosure field,
    # exit included), and the lts span closures, give the same result and
    # insert counts under both inserts
    system = (s2_cubed() if name == "s2^3" else algebra(name, 4)).system
    runs = []
    for insert in (Echelon._insert, fully_reducing_insert):
        kind, counts = counting_echelon(insert)
        monkeypatch.setattr(envelope, "Echelon", kind)
        monkeypatch.setattr(lts, "Echelon", kind)
        alg = EnvelopingAlgebra(system, 4)
        out = []

        def close(gens=None):
            counts[:] = [0, 0]
            ic = alg.closure_of_t() if gens is None else alg.right_ideal_closure(gens)
            out.append((ic, tuple(counts)))

        close()
        for g in range(alg.d):
            close([alg.generator(g)])
        for seed in (0, 1):
            for x in suites._seeded_elements(alg, seed, 20, augmentation=True):
                close([x])
            for x in suites._seeded_elements(alg, seed + 1, 20, augmentation=False):
                close([x])
        assert all(inserts for _, (inserts, _) in out)
        ops = r_generators(system)
        out += [lie_closure(ops, alg.d), associative_envelope(ops, alg.d)]
        runs.append(out)
    assert runs[0] == runs[1]


# -- the closure's own fast paths against the routes they replace ---------------------

@lru_cache(maxsize=None)
def rational_sl3_sym():
    # table rows with denominators other than 1 and 2
    from test_lts_sparse import BUNDLED, rational_scale, scaled
    return EnvelopingAlgebra(scaled(BUNDLED["sl3_sym"], rational_scale(8)), 4)


PRODUCT_CASES = SYSTEMS + ("s2^3", "sl3_sym-rational")


def product_algebra(name):
    return {"s2^3": s2_cubed, "sl3_sym-rational": rational_sl3_sym}.get(
        name, lambda: algebra(name, 4))()


def same_line(u, v):
    """Whether the int dicts u and v are positive multiples of each other."""
    if u.keys() != v.keys() or not u:
        return u == v
    k = next(iter(u))
    ratio = Fraction(u[k], v[k])
    return ratio > 0 and all(u[c] == ratio * v[c] for c in u)


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_right_products_match_the_mul_basis_route(name):
    # the old route: each row mapped to normal-form indices, multiplied by
    # mul_basis, and mapped back to closure columns
    alg = product_algebra(name)
    nf, col, deg = alg._closure_nf, alg._closure_col, alg.nf_degree
    rng = random.Random(name)
    for _ in range(12):
        top = rng.randrange(1, alg.count_upto(2))
        support = [top] + rng.sample(range(top), min(top, rng.randrange(4)))
        row = {col[k]: rng.choice([-3, -2, -1, 1, 2, 5]) for k in support}
        got = list(alg._right_products([dict(row)]))
        want = []
        for m in range(1, alg.count_upto(alg.cap - deg[top])):
            _, out = alg.mul_basis(m, (1, {nf[c]: a for c, a in row.items()}), right=True)
            want.append({col[k]: b for k, b in out.items() if b})
        assert len(got) == len(want)
        assert all(all(v.values()) for v in got)
        assert all(same_line(u, v) for u, v in zip(got, want))


vectors = st.dictionaries(st.integers(0, 9), st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, max_size=12))
def test_the_closures_insert_matches_the_public_insert(vecs):
    public, own = Echelon(), Echelon()
    for vec in vecs:
        before = dict(vec)
        _, work = integer_row({c: Fraction(a) for c, a in vec.items() if a})
        row = public.insert(vec)
        assert vec == before and list(vec.items()) == list(before.items())
        assert own._insert(work) == row
        assert own._rows == public._rows and own.pivots() == public.pivots()
    # Fractions and zero entries, left as they are
    vec = {0: Fraction(1, 2), 1: 0, 3: Fraction(-2, 3)}
    assert Echelon().insert(vec) == {0: 3, 3: -4}
    assert vec == {0: Fraction(1, 2), 1: 0, 3: Fraction(-2, 3)}


def coordinate_fields(alg, units, safe):
    """per_degree_dims, contains_one and stabilization_degree of the span of
    the closure columns ``units``, through an explicit coordinate ``Echelon``."""
    ech, deg = Echelon(units), alg.nf_degree
    nf, col = alg._closure_nf, alg._closure_col
    per_degree = [sum(1 for p in ech.pivots() if deg[nf[p]] <= k) for k in range(alg.cap + 1)]
    top = next((deg[k] for k in reversed(range(alg.count_upto(safe)))
                if not ech.contains({col[k]: 1})), -1)
    return per_degree, ech.contains({col[0]: 1}), top + 1 if top < safe else None


@pytest.mark.parametrize("name, cap", CASES, ids=CASE_IDS)
def test_exits_read_the_fields_of_an_explicit_echelon(name, cap):
    alg = algebra(name, cap)
    gens = {"t": [alg.monomial(v) for v in alg.exponents[1:]],
            "unit": [alg.one() + alg.generator(0)]}
    if cap > 1:
        gens["t-deg-2"] = [alg.generator(0) * alg.generator(0)] + gens["t"][:alg.d]
    seen = {alg.closure_of_t().exit}
    closures = [alg.closure_of_t()] + [alg.right_ideal_closure(g) for g in gens.values()]
    for ic in closures:
        seen.add(ic.exit)
        if ic.exit == "saturated":
            continue
        units = range(alg.nf_size - (ic.exit != "unit"))
        assert (ic.per_degree_dims, ic.contains_one, ic.stabilization_degree) == (
            coordinate_fields(alg, units, ic.safe_window))
        assert ic.meets_t_dim == alg.d
    # abelian3 is not simple: its generators' closures saturate, as 1 + e's
    # do at cap 2
    assert "ceiling" in seen and (name == "abelian3" or "t" in seen and (
        "unit" in seen or cap == 2))


@pytest.mark.parametrize("right, text", [
    ("1+e1", "right ideal closure: dim 70 / 70\nper-degree dims: [1, 5, 15, 35, 70]\n"
             "contains 1: True\nintersection with T: dim 4\n"
             "stabilization degree: 0 (safe window 3)\n"),
    ("e1", "right ideal closure: dim 55 / 70\nper-degree dims: [0, 2, 9, 25, 55]\n"
           "contains 1: False\nintersection with T: dim 2\n"
           "stabilization degree: None (safe window 3)\n"),
    ("e1+e2", "right ideal closure: dim 69 / 70\nper-degree dims: [0, 4, 14, 34, 69]\n"
              "contains 1: False\nintersection with T: dim 4\n"
              "stabilization degree: 1 (safe window 3)\n")],
    ids=["unit", "saturated", "t"])
def test_each_exit_through_the_ideal_text(right, text, capsys):
    path = str(resources.files("triplex") / "data" / "s2_plus_s2.json")
    assert cli.main(["ideal", path, "-N", "4", "--right", right]) == 0
    assert capsys.readouterr().out == text
