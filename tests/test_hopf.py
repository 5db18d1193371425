import random
from fractions import Fraction
from functools import cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_hopf import left_div, right_div, tensor_mul
from test_closure_table import rational_sl3_sym, s2_cubed

from triplex import cli, hopf, suites
from triplex.envelope import (Element, EnvelopingAlgebra, relator_families, relators,
                              representative_tree)
from triplex.exactlin import (ONE, accumulate, echelonize, integer_row, nonzero_row,
                              rational_row, same_row, sum_integer_rows)
from triplex.freealg import UNIT, graft, is_leaf
from triplex.hopf import (check_coalgebra, check_divisions, check_weak_assoc,
                          comult, comult3, primitives, s_map)

F = Fraction


def test_comult_generator(s2_n5):
    e = s2_n5.generator(0)
    dx = comult(e)
    k = s2_n5.exp_index[1, 0]
    assert dx == {(k, 0): F(1), (0, k): F(1)}


def test_comult_unit(s2_n5):
    one = s2_n5.one()
    assert comult(one) == {(0, 0): F(1)}


def test_comult_square_binomial(s2_n5):
    e2 = s2_n5.power(0, 2)
    dx = comult(e2)
    k1, k2 = s2_n5.exp_index[1, 0], s2_n5.exp_index[2, 0]
    assert dx == {(k2, 0): F(1), (k1, k1): F(2), (0, k2): F(1)}


def test_comult_multiplicative(s2_n5):
    e, f = s2_n5.generator(0), s2_n5.generator(1)
    assert comult(e * f) == tensor_mul(s2_n5, comult(e), comult(f))


def test_counit_morphism(s2_n5):
    x = s2_n5.one() + 2 * s2_n5.generator(0)
    y = 3 * s2_n5.one() - s2_n5.generator(1)
    assert (x * y).counit() == x.counit() * y.counit() == 3


def test_tensor_swap_and_counit_legs(s2_n5):
    e = s2_n5.generator(0)
    dx = comult(e)
    unit = 0
    assert {(r, l): a for (l, r), a in dx.items()} == dx
    assert {r: a for (l, r), a in dx.items() if l == unit} == e.coeffs
    assert {l: a for (l, r), a in dx.items() if r == unit} == e.coeffs


def test_comult3_coassociative(s2_n5):
    x = s2_n5.power(0, 2) * s2_n5.generator(1)
    lhs = comult3(x)
    rhs = {}
    for (l, r), a in comult(x).items():
        for (rl, rr), b in comult(s2_n5.basis(r)).items():
            key = (l, rl, rr)
            s = rhs.get(key, F(0)) + a * b
            if s:
                rhs[key] = s
            else:
                rhs.pop(key, None)
    assert lhs == rhs


def test_s_map_sign_grading(s2_n5):
    e = s2_n5.generator(0)
    assert s_map(e) == -1 * e
    assert s_map(s2_n5.one()) == s2_n5.one()
    assert s_map(s2_n5.power(0, 2)) == s2_n5.power(0, 2)
    x = s2_n5.one() + e + s2_n5.power(0, 2)
    assert s_map(s_map(x)) == x


def test_s_map_automorphism(s2_n5):
    x = s2_n5.generator(0) + 2 * s2_n5.one()
    y = s2_n5.power(1, 2) - s2_n5.generator(0)
    assert s_map(x * y) == s_map(x) * s_map(y)


def test_division_examples(s2_n5):
    e, f = s2_n5.generator(0), s2_n5.generator(1)
    assert left_div(e, f) == -1 * (e * f)
    assert left_div(s2_n5.one(), f) == f
    assert right_div(f, s2_n5.one()) == f


def test_division_identities(s2_n5):
    e, f = s2_n5.generator(0), s2_n5.generator(1)
    ys = [f, e * e, s2_n5.one()]
    for x in (e, s2_n5.power(0, 2), e * f, s2_n5.one() + e):
        assert check_divisions(s2_n5, x, ys) == [[], [], []]


def test_weak_associativity(s2_n5):
    e, f = s2_n5.generator(0), s2_n5.generator(1)
    assert check_weak_assoc(s2_n5, [f], [e], [e]) == (1, [])
    assert check_weak_assoc(s2_n5, [e], [e * f], [f]) == (1, [])
    assert check_weak_assoc(s2_n5, [f], [s2_n5.power(0, 2)], [f]) == (1, [])
    # triples over the cap are skipped: |y| + |x| + |z| > 5
    assert check_weak_assoc(s2_n5, [f], [e, e * f], [f, e * e * f]) == (3, [])
    assert check_weak_assoc(s2_n5, [f, e * f], [e, e * f], [f, e * e * f]) == (5, [])


def test_coalgebra_laws(s2_n5):
    rep = check_coalgebra(s2_n5, 3)
    assert rep.ok, rep.failures


def test_primitives_are_t(s2_n5):
    prim = primitives(s2_n5, 4)
    t_span = echelonize([{s2_n5.exp_index[v]: ONE}
                         for v in s2_n5.exponents if sum(v) == 1], s2_n5.nf_size)
    assert prim.dim == 2
    assert prim == t_span


def test_primitives_polynomial_ring():
    from triplex import catalog
    from triplex.envelope import EnvelopingAlgebra
    alg = EnvelopingAlgebra(catalog.abelian(1), 4)
    prim = primitives(alg, 4)
    assert prim.dim == 1


# -- differential test: Delta through basis products against free splitting --

_SYSTEMS = ("s2.json", "sl2.json", "sl2_lts.json", "sl3_sym.json",
            "abelian3.json", "s2_plus_s2.json")
_ALGEBRAS = [(name, cap) for name in _SYSTEMS for cap in range(1, 5)] + [("s2.json", 6)]


@cache
def _algebra(name, cap):
    if name in ("s2^3", "sl3_sym-rational"):
        alg = s2_cubed() if name == "s2^3" else rational_sl3_sym()
        return alg if alg.cap == cap else EnvelopingAlgebra(alg.system, cap)
    path = str(resources.files("triplex") / "data" / name)
    return EnvelopingAlgebra(cli._as_lts(cli.load_system(path)), cap)


def _split_tree(t):
    """Reference: the free comultiplication of a tree as (left, right) tree
    pairs with integer multiplicities; a leaf a goes to a(x)1 + 1(x)a and a
    pair grafts the expansions of its halves legwise."""
    if t == UNIT:
        return {(UNIT, UNIT): 1}
    if is_leaf(t):
        return {(t, UNIT): 1, (UNIT, t): 1}
    out = {}
    for (l1, r1), m1 in _split_tree(t[0]).items():
        for (l2, r2), m2 in _split_tree(t[1]).items():
            key = (graft(l1, l2), graft(r1, r2))
            out[key] = out.get(key, 0) + m1 * m2
    return out


def _reference_comult(alg, x):
    """Delta of a free combination {tree: coefficient}: split in the free
    algebra, then reduce both legs to normal form."""
    out = {}
    for t, c in x.items():
        for (lt, rt), m in _split_tree(t).items():
            l, r = alg.reduce_tree(lt).coeffs, alg.reduce_tree(rt).coeffs
            accumulate(out, {(vl, vr): a * b for vl, a in l.items()
                             for vr, b in r.items()}, c * m)
    return out


def _comult_free(alg, x):
    """Delta of a free combination through ``hopf._comult_tree``'s integer
    rows, as a rational dict."""
    memo = {}
    dx, xs = integer_row(x)
    den, out = sum_integer_rows((c, hopf._comult_tree(alg, t, memo))
                                for t, c in xs.items())
    return rational_row(den * dx, out)


def test_comult_matches_free_splitting_on_every_basis_monomial():
    for name, cap in _ALGEBRAS:
        alg = _algebra(name, cap)
        for v in alg.exponents:
            assert comult(alg.monomial(v)) == \
                _reference_comult(alg, {representative_tree(v): ONE}), (name, cap, v)


def test_comult_tree_matches_free_splitting_on_relators_and_generators():
    for name, cap in _ALGEBRAS:
        alg = _algebra(name, cap)
        # the relators check_coideal certifies
        for rel in relators(alg.system, min(cap, 3)):
            assert _comult_free(alg, rel) == _reference_comult(alg, rel), (name, cap)
        # a lone generator is not a coideal element: its Delta is not zero
        for g in range(alg.d):
            dx = _comult_free(alg, {g: ONE})
            assert dx and dx == _reference_comult(alg, {g: ONE}), (name, cap, g)


def _tree(draw, d, n):
    if n == 0:
        return UNIT
    if n == 1:
        return draw(st.integers(0, d - 1))
    k = draw(st.integers(1, n - 1))
    return (_tree(draw, d, k), _tree(draw, d, n - k))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_comult_tree_matches_free_splitting_on_free_elements(data):
    name, cap = data.draw(st.sampled_from(_ALGEBRAS))
    alg = _algebra(name, cap)
    x = {}
    for _ in range(data.draw(st.integers(1, 4))):
        t = _tree(data.draw, alg.d, data.draw(st.integers(0, cap)))
        x[t] = Fraction(data.draw(st.integers(-3, 3).filter(bool)),
                        data.draw(st.integers(1, 3)))
    assert _comult_free(alg, x) == _reference_comult(alg, x)


def test_check_coideal_multiplies_once_per_distinct_subtree(monkeypatch):
    alg = _algebra("sl3_sym.json", 4)
    calls = []
    mul = hopf._tensor_rows
    monkeypatch.setattr(hopf, "_tensor_rows", lambda *args: calls.append(1) or mul(*args))
    monkeypatch.setattr(alg, "_hopf_comult", None, raising=False)
    hopf.check_coideal(alg)
    subtrees = set()

    def walk(t):
        if t != UNIT and not is_leaf(t):
            subtrees.add(t)
            walk(t[0])
            walk(t[1])

    for rel in relators(alg.system, 3):
        for t in rel:
            walk(t)
    assert len(calls) == len(subtrees) == 275


@pytest.mark.parametrize("name, cap", [("sl3_sym.json", 4), ("s2_plus_s2.json", 4),
                                       ("s2.json", 6)])
def test_comult_basis_multiplies_once_per_uncached_representative_tree(monkeypatch,
                                                                      name, cap):
    # one cache of Delta by tree, filled by the coideal check: the halves of
    # a representative tree are representative trees, so reading every basis
    # row splits each representative tree of degree >= 2 that the check left
    # out exactly once, and a second read splits none
    alg = EnvelopingAlgebra(_algebra(name, cap).system, cap)
    hopf.check_coideal(alg)
    missing = {t for k, t in enumerate(alg.rep_tree)
               if alg.nf_degree[k] >= 2 and t not in alg._hopf_comult}
    calls = []
    mul = hopf._tensor_rows
    monkeypatch.setattr(hopf, "_tensor_rows", lambda *args: calls.append(1) or mul(*args))
    for k in range(alg.nf_size):
        hopf._comult_basis(alg, k)
    assert 0 < len(calls) == len(missing)
    for k in range(alg.nf_size):
        hopf._comult_basis(alg, k)
    assert len(calls) == len(missing)


# -- property tests: the division identities and weak associativity on random
# non-monomial elements with a nonzero counit (the suite checks monomials) --

_PROPERTY_ALGEBRAS = [("s2.json", 5), ("sl2_lts.json", 4), ("s2_plus_s2.json", 4)]
_scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def _elements(draw, alg, max_degree):
    """Unit term plus 1-3 terms of degree 1..max_degree (none if it is 0)."""
    support = range(1, alg.count_upto(max_degree))
    coeffs = draw(st.dictionaries(st.sampled_from(support), _scalars,
                                  min_size=1, max_size=3)) if support else {}
    coeffs[0] = draw(_scalars)
    return Element(alg, coeffs)


@pytest.mark.parametrize("name, cap", _PROPERTY_ALGEBRAS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_division_identities_on_random_elements(name, cap, data):
    alg = _algebra(name, cap)
    x = data.draw(_elements(alg, cap // 2))
    y = data.draw(_elements(alg, cap - 2 * x.degree()))
    assert check_divisions(alg, x, [y]) == [[]]


@pytest.mark.parametrize("name, cap", _PROPERTY_ALGEBRAS + [("sl3_sym-rational", 3)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_weak_associativity_on_random_elements(name, cap, data):
    # the rational sl3_sym rebase: table rows over 33, 121, 49, 567, ...
    alg = _algebra(name, cap)
    x = data.draw(_elements(alg, cap - 2))
    y = data.draw(_elements(alg, cap - x.degree() - 1))
    z = data.draw(_elements(alg, cap - x.degree() - y.degree()))
    assert check_weak_assoc(alg, [y], [x], [z]) == (1, [])


# -- differential and mutation tests: the hoisted checks against the per-case
# loops they replaced, kept here as the reference --

def reference_divisions(alg, x, y):
    """The division identities of one (x, y), each term recomputed."""
    target = x.counit() * y
    dx = comult(x)
    lhs = [alg.zero()] * 4
    for (v1, v2), a in dx.items():
        x1, x2 = alg.basis(v1), alg.basis(v2)
        lhs[0] = lhs[0] + a * left_div(x1, x2 * y)
        lhs[1] = lhs[1] + a * (x1 * left_div(x2, y))
        lhs[2] = lhs[2] + a * right_div(y * x1, x2)
        lhs[3] = lhs[3] + a * (right_div(y, x1) * x2)
    return [name for name, got in zip(hopf._DIVISION_IDENTITIES, lhs) if got != target]


def reference_weak_assoc(alg, x, y, z):
    """sum x1 (y (x2 z)) == sum (x1 (y x2)) z for one (x, y, z)."""
    lhs = rhs = alg.zero()
    for (v1, v2), a in comult(x).items():
        x1, x2 = alg.basis(v1), alg.basis(v2)
        lhs = lhs + a * (x1 * (y * (x2 * z)))
        rhs = rhs + a * ((x1 * (y * x2)) * z)
    return lhs == rhs


def hoisted_cases(alg, scale=1):
    """The hopf suite's division and weak-associativity cases through the
    hoisted checks: ({(vx, vy): failures}, {(vx, vy, vz): ok}).  Every
    operand is ``scale`` times its monomial: at scale 1 a divisions operand
    that is a basis monomial reads its shared table row, at any other every
    product takes the general path, with the same verdicts, since the
    checks are linear in each operand.  The weak check gets its ys, xs and
    zs in three different orders, so that a failure's index triple must
    name each operand from its own list."""
    N, upto = alg.cap, alg.monomials_upto

    def m(v):
        return scale * alg.monomial(v)

    divisions, weak = {}, {}
    for vx in upto(N // 2):
        vys = upto(N - 2 * sum(vx))
        for vy, failures in zip(vys, check_divisions(alg, m(vx), [m(v) for v in vys])):
            divisions[vx, vy] = failures
    vs = upto(N)
    orders = vs[::-1], vs, vs[1:] + vs[:1]
    cases, failures = check_weak_assoc(alg, *([m(v) for v in order] for order in orders))
    failed = [(orders[1][ix], orders[0][iy], orders[2][iz]) for iy, ix, iz in failures]
    assert len(set(failed)) == len(failed)
    for vy in vs:
        for vx in upto(N - sum(vy)):
            for vz in upto(N - sum(vy) - sum(vx)):
                weak[vx, vy, vz] = (vx, vy, vz) not in failed
    assert cases == len(weak)
    return divisions, weak


def reference_cases(alg):
    N, upto, m = alg.cap, alg.monomials_upto, alg.monomial
    divisions = {(vx, vy): reference_divisions(alg, m(vx), m(vy))
                 for vx in upto(N // 2) for vy in upto(N - 2 * sum(vx))}
    weak = {(vx, vy, vz): reference_weak_assoc(alg, m(vx), m(vy), m(vz))
            for vx in upto(N) for vy in upto(N - sum(vx))
            for vz in upto(N - sum(vx) - sum(vy))}
    return divisions, weak


_CASE_COUNTS = {("sl3_sym.json", 4): (246, 3876), ("s2_plus_s2.json", 4): (140, 1820)}


@pytest.mark.parametrize("name", _SYSTEMS + ("s2^3", "sl3_sym-rational"))
@pytest.mark.parametrize("cap", (3, 4))
def test_hoisted_checks_match_the_per_case_reference(name, cap):
    alg = _algebra(name, cap)
    divisions, weak = hoisted_cases(alg)
    assert (divisions, weak) == reference_cases(alg)
    assert not any(divisions.values()) and all(weak.values())
    if (name, cap) in _CASE_COUNTS:
        assert (len(divisions), len(weak)) == _CASE_COUNTS[name, cap]


@pytest.mark.parametrize("name", ["sl3_sym.json", "s2_plus_s2.json"])
def test_hopf_suite_case_counts(name):
    alg = _algebra(name, 4)
    rep = suites.suite_hopf(alg.system, lambda cap: alg, 4, 0).to_dict(machine=True)
    counts = {r["id"]: r["params"]["cases"] for r in rep["records"]
              if r["id"].endswith("_exhaustive")}
    div, weak = _CASE_COUNTS[name, 4]
    assert counts == {"division_exhaustive": div, "weak_associativity_exhaustive": weak}
    assert rep["status"] == "pass"


def _corrupted_s2():
    # a fresh algebra, so that the corrupted entry reaches no other test;
    # Delta is cached before the corruption, so the coideal check passes
    alg = EnvelopingAlgebra(_algebra("s2.json", 4).system, 4)
    for v in alg.exponents:
        comult(alg.monomial(v))
    e, f = alg.exp_index[1, 0], alg.exp_index[0, 1]
    den, row = alg.basis_product(e, f)
    alg._products[e][f] = (den, {k: 2 * b for k, b in row.items()})
    return alg


def test_a_corrupted_product_fails_both_hoisted_checks():
    alg = _corrupted_s2()
    divisions, weak = hoisted_cases(alg)
    ref_divisions, ref_weak = reference_cases(alg)
    assert any(divisions.values()) and divisions == ref_divisions
    # the failing triples themselves, not only that some fail
    failing = {t for t, ok in weak.items() if not ok}
    assert failing and failing == {t for t, ok in ref_weak.items() if not ok}


@pytest.mark.parametrize("name", _SYSTEMS + ("s2-corrupted",))
def test_basis_operand_branch_matches_the_general_path(name):
    # the verdicts and case counts of the shared-row branch (basis
    # operands) against the general path (the same operands, scaled)
    alg = _corrupted_s2() if name == "s2-corrupted" else _algebra(name, 4)
    divisions, weak = hoisted_cases(alg)
    assert hoisted_cases(alg, F(1, 2)) == (divisions, weak)
    assert hoisted_cases(alg, 2) == (divisions, weak)
    if name == "s2-corrupted":
        assert any(divisions.values()) and not all(weak.values())


def reference_s_map_cases(alg, seed):
    """The pairs (x, y) that the hopf suite draws at ``seed`` (within the
    cap), each with whether S(xy) == S(x) S(y): whether every term of xy
    has the parity of |x| + |y|, since S is (-1)^degree on monomials."""
    rng = random.Random(seed)
    out = {}
    for _ in range(20):
        vx, vy = rng.choice(alg.exponents), rng.choice(alg.exponents)
        if sum(vx) + sum(vy) <= alg.cap:
            xy = alg.monomial(vx) * alg.monomial(vy)
            out[vx, vy] = all((alg.nf_degree[k] - sum(vx) - sum(vy)) % 2 == 0
                              for k in xy.coeffs)
    return out


def test_the_hopf_suite_names_its_failures_on_a_corrupted_table():
    # a fresh s2 algebra, Delta cached first, whose product e f gains a term
    # e of the wrong parity; seed 4 draws the pair (e, f) for the S check
    alg = EnvelopingAlgebra(_algebra("s2.json", 4).system, 4)
    for v in alg.exponents:
        comult(alg.monomial(v))
    e, f = alg.exp_index[1, 0], alg.exp_index[0, 1]
    den, row = alg.basis_product(e, f)
    alg._products[e][f] = den, {**row, e: row.get(e, 0) + den}
    rep = suites.suite_hopf(alg.system, lambda cap: alg, 4, 4)
    verdicts = {r["id"]: r["verdict"] for r in rep.records}
    divisions, weak = reference_cases(alg)
    s_cases = reference_s_map_cases(alg, 4)
    # case for case: a record for each failing (x, y), naming its identities
    records = {(tuple(r["params"]["x"]), tuple(r["params"]["y"])): r["witness"]
               for r in rep.records if r["id"] == "division_identities"}
    assert records and records == {key: v for key, v in divisions.items() if v}
    assert verdicts["division_exhaustive"] == "fail"
    assert not all(weak.values()) and verdicts["weak_associativity_exhaustive"] == "fail"
    assert s_cases[(1, 0), (0, 1)] is False and verdicts["s_map_automorphism"] == "fail"


def test_an_s_that_moves_the_counit_fails_the_s_map_check(monkeypatch):
    # S with S(1) = -1 is still an involution but moves the counit of 1, so
    # the first check of s_map_automorphism fails; at seed 2 sl2_lts draws
    # no pair with a unit factor or a unit term in its product, so the
    # multiplicativity check alone would pass
    alg = _algebra("sl2_lts.json", 4)
    pairs = reference_s_map_cases(alg, 2)
    assert pairs and all(sum(vx) and sum(vy)
                         and 0 not in (alg.monomial(vx) * alg.monomial(vy)).coeffs
                         for vx, vy in pairs)
    sign = hopf._sign
    monkeypatch.setattr(hopf, "_sign", lambda alg, k: -1 if k == 0 else sign(alg, k))
    rep = suites.suite_hopf(alg.system, lambda cap: alg, 4, 2)
    verdicts = {r["id"]: r["verdict"] for r in rep.records}
    assert verdicts["s_map_automorphism"] == "fail"


# -- differential test: the integer-row Hopf layer against the Fraction path
# it replaced, kept here as the reference --

def reference_tensor_mul(alg, s, t):
    """Legwise product of two {(left, right): Fraction} tensors."""
    product = alg.basis_product
    (ds, s), (dt, t) = integer_row(s), integer_row(t)

    def terms():
        for (l1, r1), a in s.items():
            for (l2, r2), b in t.items():
                d1, left = product(l1, l2)
                d2, right = product(r1, r2)
                yield a * b, (d1 * d2, {(kl, kr): p * q for kl, p in left.items()
                                        for kr, q in right.items()})

    den, out = sum_integer_rows(terms())
    return rational_row(den * ds * dt, out)


def reference_comult_tree(alg, t, memo):
    dt = memo.get(t)
    if dt is None:
        if t == UNIT:
            dt = {(0, 0): ONE}
        elif is_leaf(t):
            g = alg.d - t
            dt = {(g, 0): ONE, (0, g): ONE}
        else:
            dt = reference_tensor_mul(alg, reference_comult_tree(alg, t[0], memo),
                                      reference_comult_tree(alg, t[1], memo))
        memo[t] = dt
    return dt


def reference_coideal(alg, rels):
    """Whether every relator of ``rels`` has zero comultiplication."""
    memo = {}
    for rel in rels:
        acc = {}
        for t, c in rel.items():
            accumulate(acc, reference_comult_tree(alg, t, memo), c)
        if acc:
            return False
    return True


def reference_comult(alg, x):
    """Delta of an element from the algebra's comultiplication cache, as
    ``comult`` read it: the integer rows of the terms' representative trees
    turned into ``Fraction`` dicts."""
    hopf.check_coideal(alg)
    cache, out = alg._hopf_comult, {}
    for k, a in x.coeffs.items():
        t = alg.rep_tree[k]
        if t not in cache:
            cache[t] = integer_row(reference_comult_tree(alg, t, {}))
        accumulate(out, rational_row(*cache[t]), a)
    return out


def reference_check_coalgebra(alg, degree):
    failures = []
    monomials = alg.monomials_upto(degree)
    delta = [reference_comult(alg, alg.monomial(v)) for v in monomials]
    for v, dx in zip(monomials, delta):
        x = alg.monomial(v)
        lhs, rhs = {}, {}
        for (l, r), a in dx.items():
            accumulate(lhs, {(l1, l2, r): b for (l1, l2), b
                             in reference_comult(alg, alg.basis(l)).items()}, a)
            accumulate(rhs, {(l, rl, rr): b for (rl, rr), b in delta[r].items()}, a)
        if lhs != rhs:
            failures.append(("coassociativity", v))
        if {(r, l): a for (l, r), a in dx.items()} != dx:
            failures.append(("cocommutativity", v))
        if ({r: a for (l, r), a in dx.items() if l == 0} != x.coeffs
                or {l: a for (l, r), a in dx.items() if r == 0} != x.coeffs):
            failures.append(("counit law", v))
    for i, v in enumerate(monomials):
        for j, w in enumerate(alg.monomials_upto(min(degree, alg.cap - sum(v)))):
            if (reference_comult(alg, alg.monomial(v) * alg.monomial(w))
                    != reference_tensor_mul(alg, delta[i], delta[j])):
                failures.append(("multiplicativity", v, w))
    return failures


def _coalgebra_failures(alg):
    """check_coalgebra's failures and the reference's, at the suite's degree."""
    degree = min(3, alg.cap)
    return hopf.check_coalgebra(alg, degree).failures, reference_check_coalgebra(alg, degree)


def test_comult_of_a_basis_row_is_its_cached_row():
    # the shortcut for a basis row (1, {k: 1}) against the sum over its one
    # term that every other row takes; a single term with another
    # coefficient or denominator takes the sum
    for name, cap in [("sl3_sym.json", 4), ("s2_plus_s2.json", 4), ("s2.json", 6)]:
        alg = _algebra(name, cap)
        hopf.check_coideal(alg)
        for k in range(alg.nf_size):
            cached = hopf._comult_basis(alg, k)
            assert hopf._comult_rows(alg, (1, {k: 1})) is cached, (name, k)
            assert cached == nonzero_row(*sum_integer_rows([(1, cached)])), (name, k)
            den, w = cached
            for x, want in [((1, {k: 3}), (den, {p: 3 * a for p, a in w.items()})),
                            ((2, {k: 1}), (2 * den, w))]:
                got = hopf._comult_rows(alg, x)
                assert got is not cached and same_row(got, want), (name, k, x)


def test_integer_rows_match_the_fraction_reference():
    for name, cap in _ALGEBRAS:
        alg = _algebra(name, cap)
        assert reference_coideal(alg, relators(alg.system, min(cap, 3))), (name, cap)
        hopf.check_coideal(alg)
        for k in range(alg.nf_size):
            assert (rational_row(*hopf._comult_basis(alg, k))
                    == reference_comult_tree(alg, alg.rep_tree[k], {})), (name, cap, k)
        got, want = _coalgebra_failures(alg)
        assert got == want == [], (name, cap)


@pytest.mark.parametrize("scale", [F(1, 2), -1])
def test_check_coideal_matches_the_reference_on_a_broken_relator(monkeypatch, scale):
    alg = EnvelopingAlgebra(_algebra("sl3_sym.json", 3).system, 3)
    # one leg of one relator rescaled: not a coideal element, and the failure
    # names the relator's family and its index there
    for family, i in [("commutator", 0), ("nucleus", 4), ("triple coherence", 7)]:
        families = relator_families(alg.system, 3)
        (t, c), *rest = families[family][i].items()
        families[family][i] = {t: scale * c, **dict(rest)}
        assert not reference_coideal(alg, [r for rels in families.values() for r in rels])
        monkeypatch.setattr(hopf, "relator_families", lambda system, cap: families)
        with pytest.raises(hopf.PBWCertificateFailure,
                           match=f"not a coideal element: {family} relator {i}$"):
            hopf.check_coideal(alg)


def test_a_corrupted_comult_entry_fails_both_coalgebra_checks_alike():
    # a fresh algebra, so that the corrupted entry reaches no other test
    alg = EnvelopingAlgebra(_algebra("s2_plus_s2.json", 4).system, 4)
    for k in range(alg.nf_size):
        comult(alg.basis(k))
    # Delta(e f) gains (1/3) e(x)f: still coassociative, since e and f are
    # primitive, but no longer cocommutative
    v = (1, 1, 0, 0)
    ef, e, f = alg.exp_index[v], alg.exp_index[1, 0, 0, 0], alg.exp_index[0, 1, 0, 0]
    t = alg.rep_tree[ef]
    den, row = alg._hopf_comult[t]
    row = {p: 3 * a for p, a in row.items()}
    row[e, f] += den
    alg._hopf_comult[t] = 3 * den, row
    got, want = _coalgebra_failures(alg)
    assert got == want
    assert {f[0] for f in got} == {"coassociativity", "cocommutativity", "multiplicativity"}
    assert ("cocommutativity", v) in got and ("coassociativity", v) not in got


def test_a_corrupted_product_fails_both_coalgebra_checks_alike():
    alg = EnvelopingAlgebra(_algebra("sl3_sym.json", 4).system, 4)
    for k in range(alg.nf_size):
        comult(alg.basis(k))
    # a product whose table row has a denominator other than 1, scaled by 3/2
    i, j = next((i, j) for i in range(1, alg.count_upto(2)) for j in range(1, alg.count_upto(2))
                if alg.basis_product(i, j)[0] != 1)
    den, row = alg.basis_product(i, j)
    alg._products[i][j] = 2 * den, {k: 3 * b for k, b in row.items()}
    got, want = _coalgebra_failures(alg)
    assert got == want
    assert got and {f[0] for f in got} == {"multiplicativity"}


def test_a_corrupted_counit_leg_fails_the_counit_law_in_both_checks():
    # a fresh algebra, so that the corrupted entry reaches no other test
    alg = EnvelopingAlgebra(_algebra("s2.json", 4).system, 4)
    for k in range(alg.nf_size):
        comult(alg.basis(k))
    # Delta(e f)'s leg (e f)(x)1 doubled: (Id (x) eps) Delta is no longer the
    # identity on e f
    v = (1, 1)
    ef = alg.exp_index[v]
    t = alg.rep_tree[ef]
    den, row = alg._hopf_comult[t]
    alg._hopf_comult[t] = den, {**row, (ef, 0): row[ef, 0] + den}
    got, want = _coalgebra_failures(alg)
    assert got == want
    assert ("counit law", v) in got
    assert [f for f in got if f[0] == "counit law"] == [("counit law", v)]
