from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from triplex import catalog
from triplex.envelope import (Element, EnvelopingAlgebra, PBWCertificateFailure,
                              exponent_vectors, representative_tree)
from triplex.exactlin import accumulate
from triplex.freealg import (UNIT, DegreeBudgetExceeded, graft, parse,
                             power_tree)
from triplex.lts import TripleSystem
from triplex.suites import s2_identity_suite

F = Fraction


# -- oracles: coordinates, lifts and the filtration, from their definitions ----

def lift(x):
    """Representative in the free algebra: a ``{tree: coefficient}`` dict
    over representative trees."""
    return {x.algebra.rep_tree[v]: a for v, a in x.coeffs.items()}


def reduce_free(alg, x):
    """Normal form of a free element ``{tree: coefficient}``, term by term."""
    out = {}
    for t, a in x.items():
        accumulate(out, alg.reduce_tree(t).coeffs, a)
    return Element(alg, out)


def filtration_preservation_check(alg, a, b):
    """x -> -2(x,a,b) maps every filtration level into itself."""
    ea, eb = alg.generator(a), alg.generator(b)
    for k in range(alg.cap - 1):
        filt = alg.filtration(k)
        for v in alg.monomials_upto(k):
            img = F(-2) * alg.associator(alg.monomial(v), ea, eb)
            if not filt.member(img.coeffs):
                return False
    return True


def test_exponent_vectors_order_and_count():
    vs = exponent_vectors(2, 3)
    assert vs[0] == (0, 0)
    assert len(vs) == 10  # C(2+3,3)
    degrees = [sum(v) for v in vs]
    assert degrees == sorted(degrees)
    assert vs[1:3] == [(0, 1), (1, 0)]


def test_normal_form_indices(s2_n4, s2_n6, sl2_n4):
    for alg in (s2_n4, s2_n6, sl2_n4):
        d = alg.d
        # (0,...,0,1) sorts first among the degree-1 vectors: generator g
        # has index d - g
        for g in range(d):
            assert alg.generator(g).coeffs == {d - g: F(1)}
            assert alg.exponents[d - g] == tuple(int(i == g) for i in range(d))
        assert alg.one().coeffs == {0: F(1)}
        # the monomials of degree <= k are the first comb(d + k, k) indices
        for k in range(alg.cap + 1):
            assert alg.count_upto(k) == comb(d + k, k)
            assert alg.monomials_upto(k) == alg.exponents[:comb(d + k, k)]
            assert all(alg.nf_degree[i] <= k < alg.nf_degree[j]
                       for i in range(comb(d + k, k))
                       for j in range(comb(d + k, k), alg.nf_size))
        assert alg.count_upto(-1) == 0 and alg.monomials_upto(-1) == []
        assert alg.count_upto(alg.cap + 1) == alg.nf_size
        assert all(alg.basis(k).terms() == [(v, F(1))] for k, v in enumerate(alg.exponents))
    # an exponent vector has the same index at every cap
    assert s2_n6.exponents[:s2_n4.nf_size] == s2_n4.exponents
    assert all(s2_n6.exp_index[v] == k for v, k in s2_n4.exp_index.items())
    assert (s2_n4.power(0, 3).coeffs == s2_n6.power(0, 3).coeffs
            == {s2_n4.exp_index[(3, 0)]: F(1)})


def test_representative_tree_shape():
    # b0^2 * (b1^1): powers left-nested, blocks right-nested
    assert representative_tree((2, 1)) == ((0, 0), 1)
    assert representative_tree((0, 3)) == ((1, 1), 1)
    assert representative_tree((0, 0)) == ()


def test_representative_tree_three_generators():
    assert representative_tree((1, 0, 2)) == (0, (2, 2))
    assert representative_tree((1, 1, 1)) == (0, (1, 2))


def test_pbw_dims_s2(s2_n6):
    assert s2_n6.degree_dims == [1, 3, 6, 10, 15, 21, 28]
    assert s2_n6.relspan_dim == 3239 - 28
    assert s2_n6.nf_size == 28


def test_pbw_dims_sl2(sl2_n4):
    assert sl2_n4.degree_dims == [1, 4, 10, 20, 35]
    assert sl2_n4.nf_size == 35


def test_rejects_non_triple_system():
    bad = TripleSystem(2, ("a", "b"), {(0, 0, 1): {0: F(1)}})
    with pytest.raises(PBWCertificateFailure):
        EnvelopingAlgebra(bad, 3)


def test_generators_commute(s2_n6):
    e, f = s2_n6.generator(0), s2_n6.generator(1)
    assert e * f == f * e
    assert (e * f).coeffs == {s2_n6.exp_index[(1, 1)]: F(1)}
    assert (e * f).terms() == [((1, 1), F(1))]


def test_power_bracketing_independent(s2_n6):
    e = s2_n6.generator(0)
    left = (e * e) * e
    right = e * (e * e)
    assert left == right == s2_n6.power(0, 3)


def test_power_bracketing_certificate_names_the_generator_and_n():
    class Corrupted(EnvelopingAlgebra):
        def _build(self):
            super()._build()
            # f (f f), one bracketing of f^3, becomes 2 f^3: the row is shared
            # by the product table and the tree's normal form
            _, row = self.basis_product(self.exp_index[0, 1], self.exp_index[0, 2])
            for k in row:
                row[k] *= 2

    with pytest.raises(PBWCertificateFailure,
                       match="power of generator 1 depends on bracketing at n=3"):
        Corrupted(catalog.s2(), 4)


def test_triple_coherence(s2_n6, s2):
    # 2 (a,b,c) = -iota([a,b,c]) on generators
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a, b, c = (s2_n6.generator(i), s2_n6.generator(j),
                           s2_n6.generator(k))
                assoc = s2_n6.associator(a, b, c)
                assert 2 * assoc == -1 * s2_n6.inject(s2.constants.get((i, j, k), {}))


def test_power_nucleus(s2_n6):
    # (c^i, c^j, x) = 0: powers of one generator associate past anything
    for i in range(1, 3):
        for j in range(1, 3):
            for v in s2_n6.exponents:
                if i + j + sum(v) > s2_n6.cap:
                    continue
                assert s2_n6.associator(s2_n6.power(0, i), s2_n6.power(0, j),
                                        s2_n6.monomial(v)).is_zero()


def test_jordan_identity_exhaustive(s2_n5):
    for a in range(2):
        ga = s2_n5.generator(a)
        for v in s2_n5.exponents:
            if sum(v) <= s2_n5.cap - 2:
                assert s2_n5.check_jordan(ga, s2_n5.monomial(v))


def test_d_derivation(s2_n5):
    for ai in range(2):
        for bi in range(2):
            x = s2_n5.generator(0)
            y = s2_n5.power(1, 2)
            assert s2_n5.check_d_derivation(ai, bi, x, y)


def test_lemma_residue_membership(s2_n6, sl2_n4):
    for c in range(2):
        for a in range(2):
            for b in range(2):
                for n in range(0, 5):
                    assert s2_n6.check_lemma_derivation(c, a, b, n)
    for n in range(0, 3):
        assert sl2_n4.check_lemma_derivation(0, 1, 2, n)


def test_assoc_expansion(s2_n5):
    for c in range(2):
        for a in range(2):
            for b in range(2):
                for n in range(0, 4):
                    assert s2_n5.check_assoc_expansion(c, a, b, n)


def test_s2_identity_suite(s2_n6):
    results = s2_identity_suite(s2_n6, 3)
    assert len(results) == 4
    assert all(prop and eigen for _, prop, eigen in results)


def test_s2_suite_rejects_other_systems(sl2_n4):
    with pytest.raises(ValueError):
        s2_identity_suite(sl2_n4, 1)


def test_filtration_preservation(s2_n5):
    assert filtration_preservation_check(s2_n5, 0, 1)


def test_reduce_parse_examples(s2_n6):
    # a(bc) - (ab)c = -(a,b,c) = 1/2 iota([a,b,c]); [e,f,e] = 2e
    assert parse("e*(f*e) - (e*f)*e", s2_n6) == s2_n6.generator(0)
    assert parse("f*e", s2_n6) == parse("e*f", s2_n6)
    assert reduce_free(s2_n6, {(0, (1, 0)): 1, ((0, 1), 0): -1}) == s2_n6.generator(0)


# -- the parser against free evaluation --------------------------------------
# An expression tree is ("gen", g), ("one",), ("pow", g, n),
# ("sum", [(c, tree), ...]), ("mul", x, y) or ("comm", x, y) for xy - yx;
# the commutators have free degree above their normal forms' (ef = fe).

@st.composite
def expression_trees(draw, budget, depth=3):
    """An expression tree over s2 of free degree at most ``budget``."""
    if depth <= 0:
        kinds = ["one", "gen", "pow"]
    elif budget < 2:
        kinds = ["one", "gen", "pow", "sum"]
    else:
        kinds = ["gen", "pow", "sum", "mul", "comm"]
    kind = draw(st.sampled_from(kinds))
    if kind == "one" or not budget:
        return ("one",)
    if kind == "gen":
        return ("gen", draw(st.integers(0, 1)))
    if kind == "pow":
        return ("pow", draw(st.integers(0, 1)), draw(st.integers(0, budget)))
    if kind == "sum":
        inner = expression_trees(budget, depth - 1)
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        return ("sum", draw(st.lists(st.tuples(coeffs, inner), min_size=1, max_size=3)))
    # both factors are nonconstant, so the free degree adds up
    k = draw(st.integers(1, budget - 1))
    return (kind, draw(expression_trees(k, depth - 1)),
            draw(expression_trees(budget - k, depth - 1)))


def render(x):
    kind = x[0]
    if kind == "one":
        return "1"
    if kind == "gen":
        return "ef"[x[1]]
    if kind == "pow":
        return f"{'ef'[x[1]]}^{x[2]}"
    if kind == "mul":
        return f"({render(x[1])})*({render(x[2])})"
    if kind == "comm":
        a, b = render(x[1]), render(x[2])
        return f"(({a})*({b}) - ({b})*({a}))"
    text = ""
    for c, y in x[1]:
        sign = "-" if c < 0 else ("+" if text else "")
        text += f" {sign} {abs(c)}*({render(y)})"
    return f"({text})"


def free_value(x):
    """The value of an expression tree in the free algebra, as a
    ``{tree: coefficient}`` dict."""
    kind = x[0]
    if kind == "one":
        return {UNIT: F(1)}
    if kind == "gen":
        return {x[1]: F(1)}
    if kind == "pow":
        return {power_tree(x[1], x[2]): F(1)}
    if kind == "sum":
        out = {}
        for c, y in x[1]:
            accumulate(out, free_value(y), c)
        return out
    left, right = free_value(x[1]), free_value(x[2])
    out = {}
    for t1, a in left.items():
        accumulate(out, {graft(t1, t2): a * b for t2, b in right.items()})
        if kind == "comm":
            accumulate(out, {graft(t2, t1): a * b for t2, b in right.items()}, -1)
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expression_trees(6))
# over the cap in free degree, within it in normal-form degree:
# ((ef - fe)e)e^3 = 0 and (e(fe) - (fe)e)f^3 = ef^3
@example(("mul", ("mul", ("comm", ("gen", 0), ("gen", 1)), ("gen", 0)), ("pow", 0, 3)))
@example(("mul", ("comm", ("gen", 0), ("mul", ("gen", 1), ("gen", 0))), ("pow", 1, 3)))
def test_parse_matches_free_evaluation(s2_n4, s2_n6, x):
    # the quotient map is an algebra morphism within the cap, so parsing at
    # N=4 agrees with reducing the free value at N=6 whenever it succeeds
    try:
        got = parse(render(x), s2_n4)
    except DegreeBudgetExceeded:
        return
    assert got.coeffs == reduce_free(s2_n6, free_value(x)).coeffs


def test_mul_degree_budget(s2_n6):
    x = s2_n6.power(0, 4)
    with pytest.raises(DegreeBudgetExceeded):
        x * x


BAD_INPUTS = {
    "power(5, 2)": lambda alg: alg.power(5, 2),
    "generator(5)": lambda alg: alg.generator(5),
    "generator(-1)": lambda alg: alg.generator(-1),
    "monomial((1,))": lambda alg: alg.monomial((1,)),
    "monomial((-1, 2))": lambda alg: alg.monomial((-1, 2)),
    "power(0, -1)": lambda alg: alg.power(0, -1),
    "reduce_tree(7)": lambda alg: alg.reduce_tree(7),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_invalid_input_names_d_and_the_cap(s2_n6, call):
    with pytest.raises(ValueError, match=r"d=2 .*cap 6") as info:
        call(s2_n6)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("call", [lambda alg: alg.power(0, 7),
                                  lambda alg: alg.monomial((4, 3)),
                                  lambda alg: alg.reduce_tree(power_tree(1, 7))],
                         ids=["power", "monomial", "reduce_tree"])
def test_over_cap_input_exceeds_the_budget(s2_n6, call):
    with pytest.raises(DegreeBudgetExceeded, match="cap 6"):
        call(s2_n6)


def test_element_arithmetic_and_format(s2_n6):
    e, f = s2_n6.generator(0), s2_n6.generator(1)
    x = 2 * e - F(1, 2) * (f * f) + s2_n6.one()
    assert x.counit() == 1
    assert x.degree() == 2
    assert x.format() == "1 + 2*e - 1/2*f^2"
    assert (x - x).is_zero()
    assert reduce_free(s2_n6, lift(x)) == x


def test_nf_vector_roundtrip(s2_n6):
    # terms() names the normal-form indices by their exponent vectors
    e, f = s2_n6.generator(0), s2_n6.generator(1)
    x = 3 * (e * f) - f
    assert x.terms() == [((0, 1), F(-1)), ((1, 1), F(3))]
    assert Element(s2_n6, {s2_n6.exp_index[v]: a for v, a in x.terms()}) == x


def test_augmentation_ideal(s2_n6):
    aug = s2_n6.augmentation_ideal()
    assert aug.dim == s2_n6.nf_size - 1
    assert not aug.member(s2_n6.one().coeffs)
    assert aug.member(s2_n6.generator(0).coeffs)


def test_right_ideal_closure_generator(s2_n6):
    ic = s2_n6.right_ideal_closure([s2_n6.generator(0)])
    assert ic.per_degree_dims == [0, 2, 5, 9, 14, 20, 27]
    assert not ic.contains_one
    assert ic.meets_t_dim == 2
    assert ic.stabilization_degree == 1
    assert ic.safe_window == 5


def test_right_ideal_closure_unit(s2_n6):
    ic = s2_n6.right_ideal_closure([s2_n6.one() + s2_n6.generator(0)])
    assert ic.contains_one


def test_right_ideal_closure_augmentation_stable(s2_n6):
    gens = [s2_n6.monomial(v) for v in s2_n6.exponents if sum(v) >= 1]
    ic = s2_n6.right_ideal_closure(gens)
    assert ic.subspace == s2_n6.augmentation_ideal()


def test_abelian_envelope_is_polynomial(sl2_n4):
    t = catalog.abelian(2)
    alg = EnvelopingAlgebra(t, 4)
    # all associators vanish: the quotient is the truncated polynomial ring
    for vx in alg.exponents:
        for vy in alg.exponents:
            for vz in alg.exponents:
                if sum(vx) + sum(vy) + sum(vz) > 4:
                    continue
                assert alg.associator(alg.monomial(vx), alg.monomial(vy),
                                      alg.monomial(vz)).is_zero()


# ---------------------------------------------------------------------------
# independent dense oracle: rebuild the degree-3 truncation of U(S2) from
# scratch (own tree enumeration, own relators, own dense elimination) and
# compare every normal form against the package.

def _oracle_trees(d, n):
    if n == 0:
        return [()]
    if n == 1:
        return list(range(d))
    out = []
    for i in range(1, n):
        for l in _oracle_trees(d, i):
            for r in _oracle_trees(d, n - i):
                out.append((l, r))
    return out


def _oracle_degree(t):
    if t == ():
        return 0
    if isinstance(t, int):
        return 1
    return _oracle_degree(t[0]) + _oracle_degree(t[1])


def _oracle_graft(a, b):
    if a == ():
        return b
    if b == ():
        return a
    return (a, b)


def _oracle_key(t):
    if t == ():
        return ()
    if isinstance(t, int):
        return (0, t)
    return (1,) + _oracle_key(t[0]) + _oracle_key(t[1])


def _s2_triple(i, j, k):
    table = {
        (0, 1, 0): (F(2), F(0)),
        (0, 1, 1): (F(0), F(-2)),
        (1, 0, 0): (F(-2), F(0)),
        (1, 0, 1): (F(0), F(2)),
    }
    return table.get((i, j, k), (F(0), F(0)))


def test_dense_oracle_matches_package(s2):
    N, d = 3, 2
    monomials = []
    for n in range(N + 1):
        monomials.extend(_oracle_trees(d, n))
    reps = set()
    for ke in range(N + 1):
        for kf in range(N + 1 - ke):
            t = ()
            if kf:
                sub = 1
                for _ in range(kf - 1):
                    sub = (sub, 1)
                t = sub
            if ke:
                sub = 0
                for _ in range(ke - 1):
                    sub = (sub, 0)
                t = _oracle_graft(sub, t)
            reps.add(t)
    # columns: degree descending, representatives last within a degree
    columns = sorted(monomials,
                     key=lambda t: (-_oracle_degree(t), t in reps, _oracle_key(t)))
    col = {t: i for i, t in enumerate(columns)}
    width = len(columns)

    def dense(coeffs):
        row = [F(0)] * width
        for t, c in coeffs.items():
            row[col[t]] += c
        return row

    relations = []
    relations.append(dense({(0, 1): F(1), (1, 0): F(-1)}))
    for a in range(d):
        for m1 in monomials:
            for m2 in monomials:
                n1, n2 = _oracle_degree(m1), _oracle_degree(m2)
                if n1 < 1 or n2 < 1 or 1 + n1 + n2 > N:
                    continue
                r = {}
                for t, c in ((_oracle_graft(_oracle_graft(a, m1), m2), F(1)),
                             (_oracle_graft(a, _oracle_graft(m1, m2)), F(-1)),
                             (_oracle_graft(_oracle_graft(m1, a), m2), F(1)),
                             (_oracle_graft(m1, _oracle_graft(a, m2)), F(-1))):
                    r[t] = r.get(t, F(0)) + c
                relations.append(dense(r))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                r = {}
                for t, c in ((_oracle_graft(i, _oracle_graft(j, k)), F(1)),
                             (_oracle_graft(j, _oracle_graft(i, k)), F(-1))):
                    r[t] = r.get(t, F(0)) + c
                for l, c in enumerate(_s2_triple(i, j, k)):
                    if c:
                        r[l] = r.get(l, F(0)) - c
                relations.append(dense(r))

    # naive two-sided ideal closure to a fixpoint
    def rank(rows):
        m = [list(r) for r in rows]
        rk = 0
        for c in range(width):
            piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rk], m[piv] = m[piv], m[rk]
            for i in range(len(m)):
                if i != rk and m[i][c]:
                    f = m[i][c] / m[rk][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
            rk += 1
        return rk, m[:rk]

    while True:
        before, reduced = rank(relations)
        new_rows = []
        for row in reduced:
            top = max(_oracle_degree(columns[c]) for c, x in enumerate(row) if x)
            for m in monomials:
                dm = _oracle_degree(m)
                if dm < 1 or top + dm > N:
                    continue
                for left in (True, False):
                    prod = {}
                    for c, x in enumerate(row):
                        if x:
                            t = columns[c]
                            p = (_oracle_graft(m, t) if left
                                 else _oracle_graft(t, m))
                            prod[p] = prod.get(p, F(0)) + x
                    new_rows.append(dense(prod))
        after, _ = rank(relations + new_rows)
        relations = relations + new_rows
        if after == before:
            break

    rk, reduced = rank(relations)
    assert rk == width - len(reps)
    # RREF pivots must avoid representative columns
    pivots = []
    for row in reduced:
        p = next(c for c, x in enumerate(row) if x)
        pivots.append(p)
        assert columns[p] not in reps
    pivot_of = {p: row for p, row in zip(pivots, reduced)}

    def oracle_nf(t):
        vec = [F(0)] * width
        vec[col[t]] = F(1)
        for c in range(width):
            if vec[c] and c in pivot_of:
                row = pivot_of[c]
                f = vec[c] / row[c]
                vec = [x - f * y for x, y in zip(vec, row)]
        return {columns[c]: x for c, x in enumerate(vec) if x}

    alg = EnvelopingAlgebra(s2, N)
    degree3 = [t for t in monomials if _oracle_degree(t) == 3]
    assert len(degree3) == 16
    for t in degree3:
        expected = oracle_nf(t)
        got = {alg.rep_tree[v]: a for v, a in alg.reduce_tree(t).coeffs.items()}
        assert got == expected, t
