"""H-bialgebra structure on the truncated enveloping algebra.

Tensors in U(x)U are plain dicts ``{(left, right): Fraction}`` over pairs
of normal-form exponent vectors (``comult3`` adds a third leg), and
``tensor_mul`` multiplies two of them legwise through the algebra's
basis-product table.  The comultiplication is the algebra morphism with
Delta(a) = a(x)1 + 1(x)a on generators.  It is evaluated on a free tree
as the ``tensor_mul`` of the images of its two halves, once per distinct
subtree, and cached per basis monomial.  That is only sound because Delta
descends to the quotient: ``check_coideal`` certifies that the
generator-level relator families are coideal elements, once per algebra
before the first comultiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import ONE, accumulate, echelonize, kernel
from .envelope import Element, PBWCertificateFailure, relators
from .freealg import UNIT, is_leaf
from .freealg import tree_degree  # noqa: F401 (perfbench traces hopf.tree_degree)


def tensor_mul(alg, s, t):
    """Legwise product of two tensors {(left, right): coefficient}."""
    product = alg.basis_product
    out = {}
    for (l1, r1), a in s.items():
        for (l2, r2), b in t.items():
            left, right = product(l1, l2), product(r1, r2)
            accumulate(out, {(vl, vr): p * q for vl, p in left.items()
                             for vr, q in right.items()}, a * b)
    return out


def _comult_tree(alg, t, memo):
    """Delta of a free tree: 1(x)1 for the unit, g(x)1 + 1(x)g for a
    generator g, and the legwise product of its halves' images for a pair.
    ``memo`` maps the subtrees seen so far to their (shared) images."""
    dt = memo.get(t)
    if dt is None:
        unit = (0,) * alg.d
        if t == UNIT:
            dt = {(unit, unit): ONE}
        elif is_leaf(t):
            g = tuple(int(i == t) for i in range(alg.d))
            dt = {(g, unit): ONE, (unit, g): ONE}
        else:
            dt = tensor_mul(alg, _comult_tree(alg, t[0], memo),
                            _comult_tree(alg, t[1], memo))
        memo[t] = dt
    return dt


def comult(x):
    """Algebra morphism with Delta(a) = a(x)1 + 1(x)a on generators."""
    alg = x.algebra
    check_coideal(alg)
    cache = alg._hopf_comult
    out = {}
    for exps, a in x.coeffs.items():
        hit = cache.get(exps)
        if hit is None:
            cache[exps] = hit = _comult_tree(alg, alg.rep_tree[exps], {})
        accumulate(out, hit, a)
    return out


def comult3(x):
    """Left-nested iterated comultiplication (Delta (x) Id) Delta, as a
    dict from monomial triples to coefficients."""
    alg = x.algebra
    out = {}
    for (l, r), a in comult(x).items():
        accumulate(out, {(l1, l2, r): b for (l1, l2), b
                         in comult(alg.monomial(l)).items()}, a)
    return out


def s_map(x):
    """The order-2 automorphism induced by a -> -a: (-1)^degree on monomials."""
    return Element(x.algebra, {v: a if sum(v) % 2 == 0 else -a
                               for v, a in x.coeffs.items()})


def left_div(x, y):
    """x \\ y = S(x) y."""
    return s_map(x) * y


def right_div(y, x):
    """y / x = sum S(x_(3)) ((x_(1) y) S(x_(2)))."""
    alg = y.algebra
    out = alg.zero()
    for (v1, v2, v3), a in comult3(x).items():
        x1, x2, x3 = alg.monomial(v1), alg.monomial(v2), alg.monomial(v3)
        out = out + a * (s_map(x3) * ((x1 * y) * s_map(x2)))
    return out


def check_coideal(alg):
    """Certify Delta descends to the quotient: the generator-level relator
    families (``relators`` up to degree 3) have zero comultiplication in
    U(x)U.  Passing creates the per-algebra cache ``comult`` reads."""
    if getattr(alg, "_hopf_comult", None) is not None:
        return
    memo = {}
    for rel in relators(alg.system, min(alg.cap, 3)):
        acc = {}
        for t, c in rel.items():
            accumulate(acc, _comult_tree(alg, t, memo), c)
        if acc:
            raise PBWCertificateFailure("a defining relator is not a coideal element")
    alg._hopf_comult = {}


@dataclass
class CheckReport:
    ok: bool
    failures: list = field(default_factory=list)


def check_coalgebra(alg, degree):
    """Coassociativity, cocommutativity, counit laws and multiplicativity."""
    failures = []
    unit = (0,) * alg.d
    monomials = alg.monomials_upto(degree)
    for v in monomials:
        x = alg.monomial(v)
        dx = comult(x)
        # coassociativity: (Delta (x) Id) Delta == (Id (x) Delta) Delta
        rhs = {}
        for (l, r), a in dx.items():
            accumulate(rhs, {(l, rl, rr): b for (rl, rr), b
                             in comult(alg.monomial(r)).items()}, a)
        if comult3(x) != rhs:
            failures.append(("coassociativity", v))
        if {(r, l): a for (l, r), a in dx.items()} != dx:
            failures.append(("cocommutativity", v))
        if ({r: a for (l, r), a in dx.items() if l == unit} != x.coeffs
                or {l: a for (l, r), a in dx.items() if r == unit} != x.coeffs):
            failures.append(("counit law", v))
    for v in monomials:
        for w in alg.monomials_upto(min(degree, alg.cap - sum(v))):
            x, y = alg.monomial(v), alg.monomial(w)
            if comult(x * y) != tensor_mul(alg, comult(x), comult(y)):
                failures.append(("multiplicativity", v, w))
    return CheckReport(not failures, failures)


def check_divisions(alg, x, y):
    """The four left/right division identities, exactly."""
    target = x.counit() * y
    failures = []
    dx = comult(x)
    lhs1 = alg.zero()
    lhs2 = alg.zero()
    for (v1, v2), a in dx.items():
        x1, x2 = alg.monomial(v1), alg.monomial(v2)
        lhs1 = lhs1 + a * left_div(x1, x2 * y)
        lhs2 = lhs2 + a * (x1 * left_div(x2, y))
    if lhs1 != target:
        failures.append("sum x1 \\ (x2 y) != eps(x) y")
    if lhs2 != target:
        failures.append("sum x1 (x2 \\ y) != eps(x) y")
    lhs3 = alg.zero()
    lhs4 = alg.zero()
    for (v1, v2), a in dx.items():
        x1, x2 = alg.monomial(v1), alg.monomial(v2)
        lhs3 = lhs3 + a * right_div(y * x1, x2)
        lhs4 = lhs4 + a * (right_div(y, x1) * x2)
    if lhs3 != target:
        failures.append("sum (y x1) / x2 != eps(x) y")
    if lhs4 != target:
        failures.append("sum (y / x1) x2 != eps(x) y")
    return CheckReport(not failures, failures)


def check_weak_assoc(alg, x, y, z):
    """sum x1 (y (x2 z)) == sum (x1 (y x2)) z."""
    lhs = alg.zero()
    rhs = alg.zero()
    for (v1, v2), a in comult(x).items():
        x1, x2 = alg.monomial(v1), alg.monomial(v2)
        lhs = lhs + a * (x1 * (y * (x2 * z)))
        rhs = rhs + a * ((x1 * (y * x2)) * z)
    return lhs == rhs


def primitives(alg, degree):
    """Solution space of Delta(x) = x(x)1 + 1(x)x inside filtration(degree)."""
    check_coideal(alg)
    unit = (0,) * alg.d
    monomials = alg.monomials_upto(degree)
    pair_index = {}  # tensor coordinates, numbered as they appear
    images = []
    for v in monomials:
        defect = comult(alg.monomial(v))
        accumulate(defect, {(v, unit): ONE}, -ONE)
        accumulate(defect, {(unit, v): ONE}, -ONE)
        images.append({pair_index.setdefault(k, len(pair_index)): a
                       for k, a in defect.items()})
    ambient = max(len(pair_index), 1)
    ker = kernel(images, ambient)
    return echelonize([{alg.exp_index[monomials[c]]: a for c, a in r.items()}
                       for r in ker.rows], alg.nf_size)
