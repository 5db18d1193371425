"""H-bialgebra structure on the truncated enveloping algebra.

Tensors in U(x)U are plain dicts ``{(left, right): Fraction}`` over pairs
of normal-form indices (``comult3`` adds a third leg), and
``tensor_mul`` multiplies two of them legwise through the algebra's
integer basis-product table, summing in integers over one denominator.
The comultiplication is the algebra morphism with Delta(a) = a(x)1 +
1(x)a on generators.  It is evaluated on a free tree as the
``tensor_mul`` of the images of its two halves, once per distinct
subtree, and cached per basis monomial.  That is only sound because Delta
descends to the quotient: ``check_coideal`` certifies that the
generator-level relator families are coideal elements, once per algebra
before the first comultiplication.

The division and weak-associativity checks sum integer rows
(``EnvelopingAlgebra.mul_rows``) and compare them exactly at the end.
Each takes its inner loop variable as a list and forms what does not
depend on it once: ``check_divisions`` splits x, and the legs of its
split, once for all its ys; ``check_weak_assoc`` forms Delta x and
w = sum x1 (y x2) once per (x, y) for its one y, and y (x2 z) once per
(x2, z), shared by the xs whose splits contain x2 and dropped after z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import (ONE, accumulate, echelonize, integer_row, kernel,
                       rational_row, sum_integer_rows)
from .envelope import Element, PBWCertificateFailure, relators
from .freealg import UNIT, is_leaf
from .freealg import tree_degree  # noqa: F401 (perfbench traces hopf.tree_degree)


def tensor_mul(alg, s, t):
    """Legwise product of two tensors {(left, right): coefficient}."""
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


def _comult_tree(alg, t, memo):
    """Delta of a free tree: 1(x)1 for the unit, g(x)1 + 1(x)g for a
    generator g, and the legwise product of its halves' images for a pair.
    ``memo`` maps the subtrees seen so far to their (shared) images."""
    dt = memo.get(t)
    if dt is None:
        if t == UNIT:
            dt = {(0, 0): ONE}
        elif is_leaf(t):
            g = alg.d - t  # the generator's normal-form index
            dt = {(g, 0): ONE, (0, g): ONE}
        else:
            dt = tensor_mul(alg, _comult_tree(alg, t[0], memo),
                            _comult_tree(alg, t[1], memo))
        memo[t] = dt
    return dt


def comult(x):
    """Algebra morphism with Delta(a) = a(x)1 + 1(x)a on generators."""
    alg = x.algebra
    check_coideal(alg)
    cache = alg._hopf_comult  # integer rows, by basis monomial
    dx, xs = integer_row(x.coeffs)

    def images():
        for k, a in xs.items():
            hit = cache.get(k)
            if hit is None:
                cache[k] = hit = integer_row(_comult_tree(alg, alg.rep_tree[k], {}))
            yield a, hit

    den, out = sum_integer_rows(images())
    return rational_row(den * dx, out)


def comult3(x):
    """Left-nested iterated comultiplication (Delta (x) Id) Delta, as a
    dict from monomial triples to coefficients."""
    alg = x.algebra
    out = {}
    for (l, r), a in comult(x).items():
        accumulate(out, {(l1, l2, r): b for (l1, l2), b
                         in comult(alg.basis(l)).items()}, a)
    return out


def s_map(x):
    """The order-2 automorphism induced by a -> -a: (-1)^degree on monomials."""
    return Element(x.algebra, {k: a * _sign(x.algebra, k) for k, a in x.coeffs.items()})


def left_div(x, y):
    """x \\ y = S(x) y."""
    return s_map(x) * y


def right_div(y, x):
    """y / x = sum S(x_(3)) ((x_(1) y) S(x_(2)))."""
    alg = y.algebra
    return Element(alg, rational_row(*_right_div(alg, integer_row(y.coeffs),
                                                 integer_row(comult3(x)))))


def _basis(k):
    """The basis monomial k as an integer row."""
    return 1, {k: 1}


def _sign(alg, k):
    """S on the basis monomial k: (-1)^degree."""
    return -1 if alg.nf_degree[k] % 2 else 1


def _right_div(alg, y, split3):
    """y / x on integer rows: ``y`` and ``split3``, the ``comult3`` of x."""
    mul = alg.mul_rows
    d, triples = split3
    den, out = sum_integer_rows(
        (a * _sign(alg, k2) * _sign(alg, k3),
         mul(_basis(k3), mul(mul(_basis(k1), y), _basis(k2))))
        for (k1, k2, k3), a in triples.items())
    return den * d, out


def _same(r, s):
    """Whether two integer rows are the same rational vector."""
    (dr, wr), (ds, ws) = r, s
    return all(wr.get(k, 0) * ds == ws.get(k, 0) * dr for k in wr.keys() | ws.keys())


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
    monomials = alg.monomials_upto(degree)
    # by normal-form index: the monomials are the first indices
    delta = [comult(alg.monomial(v)) for v in monomials]
    for v, dx in zip(monomials, delta):
        x = alg.monomial(v)
        # coassociativity: (Delta (x) Id) Delta == (Id (x) Delta) Delta
        rhs = {}
        for (l, r), a in dx.items():
            accumulate(rhs, {(l, rl, rr): b for (rl, rr), b in delta[r].items()}, a)
        if comult3(x) != rhs:
            failures.append(("coassociativity", v))
        if {(r, l): a for (l, r), a in dx.items()} != dx:
            failures.append(("cocommutativity", v))
        if ({r: a for (l, r), a in dx.items() if l == 0} != x.coeffs
                or {l: a for (l, r), a in dx.items() if r == 0} != x.coeffs):
            failures.append(("counit law", v))
    for i, v in enumerate(monomials):
        for j, w in enumerate(alg.monomials_upto(min(degree, alg.cap - sum(v)))):
            if (comult(alg.monomial(v) * alg.monomial(w))
                    != tensor_mul(alg, delta[i], delta[j])):
                failures.append(("multiplicativity", v, w))
    return CheckReport(not failures, failures)


_DIVISION_IDENTITIES = ("sum x1 \\ (x2 y) != eps(x) y", "sum x1 (x2 \\ y) != eps(x) y",
                        "sum (y x1) / x2 != eps(x) y", "sum (y / x1) x2 != eps(x) y")


def check_divisions(alg, x, ys):
    """The four left/right division identities, exactly, for one x against
    every y of ``ys``: sum x1 \\ (x2 y), sum x1 (x2 \\ y), sum (y x1) / x2
    and sum (y / x1) x2 all equal eps(x) y.  Returns one list per y, of
    the identities that fail."""
    mul = alg.mul_rows
    ddx, dx = integer_row(comult(x))
    split3 = {k: integer_row(comult3(alg.basis(k)))
              for k in {k for pair in dx for k in pair}}
    out = []
    for y in ys:
        yr = integer_row(y.coeffs)
        x2y, yx1, ydiv = {}, {}, {}  # keyed by the leg they multiply
        terms = ([], [], [], [])
        for (k1, k2), a in dx.items():
            if k2 not in x2y:
                x2y[k2] = mul(_basis(k2), yr)
            if k1 not in yx1:
                yx1[k1] = mul(yr, _basis(k1))
                ydiv[k1] = _right_div(alg, yr, split3[k1])
            # S is (-1)^degree on monomials: x1 \ (x2 y) and x1 (x2 \ y)
            # are x1 (x2 y) up to sign
            p = mul(_basis(k1), x2y[k2])
            terms[0].append((a * _sign(alg, k1), p))
            terms[1].append((a * _sign(alg, k2), p))
            terms[2].append((a, _right_div(alg, yx1[k1], split3[k2])))
            terms[3].append((a, mul(ydiv[k1], _basis(k2))))
        target = integer_row((x.counit() * y).coeffs)
        lhs = (sum_integer_rows(t) for t in terms)
        out.append([name for name, (den, w) in zip(_DIVISION_IDENTITIES, lhs)
                    if not _same((den * ddx, w), target)])
    return out


def check_weak_assoc(alg, y, xs, zs):
    """sum x1 (y (x2 z)) == (sum x1 (y x2)) z, exactly, for one y against
    every x of ``xs`` and z of ``zs`` whose degrees sum to at most the cap.
    Returns ``(cases, failures)``: the number of (x, z) pairs compared and
    the index pairs (i, j) into ``xs`` and ``zs`` of those that fail."""
    mul = alg.mul_rows
    budget = alg.cap - y.degree()
    yr = integer_row(y.coeffs)
    # for each x within the budget: the room left for z, Delta x and
    # w = sum x1 (y x2), formed once; y x2 by x2
    splits, yx2 = [], {}
    for i, x in enumerate(xs):
        room = budget - x.degree()
        if room < 0:
            continue
        ddx, dx = integer_row(comult(x))
        for k1, k2 in dx:
            if k2 not in yx2:
                yx2[k2] = mul(yr, _basis(k2))
        den, w = sum_integer_rows((a, mul(_basis(k1), yx2[k2]))
                                  for (k1, k2), a in dx.items())
        splits.append((i, room, ddx, dx, (den * ddx, w)))
    cases, failures = 0, []
    for j, z in enumerate(zs):
        zr, degree = integer_row(z.coeffs), z.degree()
        yx2z = {}  # y (x2 z) by x2, for this z only
        for i, room, ddx, dx, w in splits:
            if degree > room:
                continue
            cases += 1
            for k1, k2 in dx:
                if k2 not in yx2z:
                    yx2z[k2] = mul(yr, mul(_basis(k2), zr))
            den, lhs = sum_integer_rows((a, mul(_basis(k1), yx2z[k2]))
                                        for (k1, k2), a in dx.items())
            if not _same((den * ddx, lhs), mul(w, zr)):
                failures.append((i, j))
    return cases, failures


def primitives(alg, degree):
    """Solution space of Delta(x) = x(x)1 + 1(x)x inside filtration(degree)."""
    check_coideal(alg)
    pair_index = {}  # tensor coordinates, numbered as they appear
    images = []
    # the monomials of degree <= degree are the first normal-form indices,
    # so the kernel's coordinates are normal-form indices
    for k in range(alg.count_upto(degree)):
        defect = comult(alg.basis(k))
        accumulate(defect, {(k, 0): ONE}, -ONE)
        accumulate(defect, {(0, k): ONE}, -ONE)
        images.append({pair_index.setdefault(p, len(pair_index)): a
                       for p, a in defect.items()})
    ambient = max(len(pair_index), 1)
    return echelonize(kernel(images, ambient).rows, alg.nf_size)
