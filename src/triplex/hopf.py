"""H-bialgebra structure on the truncated enveloping algebra.

Inside this module a tensor in U(x)U is an integer row ``(den, {(left,
right): int})`` over pairs of normal-form indices (``comult3``'s rows
have a third leg); ``_tensor_rows`` multiplies two legwise through the
algebra's basis-product table, reading the two table dicts of each outer
term's legs once, into one ``exactlin.add_row`` accumulator.
``Fraction``s appear only at the API boundary: ``comult`` and ``comult3``
return dicts ``{(left, right): Fraction}`` without zero entries.

The comultiplication is the algebra morphism with Delta(a) = a(x)1 +
1(x)a on generators.  It is evaluated on a free tree as the legwise
product of its halves' images, and cached per tree, once per algebra, as
an integer row: the halves of a representative tree are representative
trees, so each distinct tree is split once.  Delta of a basis row is its
tree's shared cached row itself, which no caller mutates.  This is sound
because Delta descends to the quotient: ``check_coideal`` certifies that
the generator-level relator families are coideal elements, once per
algebra before the first comultiplication, and the representative trees
of its memo start the cache.  ``check_coalgebra`` checks the cached rows
exactly: coassociativity, cocommutativity, the counit laws (``same_row``),
and multiplicativity (the legwise product of the rows of i and j less
Delta of each term of the product row of (i, j), added into one
difference row).

Coassociativity, multiplicativity and the division and
weak-associativity checks test each identity as one difference row: the
products of its left side add into an accumulator, those of its right
side into the same one with c = -1, and it holds when no entry is left
nonzero.  A product by one basis monomial goes through
``EnvelopingAlgebra.mul_basis`` (one table row per term, none for the
unit), of two rows through ``mul_rows``; a product that is only read and
whose operands are both basis monomials (told apart once per element by
``exactlin.unit_column``) is the shared table row (``basis_product``).
Each check forms what does not depend on its inner loop once:
``check_divisions`` splits x and its split's legs once for all its ys;
``check_weak_assoc`` forms Delta x and w = sum x1 (y x2) once per x, and
y (x2 z) once per (x2, z), shared by the xs whose splits hold x2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import (ONE, accumulate, add_row, echelonize, integer_row, kernel,
                       nonzero_row, rational_row, same_row, sum_integer_rows, unit_column)
from .envelope import Element, PBWCertificateFailure, relator_families
from .freealg import UNIT, is_leaf
from .freealg import tree_degree  # noqa: F401 (perfbench traces hopf.tree_degree)


def _tensor_rows(alg, s, t):
    """Legwise product of two integer tensor rows, as an accumulator (its
    zero entries kept): the outer product of the two table rows of each
    pair of terms, added in place once ``add_row`` (given no entries, and
    only for a new denominator) has brought it to a common denominator."""
    (ds, s), (dt, t) = s, t
    table, product = alg._products, alg.basis_product
    acc, d = [1, {}], ds * dt
    w = acc[1]
    for (l1, r1), a in s.items():
        lefts, rights = table[l1], table[r1]
        for (l2, r2), b in t.items():
            d1, left = lefts.get(l2) or product(l1, l2)
            d2, right = rights.get(r2) or product(r1, r2)
            dd = d1 * d2 * d
            if dd != acc[0]:
                add_row(acc, 0, dd, {})
            c = a * b * (acc[0] // dd)
            for kl, p in left.items():
                p *= c
                for kr, q in right.items():
                    w[kl, kr] = w.get((kl, kr), 0) + p * q
    return acc


def _comult_tree(alg, t, memo):
    """Delta of a free tree as an integer tensor row: 1(x)1 for the unit,
    g(x)1 + 1(x)g for a generator g, and the legwise product of its
    halves' images for a pair.  ``memo`` maps the subtrees seen so far to
    their (shared) images."""
    dt = memo.get(t)
    if dt is None:
        if t == UNIT:
            dt = 1, {(0, 0): 1}
        elif is_leaf(t):
            g = alg.d - t  # the generator's normal-form index
            dt = 1, {(g, 0): 1, (0, g): 1}
        else:
            dt = nonzero_row(*_tensor_rows(alg, _comult_tree(alg, t[0], memo),
                                           _comult_tree(alg, t[1], memo)))
        memo[t] = dt
    return dt


def _comult_basis(alg, k):
    """Delta of the basis monomial k: its representative tree's row in the
    per-algebra cache that ``check_coideal`` leaves (shared: do not mutate)."""
    return _comult_tree(alg, alg.rep_tree[k], alg._hopf_comult)


def _comult_rows(alg, x):
    """Delta of the integer row x over normal-form indices, as an integer
    tensor row without zero entries (of a basis row, the shared cached one)."""
    check_coideal(alg)
    k = unit_column(x)
    if k is not None:
        return _comult_basis(alg, k)
    dx, xs = x
    den, out = sum_integer_rows((a, _comult_basis(alg, k)) for k, a in xs.items())
    return nonzero_row(den * dx, out)


def _legs3(alg, x, left, into=None, c=1):
    """Add c (Delta (x) Id) x if ``left``, else c (Id (x) Delta) x, for an
    integer tensor row x, into the accumulator ``into`` over triples (or a
    fresh one), and return it (its zero entries kept)."""
    dx, xs = x
    acc = [1, {}] if into is None else into
    for (l, r), a in xs.items():
        d, w = _comult_basis(alg, l if left else r)
        add_row(acc, c * a, d * dx, {(*p, r) if left else (l, *p): b for p, b in w.items()})
    return acc


def comult(x):
    """Algebra morphism with Delta(a) = a(x)1 + 1(x)a on generators."""
    return rational_row(*_comult_rows(x.algebra, integer_row(x.coeffs)))


def comult3(x):
    """Left-nested iterated comultiplication (Delta (x) Id) Delta, as a
    dict from monomial triples to coefficients."""
    alg = x.algebra
    return rational_row(*_legs3(alg, _comult_rows(alg, integer_row(x.coeffs)), True))


def s_map(x):
    """The order-2 automorphism induced by a -> -a: (-1)^degree on monomials."""
    return Element._trusted(x.algebra,
                            {k: a * _sign(x.algebra, k) for k, a in x.coeffs.items()})


def _sign(alg, k):
    """S on the basis monomial k: (-1)^degree."""
    return -1 if alg.nf_degree[k] % 2 else 1


def _right_div(alg, y, split3, into=None, c=1):
    """Add c (y / x) = c sum S(x_(3)) ((x_(1) y) S(x_(2))) into the
    accumulator ``into`` (or a fresh one), for an integer row ``y`` and
    ``split3``, the ``comult3`` of x."""
    mul = alg.mul_basis
    d, triples = split3
    y = y[0] * d, y[1]  # the split's denominator rides on y's
    acc = [1, {}] if into is None else into
    for (k1, k2, k3), a in triples.items():
        mul(k3, mul(k2, mul(k1, y), right=True), into=acc,
            c=c * a * _sign(alg, k2) * _sign(alg, k3))
    return acc


def check_coideal(alg):
    """Certify Delta descends to the quotient: the generator-level relator
    families (``relator_families`` up to degree 3) have zero comultiplication
    in U(x)U, exactly, or the failure names the family and the index there.
    Passing keeps the representative trees of its memo as the per-algebra
    cache of Delta by tree, which ``comult`` reads and fills (the other
    subtrees of the relators are never read again)."""
    if getattr(alg, "_hopf_comult", None) is not None:
        return
    memo = {}
    for family, rels in relator_families(alg.system, min(alg.cap, 3)).items():
        for i, rel in enumerate(rels):
            _, acc = sum_integer_rows((c, _comult_tree(alg, t, memo))
                                      for t, c in integer_row(rel)[1].items())
            if any(acc.values()):
                raise PBWCertificateFailure(
                    f"a defining relator is not a coideal element: {family} relator {i}")
    alg._hopf_comult = {t: memo[t] for t in alg.rep_tree if t in memo}


@dataclass
class CheckReport:
    ok: bool
    failures: list = field(default_factory=list)


def check_coalgebra(alg, degree):
    """Coassociativity, cocommutativity, counit laws and multiplicativity,
    on the cached integer rows."""
    check_coideal(alg)
    failures = []
    monomials = alg.monomials_upto(degree)
    # by normal-form index: the monomials are the first indices
    delta = [_comult_basis(alg, k) for k in range(len(monomials))]
    for k, (v, dx) in enumerate(zip(monomials, delta)):
        den, w = dx
        # coassociativity: (Delta (x) Id) Delta - (Id (x) Delta) Delta == 0
        if any(_legs3(alg, dx, False, into=_legs3(alg, dx, True), c=-1)[1].values()):
            failures.append(("coassociativity", v))
        if not same_row((den, {(r, l): a for (l, r), a in w.items()}), dx):
            failures.append(("cocommutativity", v))
        x = 1, {k: 1}
        if not (same_row((den, {r: a for (l, r), a in w.items() if l == 0}), x)
                and same_row((den, {l: a for (l, r), a in w.items() if r == 0}), x)):
            failures.append(("counit law", v))
    for i, v in enumerate(monomials):
        for j, u in enumerate(alg.monomials_upto(min(degree, alg.cap - sum(v)))):
            # the legwise product less Delta of each term of the product row
            diff = _tensor_rows(alg, delta[i], delta[j])
            dp, product = alg.basis_product(i, j)
            for k, a in product.items():
                dk, row = _comult_basis(alg, k)
                add_row(diff, -a, dp * dk, row)
            if any(diff[1].values()):
                failures.append(("multiplicativity", v, u))
    return CheckReport(not failures, failures)


_DIVISION_IDENTITIES = ("sum x1 \\ (x2 y) != eps(x) y", "sum x1 (x2 \\ y) != eps(x) y",
                        "sum (y x1) / x2 != eps(x) y", "sum (y / x1) x2 != eps(x) y")


def check_divisions(alg, x, ys):
    """The four left/right division identities, exactly, for one x against
    every y of ``ys``: sum x1 \\ (x2 y), sum x1 (x2 \\ y), sum (y x1) / x2
    and sum (y / x1) x2 all equal eps(x) y.  Returns one list per y, of
    the identities that fail."""
    mul, product, e = alg.mul_basis, alg.basis_product, x.counit()
    ddx, dx = _comult_rows(alg, integer_row(x.coeffs))
    split3 = {k: nonzero_row(*_legs3(alg, _comult_basis(alg, k), True))
              for k in {k for pair in dx for k in pair}}
    out = []
    for y in ys:
        yr = integer_row(y.coeffs)
        m = unit_column(yr)
        x2y, yx1, ydiv = {}, {}, {}  # keyed by the leg they multiply
        lhs = [[1, {}] for _ in _DIVISION_IDENTITIES]
        for (k1, k2), a in dx.items():
            if k2 not in x2y:
                x2y[k2] = mul(k2, yr) if m is None else product(k2, m)
            if k1 not in yx1:
                yx1[k1] = mul(k1, yr, right=True) if m is None else product(m, k1)
                ydiv[k1] = _right_div(alg, yr, split3[k1])
            # S is (-1)^degree on monomials: x1 \ (x2 y) and x1 (x2 \ y)
            # are x1 (x2 y) up to sign
            p = mul(k1, x2y[k2])
            add_row(lhs[0], a * _sign(alg, k1), *p)
            add_row(lhs[1], a * _sign(alg, k2), *p)
            _right_div(alg, yx1[k1], split3[k2], into=lhs[2], c=a)
            mul(k2, ydiv[k1], right=True, into=lhs[3], c=a)
        # each side less eps(x) y
        for acc in lhs:
            acc[0] *= ddx
            add_row(acc, -e.numerator, e.denominator * yr[0], yr[1])
        out.append([name for name, (_, w) in zip(_DIVISION_IDENTITIES, lhs)
                    if any(w.values())])
    return out


def check_weak_assoc(alg, y, xs, zs):
    """sum x1 (y (x2 z)) == (sum x1 (y x2)) z, exactly, for one y against
    every x of ``xs`` and z of ``zs`` whose degrees sum to at most the cap.
    Returns ``(cases, failures)``: the number of (x, z) pairs compared and
    the index pairs (i, j) into ``xs`` and ``zs`` of those that fail."""
    mul, product = alg.mul_basis, alg.basis_product
    budget = alg.cap - y.degree()
    yr = integer_row(y.coeffs)
    m = unit_column(yr)
    # for each x within the budget: the room left for z, Delta x and
    # w = sum x1 (y x2), formed once; y x2 by x2
    splits, yx2 = [], {}
    for i, x in enumerate(xs):
        room = budget - x.degree()
        if room < 0:
            continue
        ddx, dx = _comult_rows(alg, integer_row(x.coeffs))
        w = [1, {}]
        for (k1, k2), a in dx.items():
            if k2 not in yx2:
                yx2[k2] = mul(k2, yr, right=True) if m is None else product(m, k2)
            mul(k1, yx2[k2], into=w, c=a)
        w[0] *= ddx
        splits.append((i, room, ddx, dx, w))
    cases, failures = 0, []
    for j, z in enumerate(zs):
        zr, degree = integer_row(z.coeffs), z.degree()
        n = unit_column(zr)
        yx2z = {}  # y (x2 z) by x2, for this z only
        for i, room, ddx, dx, w in splits:
            if degree > room:
                continue
            cases += 1
            lhs = [1, {}]
            for (k1, k2), a in dx.items():
                if k2 not in yx2z:
                    yx2z[k2] = alg.mul_rows(yr, mul(k2, zr) if n is None else product(k2, n))
                mul(k1, yx2z[k2], into=lhs, c=a)
            lhs[0] *= ddx
            if any(alg.mul_rows(w, zr, into=lhs, c=-1)[1].values()):
                failures.append((i, j))
    return cases, failures


def primitives(alg, degree):
    """Solution space of Delta(x) = x(x)1 + 1(x)x inside filtration(degree)."""
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
