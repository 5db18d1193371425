"""The paper's identity checks on a truncated enveloping algebra.

``IdentityChecks`` is a base class of ``EnvelopingAlgebra``: its methods
read the algebra's products (``mul_rows``, ``mul_basis``), its indices
(``exp_index``, ``nf_degree``, ``count_upto``) and its system.  Each
check takes elements and returns a bool, as the paper states the
identity (the Jordan operator identity, the derivation property of D,
the lemma's derivation residue, the full associator expansion), but
computes on integer rows read from the basis-product table: no
``Element`` and no ``Fraction`` per product.  An identity is tested as
one difference row: the products of its left side add into one
``exactlin.add_row`` accumulator in place (``into``, scaled by ``c``),
those of its right side into the same one with c = -1, and it holds when
no entry is left nonzero.  The accumulator keeps the zero entries its
sums leave, which the products skip, and a degree is read from the
nonzero entries only.  An inner product that is only read and whose
operands are both basis monomials is the table's shared row
(``basis_product``); every accumulator added into is a fresh one.
"""

from __future__ import annotations

from .exactlin import add_row, integer_row, unit_column
from .freealg import DegreeBudgetExceeded


class IdentityChecks:
    """The identity checks of ``EnvelopingAlgebra`` (see the module)."""

    def _power_index(self, g, n):
        """The normal-form index of g^n (of the unit for n = 0)."""
        return self.exp_index[tuple(n if i == g else 0 for i in range(self.d))]

    def _inject_row(self, v):
        """iota of a sparse T-coordinate vector, as an integer row."""
        den, w = integer_row(v)
        return den, {self.d - i: a for i, a in w.items()}

    def _basis_associator(self, i, y, k, into=None, c=1):
        """Add c ((b_i y) b_k - b_i (y b_k)), for basis monomials i, k and an
        integer row y, into the accumulator ``into`` (or a fresh one)."""
        mul, m = self.mul_basis, unit_column(y)
        iy, yk = ((mul(i, y), mul(k, y, right=True)) if m is None
                  else (self.basis_product(i, m), self.basis_product(m, k)))
        acc = mul(k, iy, right=True, into=into, c=c)
        return mul(i, yk, into=acc, c=-c)

    def _d_rows(self, a, b, z):
        """D_{a,b} z = a (b z) - b (a z) for basis monomials a, b and an
        integer row z."""
        mul, m = self.mul_basis, unit_column(z)
        az, bz = ((mul(a, z), mul(b, z)) if m is None
                  else (self.basis_product(a, m), self.basis_product(b, m)))
        return mul(b, az, into=mul(a, bz), c=-1)

    def check_jordan(self, a, x):
        """L_{ax+xa} == L_a L_x + L_x L_a on the safe filtration window."""
        k = self.cap - x.degree() - a.degree()
        if k < 0:
            raise DegreeBudgetExceeded("no domain left for the operator identity")
        mul, mul_basis, product = self.mul_rows, self.mul_basis, self.basis_product
        ar, xr = integer_row(a.coeffs), integer_row(x.coeffs)
        ma, mx = unit_column(ar), unit_column(xr)
        lhs_mult = mul(xr, ar, into=mul(ar, xr))
        for y in range(self.count_upto(k)):
            diff = mul_basis(y, lhs_mult, right=True)
            xy = mul_basis(y, xr, right=True) if mx is None else product(mx, y)
            ay = mul_basis(y, ar, right=True) if ma is None else product(ma, y)
            mul(ar, xy, into=diff, c=-1)
            if any(mul(xr, ay, into=diff, c=-1)[1].values()):
                return False
        return True

    def check_d_derivation(self, ai, bi, x, y):
        """D_{a,b}(xy) == D_{a,b}(x) y + x D_{a,b}(y), plus agreement on T."""
        if x.degree() + y.degree() + 2 > self.cap:
            raise DegreeBudgetExceeded("derivation check exceeds the degree budget")
        a, b, mul = self.d - ai, self.d - bi, self.mul_rows
        xr, yr = integer_row(x.coeffs), integer_row(y.coeffs)
        diff = self._d_rows(a, b, mul(xr, yr))
        mul(self._d_rows(a, b, xr), yr, into=diff, c=-1)
        if any(mul(xr, self._d_rows(a, b, yr), into=diff, c=-1)[1].values()):
            return False
        consts = self.system.constants
        for g in range(self.d):
            diff = add_row(self._d_rows(a, b, (1, {self.d - g: 1})), -1,
                           *self._inject_row(consts.get((ai, bi, g), {})))
            if any(diff[1].values()):
                return False
        return True

    def _lemma_residue(self, c, a, b, n):
        """(c^n,a,b) - n c^{n-1} (c,a,b) as an integer row, its zero
        entries kept (the top degree always cancels)."""
        d = self.d
        lhs = self._basis_associator(self._power_index(c, n), (1, {d - a: 1}), d - b)
        if n == 0:
            return lhs
        inner = self._basis_associator(d - c, (1, {d - a: 1}), d - b)
        return self.mul_basis(self._power_index(c, n - 1), inner, into=lhs, c=-n)

    def check_lemma_derivation(self, c, a, b, n):
        """(c^n,a,b) - n c^{n-1} (c,a,b) lies in filtration(n-2)."""
        if n + 2 > self.cap:
            raise DegreeBudgetExceeded("lemma check exceeds the degree budget")
        # filtration(n - 2) is the span of the monomials of degree <= n - 2;
        # the degree is read from the nonzero entries only
        deg = self.nf_degree
        _, w = self._lemma_residue(c, a, b, n)
        return all(deg[k] <= n - 2 for k, v in w.items() if v)

    def check_assoc_expansion(self, c, a, b, n):
        """Full associator expansion:
        (c^n,a,b) == n/2 c^{n-1} [a,c,b] - 1/2 sum_i (c^i, D_{a,c}(c^{n-1-i}), b),
        tested as one difference row: 2 (c^n,a,b) less the sum with its
        halves cleared.
        """
        if n + 2 > self.cap:
            raise DegreeBudgetExceeded("expansion check exceeds the degree budget")
        d, power = self.d, self._power_index
        ga, gb, gc = d - a, d - b, d - c
        diff = self._basis_associator(power(c, n), (1, {ga: 1}), gb, c=2)
        if n >= 1:
            bracket = self._inject_row(self.system.constants.get((a, c, b), {}))
            self.mul_basis(power(c, n - 1), bracket, into=diff, c=-n)
        for i in range(n - 1):
            mid = self._d_rows(ga, gc, (1, {power(c, n - 1 - i): 1}))
            self._basis_associator(power(c, i), mid, gb, into=diff)
        return not any(diff[1].values())
