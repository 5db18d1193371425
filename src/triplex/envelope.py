"""Degree-truncated universal enveloping algebra of a Lie triple system.

U_N(T) is the quotient of the free unital nonassociative algebra, within
degree N, by the two-sided ideal of the defining relators (``relators``).
It is built on the quotient side, one degree at a time (vector
enumeration), over symbols for the pairs of basis monomials, and
certified level by level (``_build``); the free monomial table only
guards the input's size and is the domain of ``reduce_tree``.

Each normal form is cached once, as an integer row ``(den, {k: int})``
keyed by its tree: the build, ``reduce_tree`` and the table of basis
products share these rows.  The table is one dict per left factor:
``_products[i][j]`` is the row of basis(i) basis(j) (``basis_product``).
``mul_rows`` multiplies two rows and ``mul_basis`` a row by one basis
monomial, for the identity checks of the paper (``identities``); the
right-ideal closures read the table themselves (``_right_products``).
Each adds into an ``exactlin.add_row`` accumulator, with no ``Element``
and no ``Fraction`` per product; ``Element`` is the boundary type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from itertools import product as iproduct
from math import comb

from .exactlin import (ONE, ZERO, Echelon, Subspace, accumulate, add_row, echelonize,
                       integer_row, nonzero_row, rational_row, same_row)
from .freealg import (MAX_MONOMIALS, UNIT, DegreeBudgetExceeded, MonomialTable, _trees,
                      graft, is_leaf, power_tree, tree_degree)
from .identities import IdentityChecks
from .lts import check_axioms, generated_ideal, integer_operators


class PBWCertificateFailure(RuntimeError):
    pass


def exponent_vectors(d, cap):
    """All exponent vectors with |k| <= cap, sorted by (degree, lex)."""
    out = [()]
    for _ in range(d):
        out = [v + (k,) for v in out for k in range(cap - sum(v) + 1)]
    return sorted(out, key=lambda v: (sum(v), v))


def representative_tree(exps):
    """b1^k1 * (b2^k2 * (... * bd^kd)); powers left-nested, blocks right-nested."""
    t = UNIT
    for g in range(len(exps) - 1, -1, -1):
        if exps[g]:
            t = graft(power_tree(g, exps[g]), t)
    return t


def relators(system, cap):
    """The lists of ``relator_families``, joined in their order."""
    return [rel for rels in relator_families(system, cap).values() for rel in rels]


def relator_families(system, cap):
    """The defining relators of U(T) within degree ``cap``, as sparse dicts
    tree -> coefficient, by family: "commutator", ab - ba of generators
    (cap >= 2); "nucleus", (a,m1,m2) + (m1,a,m2) for a generator a and
    representative monomials m1, m2 (``representative_tree``) with |m1| +
    |m2| < cap; "triple coherence", a(bc) - b(ac) - [a,b,c] (cap >= 3).
    With cap 3 these are the generator-level families, and m1, m2 are
    generators.  Coefficients are ``int``s (a structure constant that is
    not an integer stays a ``Fraction``).

    The nucleus relator is linear in m1 and in m2, so the representatives
    stand for every free monomial.  Let J be the two-sided ideal these
    relators generate within the budget, and J_full the one the nucleus
    family over all free trees generates.  Every relator here is one of
    those, so J lies in J_full.  Conversely:
    - J holds v m and m v for v in J of top degree s and monomials m with
      s + |m| <= cap: once no level collapses, J within degree s is the
      ideal generated within the budget s (see ``_build``).
    - If J passes the PBW certificate, the representatives of degree
      <= n span the monomials of degree <= n modulo J.  So a monomial
      m1 is rho1 + u1, with rho1 a combination of representatives of
      degree <= |m1| and u1 in J of top degree <= |m1|.  The unit
      representative gives the zero relator.
    - With u1 in place of m1 (or u2 in place of m2), each of the four
      terms of the nucleus relator, such as (a u1) m2 or m1 (a u2), is u1
      (or u2) multiplied by monomials one at a time, each product within
      the budget of the first point, so it lies in J.  So every relator
      of the full family lies in J, and J = J_full: every normal form,
      dimension and report is the same.
    A collapse in J is one in J_full too, so such a certificate failure
    carries over.  The only possible disagreement is a dimension failure
    of J where J_full passes, never a wrong normal form.
    """
    d = system.dim
    # the representatives of each degree 0..cap-2, in basis order
    reps = {}
    for v in exponent_vectors(d, cap - 2):
        reps.setdefault(sum(v), []).append(representative_tree(v))
    # lists, not generators: building the relators between the build's
    # insertions raised its peak memory (s2 at N=6: about 0.25 MiB)
    families = {"commutator": [], "nucleus": [], "triple coherence": []}

    def add(family, *terms):
        out = {}
        for c, t in terms:
            out[t] = out.get(t, 0) + c
        families[family].append({t: c for t, c in out.items() if c})

    if cap >= 2:
        for i in range(d):
            for j in range(i + 1, d):
                add("commutator", (1, (i, j)), (-1, (j, i)))
    # (a,m1,m2) + (m1,a,m2) = (a m1)m2 - a(m1 m2) + (m1 a)m2 - m1(a m2)
    for a in range(d):
        for n1 in range(1, cap - 1):
            for n2 in range(1, cap - n1):
                for m1 in reps[n1]:
                    for m2 in reps[n2]:
                        add("nucleus", (1, ((a, m1), m2)), (-1, (a, (m1, m2))),
                            (1, ((m1, a), m2)), (-1, (m1, (a, m2))))
    if cap >= 3:
        for i, j, k in iproduct(range(d), repeat=3):
            bracket = system.constants.get((i, j, k), {})
            add("triple coherence", (1, (i, (j, k))), (-1, (j, (i, k))),
                *((-(c.numerator if c.denominator == 1 else c), l)
                  for l, c in bracket.items()))
    return families


class EnvelopingAlgebra(IdentityChecks):
    """U(T) truncated at total degree ``cap``, with certified normal forms
    (and the identity checks of ``IdentityChecks``)."""

    def __init__(self, system, cap, max_monomials=MAX_MONOMIALS):
        report = check_axioms(system)
        if not report.ok:
            raise PBWCertificateFailure(
                f"input is not a Lie triple system: {report}")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.system = system
        self.cap = cap
        self.d = system.dim
        # the guarded domain of ``reduce_tree``: every tree within the cap
        self.table = MonomialTable(self.d, cap, max_monomials)

        # normal-form index k names the basis monomial exponents[k]: sorted by
        # degree, so generator g is index d - g, the same at every cap
        self.exponents = exponent_vectors(self.d, cap)
        self.exp_index = {v: i for i, v in enumerate(self.exponents)}
        self.nf_size = len(self.exponents)
        self.nf_degree = [sum(v) for v in self.exponents]
        self.rep_tree = [representative_tree(v) for v in self.exponents]
        self._rep_index = {t: k for k, t in enumerate(self.rep_tree)}

        # the one normal-form cache, tree -> integer row; _products[i][j], the
        # row of basis(i) basis(j) (``basis_product``); den -> {b: b/den}
        # (``reduce_tree``)
        self._nf_rows, self._nf_fractions = {}, {}
        self._products = [{} for _ in range(self.nf_size)]
        self._build()
        self._verify_power_bracketings()
        # right ideal closures eliminate with higher degrees first, so rows
        # with pivot degree <= k span the intersection with filtration(k);
        # closure column -> normal-form index, and back
        self._closure_nf = sorted(range(self.nf_size),
                                  key=lambda k: (-self.nf_degree[k], k))
        self._closure_col = sorted(range(self.nf_size), key=self._closure_nf.__getitem__)
        self._t_closure = self._r_ops = self._spans = None

    # -- construction -------------------------------------------------------

    def _build(self):
        """Build and certify U_{<=n} for n = 2..cap, one degree at a time.

        Level n eliminates over the symbols P(i, j) of non-unit basis
        monomials with deg i + deg j = n: those that are not
        representatives, then the representatives (column k - hi for basis
        monomial k, hi = ``count_upto(n)``), then the basis monomials k of
        degree < n (column k).  Its relators (at n = 2 also those of degree
        1) map term by term: a pair (l, r), or a generator l as (l, 1), to
        NF(l) * NF(r), where * sends a pair of total degree n to its symbol
        and a lower pair to its product.

        This is U_{<=n}: the kernel of the map from trees to symbols lies
        in the ideal ((l - NF(l)) r is in it within the budget); a product
        of an element of the ideal of lower degree and a monomial maps to
        0; and if no level collapses, the ideal of each smaller cap is the
        restriction of the ideal at this cap, since an element of the ideal
        whose terms of degree m cancel maps to a relation that pivots off
        the symbols at level m.  So level n fails if a relation pivots off
        the non-representative symbols (a lower level collapses) or if the
        rank is not their number (the dimension is not C(d+n, n)).
        """
        N, deg, sym, table = self.cap, self.nf_degree, {}, self.table
        by_level = [[] for _ in range(N + 1)]
        for rel in filter(None, relators(self.system, N)):
            by_level[max(2, *map(tree_degree, rel))].append(rel)
        # symbol (i, j) -> its column at level deg i + deg j; level n ->
        # (its echelon, count_upto(n))
        self._symbol, self._levels = sym, {}
        for n in range(2, N + 1):
            lo, hi = self.count_upto(n - 1), self.count_upto(n)
            for k in range(lo, hi):
                sym[tuple(self._rep_index[h] for h in self.rep_tree[k])] = k - hi
            others = [(i, j) for i in range(1, lo) for j in range(1, lo)
                      if deg[i] + deg[j] == n and (i, j) not in sym]
            sym.update(zip(others, range(lo - hi - len(others), lo - hi)))
            ech = Echelon()
            for rel in by_level[n]:
                ech.insert(self._relation_row(rel, n))
            pivots = ech.pivots()
            if pivots and pivots[-1] >= lo - hi:
                raise PBWCertificateFailure(
                    f"level {n} collapsed: a relation pivots off the {len(others)} "
                    f"non-representative symbols (rank {len(pivots)})")
            if len(pivots) != len(others):
                raise PBWCertificateFailure(
                    f"quotient dimension {hi + len(others) - len(pivots)} at filtration "
                    f"level {n} does not match the symmetric-algebra count {hi} "
                    f"(rank {len(pivots)}, {len(others)} non-representative symbols)")
            self._levels[n] = ech, hi
        self.degree_dims = [self.count_upto(n) for n in range(N + 1)]
        # the relation span within degree n: the free monomials less the basis
        self.relspan_degree_dims = [table.degree_start[n + 1] - m
                                    for n, m in enumerate(self.degree_dims)]
        self.relspan_dim = table.size - self.nf_size

    def _relation_row(self, rel, n):
        """The image of ``rel`` at level n, over that level's columns (see
        ``_build``), from its halves' cached rows (a generator g is g * 1)."""
        deg, sym, acc = self.nf_degree, self._symbol, [1, {}]
        for t, c in rel.items():
            num, den = c.numerator, c.denominator
            (dx, xs), (dy, ys) = map(self._nf_row, (t, UNIT) if is_leaf(t) else t)
            for i, a in xs.items():
                for j, b in ys.items():
                    dp, row = (self.basis_product(i, j) if deg[i] + deg[j] < n
                               else (1, {sym[i, j]: 1}))
                    add_row(acc, num * a * b, den * dx * dy * dp, row)
        return acc[1]

    def _verify_power_bracketings(self):
        # every bracketing of g^n (n <= 4) has one normal form: a check of
        # the products, since a tree's normal form is its halves' product
        for g in range(self.d):
            for n in range(2, min(4, self.cap) + 1):
                target = self._nf_row(power_tree(g, n))
                for shape in _trees(1, n):
                    if not same_row(self._nf_row(_relabel(shape, g)), target):
                        raise PBWCertificateFailure(
                            f"power of generator {g} depends on bracketing at n={n}")

    # -- normal forms -------------------------------------------------------

    def reduce_tree(self, t):
        """Normal form of a single monomial tree, as a fresh ``Element``.

        It is made from the tree's integer row ``(den, {k: int})``, cached
        once per algebra and not in lowest terms (``_nf_row``).  A pair of
        representatives is a symbol of its level, reduced by that level's
        echelon; any other pair is the product of its halves' rows.  Each
        value is formed once per algebra, into a fresh ``_trusted`` dict."""
        row = self._nf_rows.get(t)
        if row is None:
            if t not in self.table.index:
                # the table holds every monomial within the cap
                if tree_degree(t) > self.cap:
                    raise DegreeBudgetExceeded(
                        f"monomial degree {tree_degree(t)} exceeds cap {self.cap}")
                raise ValueError(f"{t!r} is not a monomial tree on d={self.d} "
                                 f"generators (cap {self.cap})")
            if t == UNIT or is_leaf(t):
                row = 1, {0 if t == UNIT else self.d - t: 1}
            else:
                left, right = t
                i, j = self._rep_index.get(left), self._rep_index.get(right)
                if i is not None and j is not None:
                    ech, hi = self._levels[self.nf_degree[i] + self.nf_degree[j]]
                    # an int unit vector: the echelon takes it without a rescale
                    residue = ech.reduce({self._symbol[i, j]: 1})
                    row = integer_row({c + hi if c < 0 else c: a
                                       for c, a in residue.items()})
                else:
                    row = nonzero_row(*self.mul_rows(self._nf_row(left),
                                                     self._nf_row(right)))
            self._nf_rows[t] = row
        return Element._trusted(self, rational_row(*row, self._nf_fractions))

    def _nf_row(self, t):
        """A tree's cached integer row (shared: do not mutate); ``reduce_tree`` fills it."""
        row = self._nf_rows.get(t)
        if row is None:
            self.reduce_tree(t)
            row = self._nf_rows[t]
        return row

    def zero(self):
        return Element._trusted(self, {})

    def basis(self, k):
        """The basis monomial of normal-form index k."""
        return Element._trusted(self, {k: ONE})

    def one(self):
        return self.basis(0)

    def generator(self, g):
        return self.power(g, 1)

    def inject(self, v):
        """iota: a sparse T-coordinate vector as a degree-1 element."""
        return Element(self, {self.d - i: a for i, a in v.items()})

    def power(self, g, n):
        """g^n as a normal-form monomial (bracketing independent)."""
        if not 0 <= g < self.d:
            raise ValueError(f"no generator {g} on d={self.d} generators "
                             f"(cap {self.cap})")
        if n > self.cap:
            raise DegreeBudgetExceeded(f"power {n} exceeds cap {self.cap}")
        return self.monomial(tuple(n if i == g else 0 for i in range(self.d)))

    def monomial(self, exps):
        if len(exps) != self.d or min(exps, default=0) < 0:
            raise ValueError(f"{exps} is not an exponent vector on d={self.d} "
                             f"generators (cap {self.cap})")
        if sum(exps) > self.cap:
            raise DegreeBudgetExceeded(
                f"monomial degree {sum(exps)} exceeds cap {self.cap}")
        return self.basis(self.exp_index[tuple(exps)])

    def count_upto(self, k):
        """How many monomials have degree <= k: they are the first indices."""
        k = min(k, self.cap)
        return comb(self.d + k, k) if k >= 0 else 0

    def monomials_upto(self, k):
        """Exponent vectors of total degree <= k, in basis order."""
        return self.exponents[:self.count_upto(k)]

    def filtration(self, k):
        """Span of normal-form monomials of total degree <= k."""
        return Echelon(range(self.count_upto(k))).subspace(self.nf_size)

    # -- products and operators --------------------------------------------

    def basis_product(self, i, j):
        """The product of the basis monomials of normal-form indices i and j
        as an integer row ``(den, {k: int})`` over normal-form indices, from
        a table filled on first use: the cached row of the grafted
        representatives (shared rows: do not mutate), kept as
        ``_products[i][j]``."""
        row = self._products[i].get(j)
        if row is None:
            di, dj = self.nf_degree[i], self.nf_degree[j]
            if di + dj > self.cap:
                raise DegreeBudgetExceeded(
                    f"product degree {di}+{dj} exceeds cap {self.cap}")
            row = self._products[i][j] = self._nf_row(
                graft(self.rep_tree[i], self.rep_tree[j]))
        return row

    def mul(self, x, y):
        if x.degree() + y.degree() > self.cap:
            raise DegreeBudgetExceeded(
                f"product degree {x.degree()}+{y.degree()} exceeds cap {self.cap}")
        return Element._trusted(self, rational_row(*self.mul_rows(integer_row(x.coeffs),
                                                                  integer_row(y.coeffs))))

    def mul_rows(self, x, y, into=None, c=1):
        """Add c * x y, for integer rows x and y over normal-form indices,
        into the accumulator ``into`` (``exactlin.add_row``), or into a
        fresh one, and return it (its zero entries kept): one ``mul_basis``
        call per nonzero term of the shorter row, so a cancelled term never
        asks ``basis_product`` for its pair."""
        (dx, xs), (dy, ys) = x, y
        acc = [1, {}] if into is None else into
        right = len(ys) < len(xs)
        outer, inner = (ys, (dx * dy, xs)) if right else (xs, (dx * dy, ys))
        for i, a in outer.items():
            if a:
                self.mul_basis(i, inner, right=right, into=acc, c=c * a)
        return acc

    def mul_basis(self, k, x, right=False, into=None, c=1):
        """Add c * basis(k) x, or c * x basis(k) when ``right``, for an
        integer row x, into the accumulator ``into`` (never x itself or a
        shared row), or into a fresh one, and return it, its zero entries
        kept.  Each nonzero term of x reads one table row, except by the
        unit (k = 0: graft(UNIT, t) is t), and is added in place."""
        dx, xs = x
        acc = [1, {}] if into is None else into
        w = acc[1]
        if k == 0:
            for i, a in xs.items():
                if a:
                    if dx != acc[0]:
                        add_row(acc, 0, dx, {})
                    w[i] = w.get(i, 0) + c * a * (acc[0] // dx)
            return acc
        table, product = self._products, self.basis_product
        left = table[k]
        for i, a in xs.items():
            if a:
                d, row = ((table[i].get(k) or product(i, k)) if right
                          else (left.get(i) or product(k, i)))
                d *= dx
                if d != acc[0]:
                    add_row(acc, 0, d, {})
                a *= c * (acc[0] // d)
                for j, b in row.items():
                    w[j] = w.get(j, 0) + a * b
        return acc

    def associator(self, x, y, z):
        return (x * y) * z - x * (y * z)

    # -- ideals --------------------------------------------------------------

    def augmentation_ideal(self):
        """Span of all normal-form monomials of degree >= 1 (= ker of counit)."""
        return Echelon(range(1, self.nf_size)).subspace(self.nf_size)

    def right_ideal_closure(self, gens):
        """Closure I of span(gens) under right multiplication by monomials.

        A row of top degree t is multiplied by every monomial m with
        1 <= |m| <= cap - t (``_right_products``, on the closure's columns:
        higher degrees first, so T just before the unit, last), until the
        span is closed or its final value is known.  A generator of nonzero
        counit enters the echelon only once the rest is saturated; until
        then only its products do.  The counit is multiplicative, so the
        echelon lies in the augmentation ideal A, and its rows with a pivot
        in T lie in T.  The rule: I holds the ideal of T that these T-rows
        generate; once that is T, I holds the closure of T, which the rule
        needs to be A (``closure_of_t``).  For t in I and T:
        - for generators a and b, I holds (ta)b and t(ab), so (t,a,b);
        - 2(t,a,b) = [a,t,b] = -[t,a,b] (``check_assoc_expansion`` at n = 1,
          checked once per algebra; below cap 3 the rule takes the span
          of the T-rows);
        - so I meets T in an ideal of T: a subspace stable under the R_{b,c};
        - a generator x of nonzero counit puts x - e(x) 1 in A, so 1 in I.
        ``exit`` names the stop: "t" (the rule) or "ceiling" (the echelon
        has the dimension of A), with the closure A, or "unit" for either
        with a generator of nonzero counit, with the closure U: each reads
        its fields off A or U, with no elimination; or "saturated".
        """
        return self._close(gens, t_exit=True)

    def closure_of_t(self):
        """The right ideal closure of T (of the d generators), computed
        once per algebra, without the "t" exit that rests on it."""
        if self._t_closure is None:
            self._t_closure = self._close(
                [self.generator(g) for g in range(self.d)], t_exit=False)
        return self._t_closure

    def _close(self, gens, t_exit):
        if not gens:
            raise ValueError("right_ideal_closure needs at least one generator")
        N, n, d, deg = self.cap, self.nf_size, self.d, self.nf_degree
        nf, col = self._closure_nf, self._closure_col
        unit = n - 1
        vecs = [({col[k]: a for k, a in integer_row(g.coeffs)[1].items()}, g.counit())
                for g in gens]
        kept = [v for v, counit in vecs if counit]
        # the T-rows' ideal of T (None: the rule is off), and its operators
        t_ech = Echelon() if t_exit and self.closure_of_t().subspace.dim == unit else None
        if t_ech is not None and self._r_ops is None:
            self._r_ops = list(integer_operators(self.system).values()) if N >= 3 and all(
                self.check_assoc_expansion(i, j, k, 1)
                for i, j, k in iproduct(range(d), repeat=3)) else []
        ech, queue, stop = Echelon(), [], "saturated"
        # every vector inserted here is a fresh dict of nonzero ints
        for vec in chain((v for v, counit in vecs if not counit),
                         self._right_products(chain(kept, queue))):
            if (row := ech._insert(vec)) is None:
                continue
            queue.append(row)
            if t_ech is not None and min(row) >= unit - d and generated_ideal(
                    t_ech, [{d - nf[c]: a for c, a in row.items()}],
                    self._r_ops, d).dim == d:
                stop = "t"
            elif ech.dim == unit:
                stop = "ceiling"
            else:
                continue
            break
        safe = N - max(g.degree() for g in gens)
        if stop != "saturated":
            # U with a kept generator, else A, which misses only the unit:
            # every field is known, with no elimination
            if self._spans is None:
                self._spans = self.augmentation_ideal(), self.filtration(N)
            one = bool(kept)
            dims = [self.count_upto(k) - (not one) for k in range(N + 1)]
            stable = 0 if one else 1 if safe else None
            return IdealClosure(self._spans[one], dims, one, d, stable, safe,
                                "unit" if one else stop)
        # the kept generators last: only a row whose top degree fell below
        # its generator's has products that the generator's did not cover
        rows = [(deg[nf[min(vec)]], ech._insert(vec)) for vec in kept]
        queue += [row for _, row in rows if row is not None]
        fell = [row for was, row in rows if row is not None and deg[nf[min(row)]] < was]
        for vec in self._right_products(chain(fell, islice(queue, len(queue), None))):
            if (row := ech._insert(vec)) is not None:
                queue.append(row)
        pivots = ech.pivots()
        per_degree = [sum(1 for p in pivots if deg[nf[p]] <= k) for k in range(N + 1)]
        # the span meets filtration(1) in T unless one of its rows (the queue
        # holds them all) has a unit term
        meets_t = per_degree[1] - any(unit in row for row in queue if min(row) >= unit - d)
        # the first stratum n0 such that every monomial of degree n0..safe is
        # inside: one above the top degree of a monomial outside
        top = next((deg[k] for k in reversed(range(self.count_upto(safe)))
                    if not ech.contains({col[k]: 1})), -1)
        subspace = echelonize(({nf[c]: a for c, a in row.items()} for row in queue), n)
        return IdealClosure(subspace, per_degree, unit in pivots, meets_t,
                            top + 1 if top < safe else None, safe, stop)

    def _right_products(self, queue):
        """Yield r * m for each integer row r of ``queue`` (rows appended
        while this runs included) and each monomial m within the budget of
        r's top degree, as a fresh dict of nonzero ints over closure
        columns, a positive multiple of r * m: each term's table row is
        added into one accumulator, which ``add_row`` rescales."""
        deg, col, nf = self.nf_degree, self._closure_col, self._closure_nf
        table, product = self._products, self.basis_product
        for row in queue:
            terms = [(table[nf[c]], nf[c], a) for c, a in row.items()]
            # the pivot is the row's lowest column, and so its top degree;
            # the monomials of degree 1..k have normal-form indices 1..
            for m in range(1, self.count_upto(self.cap - deg[nf[min(row)]])):
                acc = [1, {}]
                w = acc[1]
                for left, i, a in terms:
                    d, prod = left.get(m) or product(i, m)
                    if d != acc[0]:
                        add_row(acc, 0, d, {})
                        a *= acc[0] // d
                    for k, b in prod.items():
                        k = col[k]
                        w[k] = w.get(k, 0) + a * b
                yield {k: b for k, b in w.items() if b}


def _relabel(shape, g):
    """Replace every leaf of a tree shape by generator g."""
    if isinstance(shape, int):
        return g
    return (_relabel(shape[0], g), _relabel(shape[1], g))


@dataclass
class IdealClosure:
    subspace: Subspace
    per_degree_dims: list
    contains_one: bool
    meets_t_dim: int
    stabilization_degree: int | None
    safe_window: int
    # which stop ended the closure (see ``right_ideal_closure``); it stays
    # out of every report
    exit: str = "saturated"


class Element:
    """An element of a truncated enveloping algebra in normal-form coordinates:
    ``coeffs`` maps normal-form indices k to nonzero ``Fraction``s.  Index k
    names the representative monomial b1^k1 (b2^k2 (...)) of the exponent
    vector ``algebra.exponents[k]``; the indices are sorted by degree, and
    ``terms`` and ``format`` name them by their exponent vectors.

    Elements are equal only when they belong to the same algebra object.
    """

    __slots__ = ("coeffs", "algebra")

    def __init__(self, algebra, coeffs):
        self.coeffs = {k: a if type(a) is Fraction else Fraction(a)
                       for k, a in coeffs.items() if a}
        self.algebra = algebra

    @classmethod
    def _trusted(cls, algebra, coeffs):
        """Unchecked: ``coeffs`` unshared, with nonzero ``Fraction``s only."""
        x = cls.__new__(cls)
        x.coeffs, x.algebra = coeffs, algebra
        return x

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return Element._trusted(self.algebra, accumulate(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return Element._trusted(self.algebra,
                                accumulate(dict(self.coeffs), other.coeffs, -ONE))

    def __neg__(self):
        return Element._trusted(self.algebra, {k: -a for k, a in self.coeffs.items()})

    def __rmul__(self, a):
        a = a if type(a) is Fraction else Fraction(a)
        return Element._trusted(self.algebra,
                                {k: a * c for k, c in self.coeffs.items()} if a else {})

    def __eq__(self, other):
        if type(other) is not Element:
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def degree(self):
        return self.algebra.nf_degree[max(self.coeffs)] if self.coeffs else 0

    def counit(self):
        return self.coeffs.get(0, ZERO)

    def terms(self):
        """(exponent vector, coefficient) pairs in (degree, lex) order."""
        exps = self.algebra.exponents
        return [(exps[k], a) for k, a in sorted(self.coeffs.items())]

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.mul(self, other)
        return NotImplemented

    def format(self):
        names = self.algebra.system.basis_names
        if not self.coeffs:
            return "0"
        parts = []
        for v, a in self.terms():
            factors = [f"{names[i]}^{k}" if k > 1 else names[i]
                       for i, k in enumerate(v) if k]
            body = "*".join(factors) if factors else "1"
            if factors and abs(a) != 1:
                body = f"{abs(a)}*{body}"
            elif not factors:
                body = str(abs(a))
            parts.append((a < 0, body))
        neg, body = parts[0]
        out = ("-" if neg else "") + body
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"<{self.format()}>"


def build(system, cap, max_monomials=MAX_MONOMIALS):
    """Construct the degree-truncated enveloping algebra of a triple system."""
    return EnvelopingAlgebra(system, cap, max_monomials)
