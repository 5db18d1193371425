"""Degree-truncated universal enveloping algebra of a Lie triple system.

Built as a quotient of the free unital nonassociative algebra by the
span of the defining relators (the list ``relators`` returns), closed into
a two-sided ideal within the degree budget.  The nucleus relators take
their monomial arguments among the normal-form representatives only; the
certificate is what shows that this closes the same ideal as the family
over all free monomials (see ``relators``).  The build runs on free-table
indices, with products from ``MonomialTable.pairs``; trees appear only at
the boundary: the relators, the argument of ``reduce_tree`` and the
representatives ``rep_tree``.  The closure is scheduled by
degree: vectors enter the echelon in order of their top degree, so every
lower-degree pivot is in place when a row is reduced and the stored rows
stay short.  The quotient is certified a posteriori: the dimension at
every filtration level must match the symmetric-algebra count, and the
normal-form representatives (exponent-vector monomials) must survive as
non-pivot columns; otherwise the build aborts.

Products of normal forms read one table of basis products, each an
integer row ``(den, {k: int})``: ``mul_rows`` multiplies two rows,
``mul_basis`` a row by one basis monomial, each adding its product into
an ``exactlin.add_row`` accumulator.  The right-ideal closures and
the identity checks of the paper (``identities.IdentityChecks``, a base
class of ``EnvelopingAlgebra``) run on these rows, with no ``Element``
and no ``Fraction`` per product; ``Element`` is the boundary type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from itertools import product as iproduct
from math import comb

from .exactlin import (ONE, ZERO, Echelon, Subspace, accumulate, add_row,
                       echelonize, integer_row, rational_row)
from .freealg import (MAX_MONOMIALS, UNIT, DegreeBudgetExceeded, MonomialTable, _trees,
                      graft, power_tree, tree_degree)
from .identities import IdentityChecks
from .lts import check_axioms


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
    """The defining relators of U(T) whose monomials have degree <= ``cap``.

    Returns sparse dicts tree -> coefficient, family by family: the
    commutators ab - ba of generators (cap >= 2); the generalized left
    alternative nucleus (a,m1,m2) + (m1,a,m2) for a generator a and
    representative monomials m1, m2 (``representative_tree``) with
    |m1| + |m2| < cap; the triple coherence a(bc) - b(ac) - [a,b,c]
    (cap >= 3).  With cap 3 these are the generator-level families, and
    m1, m2 are generators.

    The nucleus relator is linear in m1 and in m2, so the representatives
    stand for every free monomial.  Let J be the span the build closes
    from these relators and J_full the one it closes from the nucleus
    family over all free trees.  Every relator here is one of those, so
    J lies in J_full.  Conversely:
    - A vector of J of top degree s is a combination of echelon rows of
      top degree <= s, and the build multiplies each of them by every
      monomial within its budget.  So J holds v m and m v for v in J of
      top degree s and monomials m with s + |m| <= cap.
    - If J passes the PBW certificate, the representatives of degree
      <= n span the monomials of degree <= n modulo J.  So a monomial
      m1 is rho1 + u1, with rho1 a combination of representatives of
      degree <= |m1| and u1 in J of top degree <= |m1|.  The unit
      representative gives the zero relator.
    - With u1 in place of m1 (or u2 in place of m2), each of the four
      terms of the nucleus relator, such as (a u1) m2 or m1 (a u2), is u1
      (or u2) multiplied by monomials one at a time, each product within
      the budget of the first point, so it lies in J.  So every relator
      of the full family lies in J, the build's products keep J_full
      inside J, and J = J_full: every normal form, dimension and report
      is the same.
    A pivot on a representative in J is one in J_full too, so such a
    certificate failure carries over.  The only possible disagreement is
    a dimension failure of J where J_full passes, never a wrong normal
    form.
    """
    d = system.dim
    # the representatives of each degree 0..cap-2, in basis order
    reps = {}
    for v in exponent_vectors(d, cap - 2):
        reps.setdefault(sum(v), []).append(representative_tree(v))
    # a list, not a generator: building the relators between the build's
    # insertions raised its peak memory (s2 at N=6: about 0.25 MiB)
    rels = []

    def add(*terms):
        out = {}
        for c, t in terms:
            accumulate(out, {t: c})
        rels.append(out)

    if cap >= 2:
        for i in range(d):
            for j in range(i + 1, d):
                add((ONE, (i, j)), (-ONE, (j, i)))
    # (a,m1,m2) + (m1,a,m2) = (a m1)m2 - a(m1 m2) + (m1 a)m2 - m1(a m2)
    for a in range(d):
        for n1 in range(1, cap - 1):
            for n2 in range(1, cap - n1):
                for m1 in reps[n1]:
                    for m2 in reps[n2]:
                        add((ONE, ((a, m1), m2)), (-ONE, (a, (m1, m2))),
                            (ONE, ((m1, a), m2)), (-ONE, (m1, (a, m2))))
    if cap >= 3:
        for i, j, k in iproduct(range(d), repeat=3):
            bracket = system.constants.get((i, j, k), {})
            add((ONE, (i, (j, k))), (-ONE, (j, (i, k))),
                *((-c, l) for l, c in bracket.items()))
    return rels


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
        self.table = MonomialTable(self.d, cap, max_monomials)

        # normal-form index k names the basis monomial exponents[k]: sorted by
        # degree, so generator g is index d - g, the same at every cap
        self.exponents = exponent_vectors(self.d, cap)
        self.exp_index = {v: i for i, v in enumerate(self.exponents)}
        self.nf_size = len(self.exponents)
        self.nf_degree = [sum(v) for v in self.exponents]
        self.rep_tree = [representative_tree(v) for v in self.exponents]

        # elimination columns over table indices: higher degree first, and
        # within a degree the representatives last so pivots avoid them.
        # Column -> table index, its inverse, column -> normal-form index/None
        index, degrees = self.table.index, self.table.degrees
        reps = {index[t]: k for k, t in enumerate(self.rep_tree)}
        self._elim_index = sorted(range(self.table.size),
                                  key=lambda i: (-degrees[i], i in reps, i))
        self._elim_col = sorted(range(self.table.size), key=self._elim_index.__getitem__)
        self._elim_nf = [reps.get(i) for i in self._elim_index]

        self._ech = Echelon()
        self._build_relation_span()
        self._certify()
        self._reduce_cache = {}
        self._verify_power_bracketings()
        # right ideal closures eliminate with higher degrees first, so rows
        # with pivot degree <= k span the intersection with filtration(k);
        # closure column -> normal-form index, and back
        self._closure_nf = sorted(range(self.nf_size),
                                  key=lambda k: (-self.nf_degree[k], k))
        self._closure_col = sorted(range(self.nf_size), key=self._closure_nf.__getitem__)
        # the basis-product table, filled on first use
        self._products = {}
        self._t_closure = None

    # -- construction -------------------------------------------------------

    def _build_relation_span(self):
        """Close the relators into a two-sided ideal within the budget.

        Vectors are inserted in order of top degree (the normal selection
        strategy of Buchberger's algorithm, degree by degree as in F4), so
        the lower-degree pivots exist before a row is reduced and forward
        rows stay short.  ``pending[t]`` holds sources ``(row, n)`` of
        vectors of top degree t, over table indices: a relator (n = 0), or
        the row times every monomial of degree n on both sides, expanded
        when reached (no row has a unit term, so ``table.pairs()`` has
        every product).  The closure is fixed by its span, whatever the order.
        """
        N, table = self.cap, self.table
        degrees, pair, start = table.degrees, table.pairs(), table.degree_start
        col, index_of = self._elim_col, self._elim_index
        pending = [[] for _ in range(N + 1)]
        for rel in relators(self.system, N):
            if rel:
                row = {table.index[t]: a for t, a in rel.items()}
                pending[max(degrees[i] for i in row)].append((row, 0))
        t = 0
        while t <= N:
            if not pending[t]:
                t += 1
                continue
            # newest first: first-in first-out left longer rows (s2 at N=7:
            # longest row tail 71 against 7)
            source, n = pending[t].pop()
            if n:
                # source * m, then m * source
                vecs = (vec for m in range(*start[n:n + 2])
                        for vec in ({col[pair[i, m]]: a for i, a in source.items()},
                                    {col[pair[m, i]]: a for i, a in source.items()}))
            else:
                vecs = ({col[i]: a for i, a in source.items()},)
            for vec in vecs:
                new = self._ech.insert(vec)
                if new is not None:
                    # the pivot is the row's lowest elimination column, and
                    # the elimination order puts higher degrees first
                    s = degrees[index_of[min(new)]]
                    row = {index_of[c]: a for c, a in new.items()}
                    for n in range(1, N - s + 1):
                        pending[s + n].append((row, n))
                    # a row whose degree fell has products below bucket t
                    t = min(t, s + 1)

    def _certify(self):
        N, d, table = self.cap, self.d, self.table
        counts = [0] * (N + 1)
        for p in self._ech.pivots():
            i = self._elim_index[p]
            if self._elim_nf[p] is not None:
                raise PBWCertificateFailure(
                    f"pivot fell on normal-form representative {table.trees[i]!r}")
            counts[table.degrees[i]] += 1
        self.relspan_degree_dims = []
        self.degree_dims = []
        rel_dim = 0
        for n in range(N + 1):
            rel_dim += counts[n]
            quot = table.degree_start[n + 1] - rel_dim
            expected = comb(d + n, n)
            if quot != expected:
                raise PBWCertificateFailure(
                    f"quotient dimension {quot} at filtration level {n} does "
                    f"not match the symmetric-algebra count {expected}")
            self.relspan_degree_dims.append(rel_dim)
            self.degree_dims.append(quot)
        self.relspan_dim = self._ech.dim

    def _verify_power_bracketings(self):
        for g in range(self.d):
            for n in range(2, min(4, self.cap) + 1):
                target = self.reduce_tree(power_tree(g, n))
                for shape in _trees(1, n):
                    t = _relabel(shape, g)
                    if self.reduce_tree(t) != target:
                        raise PBWCertificateFailure(
                            f"power of generator {g} depends on bracketing at n={n}")

    # -- normal forms -------------------------------------------------------

    def reduce_tree(self, t):
        """Normal form of a single monomial tree, cached."""
        cached = self._reduce_cache.get(t)
        if cached is None:
            i = self.table.index.get(t)
            if i is None:
                # the table holds every monomial within the cap
                if tree_degree(t) > self.cap:
                    raise DegreeBudgetExceeded(
                        f"monomial degree {tree_degree(t)} exceeds cap {self.cap}")
                raise ValueError(f"{t!r} is not a monomial tree on d={self.d} "
                                 f"generators (cap {self.cap})")
            # an int unit vector: the echelon takes it without a rescale
            residue = self._ech.reduce({self._elim_col[i]: 1})
            cached = Element(self, {self._elim_nf[c]: a for c, a in residue.items()})
            self._reduce_cache[t] = cached
        return cached

    def zero(self):
        return Element(self, {})

    def basis(self, k):
        """The basis monomial of normal-form index k."""
        return Element(self, {k: ONE})

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
        a table filled on first use (shared rows: do not mutate)."""
        row = self._products.get((i, j))
        if row is None:
            di, dj = self.nf_degree[i], self.nf_degree[j]
            if di + dj > self.cap:
                raise DegreeBudgetExceeded(
                    f"product degree {di}+{dj} exceeds cap {self.cap}")
            t = graft(self.rep_tree[i], self.rep_tree[j])
            row = integer_row(self.reduce_tree(t).coeffs)
            # the table keeps the one copy of this product
            del self._reduce_cache[t]
            self._products[i, j] = row
        return row

    def mul(self, x, y):
        if x.degree() + y.degree() > self.cap:
            raise DegreeBudgetExceeded(
                f"product degree {x.degree()}+{y.degree()} exceeds cap {self.cap}")
        return Element(self, rational_row(*self.mul_rows(integer_row(x.coeffs),
                                                         integer_row(y.coeffs))))

    def mul_rows(self, x, y, into=None, c=1):
        """Add c * x y, for integer rows x and y over normal-form indices,
        into the accumulator ``into`` (``exactlin.add_row``), or into a
        fresh one, and return it (its zero entries kept).  Zero entries of
        x and y are skipped, so a cancelled term never asks
        ``basis_product`` for its pair."""
        (dx, xs), (dy, ys) = x, y
        acc = [1, {}] if into is None else into
        y = dx * dy, ys  # x's denominator rides on y's
        for i, a in xs.items():
            if a:
                self.mul_basis(i, y, into=acc, c=c * a)
        return acc

    def mul_basis(self, k, x, right=False, into=None, c=1):
        """Add c * basis(k) x, or c * x basis(k) when ``right``, for an
        integer row x, into the accumulator ``into``, or into a fresh one,
        and return it (its zero entries kept): each nonzero term of x reads
        one table row.  ``into`` is never x itself or a shared row."""
        dx, xs = x
        acc = [1, {}] if into is None else into
        table, product = self._products, self.basis_product
        for i, a in xs.items():
            if a:
                key = (i, k) if right else (k, i)
                d, row = table.get(key) or product(*key)
                add_row(acc, c * a, d * dx, row)
        return acc

    def associator(self, x, y, z):
        return (x * y) * z - x * (y * z)

    # -- ideals --------------------------------------------------------------

    def augmentation_ideal(self):
        """Span of all normal-form monomials of degree >= 1 (= ker of counit)."""
        return Echelon(range(1, self.nf_size)).subspace(self.nf_size)

    def right_ideal_closure(self, gens):
        """Closure of span(gens) under right multiplication by monomials.

        A row of top degree t is multiplied by every monomial m with
        1 <= |m| <= cap - t, until the span is closed or is known to be
        its final value.  The closure columns put the unit last, with the
        degree-1 columns just before it; ``exit`` names the stop taken:
        - "unit" (rule A): an accepted row has its pivot on the unit column,
          so it is a multiple of 1.  A right ideal that holds 1 holds every
          monomial m = 1 m, so the closure is everything.
        - "t" (rule B, only when every generator has counit 0): d accepted
          rows have pivots on degree-1 columns.  The counit is
          multiplicative, so no row has a unit term, and these rows span
          T.  The closure then contains the closure of T and lies in the
          augmentation ideal, a two-sided ideal; the rule is used only if
          the closure of T is that ideal (``closure_of_t``).  A generator
          with a nonzero counit would void this: its degree-1 rows can
          carry a unit term.
        - "ceiling": every generator has counit 0 and the span has the
          dimension of the augmentation ideal.
        - "saturated": every product is in the span.
        """
        return self._close(gens, rule_b=True)

    def closure_of_t(self):
        """The right ideal closure of T (of the d generators), computed
        once per algebra.  Rule B of ``right_ideal_closure`` rests on it, so
        it is closed without rule B."""
        if self._t_closure is None:
            self._t_closure = self._close(
                [self.generator(g) for g in range(self.d)], rule_b=False)
        return self._t_closure

    def _close(self, gens, rule_b):
        if not gens:
            raise ValueError("right_ideal_closure needs at least one generator")
        N, n, deg = self.cap, self.nf_size, self.nf_degree
        nf, col = self._closure_nf, self._closure_col
        unit = n - 1
        in_aug = all(not g.counit() for g in gens)
        # rule B needs t_rows == d rows with a pivot in T (None: it is off);
        # the closure of T lies in the augmentation ideal, so it is that
        # ideal when it has its dimension
        t_goal = (self.d if rule_b and in_aug
                  and self.closure_of_t().subspace.dim == n - 1 else None)
        t_rows = 0
        ech = Echelon()
        queue = []
        stop = "saturated"
        for vec in chain(({col[k]: a for k, a in g.coeffs.items()} for g in gens),
                         self._right_products(queue)):
            row = ech.insert(vec)
            if row is None:
                continue
            queue.append(row)
            p = min(row)
            t_rows += p >= unit - self.d
            if p == unit:
                stop = "unit"
            elif t_rows == t_goal:
                stop = "t"
            elif in_aug and ech.dim == n - 1:
                stop = "ceiling"
            else:
                continue
            break

        if stop == "saturated":
            subspace = echelonize(
                ({nf[c]: a for c, a in row.items()} for row in queue), n)
        elif stop == "unit":
            ech, subspace = Echelon(range(n)), self.filtration(N)
        else:
            ech, subspace = Echelon(range(unit)), self.augmentation_ideal()
        # the rows with pivot degree <= k span the closure's intersection
        # with filtration(k)
        pivots = ech.pivots()
        per_degree = [sum(1 for p in pivots if deg[nf[p]] <= k) for k in range(N + 1)]
        if stop == "saturated":
            # the intersection with filtration(1) lies in T unless one of its
            # rows (the queue holds them all) has a unit term
            meets_t = per_degree[1] - any(unit in row for row in queue
                                          if min(row) >= unit - self.d)
        else:
            # everything and the augmentation ideal both contain T
            meets_t = self.d
        safe = N - max(g.degree() for g in gens)
        # the first stratum n0 such that every monomial of degree n0..safe is
        # inside: one above the top degree of a monomial outside
        top = next((deg[k] for k in reversed(range(self.count_upto(safe)))
                    if not ech.contains({col[k]: 1})), -1)
        stabilization = top + 1 if top < safe else None
        return IdealClosure(subspace, per_degree, unit in pivots, meets_t,
                            stabilization, safe, stop)

    def _right_products(self, queue):
        """Yield r * m for each integer row r of ``queue`` (rows appended
        while this runs included) and each monomial m within the budget of
        r's top degree, as an integer vector in closure coordinates: a
        positive multiple of r * m, so it spans the same line."""
        deg, col, nf = self.nf_degree, self._closure_col, self._closure_nf
        for row in queue:
            ints = (1, {nf[c]: a for c, a in row.items()})
            # the pivot is the row's lowest column, and so its top degree;
            # the monomials of degree 1..k have normal-form indices 1..
            for m in range(1, self.count_upto(self.cap - deg[nf[min(row)]])):
                _, out = self.mul_basis(m, ints, right=True)
                yield {col[k]: b for k, b in out.items()}


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

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return Element(self.algebra, accumulate(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return Element(self.algebra, accumulate(dict(self.coeffs), other.coeffs, -ONE))

    def __neg__(self):
        return Element(self.algebra, {k: -a for k, a in self.coeffs.items()})

    def __rmul__(self, a):
        a = a if type(a) is Fraction else Fraction(a)
        return Element(self.algebra,
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
