"""The free-table build of U_N(T), kept as the differential reference of
the quotient-side build in ``triplex.envelope``.

It closes the relators into a two-sided ideal of the free algebra within
the budget, over all free monomials of degree <= N (``MonomialTable``),
and reads each normal form off that echelon.  Its relation span, dims
and normal forms are what the quotient-side build must reproduce.
"""

from math import comb

from triplex import envelope
from triplex.envelope import Element, EnvelopingAlgebra, PBWCertificateFailure
from triplex.exactlin import Echelon, integer_row, rational_row


def table_degrees(table):
    """The degree of each table index, read off the table's strata."""
    return [n for n in range(table.cap + 1) for _ in range(*table.degree_start[n:n + 2])]


def pairs(table):
    """``{(i, j): k}``: k is the table index of the product of the
    non-unit monomials of indices i and j, for each product within the cap."""
    index, trees = table.index, table.trees
    # the monomials after the unit and the generators are products
    return {(index[l], index[r]): k
            for k, (l, r) in enumerate(trees[table.d + 1:], table.d + 1)}


class FreeTable(EnvelopingAlgebra):
    """U(T) from the free-table build: the degree-scheduled closure of the
    relators over free-table indices, certified a posteriori."""

    def relators(self, system, cap):
        return envelope.relators(system, cap)

    def _build(self):
        # elimination columns over table indices: higher degree first, and
        # within a degree the representatives last so pivots avoid them.
        # Column -> table index, its inverse, column -> normal-form index/None
        table = self.table
        index = table.index
        self._degrees = degrees = table_degrees(table)
        reps = {index[t]: k for k, t in enumerate(self.rep_tree)}
        self._elim_index = sorted(range(table.size),
                                  key=lambda i: (-degrees[i], i in reps, i))
        self._elim_col = sorted(range(table.size), key=self._elim_index.__getitem__)
        self._elim_nf = [reps.get(i) for i in self._elim_index]
        self._ech = Echelon()
        self._build_relation_span()
        self._certify()

    def _build_relation_span(self):
        """Close the relators into a two-sided ideal within the budget.

        Vectors are inserted in order of top degree, so the lower-degree
        pivots exist before a row is reduced.  ``pending[t]`` holds sources
        ``(row, n)`` of vectors of top degree t, over table indices: a
        relator (n = 0), or the row times every monomial of degree n on
        both sides, expanded when reached (no row has a unit term, so
        ``pairs`` has every product).  The closure is fixed by its span,
        whatever the order.
        """
        N, table = self.cap, self.table
        degrees, pair, start = self._degrees, pairs(table), table.degree_start
        col, index_of = self._elim_col, self._elim_index
        pending = [[] for _ in range(N + 1)]
        for rel in self.relators(self.system, N):
            if rel:
                row = {table.index[t]: a for t, a in rel.items()}
                pending[max(degrees[i] for i in row)].append((row, 0))
        t = 0
        while t <= N:
            if not pending[t]:
                t += 1
                continue
            source, n = pending[t].pop()
            if n:
                # source * m, then m * source
                vecs = (vec for m in range(*start[n:n + 2])
                        for vec in ({col[pair[i, m]]: a for i, a in source.items()},
                                    {col[pair[m, i]]: a for i, a in source.items()}))
            else:
                vecs = ({col[i]: a for i, a in source.items()},)
            for vec in vecs:
                # the fully reduced residue: the rows this closure multiplies,
                # and reduce_tree's eliminations, carry no unreduced tail
                new = self._ech.insert(self._ech.reduce(vec))
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
            counts[self._degrees[i]] += 1
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

    def reduce_tree(self, t):
        """Normal form of a table monomial, read off the free echelon into
        the same tree-keyed cache of integer rows."""
        row = self._nf_rows.get(t)
        if row is None:
            i = self.table.index[t]
            residue = self._ech.reduce({self._elim_col[i]: 1})
            row = integer_row({self._elim_nf[c]: a for c, a in residue.items()})
            self._nf_rows[t] = row
        return Element(self, rational_row(*row))
