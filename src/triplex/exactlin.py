"""Exact rational scalars and deterministic sparse linear algebra.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator, no rounding ever) at every API boundary.  Vectors are
plain ``{column: Fraction}`` dicts over integer columns; an element of
the enveloping algebra is one over normal-form indices, and a tensor is
one over pairs of them.  ``accumulate`` is the one sparse-dict sum, on
ints or Fractions alike: it adds elements, tensors and the integer
operators of ``lts``.  Hot sums run on integer rows ``(den, {k: int})``
(``integer_row``, ``rational_row``).  ``add_row`` is the one integer-row
sum and the only code that rescales to a common denominator:
``sum_integer_rows``, the products of ``EnvelopingAlgebra`` and the
legwise tensor products of ``hopf`` all add through it.  ``same_row``
compares two integer rows, ``nonzero_row`` drops the zero entries a sum
leaves behind, and ``unit_column`` tells a unit vector apart.

There is one elimination kernel, the incremental ``Echelon``: its rows
are primitive integer vectors, reduced only up to their pivot (the first
column that no stored row eliminates; see ``insert``), and every input
runs through one elimination, ``_eliminate``.  ``reduce`` and
``contains`` reduce fully and ``rref_rows`` back-substitutes each stored
row once, so what they return depends on the span alone.
``Fraction``s are formed only in ``reduce``, ``rref_rows`` and
``Subspace``.  A ``Subspace`` is the span of an ``Echelon`` with its
canonical reduced row-echelon basis (lowest-index elimination), so every
subspace has one representation and all downstream normal forms are
bit-reproducible.  Coordinate subspaces (spans of unit vectors) start an
``Echelon`` from their unit rows directly, without elimination.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


def accumulate(out, coeffs, a=None):
    """``out += a * coeffs`` (``out += coeffs`` if ``a`` is None), in place.

    Both are sparse dicts; keys whose sum is zero are removed from ``out``,
    and ``a == 0`` leaves it unchanged.  Returns ``out``.
    """
    if a is None:
        for k, c in coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    elif a:
        for k, c in coeffs.items():
            s = out.get(k, 0) + a * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def integer_row(coeffs):
    """``(den, w)`` with integer values in ``w`` and ``coeffs == w / den``."""
    den = 1
    for a in coeffs.values():
        den = lcm(den, a.denominator)
    return den, {k: a.numerator * (den // a.denominator) for k, a in coeffs.items()}


def add_row(acc, c, d, row):
    """``acc += c * row / d`` in place, for an integer c and an integer row
    ``row`` over the denominator d.  The accumulator ``acc`` is a list
    ``[den, w]``, always a fresh one (``[1, {}]`` to start): never a shared
    table row.  ``w`` is rescaled only when d brings a new factor to
    ``den``, and zero entries may remain in it.  Returns ``acc``."""
    den, w = acc
    if d != den:
        new = lcm(den, d)
        if new != den:
            for k in w:
                w[k] *= new // den
            acc[0] = den = new
        c *= den // d
    for k, b in row.items():
        w[k] = w.get(k, 0) + c * b
    return acc


def sum_integer_rows(terms):
    """The accumulator ``[den, w]`` of the sum of ``c * row / d`` over the
    terms ``(c, (d, row))``, for integers ``c`` and integer rows."""
    acc = [1, {}]
    for c, (d, row) in terms:
        add_row(acc, c, d, row)
    return acc


def nonzero_row(den, w):
    """The integer row w / den without its zero entries."""
    return den, {k: a for k, a in w.items() if a}


def unit_column(row):
    """k if the integer row is the unit vector of column k, ``(1, {k: 1})``,
    else None."""
    den, w = row
    if den == 1 and len(w) == 1:
        for k, a in w.items():
            if a == 1:
                return k
    return None


def same_row(r, s):
    """Whether two integer rows are the same rational vector: over one
    denominator, whether their nonzero entries are equal."""
    (dr, wr), (ds, ws) = r, s
    if dr == ds:
        return {k: a for k, a in wr.items() if a} == {k: a for k, a in ws.items() if a}
    return all(wr.get(k, 0) * ds == ws.get(k, 0) * dr for k in wr.keys() | ws.keys())


def rational_row(den, w, memo=None):
    """The ``{key: Fraction}`` dict ``w / den``, a fresh one without its
    zero entries.  Each distinct value is formed once per ``memo`` (den ->
    {b: Fraction(b, den)}, filled here; a fresh one if None) and shared
    by the entries equal to it: a ``Fraction`` is immutable."""
    if memo is None:
        memo = {}
    values = memo.get(den)
    if values is None:
        values = memo[den] = {}
    out = {}
    for k, b in w.items():
        if b:
            a = values.get(b)
            if a is None:
                a = values[b] = Fraction(b, den)
            out[k] = a
    return out


def _fresh_row(vec):
    """``(scale, work)``, a fresh dict of nonzero ints with ``vec == work / scale``."""
    work = {c: a for c, a in vec.items() if a}
    return integer_row(work) if any(type(a) is not int for a in work.values()) else (1, work)


class Echelon:
    """Incremental row-echelon accumulator over plain dicts (see the module).

    Columns are integers, eliminated lowest first, so callers that want
    another elimination priority remap their columns before inserting.
    """

    def __init__(self, units=()):
        """Start from the span of the unit vectors at the columns ``units``
        (a coordinate subspace: each is already a reduced row)."""
        # pivot column -> (pivot entry > 0, [(column, entry), ...] after it);
        # the entries of each row are coprime integers
        self._rows = {c: (1, []) for c in units}

    @property
    def dim(self):
        return len(self._rows)

    def _eliminate(self, scale, work, first=False):
        """Fraction-free residue of ``work / scale`` modulo the current span,
        for a fresh dict ``work`` of nonzero ints (``_fresh_row``), consumed.

        Returns ``(finals, scale, rest)``: each final ``(column, w, s)`` is
        a residue entry equal to ``w / s``, and ``scale / s`` is an integer.
        With ``first``, it stops at the first residue column: ``finals``
        holds that one entry (or none) and ``rest``, the work vector over
        ``scale``, its other columns, all above it and not yet reduced.
        """
        # pairwise lcm/gcd and list rows (not star-args or tuple rows):
        # freed tuples of every length stay in CPython's tuple free lists
        # and raised peak memory by about 1 MiB on the ideal closures
        heap = list(work)
        heapq.heapify(heap)
        rows = self._rows
        finals = []
        while heap:
            c = heapq.heappop(heap)
            a = work.pop(c, 0)
            if not a:
                continue
            row = rows.get(c)
            if row is None:
                # every later row only touches columns above c
                finals.append((c, a, scale))
                if first:
                    break
                continue
            pv, tail = row
            if pv != 1:
                g = gcd(a, pv)
                m, a = pv // g, a // g
                if m != 1:
                    for c2 in work:
                        work[c2] *= m
                    scale *= m
            for c2, b in tail:
                w = work.get(c2)
                if w is None:
                    work[c2] = -a * b
                    heapq.heappush(heap, c2)
                elif w := w - a * b:
                    work[c2] = w
                else:
                    del work[c2]
        return finals, scale, work

    def reduce(self, vec):
        """Unique residue of ``vec`` (a dict) modulo the current span: it is
        supported on non-pivot columns and depends on the span alone."""
        return {c: Fraction(w, s) for c, w, s in self._eliminate(*_fresh_row(vec))[0]}

    def insert(self, vec):
        """Add ``vec`` (a dict of ints or ``Fraction``s, zero entries
        allowed, left as it is) to the span; returns the primitive integer
        row it stores (``{column: int}``, positive pivot entry) or None.

        The row is ``vec`` reduced up to its pivot, the first column that
        no stored row eliminates; the columns after it are left as they
        stand.  So it is a positive multiple of the fully reduced row plus
        a vector of the span before the insert, whose products a closure
        forms anyway: closures multiply the rows as returned."""
        return self._insert(_fresh_row(vec)[1])

    def _insert(self, work):
        """``insert`` of a fresh dict of nonzero ints, consumed: no copy, no scan."""
        finals, _, rest = self._eliminate(1, work, first=True)
        if not finals:
            return None
        ((p, a, _),) = finals
        g = abs(a)
        for w in rest.values():
            g = gcd(g, w)
        g = -g if a < 0 else g
        tail = [(c, w // g) for c, w in rest.items()]
        self._rows[p] = (a // g, tail)
        row = {p: a // g}
        row.update(tail)
        return row

    def contains(self, vec):
        return not self._eliminate(*_fresh_row(vec))[0]

    def pivots(self):
        return sorted(self._rows)

    def subspace(self, ambient):
        """The span as a canonical ``Subspace`` of Q^ambient (which keeps
        this echelon: insert nothing into it afterwards)."""
        return Subspace(self, ambient)

    def rref_rows(self):
        """Fully back-substituted rows, sorted by pivot (canonical).

        The row with pivot p lies in the span and has entry 1 at p and 0
        at every other pivot; its keys are p, then its other columns in
        ascending order.  Rows are reduced once each, in descending pivot
        order: the stored row over its pivot entry, less the reduced row of
        each pivot column in its tail (all above p, so already reduced)
        times that column's entry.  A stored row without a tail is the unit
        vector at p (every row of a coordinate subspace).
        """
        # pivot of a row with a tail -> (d, r): its reduced row less the
        # pivot entry is r / d
        rows, reduced, out = self._rows, {}, []
        for p in sorted(rows, reverse=True):
            pv, tail = rows[p]
            row = {p: ONE}
            if tail:
                # over pv, then over the lcm of pv and the subtracted rows'
                # denominators
                acc = [pv, {c: b for c, b in tail if c not in rows}]
                for c, b in tail:
                    if c in reduced:
                        d, r = reduced[c]
                        add_row(acc, -b, pv * d, r)
                den, w = acc
                g = den
                for a in w.values():
                    g = gcd(g, a)
                d, r = reduced[p] = den // g, {c: a // g for c, a in w.items() if a}
                for c in sorted(r):
                    row[c] = Fraction(r[c], d)
            out.append(row)
        out.reverse()
        return out


class Subspace:
    """A subspace of Q^n: the span of an ``Echelon``, with its canonical
    reduced row-echelon basis."""

    __slots__ = ("_ech", "rows", "pivots", "ambient")

    def __init__(self, ech, ambient):
        self._ech = ech
        # RREF rows with pivot entries 1, at strictly increasing pivots
        self.rows = ech.rref_rows()
        self.pivots = ech.pivots()
        self.ambient = ambient

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of v modulo the subspace (empty iff v is a member)."""
        return self._ech.reduce(_check_columns(v, self.ambient))

    def member(self, v):
        return not self.reduce(v)

    def coordinates(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if self.reduce(v):
            return None
        return [Fraction(v.get(p, 0)) for p in self.pivots]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.pivots == other.pivots
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _check_columns(v, ambient):
    """``v`` itself, once every column of it is known to lie in Q^ambient."""
    for c in v:
        if not 0 <= c < ambient:
            raise DimensionMismatch(f"column {c} out of range for ambient {ambient}")
    return v


def echelonize(vectors, ambient):
    """Canonical reduced row-echelon basis of the span of ``vectors``
    (dicts over the columns of Q^ambient)."""
    ech = Echelon()
    for v in vectors:
        ech.insert(_check_columns(v, ambient))
    return ech.subspace(ambient)


def kernel(images, ambient):
    """Kernel of the linear map sending unit i to ``images[i]``.

    ``images`` is a list of dicts over the columns of Q^ambient.  Returns
    a Subspace of Q^len(images).
    """
    ech = Echelon()
    # image columns first so rows supported purely on the tail block
    # span exactly the relations among the images
    for i, v in enumerate(images):
        row = dict(_check_columns(v, ambient))
        row[ambient + i] = ONE
        ech.insert(row)
    combos = [{c - ambient: a for c, a in row.items()}
              for row in ech.rref_rows() if all(c >= ambient for c in row)]
    return echelonize(combos, len(images))


def parse_rational(text):
    """Parse "p" or "p/q" with q > 0; raises ValueError otherwise."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        p, q = int(num), int(den)
        if q <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Fraction(p, q)
    return Fraction(int(text))
