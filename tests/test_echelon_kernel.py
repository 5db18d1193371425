"""Differential test: the integer ``Echelon`` against a ``Fraction`` reference.

``FractionEchelon`` is the accumulator ``exactlin.Echelon`` used to be,
with ``Fraction`` rows normalized to pivot 1, fully reduced on insert.
Both must agree on every value they return, after every step.  The row
``Echelon.insert`` stores is reduced only up to its pivot: it has the
reference's pivot, is primitive with a positive pivot entry, and differs
from the reference's row times that entry by a vector of the span before
the insert; and it is the row of ``FractionEchelon(partial=True)``, which
reduces on insert only up to the first column without a pivot row.
``rref_rows`` back-substitutes once: rows inserted highest pivot first,
whose tails hold every later pivot, cost one pivot-row application per
(row, tail pivot column) and still equal the reference.
"""

import heapq
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from triplex import exactlin
from triplex.exactlin import Echelon

ZERO = Fraction(0)
ONE = Fraction(1)


class FractionEchelon:
    """Reference row-echelon accumulator on ``Fraction`` rows (pivot entry 1)."""

    def __init__(self, partial=False):
        self.rows = {}
        self.partial = partial

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec, partial=False):
        """The residue of ``vec``; with ``partial``, ``vec`` reduced up to
        its first residue column, the columns after it left as they stand."""
        work = {c: a for c, a in vec.items() if a}
        heap = list(work)
        heapq.heapify(heap)
        seen = set()
        out = {}
        while heap:
            c = heapq.heappop(heap)
            if c in seen:
                continue
            seen.add(c)
            a = work.pop(c, ZERO)
            if not a:
                continue
            row = self.rows.get(c)
            if row is None:
                out[c] = a
                if partial:
                    out.update(work)
                    break
                continue
            for c2, b in row.items():
                if c2 == c:
                    continue
                nb = work.get(c2, ZERO) - a * b
                if nb:
                    work[c2] = nb
                    if c2 not in seen:
                        heapq.heappush(heap, c2)
                else:
                    work.pop(c2, None)
        return out

    def insert(self, vec):
        r = self.reduce(vec, self.partial)
        if not r:
            return None
        p = min(r)
        inv = ONE / r[p]
        row = {c: a * inv for c, a in r.items()}
        self.rows[p] = row
        return row

    def pivots(self):
        return sorted(self.rows)

    def rref_rows(self):
        rows = {p: dict(r) for p, r in self.rows.items()}
        for p in sorted(rows, reverse=True):
            prow = rows[p]
            for q, row in rows.items():
                if q >= p or p not in row:
                    continue
                a = row.pop(p)
                for c, b in prow.items():
                    if c == p:
                        continue
                    nb = row.get(c, ZERO) - a * b
                    if nb:
                        row[c] = nb
                    else:
                        row.pop(c, None)
        return [rows[p] for p in sorted(rows)]


COLUMNS = 12
scalars = st.builds(Fraction, st.integers(-30, 30),
                    st.sampled_from([1, 1, 2, 3, 4, 6, 7, 35]))
sparse_vectors = st.dictionaries(st.integers(0, COLUMNS - 1), scalars, max_size=6)


@st.composite
def steps(draw):
    """Vectors to insert: fresh, repeated, or combinations of earlier ones."""
    out = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "combo"]))
        if kind == "fresh" or not out:
            out.append(draw(sparse_vectors))
        elif kind == "repeat":
            out.append(dict(draw(st.sampled_from(out))))
        else:
            combo = {}
            for v in draw(st.lists(st.sampled_from(out), min_size=1, max_size=3)):
                a = draw(scalars)
                for c, b in v.items():
                    combo[c] = combo.get(c, ZERO) + a * b
            out.append(combo)
    return out


@given(steps(), st.lists(sparse_vectors, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_integer_echelon_matches_fraction_reference(vectors, probes):
    fast, ref, part = Echelon(), FractionEchelon(), FractionEchelon(partial=True)
    for v in vectors:
        before = FractionEchelon()
        before.rows = dict(ref.rows)
        row, ref_row, part_row = fast.insert(v), ref.insert(v), part.insert(v)
        if ref_row is None:
            assert row is None and part_row is None
        else:
            # the stored row: the reference's pivot, primitive integers with
            # a positive pivot entry, and the reference's pivot-1 row times
            # that entry plus a vector of the span before the insert
            p = min(ref_row)
            pv = row[p]
            assert min(row) == p
            assert all(type(a) is int for a in row.values())
            assert pv > 0 and gcd(*row.values()) == 1
            diff = {c: row.get(c, 0) - pv * ref_row.get(c, 0) for c in row.keys() | ref_row}
            assert before.reduce(diff) == {}
            # and the reference that reduces only up to the pivot, scaled
            assert {c: Fraction(a, pv) for c, a in row.items()} == part_row
        assert fast.pivots() == ref.pivots()
        assert fast.dim == ref.dim
        assert fast.rref_rows() == ref.rref_rows()
        assert fast.reduce(v) == ref.reduce(v) == {}
        for probe in probes:
            assert fast.reduce(probe) == ref.reduce(probe)


def test_returned_values_are_fractions():
    """``insert`` returns the integer row it stores; ``reduce`` and
    ``rref_rows`` return ``Fraction``s."""
    ech = Echelon()
    row = ech.insert({0: Fraction(2, 3), 2: Fraction(-4, 5), 5: 6})
    assert row == {0: 5, 2: -6, 5: 45}
    assert all(type(a) is int for a in row.values())
    residue = ech.reduce({2: ONE, 0: Fraction(1, 7)})
    assert residue == {2: Fraction(41, 35), 5: Fraction(-9, 7)}
    assert all(type(a) is Fraction for a in residue.values())
    assert all(type(a) is Fraction for r in ech.rref_rows() for a in r.values())


# integer vectors with zero entries among their values
integer_vectors = st.dictionaries(st.integers(0, COLUMNS - 1), st.integers(-6, 6), max_size=6)


@given(st.lists(integer_vectors, min_size=1, max_size=16), integer_vectors)
@settings(max_examples=200, deadline=None)
def test_integer_input_matches_the_same_fraction_input(vectors, probe):
    """An int-valued vector skips the rescale to integers; it must give what
    the same vector as ``Fraction``s gives, and stay as the caller made it."""
    ints, fracs = Echelon(), Echelon()
    for v in vectors + [probe]:
        given_v = dict(v)
        f = {c: Fraction(a) for c, a in v.items()}
        assert ints.reduce(v) == fracs.reduce(f)
        assert ints.contains(v) == fracs.contains(f)
        assert ints.insert(v) == fracs.insert(f)
        assert v == given_v
        assert ints.pivots() == fracs.pivots()
    assert ints.rref_rows() == fracs.rref_rows()


@st.composite
def descending_pivot_rows(draw):
    """Rows with distinct pivots (their lowest columns), highest pivot first,
    each dense above its pivot: every later pivot is in its tail."""
    pivots = sorted(draw(st.sets(st.integers(0, COLUMNS - 1), min_size=1)), reverse=True)
    return [{p: draw(scalars.filter(bool)),
             **{c: draw(scalars) for c in range(p + 1, COLUMNS) if draw(st.booleans())}}
            for p in pivots]


class CountedRows(dict):
    """Stored rows that count the rows ``Echelon._eliminate`` applies."""

    def __init__(self, rows, applied):
        super().__init__(rows)
        self.applied = applied

    def get(self, c, default=None):
        row = super().get(c, default)
        if row is not None:
            self.applied.append(c)
        return row


@given(descending_pivot_rows())
@settings(max_examples=200, deadline=None)
def test_rref_rows_back_substitutes_each_tail_pivot_once(vectors):
    fast, ref = Echelon(), FractionEchelon()
    for v in vectors:
        fast.insert(v)
        ref.insert(v)
    tail_pivots = sum(c in fast._rows for _, tail in fast._rows.values() for c, _ in tail)
    # a pivot row is applied by elimination (a stored row) or by add_row
    # (a reduced row)
    applied = []
    fast._rows = CountedRows(fast._rows, applied)
    add_row = exactlin.add_row

    def counted(*args):
        applied.append(args)
        return add_row(*args)

    exactlin.add_row = counted
    try:
        rows = fast.rref_rows()
    finally:
        exactlin.add_row = add_row
    assert len(applied) <= tail_pivots
    assert rows == ref.rref_rows()
    # each row's keys: its pivot, then its other columns ascending
    assert all(list(r) == sorted(r) for r in rows)
