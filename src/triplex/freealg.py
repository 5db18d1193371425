"""Free unital nonassociative algebra on d generators, truncated by degree,
and the expression parser.

Monomials are binary trees: a leaf is a generator index, an internal
node is an ordered pair of subtrees, and the empty product 1 is the
empty tuple.  Structural equality of trees is the monomial identity;
there are Catalan(n-1) * d^n monomials of degree n.  Free-algebra
elements are plain ``{tree: coefficient}`` dicts.  ``MonomialTable``
numbers the trees within a cap: the guard on an enveloping algebra's
input and the domain of its ``reduce_tree``, not used to build it.
The parser reads text straight into an enveloping
algebra: the quotient map is an algebra morphism within the cap, so no
free element is built on the way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactlin import ONE

UNIT = ()
MAX_MONOMIALS = 200_000  # the default guard of ``check_table_size``


class DegreeBudgetExceeded(ValueError):
    pass


class SizeGuardExceeded(ValueError):
    pass


class ExprSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def is_leaf(t):
    return isinstance(t, int)


def tree_degree(t):
    if t == UNIT:
        return 0
    if is_leaf(t):
        return 1
    return tree_degree(t[0]) + tree_degree(t[1])


def graft(t1, t2):
    """Tree product; the empty product is the unit."""
    if t1 == UNIT:
        return t2
    if t2 == UNIT:
        return t1
    return (t1, t2)


def tree_key(t):
    """Flat integer tuple giving a total order on trees (lex on shape+leaves)."""
    if t == UNIT:
        return ()
    if is_leaf(t):
        return (0, t)
    return (1,) + tree_key(t[0]) + tree_key(t[1])


def power_tree(g, n):
    """Left-nested power ((g*g)*g)*... of a single generator."""
    if n == 0:
        return UNIT
    t = g
    for _ in range(n - 1):
        t = (t, g)
    return t


@lru_cache(maxsize=None)
def _trees(d, n):
    """All monomial trees of degree n on d generators, in ``tree_key`` order:
    keys are prefix-free, so pairs (l, r) sort by l's key, then r's, and l
    runs over the lower trees in key order (``_lower``), r over the stratum
    n - deg l."""
    if n == 0:
        return (UNIT,)
    if n == 1:
        return tuple(range(d))
    return tuple((l, r) for l, k in _lower(d, n - 1) for r in _trees(d, n - k))


@lru_cache(maxsize=None)
def _lower(d, m):
    """``(tree, degree)`` for every tree of degree 1..m on d generators, in
    ``tree_key`` order: the generators, then the pairs."""
    if m == 0:
        return ()
    return tuple((g, 1) for g in range(d)) + tuple(
        ((l, r), k + j) for l, k in _lower(d, m - 1) for r, j in _lower(d, m - k))


def check_table_size(d, cap, max_monomials):
    """Raise SizeGuardExceeded unless the free monomial table for ``d``
    generators and degree cap ``cap`` has at most ``max_monomials`` trees.

    Each stratum is counted, Catalan(n-1) * d^n trees, and none is built.
    """
    total = 0
    for n in range(cap + 1):
        total += comb(2 * n - 2, n - 1) // n * d ** n if n else 1
        if total > max_monomials:
            raise SizeGuardExceeded(
                f"free monomial table for d={d}, N={cap} exceeds the "
                f"guard of {max_monomials} monomials")


class MonomialTable:
    """Degree-stratified bijection between trees of degree <= N and indices.

    Index order refines degree order: the unit gets index 0, then all
    degree-1 monomials in canonical order, and so on.  The monomials of
    degree n are the indices ``range(*degree_start[n:n + 2])``.
    """

    def __init__(self, d, cap, max_monomials=MAX_MONOMIALS):
        if d < 1:
            raise ValueError("need at least one generator")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        check_table_size(d, cap, max_monomials)
        self.d = d
        self.cap = cap
        trees = []
        self.degree_start = []  # degree -> first index of that degree
        for n in range(cap + 1):
            self.degree_start.append(len(trees))
            trees.extend(_trees(d, n))
        self.size = len(trees)
        self.degree_start.append(self.size)
        self.trees = trees
        self.index = {t: i for i, t in enumerate(trees)}


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr     := term (("+"|"-") term)*
#   term     := [rational "*"] factor | rational
#   factor   := primary ["*" primary]          (binary only; more needs parens)
#   primary  := generator ["^" nat] | "(" expr ")" | "1"
#   rational := integer ["/" positive-integer]
#
# Unparenthesized products of three or more factors are rejected:
# "a*b*c" has no meaning in a nonassociative algebra.  Parentheses nest
# at most MAX_NESTING deep, so parsing never exhausts the call stack.

MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, alg):
        self.tokens = _tokenize(text)
        self.i = 0
        self.gen_index = {}
        for k, name in enumerate(alg.system.basis_names):
            if self.gen_index.setdefault(name, k) != k:
                raise ValueError(f"basis name {name!r} is repeated")
        self.alg = alg
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        x = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return x

    def expr(self):
        kind, val, _ = self.peek()
        sign = ONE
        if kind == "op" and val in "+-":
            self.next()
            sign = -ONE if val == "-" else ONE
        x = sign * self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                x = x + t if val == "+" else x - t
            else:
                return x

    def rational(self):
        kind, val, pos = self.next()
        assert kind == "int"
        num = int(val)
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "/":
            self.next()
            kind3, val3, pos3 = self.next()
            if kind3 != "int":
                raise ExprSyntaxError("expected denominator", pos3)
            den = int(val3)
            if den == 0:
                raise ExprSyntaxError("zero denominator", pos3)
            return Fraction(num, den)
        return Fraction(num)

    def term(self):
        kind, val, _ = self.peek()
        if kind == "int":
            coeff = self.rational()
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "*":
                self.next()
                return coeff * self.factor()
            return coeff * self.alg.one()
        return self.factor()

    def factor(self):
        x = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "*":
            self.next()
            y = self.primary()
            x = self.alg.mul(x, y)
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                raise ExprSyntaxError(
                    "ambiguous nonassociative product: parenthesize products "
                    "of three or more factors", pos)
        return x

    def primary(self):
        kind, val, pos = self.next()
        if kind == "name":
            if val not in self.gen_index:
                raise ExprSyntaxError(f"unknown generator {val!r}", pos)
            g = self.gen_index[val]
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                kind3, val3, pos3 = self.next()
                if kind3 != "int":
                    raise ExprSyntaxError("expected exponent", pos3)
                return self.alg.power(g, int(val3))
            return self.alg.generator(g)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            x = self.expr()
            self.expect_op(")")
            self.depth -= 1
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "^":
                raise ExprSyntaxError("power of a non-generator", pos2)
            return x
        if kind == "int" and val == "1":
            return self.alg.one()
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse(text, alg):
    """Parse an expression into an element of the enveloping algebra ``alg``
    over the names of its basis.

    A power above ``alg.cap``, or a product whose factors' normal forms
    have degrees summing above it, raises ``DegreeBudgetExceeded`` before
    its terms are built.
    """
    return _Parser(text, alg).parse()

