"""The ``Fraction``-valued Hopf operations that only the tests use, as
wrappers over the integer-row kernels of ``triplex.hopf``."""

from triplex import hopf
from triplex.envelope import Element
from triplex.exactlin import integer_row, rational_row


def tensor_mul(alg, s, t):
    """Legwise product of two tensors {(left, right): coefficient}."""
    return rational_row(*hopf._tensor_rows(alg, integer_row(s), integer_row(t)))


def left_div(x, y):
    """x \\ y = S(x) y."""
    return hopf.s_map(x) * y


def right_div(y, x):
    """y / x = sum S(x_(3)) ((x_(1) y) S(x_(2)))."""
    alg = y.algebra
    return Element(alg, rational_row(*hopf._right_div(
        alg, integer_row(y.coeffs), integer_row(hopf.comult3(x)))))
