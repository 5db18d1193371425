"""Exact-arithmetic kernel for Lie triple systems and their truncated
nonassociative enveloping algebras with certified normal forms."""

from .envelope import Element, EnvelopingAlgebra, PBWCertificateFailure, build
from .exactlin import Scalar, Subspace, echelonize
from .freealg import DegreeBudgetExceeded, MonomialTable, SizeGuardExceeded
from .lts import LieAlgebra, TripleSystem, check_axioms, standard_embedding

__version__ = "0.1.0"
