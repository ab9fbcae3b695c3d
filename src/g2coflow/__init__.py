"""Laplacian coflow laboratory for invariant coclosed G2-structures.

Subpackages build on each other: exterior (dense forms on R^n), metric_lie
(invariant calculus on the almost Abelian algebra), g2 (structure tensors
and decompositions), almost_abelian (closed-form torsion and Laplacian),
coflow (bracket flow integration), soliton (self-similar solutions), planar
(the two-parameter phase portrait), cli (command line entry points).
"""

from .exterior import KForm, basis_form, from_dense, from_terms
from .g2 import G2Data, canonical_g2

__all__ = [
    "KForm",
    "basis_form",
    "from_dense",
    "from_terms",
    "G2Data",
    "canonical_g2",
]

__version__ = "0.1.0"
