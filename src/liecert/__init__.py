"""liecert: exact-arithmetic certificates for minimal Q-graded subalgebras.

Builds semisimple Lie algebras from root data over the rationals, enumerates
and certifies minimal Q-graded subalgebras, decides almost-inner membership
for their derivations, and carries the analysis to loop algebras and
affinizations, emitting machine-checkable JSON certificates along the way.
"""

__version__ = "0.1.0"

from .chevalley import (
    CONVENTION,
    DistinguishedBasis,
    LieAlgebra,
    SubalgebraSpec,
    build_semisimple,
    extract_subalgebra,
    killing_form,
)
from .exact import MatQ, Rat, invariant_factors, kernel_basis, rref, solve
from .qgraded import QGradedCertificate, certify, enumerate_minimal, is_closed, is_minimal, spans_q, verify_metabelian
from .rootsys import RootSystem, build_root_system, height, root_sum

__all__ = [
    "__version__",
    "CONVENTION",
    "Rat",
    "MatQ",
    "rref",
    "kernel_basis",
    "solve",
    "invariant_factors",
    "RootSystem",
    "build_root_system",
    "height",
    "root_sum",
    "LieAlgebra",
    "SubalgebraSpec",
    "DistinguishedBasis",
    "build_semisimple",
    "killing_form",
    "extract_subalgebra",
    "QGradedCertificate",
    "is_closed",
    "spans_q",
    "is_minimal",
    "enumerate_minimal",
    "verify_metabelian",
    "certify",
]
