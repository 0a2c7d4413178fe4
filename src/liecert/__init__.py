"""liecert: exact-arithmetic certificates for minimal Q-graded subalgebras.

Builds semisimple Lie algebras from root data over the rationals, enumerates
and certifies minimal Q-graded subalgebras, decides almost-inner membership
for their derivations, and carries the analysis to loop algebras and
affinizations, emitting machine-checkable JSON certificates along the way.

The public names are imported from their module on first use (PEP 562), so
``import liecert`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("Rat", "MatQ", "kernel_basis", "solve", "invariant_factors"),
    "rootsys": ("RootSystem", "build_root_system", "height", "root_sum"),
    "chevalley": (
        "CONVENTION",
        "LieAlgebra",
        "SubalgebraSpec",
        "build_semisimple",
        "extract_subalgebra",
    ),
    "qgraded": (
        "QGradedCertificate",
        "is_closed",
        "spans_q",
        "is_minimal",
        "enumerate_minimal",
        "verify_metabelian",
        "certify",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
