"""Exact-arithmetic toolbox for sl2-triples in symmetrizable Kac-Moody
algebras: root multiplicities, Weyl combinatorics, finite gradings,
pi-systems, truncated realizations, and the rank-2 hyperbolic repairs.

The root-data layer (``errors``, ``gcm``, ``lattice``, ``roots``, ``weyl``,
``grading``, ``pisystem``) is imported with the package.  The realization
layer loads on first use: the names from ``realize``, ``sl2``, ``rank2`` and
``sweeps`` (``TruncatedAlgebra``, ``build_triple``, ``classify_intersection``,
``SUITES`` and the rest of ``__all__``), and those four modules themselves,
are resolved by the module ``__getattr__`` (PEP 562) when first asked for.
Building root vectors is most of the package's code, and a process that only
asks root-data questions, such as ``kmjm weyl``, never compiles it; every
command needs the root-data layer, so deferring it would save nothing.
"""

from importlib import import_module as _import_module

from .errors import (
    DegenerateDenominator,
    EmptySlice,
    HeightOutOfRange,
    InternalInconsistency,
    KmjmError,
    NotDominant,
    NotGCM,
    NotHyperbolic,
    NotPiSystem,
    NotRealRoot,
    NotReduced,
    NotSymmetrizable,
    ResourceCap,
    SingularB,
    ZeroElement,
)
from .gcm import GCM, TypeTag, bilinear_form, classify, norm, validate_gcm
from .grading import check_finite_grading, grade_of, phi_w_d
from .lattice import Coweight, RootVec, WeylWord, rootvec, simple_root
from .pisystem import PiSystem, classify_pi_type, make_pi_system, pi_image
from .roots import MultTable, coroot_pairing, is_root, peterson_multiplicities
from .weyl import apply_word, inversion_set, is_reduced, reduce_word, reflect

__version__ = "0.1.0"

# public name -> the module of the realization layer that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "IntersectionVerdict",
            "Rank2Label",
            "b_seq",
            "build_exceptional_triple",
            "check_interleavings",
            "classify_intersection",
            "defining_word",
            "family_root",
            "gamma_eta",
        ),
        "rank2",
    ),
    **dict.fromkeys(
        (
            "AlgElement",
            "TruncatedAlgebra",
            "build_truncated",
            "check_locally_nilpotent",
            "companion_vector",
            "exp_ad",
            "real_root_vector",
            "simple_reflection",
        ),
        "realize",
    ),
    **dict.fromkeys(
        (
            "RealizedTriple",
            "SL2Triple",
            "build_triple",
            "realize_triple",
            "solve_mu",
            "verify_realized",
            "verify_symbolic",
            "verify_triple_elements",
        ),
        "sl2",
    ),
    **dict.fromkeys(("SUITES", "SuiteReport", "SweepConfig"), "sweeps"),
}

__all__ = [
    "DegenerateDenominator",
    "EmptySlice",
    "HeightOutOfRange",
    "InternalInconsistency",
    "KmjmError",
    "NotDominant",
    "NotGCM",
    "NotHyperbolic",
    "NotPiSystem",
    "NotRealRoot",
    "NotReduced",
    "NotSymmetrizable",
    "ResourceCap",
    "SingularB",
    "ZeroElement",
    "GCM",
    "TypeTag",
    "bilinear_form",
    "classify",
    "norm",
    "validate_gcm",
    "check_finite_grading",
    "grade_of",
    "phi_w_d",
    "Coweight",
    "RootVec",
    "WeylWord",
    "rootvec",
    "simple_root",
    "PiSystem",
    "classify_pi_type",
    "make_pi_system",
    "pi_image",
    "MultTable",
    "coroot_pairing",
    "is_root",
    "peterson_multiplicities",
    "apply_word",
    "inversion_set",
    "is_reduced",
    "reduce_word",
    "reflect",
    *_LAZY,
]

_LAZY_MODULES = ("realize", "sl2", "rank2", "sweeps")


def __getattr__(name):
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)  # importing binds it here
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULES))
