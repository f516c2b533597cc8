"""Exact debordering of border Waring decompositions.

Given a homogeneous polynomial f over Q and a border certificate -- a sum
of weighted powers of linear forms over Q(eps) whose limit at eps = 0 is f
-- this package produces an explicit weighted Waring decomposition of f
over Q, exactly verified against f, together with diagnostics and
independent rank oracles.

The two route modules, ``waring.diagonal`` and ``waring.deborder``, load on
first use of one of their names here (or on their own import), so the
command-line steps that never deborder do not pay for them.
"""

import importlib
import sys
import types

from .epsilon import EpsPoly, EpsScalar
from .poly import HomoPoly, LinearForm, falling_factorial, monomials_of_degree
from .decomp import (
    BorderCheck,
    BorderDecomposition,
    WaringDecomposition,
    check_border,
    essential_rank,
    essential_reduce,
    is_local,
    normalize_border,
    restrict_vars_zero,
    verify_waring,
)
from .oracle import (
    catalecticant_bound,
    gen_family,
    gen_multibase,
    gen_osculating,
    gen_random,
    gen_tangent,
    sylvester_rank,
)
from .errors import (
    CertificateCheckError,
    DegenerateDecompositionError,
    DrawsExhaustedError,
    InvariantError,
    NoPivotError,
    PoleAtZero,
    SingularMatrixError,
    VerificationError,
    ZeroDerivativeError,
)
from .serialize import FormatError

__version__ = "0.1.0"

# name -> route module that defines it, imported on first access
_DEFERRED = {
    **dict.fromkeys(
        (
            "DiagonalizedDecomposition",
            "derivative_decomposition",
            "diagonalize",
            "staircase_check",
        ),
        "diagonal",
    ),
    **dict.fromkeys(
        (
            "DeborderConfig",
            "DeborderReport",
            "TraceRecord",
            "deborder",
            "dense_decompose",
            "extract_local_cofactor",
            "multiply_by_power",
            "paper_bound",
            "partition_into_local",
            "split_and_group",
        ),
        "deborder",
    ),
}


class _Package(types.ModuleType):
    """Binds a route module's names on the package as the module loads.

    Importing ``waring.deborder`` by any route binds the submodule on the
    package under ``deborder``; binding its names right after puts the
    function back there.  Each name gets its original object, which is what
    a patch of the submodule's bindings looks for.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType):
            for key, home in _DEFERRED.items():
                if home == name:
                    super().__setattr__(key, getattr(value, key))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    home = _DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binding the loaded module on the package binds its names (_Package)
    importlib.import_module(f"{__name__}.{home}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_DEFERRED))


__all__ = [
    "BorderCheck",
    "BorderDecomposition",
    "CertificateCheckError",
    "DeborderConfig",
    "DeborderReport",
    "DegenerateDecompositionError",
    "DrawsExhaustedError",
    "DiagonalizedDecomposition",
    "EpsPoly",
    "EpsScalar",
    "FormatError",
    "HomoPoly",
    "InvariantError",
    "LinearForm",
    "NoPivotError",
    "PoleAtZero",
    "SingularMatrixError",
    "TraceRecord",
    "VerificationError",
    "WaringDecomposition",
    "ZeroDerivativeError",
    "catalecticant_bound",
    "check_border",
    "deborder",
    "dense_decompose",
    "derivative_decomposition",
    "diagonalize",
    "essential_rank",
    "essential_reduce",
    "extract_local_cofactor",
    "falling_factorial",
    "gen_family",
    "gen_multibase",
    "gen_osculating",
    "gen_random",
    "gen_tangent",
    "is_local",
    "monomials_of_degree",
    "multiply_by_power",
    "normalize_border",
    "paper_bound",
    "partition_into_local",
    "restrict_vars_zero",
    "split_and_group",
    "staircase_check",
    "sylvester_rank",
    "verify_waring",
]
