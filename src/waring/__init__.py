"""Exact debordering of border Waring decompositions.

Given a homogeneous polynomial f over Q and a border certificate -- a sum
of weighted powers of linear forms over Q(eps) whose limit at eps = 0 is f
-- this package produces an explicit weighted Waring decomposition of f
over Q, exactly verified against f, together with diagnostics and
independent rank oracles.
"""

from .epsilon import EpsPoly, EpsScalar
from .poly import HomoPoly, LinearForm, falling_factorial, monomials_of_degree
from .decomp import (
    BorderCheck,
    BorderDecomposition,
    WaringDecomposition,
    base_of_form,
    check_border,
    essential_rank,
    essential_reduce,
    is_local,
    normalize_border,
    restrict_vars_zero,
    verify_waring,
)
from .diagonal import (
    DiagonalizedDecomposition,
    derivative_decomposition,
    diagonalize,
    dvr_reduce_step,
    staircase_check,
)
from .deborder import (
    DeborderConfig,
    DeborderReport,
    TraceRecord,
    deborder,
    dense_decompose,
    extract_local_cofactor,
    multiply_by_power,
    paper_bound,
    partition_into_local,
    split_and_group,
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
    InvariantError,
    NoPivotError,
    PoleAtZero,
    SingularMatrixError,
    VerificationError,
    ZeroDerivativeError,
)
from .serialize import FormatError

__version__ = "0.1.0"

__all__ = [
    "BorderCheck",
    "BorderDecomposition",
    "CertificateCheckError",
    "DeborderConfig",
    "DeborderReport",
    "DegenerateDecompositionError",
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
    "base_of_form",
    "catalecticant_bound",
    "check_border",
    "deborder",
    "dense_decompose",
    "derivative_decomposition",
    "diagonalize",
    "dvr_reduce_step",
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
