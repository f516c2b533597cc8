"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
plain ValueError/TypeError are reserved for malformed arguments (dimension
mismatches, wrong scalar kinds, out-of-range indices).
"""

from __future__ import annotations


class PoleAtZero(ArithmeticError):
    """A scalar or coefficient with negative eps-valuation was evaluated at eps = 0."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SingularMatrixError(ArithmeticError):
    """Exact inversion of a singular matrix was attempted."""


class NoPivotError(RuntimeError):
    """Every remaining candidate reduced to zero; no further pivot exists."""


class ZeroDerivativeError(RuntimeError):
    """The requested derivative of the limit polynomial vanishes identically."""


class DegenerateDecompositionError(RuntimeError):
    """The expanded sum of a decomposition is identically zero against a nonzero target."""


class VerificationError(RuntimeError):
    """An input certificate failed exact verification against its target."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateCheckError(RuntimeError):
    """A runtime-checked structural hypothesis failed on the given certificate.

    These are the conditions the debordering pipeline verifies instead of
    assuming: divisibility of a local part by the base power, and convergence
    of each group in the partition into local parts.  ``check`` is a short
    machine-readable tag, ``witness`` carries the offending object (stringified
    for diagnostics).
    """

    def __init__(self, check: str, message: str, witness=None):
        super().__init__(message)
        self.check = check
        self.witness = witness


class InvariantError(AssertionError):
    """An internal invariant failed; this signals a bug or an invalid certificate."""
