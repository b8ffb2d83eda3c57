"""Exception vocabulary shared by all nestlab modules.

Every failure mode that callers are expected to handle gets its own class so
tests and the CLI can match on type rather than message text.
"""

from __future__ import annotations

__all__ = [
    "AmbientMismatchError",
    "ChainError",
    "DimensionMismatchError",
    "DocumentError",
    "IncomparableError",
    "LimitGapError",
    "MissingEndpointError",
    "NestlabError",
    "NonzeroAtZeroError",
    "NotABimoduleError",
    "NotAMemberError",
    "NotEssentialError",
    "PairAdmissibilityError",
    "PInfinityError",
    "PPropertyError",
    "SupportFunctionError",
    "UnknownCommandError",
    "UnknownSuiteError",
    "ZeroVectorError",
]



class NestlabError(Exception):
    """Base class for all validation errors raised by nestlab."""


# --- rational linear algebra ---------------------------------------------

class DimensionMismatchError(NestlabError):
    """A vector has the wrong number of entries for the requested ambient."""


class AmbientMismatchError(NestlabError):
    """Two objects live in different ambient dimensions."""


# --- nests -----------------------------------------------------------------

class IncomparableError(NestlabError):
    """Two candidate chain members are not nested either way."""


# --- operator spaces ---------------------------------------------------------

class ZeroVectorError(NestlabError):
    """A rank-one factor was built from the zero vector or zero functional."""


class NotABimoduleError(NestlabError):
    """The operator space is not invariant under the nest algebra action."""


class NotAMemberError(NestlabError):
    """The operator does not belong to the operator space it was checked against."""


class SupportFunctionError(NestlabError):
    """A support function table is malformed (non-monotone or out of range)."""


# --- abstract chains ---------------------------------------------------------

class ChainError(NestlabError):
    """Base class for malformed abstract chains or chain maps."""


class MissingEndpointError(ChainError):
    """The chain does not start at node "0" or does not end at node "X"."""


class LimitGapError(ChainError):
    """A node marked as a limit from below also declares a jump dimension."""


class PairAdmissibilityError(ChainError):
    """A (phi, psi) pair violates the pair axioms."""


class NotEssentialError(ChainError):
    """The map fails the essential support axioms."""


class PPropertyError(ChainError):
    """The chain lacks countable approach sequences at some limit node."""


class PInfinityError(ChainError):
    """The chain has an attained finite jump, so the infinite-jump hypothesis fails."""


class NonzeroAtZeroError(ChainError):
    """The map does not send node "0" to node "0"."""


# --- documents / CLI ---------------------------------------------------------

class DocumentError(NestlabError):
    """A workbench document failed to parse; carries field context."""

    def __init__(self, message: str, *, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class UnknownCommandError(NestlabError):
    """The CLI was asked for a command it does not provide."""


class UnknownSuiteError(NestlabError):
    """The property-test harness was asked for a suite it does not provide."""
