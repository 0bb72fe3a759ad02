"""Exception hierarchy.

Two families matter to callers: ``SpecError`` means the input was bad
(unknown family, invalid map, not a subgroup, ...) and maps to CLI exit
code 1; ``MathCheckError`` means two independent computations of the same
quantity disagreed, which signals an implementation bug and maps to CLI
exit code 2.
"""

from __future__ import annotations


class TauMackeyError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(TauMackeyError):
    """Invalid input or request (CLI exit code 1)."""


class MathCheckError(TauMackeyError):
    """A mathematical cross-check failed (CLI exit code 2)."""


# --- construction / input errors ---------------------------------------

class ClosureCapExceeded(SpecError):
    pass


class NonGroup(SpecError):
    pass


class UnknownFamily(SpecError):
    pass


class BudgetExceeded(SpecError):
    pass


class NotASubgroup(SpecError):
    pass


class NotCliffordGroup(SpecError):
    pass


class GroupMismatch(SpecError):
    pass


class NotGelfand(SpecError):
    pass


# --- map validation errors ----------------------------------------------

class InvalidMap(SpecError):
    pass


class NotBijective(InvalidMap):
    pass


class HomomorphismViolation(InvalidMap):
    """Carries the witness pair (a, b) of ids at which the claimed law fails."""

    def __init__(self, message: str, witness: tuple[int, int]):
        super().__init__(message)
        self.witness = witness


class WrongKind(InvalidMap):
    pass


class NotInvolutory(InvalidMap):
    pass


class InconsistentImages(InvalidMap):
    pass


class NotAutomorphism(InvalidMap):
    pass


# --- cross-check failures (bug signals) -----------------------------------

class CrossCheckFailed(MathCheckError):
    pass


class DegenerateEigenspaces(MathCheckError):
    pass


class NonIntegralMultiplicity(MathCheckError):
    pass


class NonIntegralIndicator(MathCheckError):
    pass


class ValueOutOfRange(MathCheckError):
    pass


class NoMatchingRow(MathCheckError):
    pass
