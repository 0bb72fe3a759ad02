"""The package's three exception classes, one family per CLI exit code.

``SpecError`` means the input was bad (unknown family, invalid map, not a
subgroup, ...) and maps to exit code 1; its message names the check that
refused.  ``BudgetExceeded`` is the ``SpecError`` of a size budget, which
the optional cross-checks catch in order to skip.  ``MathCheckError`` means
two independent computations of the same quantity disagreed, which signals
an implementation bug and maps to exit code 2.
"""

from __future__ import annotations


class SpecError(Exception):
    """Invalid input or request (CLI exit code 1)."""


class BudgetExceeded(SpecError):
    """A size budget refused the request; optional checks skip on it."""


class MathCheckError(Exception):
    """A mathematical cross-check failed (CLI exit code 2)."""
