"""Exception types shared across the package.

Each class declares the CLI exit status it ends a run with, so the
distinctions are part of the public contract: bad input and broken
invariants exit 1, a refused cap or budget exits 2, and a detected violation
of the caller's genus assertion, whichever of its two promises broke, exits 3.
"""


class OrichromeError(Exception):
    """Base class for all package-specific errors."""

    exit_status = 1


class ParseError(OrichromeError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolation(OrichromeError):
    """A structure broke its own rules (loop, anti-parallel pair, duplicate)."""


class TooLarge(OrichromeError):
    """Requested enumeration exceeds the supported size."""

    exit_status = 2


class CapExceeded(OrichromeError):
    """Exact solver asked to search beyond its hard cap."""

    exit_status = 2


class BudgetExceeded(OrichromeError):
    """Work estimate exceeds the configured budget; no answer produced."""

    exit_status = 2


class CapacityExceeded(OrichromeError):
    """The target has too few pool slots or free classes for the embedding."""

    exit_status = 2


class ArityExceeded(OrichromeError):
    """Constraint set larger than the target's certified fullness arity."""

    exit_status = 2


class ClassCollision(OrichromeError):
    """A constraint vertex lies in the class being queried."""


class InvalidClass(OrichromeError):
    """Class index, pool arc end or constraint vertex outside its range in a target."""


class ConstraintConflict(OrichromeError):
    """One target vertex constrained to two different orientations (a defect)."""


class RealizationError(OrichromeError):
    """No target vertex satisfies a constraint set that should be realizable."""


class PreconditionViolated(OrichromeError):
    """Operation applied outside its stated hypothesis."""


class GenusAssumptionViolated(OrichromeError):
    """Input graph cannot have the asserted Euler genus: a core degree above 12g-12 or stripped back-degree above 6."""

    exit_status = 3


class NotReduced(OrichromeError):
    """Discharge check called on a graph where reduction rules still apply."""


class NonConvergence(OrichromeError):
    """Iterative numeric routine failed to reach its tolerance."""


class DomainError(OrichromeError, ValueError):
    """Numeric argument outside the domain a formula is proved for."""
