"""Exception types shared across the package.

The CLI maps these onto exit codes, so the distinctions are part of the
public contract: parse problems, structural invariant breaks, resource caps,
and detected violations of a caller's genus assertion are all different
failure modes.
"""


class OrichromeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OrichromeError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolation(OrichromeError):
    """A structure broke its own rules (loop, anti-parallel pair, duplicate)."""


class TooLarge(OrichromeError):
    """Requested enumeration exceeds the supported size."""


class CapExceeded(OrichromeError):
    """Exact solver asked to search beyond its hard cap."""


class BudgetExceeded(OrichromeError):
    """Work estimate exceeds the configured budget; no answer produced."""


class CapacityExceeded(OrichromeError):
    """Reserved pool of the target cannot hold the requested embedding."""


class ArityExceeded(OrichromeError):
    """Constraint set larger than the target's certified fullness arity."""


class ClassCollision(OrichromeError):
    """A constraint vertex lies in the class being queried."""


class InvalidClass(OrichromeError):
    """Class index, pool arc end or constraint vertex outside its range in a target."""


class ConstraintConflict(OrichromeError):
    """One target vertex constrained to two different orientations (a defect)."""


class RealizationError(OrichromeError):
    """No target vertex satisfies a constraint set that should be realizable."""


class InvalidInner(OrichromeError):
    """Inner colouring handed to the stratified colourer is not valid."""


class PreconditionViolated(OrichromeError):
    """Operation applied outside its stated hypothesis."""


class DegeneracyViolation(OrichromeError):
    """Stripped graph exceeded the promised back-degree under the ordering."""


class GenusAssumptionViolated(OrichromeError):
    """Input graph cannot have the asserted Euler genus."""


class NotReduced(OrichromeError):
    """Discharge check called on a graph where reduction rules still apply."""


class NonConvergence(OrichromeError):
    """Iterative numeric routine failed to reach its tolerance."""


class DomainError(OrichromeError, ValueError):
    """Numeric argument outside the domain a formula is proved for."""
