"""Exception types shared across the package."""


class SkyroverError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SkyroverError):
    """Malformed input file. Carries a byte offset when one is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(ParseError):
    """Input is recognized but uses a variant this package does not read."""


class CapacityError(SkyroverError):
    """An operation would exceed a configured size cap."""


class PlacementError(SkyroverError):
    """Procedural generation could not place the requested content."""


class ScenarioError(SkyroverError):
    """Scenario content violates the documented schema or instance rules."""


class TaskError(SkyroverError):
    """Task script cannot be compiled against the given roster and grid."""


class NoSolutionError(SkyroverError):
    """A solver proved (relative to its strategy) that no plan exists."""

    status = "no_solution"


class ResourceLimitError(SkyroverError):
    """A solver hit its expansion or wall-clock budget before finishing."""

    status = "resource_limit"


def solve_error(status: str, message: str) -> SkyroverError:
    """The failure error whose ``status`` is ``status`` (a failed ``SolveResult``'s or ``TaskReport``'s)."""
    return {e.status: e for e in (NoSolutionError, ResourceLimitError)}[status](message)


class InvariantViolation(SkyroverError):
    """Internal consistency fault; indicates a solver or shield bug."""
