"""Exception types shared across the package.

Every library error derives from KphamError so callers (and the CLI) can
catch domain failures in one place without swallowing programming errors.
"""

from __future__ import annotations


class KphamError(Exception):
    """Base class for all library-level failures."""


class InvalidGraph(KphamError):
    """Graph construction input violates the balanced k-partite contract."""


class TooSmall(KphamError):
    """The instance is below the size where the operation is defined."""


class TooLarge(KphamError):
    """The instance exceeds a configured cap (bit matrix, oracle, sweep host)."""


class HypothesisNotMet(KphamError):
    """A documented precondition of the called routine does not hold."""


class InvalidPath(KphamError):
    """A vertex sequence is not a path of the given graph."""


class InvalidCycle(KphamError):
    """A vertex sequence is not a Hamilton cycle of the given graph."""


class ConstructionFailed(KphamError):
    """A constructive routine ran out of admissible moves.

    This signals a gap between the guaranteed hypothesis and what the greedy
    construction could actually realize on the instance. Inside the solver
    it is the only gap signal: the degree-sum closure raises it with a
    reason, and constructive._construct, which runs the shape's closure
    route for both solve() and solve_theorem11(), catches it in one place,
    logs the reason and falls back to exhaustive search.
    """


class BudgetExceeded(KphamError):
    """A fault-injection request removes more edges than the safe budget."""


class GraphFormatError(KphamError):
    """Text-format parse failure, carrying the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
