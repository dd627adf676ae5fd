"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """A configuration dataclass was constructed with invalid values."""


class SimulationError(ReproError):
    """The event engine was driven into an invalid state."""


class TraceParseError(ReproError):
    """A churn-trace script (Listing 1 DSL) could not be parsed."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_no}: {reason!s}: {line!r}")


class ProtocolError(ReproError):
    """A dissemination-protocol invariant was violated."""
