"""Exception types shared across the toolchain."""


class FogweaverError(Exception):
    """Base class for all fogweaver errors."""


class ScenarioSyntaxError(FogweaverError):
    """Malformed scenario text. Carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class EmptyInputError(FogweaverError):
    """An operation that needs at least one element got none."""


class NoSuchLinkError(FogweaverError):
    """A route names two adjacent entities with no declared link between them."""


class StreamNotScheduledError(FogweaverError):
    """Metrics were requested for a stream absent from the schedule."""


class MismatchedStreamsError(FogweaverError):
    """Two per-stream maps that must cover the same streams do not."""


class InfeasibleError(FogweaverError):
    """A synthesis step could not place every stream or task.

    ``unplaced`` names the items that could not be accommodated.
    ``gave_up`` is true when a search stopped on its budget instead of
    proving that no placement exists.
    """

    def __init__(self, message: str, unplaced=(), gave_up: bool = False):
        super().__init__(message)
        self.unplaced = tuple(unplaced)
        self.gave_up = gave_up


class TaskPlacementInfeasibleError(InfeasibleError):
    """A node cannot absorb additional (security) tasks."""
