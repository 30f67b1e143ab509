"""Exception types shared across the toolchain."""


class FogweaverError(Exception):
    """Base class for all fogweaver errors."""


class ScenarioSyntaxError(FogweaverError):
    """Malformed scenario text. Carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


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
