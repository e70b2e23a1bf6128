"""Exception hierarchy shared by all agekit modules."""


class AgekitError(Exception):
    """Base class for all agekit errors."""


class InputError(AgekitError):
    """Invalid input: bad arguments, mismatched signatures, malformed files."""


class ParseError(InputError):
    """Syntax or semantic error in an input file, with position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


class InternalError(AgekitError):
    """A guaranteed invariant was violated; indicates a bug."""
