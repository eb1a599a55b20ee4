"""Exception types shared across the package."""


class C3RealizeError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(C3RealizeError, ValueError):
    """An operation was called with arguments outside its contract."""


class CapacityError(C3RealizeError):
    """An exact brute-force operation was asked to exceed its size bound."""

    def __init__(self, what: str, size: int, bound: int):
        self.size = size
        self.bound = bound
        super().__init__(f"{what}: size {size} exceeds brute-force bound {bound}")


class InvariantError(C3RealizeError):
    """A result failed the package's own check of it: a bug, not a bad input."""


class ParseError(C3RealizeError, ValueError):
    """A file or stream could not be parsed; carries a source position."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None,
                 column: int | None = None, path: str | None = None):
        self.source = source
        self.line = line
        self.column = column
        self.path = path
        where = source
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        if path is not None:
            where += f": at {path}"
        super().__init__(f"{where}: {message}")
