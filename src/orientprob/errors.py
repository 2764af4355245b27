"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or invalid input: graph files, vertex ids, parameters."""


class ResourceLimitError(RuntimeError):
    """A configured cap (enumeration size, memo entries) was exceeded."""


class InternalError(RuntimeError):
    """A self-check of the program failed: a fault in the program, not in its input."""
