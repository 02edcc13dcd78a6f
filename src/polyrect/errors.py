"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling (state count, cell count, ...) was exceeded."""


class AutomatonFormatError(ValueError):
    """Serialized automaton data is malformed or truncated."""


class AutomatonVersionError(AutomatonFormatError):
    """Serialized automaton declares an unsupported format version."""


class AutomatonInvariantError(AutomatonFormatError):
    """Serialized automaton parses but violates a structural invariant."""


class FitError(ValueError):
    """No rational function within the degree bound matches the series."""
