"""Exception types shared across the package."""


class CircleLoopError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGridError(CircleLoopError):
    """A sample grid or quadrature node count is too coarse or malformed."""


class NonPositiveProfileError(CircleLoopError):
    """The reciprocal profile is not strictly positive on the check grid."""


class InvalidSpecError(CircleLoopError):
    """A loop spec with a failing validation verdict was passed where a valid one is required."""


class RootNotBracketedError(CircleLoopError):
    """A monotone lift failed to bracket the requested division root."""


class SpecFileError(CircleLoopError):
    """A spec file is unreadable or violates the document schema."""


class UnknownSuiteError(CircleLoopError):
    """An unrecognized verification suite name was requested."""
