"""Exception types shared across the package.

Argument and domain violations raise plain :class:`ValueError`; the one
failure mode that callers are expected to dispatch on (a computation that
cannot reach its requested precision) gets its own class so the CLI can map
it to a dedicated exit code.
"""


class PrecisionFailure(ArithmeticError):
    """A computation could not be certified at the requested precision.

    The message says how far it got; callers dispatch on the type alone.
    """


class UsageError(ValueError):
    """Bad command-line or config-file input (CLI exit code 2)."""
