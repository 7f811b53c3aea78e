"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: capacity errors exit 3, precondition
errors exit 4, usage errors exit 2.
"""


class RecdistError(Exception):
    """Base class for all package errors."""


class PreconditionError(RecdistError, ValueError):
    """An operation's input contract is violated."""


class MomentMismatchError(PreconditionError):
    """First or second moments differ beyond tolerance where they must agree.

    Carries the observed gaps so callers can report how far apart the
    distributions were.
    """

    def __init__(self, mean_gap: float, second_moment_gap: float):
        self.mean_gap = float(mean_gap)
        self.second_moment_gap = float(second_moment_gap)
        super().__init__(
            f"first/second moments differ: mean gap {self.mean_gap:.3e}, "
            f"second-moment gap {self.second_moment_gap:.3e}"
        )


class CapacityError(RecdistError, RuntimeError):
    """A configured resource limit (support size, solve cap) was exceeded."""


class UnsupportedExactError(PreconditionError):
    """A joint law whose self reference the solver cannot remove: the unknown
    law times itself or a non-degenerate factor, a downward shift, or a toll
    law on an atom that refers back."""


class DivergenceError(RecdistError, RuntimeError):
    """A population iteration left the configured magnitude envelope."""


class UsageError(RecdistError):
    """Bad command-line input: an unknown model, a bad flag value, or a file
    that cannot be read or written."""
