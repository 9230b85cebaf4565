"""Exception types, and the checks of a size argument and of a series'
values, shared across the package.

The CLI maps ValidationError to exit code 2 (bad inputs or parameters)
and every other exception to exit code 1 (runtime failure).
"""

import numbers

import numpy as np

__all__ = ["ValidationError", "TrainingDivergedError"]


class ValidationError(ValueError):
    """Raised when inputs violate a precondition or data invariant."""


def check_size(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int, when it is a whole number >= ``minimum``: an int,
    a numpy integer or a float such as 2.0.  A bool, a fraction or a
    non-number is rejected naming ``name``, as is a value below ``minimum``."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_finite(series, first: int = 0) -> None:
    """Reject a (T,) series with a value that is not finite, naming the
    first such value and its index, counted from ``first``."""
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        k = bad[0]
        raise ValidationError(f"series value at index {first + k} is not finite ({series[k]})")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite.

    ``net`` says which net diverged when several train together: its index
    in the training stack, or a name the caller gives it (None: not named).
    """

    def __init__(self, epoch: int, loss: float, net: int | str | None = None):
        self.epoch = epoch
        self.loss = loss
        self.net = net
        where = "" if net is None else f" for net {net}"
        super().__init__(f"training diverged at epoch {epoch}{where}: loss={loss!r}")

    def __reduce__(self):
        # rebuild from (epoch, loss, net), so the error crosses process boundaries
        return type(self), (self.epoch, self.loss, self.net)
