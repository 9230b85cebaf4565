"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 (bad inputs or parameters)
and every other exception to exit code 1 (runtime failure).
"""


class ValidationError(ValueError):
    """Raised when inputs violate a precondition or data invariant."""


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
