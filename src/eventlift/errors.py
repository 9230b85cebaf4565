"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 (bad inputs or parameters)
and every other exception to exit code 1 (runtime failure).
"""


class ValidationError(ValueError):
    """Raised when inputs violate a precondition or data invariant."""


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}: loss={loss!r}")

    def __reduce__(self):
        # rebuild from (epoch, loss), so the error crosses process boundaries
        return type(self), (self.epoch, self.loss)
