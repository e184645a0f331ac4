"""Exception types shared across the library."""


class ContractViolation(Exception):
    """An operation was called outside its documented contract."""


class DegenerateSliceError(ContractViolation):
    """A mode slice carries zero mass where a positive one is required."""


class NonConvergenceError(RuntimeError):
    """The iteration cap was hit, or the iterate stopped being finite,
    before the stopping rule fired.

    Carries the iteration trace up to that point, so callers can inspect the run.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
