"""Exception types shared across the package."""


class RvolestError(Exception):
    """Base class for all package-specific errors."""


class CholeskyFailure(RvolestError):
    """A required diffusion matrix was not symmetric positive definite.

    ``index`` is the (1-based) increment index at which factorization failed,
    or None when the matrix did not come from a path position.
    """

    def __init__(self, message: str = "matrix not SPD", index: int | None = None):
        self.index = index
        if index is not None:
            message = f"{message} (increment j={index})"
        super().__init__(message)


class UnknownModel(RvolestError, ValueError):
    """Requested builtin model name is not registered (an input error)."""


class SingularGamma(RvolestError):
    """Plug-in curvature matrix is numerically singular; no sandwich variance."""


class DegenerateInput(RvolestError):
    """Input data carries no usable variation (e.g. all values identical)."""
