"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that library users (and the CLI) can distinguish numeric failures from misuse.
All of them derive from :class:`QuasizeroError`.  The two input validators
at the end raise InvalidQueryError with the texts every module shares.
"""

from __future__ import annotations

import math


class QuasizeroError(Exception):
    """Base class for all errors raised by this package."""


class InvalidQueryError(QuasizeroError, ValueError):
    """A parameter violates a precondition (bad h, R, delta, depth, ...)."""


class ZeroArgumentError(QuasizeroError, ValueError):
    """lambda = 0 passed to an operation that is singular at the origin."""


class EvalOverflowError(QuasizeroError, OverflowError):
    """The true magnitude of the requested value exceeds binary64 range."""

    def __init__(self, lam: complex, log_magnitude: float):
        self.lam = lam
        self.log_magnitude = log_magnitude
        super().__init__(
            f"|f({lam!r})| has log-magnitude {log_magnitude:.6g}, "
            "not representable in binary64"
        )


class NoSolutionError(QuasizeroError):
    """A scalar solve found no root inside its search bracket."""

    def __init__(self, message: str, y: float | None = None):
        self.y = y
        super().__init__(message)


class InvalidIndexError(QuasizeroError, ValueError):
    """A zero index nu outside the admissible set (nu = 0, or |nu| too small)."""


class NotConvergedError(QuasizeroError):
    """An iteration exhausted its budget; the last iterate is attached."""

    def __init__(self, message: str, last: complex, iterations: int):
        self.last = last
        self.iterations = iterations
        super().__init__(message)


class DerivativeVanishedError(QuasizeroError):
    """Newton hit a point where f' is numerically zero."""


class DivergedError(QuasizeroError):
    """A Newton iterate left the trust disk around its seed."""


class DegenerateZeroError(QuasizeroError):
    """A converged zero where f' is so small the zero may not be simple."""


class DuplicateZeroError(QuasizeroError):
    """Two refined records collapsed onto the same point."""

    def __init__(self, nu_a: int, nu_b: int, distance: float):
        self.nu_a = nu_a
        self.nu_b = nu_b
        self.distance = distance
        super().__init__(
            f"records nu={nu_a} and nu={nu_b} are {distance:.3e} apart"
        )


class NonConsecutiveError(QuasizeroError, ValueError):
    """Spacing requested on records whose indices are not consecutive."""


class BoundaryZeroError(QuasizeroError):
    """|f| vanished (relatively) on an integration contour."""

    def __init__(self, message: str, point: complex, magnitude: float):
        self.point = point
        self.magnitude = magnitude
        super().__init__(message)


class DepthExceededError(QuasizeroError):
    """Adaptive subdivision hit its depth limit before meeting its criterion."""


class WindingError(QuasizeroError):
    """Accumulated boundary phase failed the integer-quotient consistency check."""


class EmptyRegionError(QuasizeroError):
    """Rejection sampling could not find any point of the target region."""


class EmptySampleError(QuasizeroError, ValueError):
    """A sampled verification was requested with zero samples."""


class DeltaTooLargeError(QuasizeroError, ValueError):
    """Punctured-band delta is too large for the observed zero spacing."""


class CertificationError(QuasizeroError):
    """An independently certified count disagrees with the refined list."""


def _check_finite(**values: float) -> None:
    """Reject an infinite or nan input by name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidQueryError(f"{name} must be finite, got {value!r}")


def _check_positive(**values: float) -> None:
    """Reject a value that is not finite and > 0 by name."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise InvalidQueryError(f"{name} must be finite and > 0, got {value!r}")
