"""Partition of the plane into four regions around the zero curve.

For S in {1, 2} the coordinate sigma_S(lambda) = Re(lambda) + (-1)^S * k *
ln|lambda| splits the exterior of a disk of radius R into three pieces:

* Band:  |sigma_S| <= h     (a logarithmic neighbourhood of the zero curve)
* T1:    sigma_S  <  -h     (the algebraic term dominates there)
* T2:    sigma_S  >  +h     (for S = 1 this is where e^lambda dominates)

The j flag tags the half plane: j = 1 for Im(lambda) < 0 and j = 2 otherwise
(points on the real axis are assigned j = 2).  All zeros live on the S = 1
level set sigma_1 = ln|a| inside the band once h > |ln|a||.

quadrangle cuts the S = 1 band into cells by horizontal lines placed
pi + k*pi/2 + arg(a) below consecutive refined zeros; each cell contains
exactly one chain zero and its diagonal approaches sqrt(4*pi^2 + 4*h^2).

The band edges (gamma_abscissa) and the sector radius come from one solver,
_outer_root, whose bracket follows from where x - k*ln|x + iy| - h falls,
not from a search window, so it returns for every k, h and height y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Quasipolynomial, sigma
from .errors import (
    InvalidIndexError,
    InvalidQueryError,
    NoSolutionError,
    _check_finite,
    _check_positive,
)
from .zeros import enumerate_zeros, nu_min

#: residual tolerance for points returned by the band-edge solver
GAMMA_RESIDUAL_TOL = 1e-10


class RegionKind(Enum):
    INNER_DISK = "InnerDisk"
    BAND = "Band"
    T1 = "T1"
    T2 = "T2"


@dataclass(frozen=True)
class RegionLabel:
    """Where a point landed: the region kind plus the half-plane flag j."""

    kind: RegionKind
    j: int


@dataclass(frozen=True)
class QuadrangleGeom:
    """One band cell: counterclockwise corners and the longest diagonal."""

    nu: int
    corners: tuple[complex, complex, complex, complex]
    diag: float


def half_plane(lam: complex) -> int:
    """j flag of a point: 1 below the real axis, 2 on or above it."""
    return 1 if lam.imag < 0 else 2


def classify(
    q: Quasipolynomial, s: int, h: float, r: float, lam: complex
) -> RegionLabel:
    """Assign lambda to exactly one of InnerDisk, Band, T1, T2.

    The inner disk is closed (|lambda| <= R) and takes precedence; outside it
    the band is closed (|sigma_S| <= h), T1 is sigma_S < -h, T2 the rest.
    """
    if s not in (1, 2):
        raise InvalidQueryError(f"S must be 1 or 2, got {s!r}")
    _check_positive(h=h, R=r)
    lam = complex(lam)
    j = half_plane(lam)
    if abs(lam) <= r:
        return RegionLabel(RegionKind.INNER_DISK, j)
    sig = sigma(q, s, lam)
    if abs(sig) <= h:
        return RegionLabel(RegionKind.BAND, j)
    if sig < -h:
        return RegionLabel(RegionKind.T1, j)
    return RegionLabel(RegionKind.T2, j)


def min_h_t1(q: Quasipolynomial) -> float:
    """Smallest band half-width h beyond which T1 is provably zero-free.

    Equals ln(2/|a|): for sigma_1 < -h with h above this threshold the
    exponential term is under half the algebraic one, so |f| >= half of
    |a||lambda|^k > 0.
    """
    return math.log(2.0 / abs(q.a))


def min_h_t2(q: Quasipolynomial) -> float:
    """Threshold ln(2|a|) for the sigma_1 > h far field (e^lambda dominates)."""
    return math.log(2.0 * abs(q.a))


def _check_band_holds_curve(q: Quasipolynomial, h: float) -> None:
    """Reject a band half-width h that is not finite or leaves the zero curve out."""
    _check_finite(h=h)
    if not h > abs(q.log_abs_a):
        raise InvalidQueryError(
            f"band must contain the zero curve: need h > |ln|a|| = "
            f"{abs(q.log_abs_a):.6g}, got h = {h!r}"
        )


def sector_radius(q: Quasipolynomial, s: int, h: float, delta: float) -> float:
    """Smallest R >= e with (h + k*ln r)/r <= sin(delta) for all r >= R.

    Any band point with |lambda| = r satisfies |Re lambda| <= h + k*ln(r), so
    |cos(arg lambda)| <= (h + k*ln r)/r; once that bound drops below
    sin(delta) the whole band tail lies in the sector ||arg| - pi/2| < delta.
    With u = r*sin(delta) the condition reads u - k*ln u >= h - k*ln sin(delta),
    which holds for every u at or beyond that equation's largest root.
    """
    if s not in (1, 2):
        raise InvalidQueryError(f"S must be 1 or 2, got {s!r}")
    if not (0 < delta < math.pi / 2):
        raise InvalidQueryError(f"delta must lie in (0, pi/2), got {delta!r}")
    if not (h >= 0 and math.isfinite(h)):
        raise InvalidQueryError(f"h must be finite and >= 0, got {h!r}")
    sin_delta = math.sin(delta)
    u = _outer_root(q.k, h - q.k * math.log(sin_delta), 0.0)
    return max(math.e, u / sin_delta)


def _outer_root(k: int, h: float, y: float) -> float:
    """Largest x with F(x) = x - k*ln|x + iy| - h = 0, that is sigma_1 = h.

    F' = 1 - k*x/(x^2 + y^2) is negative only strictly between
    x-+ = k/2 -+ sqrt(k^2/4 - y^2), and only when |y| < k/2, so the largest
    root lies on one increasing piece: [x+, inf) when F(x+) <= 0, otherwise
    (-inf, x-), whose end x- = 0 is a pole at y = 0.  Both min(h, -1) and
    h + k*ln|y| have F <= 0, which starts the bracket from below; its top is
    x- or is found by doubling.  Safeguarded Newton then runs inside it.
    """

    def f(x: float) -> float:
        return x - k * math.log(math.hypot(x, y)) - h

    a = max(min(h, -1.0), h + k * math.log(abs(y))) if y else min(h, -1.0)
    b = math.inf
    if abs(y) < 0.5 * k:
        x_plus = 0.5 * k + math.sqrt((0.5 * k - y) * (0.5 * k + y))
        if f(x_plus) <= 0.0:
            a = max(a, x_plus)
        else:
            b = y * y / x_plus
    if b == math.inf:
        step = max(1.0, abs(a))
        b = a + step
        while f(b) < 0.0:
            a, step = b, 2.0 * step
            b = a + step

    x = a
    for _ in range(120):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            a = x
        else:
            b = x
        r = math.hypot(x, y)
        slope = 1.0 - k * (x / r) / r
        nxt = x - fx / slope if slope > 0.0 else 0.5 * (a + b)
        if abs(nxt - x) <= 1e-15 * max(1.0, abs(x)):
            break
        x = nxt if a < nxt < b else 0.5 * (a + b)
    if not abs(f(x)) < GAMMA_RESIDUAL_TOL:
        raise NoSolutionError(
            f"band-edge solve stalled at residual {f(x):.3e} for Im = {y!r}", y=y
        )
    return x


def gamma_abscissa(q: Quasipolynomial, s: int, h: float, y: float) -> float:
    """Solve x + (-1)^S * k * ln(sqrt(x^2 + y^2)) = h for x at fixed y.

    Returns the outer root, the only one when |y| >= k/2: the largest x for
    S = 1 and, as sigma_2(x + iy) = -sigma_1(-x + iy), the smallest for S = 2.
    It exists for every k, h and y and has |sigma_S(x + iy) - h| < 1e-10.
    Raises InvalidQueryError when h or y is not finite, NoSolutionError
    only when Newton stalls above that residual (h near the float range).
    """
    _check_finite(h=h, y=y)
    if s % 2:
        return _outer_root(q.k, h, y)
    return -_outer_root(q.k, -h, y)


def gamma_polyline(
    q: Quasipolynomial,
    s: int,
    j: int,
    h: float,
    im_lo: float,
    im_hi: float,
    n: int,
) -> list[complex]:
    """n points of the curve sigma_S = h at equally spaced Im values.

    The Im range must lie inside the half plane selected by j (j = 1 is
    Im < 0, j = 2 is Im >= 0) and be finite.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidQueryError(f"n must be an integer >= 2, got {n!r}")
    if s not in (1, 2):
        raise InvalidQueryError(f"S must be 1 or 2, got {s!r}")
    _check_finite(im_lo=im_lo, im_hi=im_hi)
    if im_lo > im_hi:
        raise InvalidQueryError(f"empty Im range [{im_lo!r}, {im_hi!r}]")
    if j == 1:
        if im_hi >= 0:
            raise InvalidQueryError("j = 1 selects Im < 0, but im_hi >= 0")
    elif j == 2:
        if im_lo < 0:
            raise InvalidQueryError("j = 2 selects Im >= 0, but im_lo < 0")
    else:
        raise InvalidQueryError(f"j must be 1 or 2, got {j!r}")

    points: list[complex] = []
    for i in range(n):
        y = im_lo + (im_hi - im_lo) * i / (n - 1)
        points.append(complex(gamma_abscissa(q, s, h, y), y))
    return points


def _cut_offset(q: Quasipolynomial) -> float:
    """Vertical distance from a chain zero down to its cut line.

    The raw offset pi + k*pi/2 + arg(a) can exceed one 2*pi period (for
    example k = 2 with arg(a) = pi/4 gives 2.25*pi); reduced into (0, 2*pi],
    the strip between consecutive cut lines is exactly one period tall and
    brackets its own zero.
    """
    raw = math.pi + q.k * math.pi / 2.0 + q.arg_a
    reduced = raw - math.tau * math.floor(raw / math.tau)
    return reduced if reduced > 0.0 else math.tau


def quadrangle(q: Quasipolynomial, nu: int, h: float) -> QuadrangleGeom:
    """The band cell containing the chain zero of index nu.

    Horizontal cut lines sit pi + k*pi/2 + arg(a), reduced into (0, 2*pi],
    below the chain zeros of indices nu and nu + 1 from enumerate_zeros
    (mirrored through conjugation for nu < 0); the four corners solve
    sigma_1 = -h and sigma_1 = +h on those lines, ordered counterclockwise
    from the bottom-left.  diag is the longest diagonal, which approaches
    sqrt(4*pi^2 + 4*h^2) as |nu| grows.
    """
    if not isinstance(nu, int) or isinstance(nu, bool):
        raise InvalidIndexError(f"nu must be an integer, got {nu!r}")
    if abs(nu) < nu_min(q):
        raise InvalidIndexError(f"|nu| must be >= nu_min = {nu_min(q)}, got {nu}")
    _check_band_holds_curve(q, h)
    if nu < 0:
        mirrored = quadrangle(q.conjugate(), -nu, h)
        corners = tuple(c.conjugate() for c in reversed(mirrored.corners))
        return QuadrangleGeom(nu=nu, corners=corners, diag=mirrored.diag)

    z_lo, z_hi = (rec.refined for rec in enumerate_zeros(q, nu, nu + 1))
    offset = _cut_offset(q)
    y_lo = z_lo.imag - offset
    y_hi = z_hi.imag - offset
    bl = complex(gamma_abscissa(q, 1, -h, y_lo), y_lo)
    br = complex(gamma_abscissa(q, 1, h, y_lo), y_lo)
    tr = complex(gamma_abscissa(q, 1, h, y_hi), y_hi)
    tl = complex(gamma_abscissa(q, 1, -h, y_hi), y_hi)
    corners = (bl, br, tr, tl)
    diag = max(
        abs(p - s) for i, p in enumerate(corners) for s in corners[i + 1 :]
    )
    return QuadrangleGeom(nu=nu, corners=corners, diag=diag)
