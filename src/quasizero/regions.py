"""Partition of the plane into four regions around the zero curve.

For S in {1, 2} the coordinate sigma_S(lambda) = Re(lambda) + (-1)^S * k *
ln|lambda| splits the exterior of a disk of radius R into three pieces:

* Band:  |sigma_S| <= h     (a logarithmic neighbourhood of the zero curve)
* T1:    sigma_S  <  -h     (the algebraic term dominates there)
* T2:    sigma_S  >  +h     (for S = 1 this is where e^lambda dominates)

The j flag tags the half plane: j = 1 for Im(lambda) < 0 and j = 2 otherwise
(points on the real axis are assigned j = 2).  All zeros live on the S = 1
level set sigma_1 = ln|a| inside the band once h > |ln|a||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Quasipolynomial, sigma
from .errors import InvalidQueryError, NoSolutionError

#: residual tolerance for points returned by the band-edge solver
GAMMA_RESIDUAL_TOL = 1e-10

#: relative tolerance of the sector-radius bisection
SECTOR_RADIUS_RTOL = 1e-9


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
    if not (h > 0 and math.isfinite(h)):
        raise InvalidQueryError(f"h must be finite and > 0, got {h!r}")
    if not (r > 0 and math.isfinite(r)):
        raise InvalidQueryError(f"R must be finite and > 0, got {r!r}")
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


def sector_radius(q: Quasipolynomial, s: int, h: float, delta: float) -> float:
    """Smallest R >= e with (h + k*ln r)/r <= sin(delta) for all r >= R.

    Any band point with |lambda| = r satisfies |Re lambda| <= h + k*ln(r), so
    |cos(arg lambda)| <= (h + k*ln r)/r; once that bound drops below
    sin(delta) the whole band tail lies in the sector ||arg| - pi/2| < delta.
    The left side is strictly decreasing for r >= e, so the smallest such R is
    found by bisection (relative tolerance 1e-9).
    """
    if s not in (1, 2):
        raise InvalidQueryError(f"S must be 1 or 2, got {s!r}")
    if not (0 < delta < math.pi / 2):
        raise InvalidQueryError(f"delta must lie in (0, pi/2), got {delta!r}")
    if not (h >= 0 and math.isfinite(h)):
        raise InvalidQueryError(f"h must be finite and >= 0, got {h!r}")
    sin_delta = math.sin(delta)

    def envelope(rr: float) -> float:
        return (h + q.k * math.log(rr)) / rr

    lo = math.e
    if envelope(lo) <= sin_delta:
        return lo
    hi = lo
    for _ in range(80):
        hi *= 2.0
        if envelope(hi) <= sin_delta:
            break
    else:  # pragma: no cover - envelope(r) -> 0, so this cannot happen
        raise NoSolutionError("sector envelope never dropped below sin(delta)")
    while (hi - lo) / hi > SECTOR_RADIUS_RTOL:
        mid = 0.5 * (lo + hi)
        if envelope(mid) > sin_delta:
            lo = mid
        else:
            hi = mid
    return hi


def _gamma_residual(q: Quasipolynomial, s: int, h: float, y: float, x: float) -> float:
    """sigma_S(x + iy) - h, with the log singularity at the origin handled."""
    rr = x * x + y * y
    if rr == 0.0:
        # limit of (-1)^S * k * ln|lambda|: -inf for S even, +inf for S odd
        return math.inf if s % 2 else -math.inf
    return x + (-1) ** s * 0.5 * q.k * math.log(rr) - h


def gamma_abscissa(q: Quasipolynomial, s: int, h: float, y: float) -> float:
    """Solve x + (-1)^S * k * ln(sqrt(x^2 + y^2)) = h for x at fixed y.

    Runs a safeguarded Newton iteration inside a bisection bracket found by
    scanning [-(|y|+|h|+10), |y|+|h|+10]; the returned x satisfies
    |sigma_S(x + iy) - h| < 1e-10.  Raises NoSolutionError when no sign change
    exists inside the scan bracket (possible for large k, where the curve
    escapes it), InvalidQueryError when h or y is not finite.
    """
    for name, value in (("h", h), ("y", y)):
        if not math.isfinite(value):
            raise InvalidQueryError(f"{name} must be finite, got {value!r}")
    lo = -(abs(y) + abs(h) + 10.0)
    hi = abs(y) + abs(h) + 10.0

    def res(x: float) -> float:
        return _gamma_residual(q, s, h, y, x)

    # Warm start: the fixed point of x = h - (-1)^S * k * ln|x + iy| is the
    # branch of the curve the large-|y| asymptote belongs to.
    warm = h
    for _ in range(50):
        rr = warm * warm + y * y
        if rr == 0.0:
            break
        nxt = h - (-1) ** s * 0.5 * q.k * math.log(rr)
        if not math.isfinite(nxt):
            break
        nxt = min(max(nxt, lo), hi)
        if abs(nxt - warm) < 1e-14 * max(1.0, abs(nxt)):
            warm = nxt
            break
        warm = nxt

    # Scan for sign-change brackets; keep the one nearest the warm start.
    grid_n = 256
    best: tuple[float, float] | None = None
    prev_x, prev_r = lo, res(lo)
    for i in range(1, grid_n + 1):
        x = lo + (hi - lo) * i / grid_n
        rv = res(x)
        if prev_r == 0.0:
            best = (prev_x, prev_x)
            break
        if rv == 0.0 or (rv < 0) != (prev_r < 0):
            cand = (prev_x, x)
            if best is None or abs(0.5 * (cand[0] + cand[1]) - warm) < abs(
                0.5 * (best[0] + best[1]) - warm
            ):
                best = cand
        prev_x, prev_r = x, rv
    if best is None:
        raise NoSolutionError(
            f"no band-edge abscissa inside [{lo:.3g}, {hi:.3g}] at Im = {y!r}", y=y
        )
    a, b = best
    if a == b:
        return a

    ra, rb = res(a), res(b)
    x = warm if a < warm < b else 0.5 * (a + b)
    for _ in range(120):
        rx = res(x)
        if abs(rx) < GAMMA_RESIDUAL_TOL * 0.01:
            return x
        if (rx < 0) == (ra < 0):
            a, ra = x, rx
        else:
            b, rb = x, rx
        rr = x * x + y * y
        drx = 1.0 + (-1) ** s * q.k * x / rr if rr else 0.0
        step_ok = False
        if drx != 0.0 and math.isfinite(drx):
            nxt = x - rx / drx
            if a < nxt < b:
                x = nxt
                step_ok = True
        if not step_ok:
            x = 0.5 * (a + b)
        if b - a < 1e-15 * max(1.0, abs(x)):
            break
    if abs(res(x)) >= GAMMA_RESIDUAL_TOL:
        raise NoSolutionError(
            f"band-edge solve stalled at residual {res(x):.3e} for Im = {y!r}", y=y
        )
    return x


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
    for name, value in (("im_lo", im_lo), ("im_hi", im_hi)):
        if not math.isfinite(value):
            raise InvalidQueryError(f"{name} must be finite, got {value!r}")
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
