"""Certified zero counting via the argument principle.

f is entire, so the number of zeros inside a closed contour equals the total
change of arg(f) around it divided by 2*pi.  One edge walker takes every
contour edge as one piece and bisects it until each piece carries a proof of
its phase change, checked on the disk D(m, l) around the piece's midpoint m
with l its half arc length, padded for rounding, which holds the piece (Ying & Katz,
Numer. Math. 52, 1988; Kravanja & Van Barel, LNM 1727, 2000):

* dominance, with no evaluation: when one term of f (e^lambda or
  a*lambda^k) is larger than the other everywhere on D, f = dom * (1 + w)
  with |w| < 1, so the phase change is the dominant term's exact change plus
  the principal change of 1 + w, read off the end samples;
* the derivative bound, with one evaluation: when |f(m)| exceeds l times a
  bound on |f'| over D, f(D) lies in a disk around f(m) that excludes 0, so
  both halves' phase changes are principal differences of the samples.

Both compare logarithms, with margins for rounding, so contours far out in
the plane are handled without overflow.  A whole edge where one term
dominates is one piece: the right edge of a tall rect turns hundreds of
times at no evaluation.

isolate_zeros certifies zeros it does not search for: the Lambert-W seeds
of quasizero.seeds, each proven by a Rouche disk, must match the one count
of the rect.

This counter is the independent certificate for the refinement pipeline: it
never looks inside the refiners, only at values of f along curves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .core import Quasipolynomial, _dominant
from .errors import (
    BoundaryZeroError,
    CertificationError,
    DepthExceededError,
    InvalidQueryError,
    QuasizeroError,
    WindingError,
    _check_positive,
)
from .seeds import _proven_zeros, _rouche

#: an edge of length L may be bisected max_depth + ceil(log2(L / _DEPTH_UNIT))
#: times (max_depth when L <= _DEPTH_UNIT), so its finest piece is at most
#: _DEPTH_UNIT * 2**-max_depth long at any L
_DEPTH_UNIT = 0.25

#: a contour sample with |f| below this, relative to the dominant term of f,
#: is treated as "zero on the boundary"
BOUNDARY_REL_TOL = 1e-12

#: the accumulated phase divided by 2*pi must be this close to an integer
WINDING_INT_TOL = 1e-6

#: default and minimum adaptive bisection depth below _DEPTH_UNIT
DEFAULT_MAX_DEPTH = 24
MIN_MAX_DEPTH = 8

#: relative slack of the certificates' log-domain comparisons, scaled by the
#: magnitude of the terms compared: about 4,500 ulps, far above the rounding
#: of |m|, ell and the k-fold logarithms for k <= 200 and |lambda| <= 1e7
_CERT_MARGIN = 2.0**-40

#: 16 ulps: the padding of a piece's half-length for the rounding of its
#: points, and the unit of the rounding bound on a computed relative |f|
_ULPS = 2.0**-48


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [re_lo, re_hi] x [im_lo, im_hi]."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self) -> None:
        vals = (self.re_lo, self.re_hi, self.im_lo, self.im_hi)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidQueryError(f"rectangle must be finite, got {vals!r}")
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise InvalidQueryError(f"rectangle must be nondegenerate, got {vals!r}")

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Counterclockwise, starting at the bottom-left corner."""
        return (
            complex(self.re_lo, self.im_lo),
            complex(self.re_hi, self.im_lo),
            complex(self.re_hi, self.im_hi),
            complex(self.re_lo, self.im_hi),
        )

    def contains(self, lam: complex, pad: float = 0.0) -> bool:
        return (
            self.re_lo - pad <= lam.real <= self.re_hi + pad
            and self.im_lo - pad <= lam.imag <= self.im_hi + pad
        )


@dataclass(frozen=True)
class Disk:
    """Closed disk |lambda - center| <= radius."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        _check_positive(radius=self.radius)
        c = complex(self.center)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidQueryError(f"center must be finite, got {c!r}")
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class ContourCount:
    """Certified count with the diagnostics of the walk that produced it.

    min_boundary_mag is the smallest |f| seen on the contour, measured
    relative to max(|e^lambda|, |a*lambda^k|) so that it stays meaningful on
    contours whose absolute |f| is astronomically large.
    """

    count: int
    contour: Rect | Disk
    edge_segments: int
    min_boundary_mag: float


class _WalkStats:
    __slots__ = ("segments", "min_mag", "min_mag_point")

    def __init__(self) -> None:
        self.segments = 0
        self.min_mag = math.inf
        self.min_mag_point = 0j


def _phase_and_relmag(q: Quasipolynomial, lam: complex) -> tuple[float, float]:
    """(arg f(lambda) wrapped to [-pi, pi], |f| / dominant-term magnitude).

    Writes f = exp(dom) * (1 + w) (core._dominant), so both factors are
    representable on any contour.
    """
    if lam == 0:
        return 0.0, 1.0  # f(0) = 1
    dom, w, _ = _dominant(q.log_a, q.k, lam)
    remainder = 1.0 + w
    relmag = abs(remainder)
    if relmag == 0.0:
        raise BoundaryZeroError(
            f"f vanished at contour point {lam!r}", point=lam, magnitude=0.0
        )
    phase = math.remainder(dom.imag + cmath.phase(remainder), math.tau)
    return phase, relmag


def _eval_point(
    q: Quasipolynomial, lam: complex, stats: _WalkStats
) -> tuple[float, float]:
    ph, mag = _phase_and_relmag(q, lam)
    if mag < stats.min_mag:
        stats.min_mag = mag
        stats.min_mag_point = lam
    return ph, mag


def _dominance_step(
    q: Quasipolynomial,
    p0: complex,
    f0: tuple[float, float],
    p1: complex,
    f1: tuple[float, float],
    m: complex,
    ell: float,
) -> float | None:
    """Phase change of f along the piece p0 -> p1, with end values f0, f1,
    when one term of f dominates the other on the disk D(m, ell) holding the
    piece; None when neither can be shown to.

    e^lambda dominates when ln|a| + k ln(|m| + ell) < Re m - ell, and
    a lambda^k when |m| > ell and Re m + ell < ln|a| + k ln(|m| - ell).  On D
    then f = dom * (1 + w) with |w| < 1: the dominant term's phase change is
    exact (Im lambda, or k times the change of arg lambda, which stays within
    pi/2 of arg m), and 1 + w stays in the right half-plane, so its change is
    the principal remainder of the rest.
    """
    r = abs(m)
    k = q.k
    log_abs_a = q.log_abs_a
    # each lead is the smallest ln|dominant term| - ln|other term| on D; the
    # cheap sign test comes first, as most pieces fail it
    far = k * math.log(r + ell)
    lead = m.real - ell - log_abs_a - far
    if lead > 0 and lead > _CERT_MARGIN * (
        1 + k + abs(log_abs_a) + abs(far) + abs(m.real) + ell
    ):
        turn = p1.imag - p0.imag
    elif r > ell:
        near = k * math.log(r - ell)
        lead = log_abs_a + near - m.real - ell
        # |m| - ell loses digits to cancellation as it nears ell
        if not (lead > 0 and lead > _CERT_MARGIN * (
            1 + k + abs(log_abs_a) + abs(near) + abs(m.real) + ell + k * (r + ell) / (r - ell)
        )):
            return None
        turn = k * math.remainder(cmath.phase(p1) - cmath.phase(p0), math.tau)
    else:
        return None
    return turn + math.remainder(f1[0] - f0[0] - turn, math.tau)


def _derivative_certified(
    q: Quasipolynomial, m: complex, fm: tuple[float, float], ell: float
) -> bool:
    """Whether |f(m)| > ell * (e^(Re m + ell) + |a| k (|m| + ell)^(k - 1)).

    The right side bounds ell * |f'| over D(m, ell), so f maps the disk into
    one around f(m) that excludes 0: arg f stays within pi/2 of arg f(m), and
    the phase change from either end of a piece in D to m is the principal
    difference of their phases.  Both sides are taken in the log domain;
    |f(m)| is lowered by the rounding of its remainder factor 1 + w.
    """
    k = q.k
    log_abs_a = q.log_abs_a
    r = abs(m)
    ln_r = math.log(r) if r else -math.inf  # f(0) = 1 exactly
    alg = log_abs_a + k * ln_r
    dom = m.real if m.real >= alg else alg
    relmag = fm[1]
    far = math.log(r + ell)
    t_exp = m.real + ell
    t_alg = log_abs_a + math.log(k) + (k - 1) * far
    hi, lo = (t_exp, t_alg) if t_exp >= t_alg else (t_alg, t_exp)
    log_ell = math.log(ell)
    bound = log_ell + hi + math.log1p(math.exp(lo - hi))
    if math.log(relmag) + dom <= bound:
        return False
    # the rounding of relmag = |1 + w|: of 1 + w itself, and |w| =
    # e^-|Re m - alg| times the error of Log w's argument
    err = 0.0
    if r:
        err = _ULPS * (
            1.0 + math.exp(-abs(m.real - alg)) * (1 + r + abs(q.log_a) + k * (abs(ln_r) + 4))
        )
    slack = _CERT_MARGIN * (
        1 + k + abs(dom) + abs(m.real) + ell + abs(log_abs_a) + k * abs(far) + abs(log_ell)
    )
    return relmag > err and math.log(relmag - err) + dom > bound + slack


def _unresolved(point: complex, stats: _WalkStats) -> QuasizeroError:
    """The error for a piece around point that neither certificate accepts
    after the depth limit, classified by the smallest relative |f| seen on
    the contour so far."""
    if stats.min_mag < BOUNDARY_REL_TOL:
        return BoundaryZeroError(
            "phase unresolved near a vanishing |f| on the contour "
            f"(relative |f| = {stats.min_mag:.3e} at {stats.min_mag_point!r})",
            point=stats.min_mag_point,
            magnitude=stats.min_mag,
        )
    return DepthExceededError(
        f"contour piece not certified after exhausting bisection depth near {point!r}"
    )


#: a contour piece's disk: (p0, p1, t0, t1) -> (m, ell), for the piece from
#: p0 to p1 at parameters t0 < t1 of its edge
_Piece = Callable[[complex, complex, float, float], tuple[complex, float]]


def _segment_piece(p0: complex, p1: complex, t0: float, t1: float) -> tuple[complex, float]:
    """The disk around the midpoint m of the segment p0 -> p1.

    m is within u*|p1 - p0| + u*|m| <= 2u*(|p0| + |m|) of the exact midpoint
    (u = 2**-53; halving is exact), and the computed |p1 - p0|/2 within
    u*|p1 - p0| of its own, so a pad of _ULPS*(|p0| + |m|) = 16u*(...) holds
    the piece, however far along a long edge it lies.
    """
    m = p0 + 0.5 * (p1 - p0)
    return m, 0.5 * abs(p1 - p0) + _ULPS * (abs(p0) + abs(m))


def _walk_edge(
    q: Quasipolynomial,
    piece: _Piece,
    depth: int,
    start: tuple[complex, tuple[float, float]],
    end: tuple[complex, tuple[float, float]],
    stats: _WalkStats,
) -> float:
    """The phase change of f along an edge from start to end, each a
    (point, value) pair.

    Each piece, from the whole edge down, is checked on the disk D(m, ell)
    that piece gives it, which holds the piece.  _dominance_step accepts it
    with no evaluation; otherwise f(m) is evaluated, and
    _derivative_certified accepts it with m kept as a sample between two
    principal steps.  A piece neither accepts is bisected at m, at most
    depth times along any path; a piece at that depth still rejected raises
    its error (_unresolved).
    """
    p0, f0 = start
    t0 = 0.0
    total = 0.0
    # the right ends of the pieces still to walk, the next one last:
    # (parameter, point, value, depth left)
    pending = [(1.0, end[0], end[1], depth)]
    while pending:
        t1, p1, f1, depth = pending[-1]
        m, ell = piece(p0, p1, t0, t1)
        d = _dominance_step(q, p0, f0, p1, f1, m, ell)
        if d is None:
            fm = _eval_point(q, m, stats)
            if _derivative_certified(q, m, fm, ell):
                stats.segments += 1
                total += math.remainder(fm[0] - f0[0], math.tau)
                d = math.remainder(f1[0] - fm[0], math.tau)
            elif depth > 0:
                tm = 0.5 * (t0 + t1)
                pending[-1] = (t1, p1, f1, depth - 1)
                pending.append((tm, m, fm, depth - 1))
                continue
            else:
                raise _unresolved(m, stats)
        pending.pop()
        stats.segments += 1
        total += d
        t0, p0, f0 = t1, p1, f1
    return total


def _winding_to_count(total_phase: float) -> int:
    quotient = total_phase / math.tau
    nearest = round(quotient)
    if abs(quotient - nearest) > WINDING_INT_TOL:
        raise WindingError(
            f"boundary phase sum {total_phase!r} is {quotient:.9f} turns, "
            "not within tolerance of an integer"
        )
    if nearest < 0:
        raise WindingError(f"negative winding {nearest} for an entire function")
    return int(nearest)


def _walk_contour(
    q: Quasipolynomial, contour: Rect | Disk, max_depth: int, stats: _WalkStats
) -> float:
    """The phase change of f once around contour, walked counterclockwise: a
    rect's sides from its bottom-left corner (bottom, right, top, left), or a
    disk's quarter arcs from angle 0.

    An edge of length L is bisected at most max_depth +
    ceil(log2(L / _DEPTH_UNIT)) times along any path, so its finest piece is
    _DEPTH_UNIT * 2**-max_depth long at any L; an edge whose L / _DEPTH_UNIT
    overflows is an InvalidQueryError.  f is evaluated at the four ends
    first, then each edge is walked (_walk_edge).
    """
    if max_depth < MIN_MAX_DEPTH:
        raise InvalidQueryError(f"max_depth must be >= {MIN_MAX_DEPTH}, got {max_depth}")
    if isinstance(contour, Rect):
        starts = list(contour.corners())
        paths: list[tuple[_Piece, float]] = [
            (_segment_piece, abs(p1 - p0)) for p0, p1 in zip(starts, starts[1:] + starts[:1])
        ]
    else:
        center, radius = contour.center, contour.radius
        anchors = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.tau]
        length = 0.5 * math.pi * radius

        def arc(lo: float, hi: float) -> _Piece:
            def piece(p0: complex, p1: complex, t0: float, t1: float) -> tuple[complex, float]:
                m = center + radius * cmath.exp(1j * (lo + 0.5 * (t0 + t1) * (hi - lo)))
                return m, 0.5 * length * (t1 - t0) + _ULPS * (abs(m) + length)

            return piece

        starts = [center + radius * cmath.exp(1j * t) for t in anchors[:4]]
        paths = [(arc(lo, hi), length) for lo, hi in zip(anchors, anchors[1:])]
    for _, length in paths:
        if not math.isfinite(length / _DEPTH_UNIT):
            raise InvalidQueryError(f"contour edge of length {length!r} is too long to walk")
    ends = [(p, _eval_point(q, p, stats)) for p in starts]
    total = 0.0
    for (piece, length), start, end in zip(paths, ends, ends[1:] + ends[:1]):
        depth = max_depth + max(0, math.ceil(math.log2(length / _DEPTH_UNIT)))
        total += _walk_edge(q, piece, depth, start, end, stats)
    return total


def _count(q: Quasipolynomial, contour: Rect | Disk, max_depth: int) -> ContourCount:
    """The certified count of contour, with the diagnostics of its walk."""
    stats = _WalkStats()
    count = _winding_to_count(_walk_contour(q, contour, max_depth, stats))
    return ContourCount(count, contour, stats.segments, stats.min_mag)


def count_zeros_rect(
    q: Quasipolynomial, rect: Rect, max_depth: int = DEFAULT_MAX_DEPTH
) -> ContourCount:
    """Number of zeros of f inside rect, certified by the argument principle.

    The boundary is walked counterclockwise; each edge is bisected until
    the phase change along every piece is certified (see _walk_edge).
    Raises BoundaryZeroError when |f| (relative to its dominant term) drops
    below 1e-12 on the contour (perturb the rectangle and retry),
    DepthExceededError when bisection depth runs out away from a vanishing
    |f|, and WindingError if the accumulated phase fails the integer
    consistency check.
    """
    return _count(q, rect, max_depth)


def count_zeros_disk(
    q: Quasipolynomial,
    center: complex,
    radius: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ContourCount:
    """Number of zeros of f inside the disk |lambda - center| <= radius."""
    return _count(q, Disk(complex(center), float(radius)), max_depth)


def _nearest_gaps(zeros: list[complex]) -> list[float]:
    """The distance from each of zeros, sorted by Im, to the nearest other."""
    gaps = []
    for i, z in enumerate(zeros):
        best = math.inf
        for others in (range(i + 1, len(zeros)), range(i - 1, -1, -1)):
            for j in others:
                if abs(zeros[j].imag - z.imag) >= best:
                    break
                best = min(best, abs(zeros[j] - z))
        gaps.append(best)
    return gaps


def isolate_zeros(
    q: Quasipolynomial,
    rect: Rect,
    eps: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Rect]:
    """Disjoint boxes of diameter <= eps inside rect, each holding exactly
    one zero, one box per zero of rect, sorted by the Im and then the Re of
    their centres.

    rect is counted first (count_zeros_rect).  The Lambert-W seeds, each
    with a Rouche disk D(z, r) proven to hold exactly one zero, must match
    that count (seeds._proven_zeros, CertificationError otherwise).  The box
    of z is the square of half-side s around it, clipped to rect, with
    s <= eps/(2*sqrt(2)) and sqrt(2)*s below half the distance to the
    nearest other zero, both less a pad for the rounding of its sides.  s is
    halved until a second Rouche test proves D(z, sqrt(2)*s), which holds
    the square; the square holds D(z, r), so it holds exactly that zero, and
    the second disks of two zeros cannot meet.
    """
    _check_positive(eps=eps)
    count = count_zeros_rect(q, rect, max_depth).count

    def where(z: complex, r: float) -> bool | None:
        if rect.contains(z, pad=-r):
            return True
        return None if rect.contains(z, pad=r) else False

    bounds = (rect.re_lo, rect.re_hi, rect.im_lo, rect.im_hi)
    disks = _proven_zeros(q, bounds, where, count, f"rectangle {rect!r}")
    boxes = []
    for (z, r), gap in zip(disks, _nearest_gaps([z for z, _ in disks])):
        pad = _ULPS * (abs(z) + eps)
        s = min(eps, gap) / (2.0 * math.sqrt(2.0)) * (1.0 - _ULPS) - pad
        while _rouche(q, z, math.sqrt(2.0) * (s + pad)) is None and s > r + pad:
            s *= 0.5
        if s <= r + pad:
            raise CertificationError(
                f"no Rouche disk proves a box of diameter <= {eps!r} around {z!r}"
            )
        boxes.append(Rect(
            max(rect.re_lo, z.real - s), min(rect.re_hi, z.real + s),
            max(rect.im_lo, z.imag - s), min(rect.im_hi, z.imag + s),
        ))
    boxes.sort(key=lambda b: (b.center.imag, b.center.real))
    return boxes
