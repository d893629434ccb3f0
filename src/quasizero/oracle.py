"""Certified zero counting via the argument principle.

f is entire, so the number of zeros inside a closed contour equals the total
change of arg(f) around it divided by 2*pi.  One edge walker takes every
contour edge as one piece and bisects it until each piece carries a proof of
its phase change, checked on the disk D(m, l) around the piece's parametric
midpoint m with l its half arc length, which holds the piece (Ying & Katz,
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

The walker returns its samples, not only their phase steps, so quadtree
isolation never walks a line twice.  Every box keeps its four walked edges.
Splitting it cuts each edge at its cut point (only the piece holding the
cut point is walked again, in two halves) and walks the two cross lines
once; each half of a cross line serves both children beside it, one in each
direction, and a child's count is the sum of the steps along its four edges.

A box that counts 1 but is wider than eps is not split first.  The first
moment (1/2 pi i) * contour integral of lambda f'/f over it is its zero
(Delves & Lyness 1967; Kravanja & Van Barel, LNM 1727), and the samples its
edges already hold give that integral with no new evaluation.  When the sum
over every sample and the sum over every other sample agree within eps/2,
one square of diameter <= eps around the moment is walked; if it counts 1,
it is the box returned.  Any other outcome falls back to the split.

This counter is the independent certificate for the refinement pipeline: it
never looks inside the refiners, only at values of f along curves.
"""

from __future__ import annotations

import bisect
import cmath
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Quasipolynomial, _dominant
from .errors import (
    BoundaryZeroError,
    DepthExceededError,
    InvalidQueryError,
    QuasizeroError,
    WindingError,
    _check_positive,
)

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

#: isolate_zeros gives up on a box that still holds several zeros after this
#: many levels of splits
MAX_SUBDIVISIONS = 64

#: deterministic relative offsets tried for interior split lines when a zero
#: lands on one (first entry is the unjittered split)
_SPLIT_JITTER = ((0.0, 0.0), (1e-4, 1e-4), (-2e-4, 1.5e-4), (2.5e-4, -2e-4))

#: half-side, relative to eps, of the square that finishes an isolation box
#: holding one zero; just under 1/(2*sqrt(2)), so that rounding the square's
#: sides does not take its diameter past eps except far from the origin
_CENTROID_HALF_SIDE = 0.3535

#: relative slack of the certificates' log-domain comparisons, scaled by the
#: magnitude of the terms compared: about 4,500 ulps, far above the rounding
#: of |m|, ell and the k-fold logarithms for k <= 200 and |lambda| <= 1e7
_CERT_MARGIN = 2.0**-40

#: 16 ulps: the padding of a piece's half-length for the rounding of its
#: points, and the unit of the rounding bound on a computed relative |f|
_ULPS = 2.0**-48

_log = logging.getLogger(__name__)


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

    def split_at(self, cx: float, cy: float) -> tuple["Rect", "Rect", "Rect", "Rect"]:
        """Four sub-rectangles sharing the interior point (cx, cy)."""
        if not (self.re_lo < cx < self.re_hi and self.im_lo < cy < self.im_hi):
            raise InvalidQueryError("split point must be interior")
        return (
            Rect(self.re_lo, cx, self.im_lo, cy),
            Rect(cx, self.re_hi, self.im_lo, cy),
            Rect(self.re_lo, cx, cy, self.im_hi),
            Rect(cx, self.re_hi, cy, self.im_hi),
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


class _Edge:
    """A walked contour edge: its samples (points and (phase, relmag) values)
    in walking order, and the phase change along each piece between
    neighbouring samples.

    unresolved is set on the partial edge of a walk that stopped at the depth
    limit; that edge holds every sample the walk evaluated, and no steps.
    """

    __slots__ = ("pts", "vals", "steps", "unresolved")

    def __init__(
        self,
        pts: list[complex],
        vals: list[tuple[float, float]],
        steps: list[float],
        unresolved: _Unresolved | None = None,
    ) -> None:
        self.pts = pts
        self.vals = vals
        self.steps = steps
        self.unresolved = unresolved

    def reversed(self) -> _Edge:
        return _Edge(
            self.pts[::-1], self.vals[::-1], [-d for d in reversed(self.steps)],
            self.unresolved,
        )

    def head(self, j: int) -> _Edge:
        """Samples 0..j."""
        return _Edge(self.pts[: j + 1], self.vals[: j + 1], self.steps[:j])

    def tail(self, j: int) -> _Edge:
        """Samples j..end."""
        return _Edge(self.pts[j:], self.vals[j:], self.steps[j:])

    def join(self, other: _Edge) -> _Edge:
        """This edge followed by other, which starts where this one ends."""
        return _Edge(
            self.pts + other.pts[1:], self.vals + other.vals[1:],
            self.steps + other.steps, self.unresolved or other.unresolved,
        )


class _Unresolved(Exception):
    """A contour piece that neither certificate accepts after the depth limit.

    point is the midpoint of the piece, and partial the walk's edge up to
    here, with every sample it evaluated.
    """

    def __init__(
        self, point: complex, pts: list[complex], vals: list[tuple[float, float]]
    ) -> None:
        super().__init__(point)
        self.point = point
        self.partial = _Edge(pts, vals, [], self)

    def classify(self, min_mag: float, min_point: complex) -> QuasizeroError:
        """The error to raise, given the smallest relative |f| on the contour."""
        if min_mag < BOUNDARY_REL_TOL:
            return BoundaryZeroError(
                "phase unresolved near a vanishing |f| on the contour "
                f"(relative |f| = {min_mag:.3e} at {min_point!r})",
                point=min_point,
                magnitude=min_mag,
            )
        return DepthExceededError(
            "contour piece not certified after exhausting bisection depth "
            f"near {self.point!r}"
        )


def _walk_edge(
    q: Quasipolynomial,
    point_of: Callable[[float], complex],
    length: float,
    start: tuple[complex, tuple[float, float]],
    end: tuple[complex, tuple[float, float]],
    max_depth: int,
    stats: _WalkStats,
) -> _Edge:
    """Walk point_of([0, 1]) from start to end, each a (point, value) pair.

    Each piece, from the whole edge down, is checked on the disk D(m, ell)
    around its parametric midpoint m, with ell its half arc length (padded
    for rounding), which holds the piece.  _dominance_step accepts it with
    no evaluation; otherwise f(m) is evaluated, and _derivative_certified
    accepts it with m kept as a sample between two principal steps.  A
    piece neither accepts is bisected at m, at most max_depth +
    ceil(log2(length / _DEPTH_UNIT)) times along any path, so the finest
    piece is _DEPTH_UNIT * 2**-max_depth long.  Raises _Unresolved, with the
    samples evaluated so far as its partial edge, when a piece at that depth
    is still rejected.
    """
    depth = max_depth + max(0, math.ceil(math.log2(length / _DEPTH_UNIT)))
    p0, f0 = start
    t0 = 0.0
    pts, vals, steps = [p0], [f0], []
    # the right ends of the pieces still to walk, the next one last:
    # (parameter, point, value, depth left)
    pending = [(1.0, end[0], end[1], depth)]
    while pending:
        t1, p1, f1, depth = pending[-1]
        tm = 0.5 * (t0 + t1)
        m = point_of(tm)
        ell = 0.5 * length * (t1 - t0) + _ULPS * (abs(m) + length)
        d = _dominance_step(q, p0, f0, p1, f1, m, ell)
        if d is None:
            fm = _eval_point(q, m, stats)
            if _derivative_certified(q, m, fm, ell):
                pts.append(m)
                vals.append(fm)
                steps.append(math.remainder(fm[0] - f0[0], math.tau))
                d = math.remainder(f1[0] - fm[0], math.tau)
            elif depth > 0:
                pending[-1] = (t1, p1, f1, depth - 1)
                pending.append((tm, m, fm, depth - 1))
                continue
            else:
                raise _Unresolved(
                    m,
                    pts + [m] + [e[1] for e in reversed(pending)],
                    vals + [fm] + [e[2] for e in reversed(pending)],
                )
        pending.pop()
        pts.append(p1)
        vals.append(f1)
        steps.append(d)
        t0, p0, f0 = t1, p1, f1
    stats.segments += len(steps)
    return _Edge(pts, vals, steps)


def _segment(p0: complex, p1: complex) -> Callable[[float], complex]:
    """The point p0 + t*(p1 - p0)."""
    d = p1 - p0
    return lambda t: p0 + t * d


def _phase_sum(edges: Iterable[_Edge]) -> float:
    return sum(sum(e.steps) for e in edges)


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
) -> list[_Edge]:
    """The four edges of contour, walked counterclockwise: a rect's sides from
    its bottom-left corner (bottom, right, top, left), or a disk's quarter
    arcs from angle 0.

    An edge whose length / _DEPTH_UNIT overflows, so that its bisection
    depth has no bound, is an InvalidQueryError.  f is evaluated at the four
    ends first, then each edge is walked (_walk_edge); a piece left
    unresolved raises its error, classified by the smallest relative |f|
    seen so far (_Unresolved.classify).
    """
    if max_depth < MIN_MAX_DEPTH:
        raise InvalidQueryError(f"max_depth must be >= {MIN_MAX_DEPTH}, got {max_depth}")
    if isinstance(contour, Rect):
        starts = list(contour.corners())
        paths = [
            (_segment(p0, p1), abs(p1 - p0)) for p0, p1 in zip(starts, starts[1:] + starts[:1])
        ]
    else:
        center, radius = contour.center, contour.radius
        anchors = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.tau]

        def point_of(t: float) -> complex:
            return center + radius * cmath.exp(1j * t)

        def arc(t_lo: float, t_hi: float) -> Callable[[float], complex]:
            return lambda t: point_of(t_lo + t * (t_hi - t_lo))

        starts = [point_of(t) for t in anchors[:4]]
        paths = [(arc(lo, hi), 0.5 * math.pi * radius) for lo, hi in zip(anchors, anchors[1:])]
    for _, length in paths:
        if not math.isfinite(length / _DEPTH_UNIT):
            raise InvalidQueryError(f"contour edge of length {length!r} is too long to walk")
    ends = [(p, _eval_point(q, p, stats)) for p in starts]
    edges = []
    for (path, length), start, end in zip(paths, ends, ends[1:] + ends[:1]):
        try:
            edges.append(_walk_edge(q, path, length, start, end, max_depth, stats))
        except _Unresolved as err:
            raise err.classify(stats.min_mag, stats.min_mag_point) from None
    return edges


def _count(q: Quasipolynomial, contour: Rect | Disk, max_depth: int) -> ContourCount:
    """The certified count of contour, with the diagnostics of its walk."""
    stats = _WalkStats()
    count = _winding_to_count(_phase_sum(_walk_contour(q, contour, max_depth, stats)))
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


def _split(
    q: Quasipolynomial,
    box: Rect,
    edges: list[_Edge],
    cx: float,
    cy: float,
    max_depth: int,
    stats: _WalkStats,
) -> list[tuple[Rect, int, list[_Edge]]]:
    """The children of box split at (cx, cy), with their counts and edges.

    edges are the walked edges of box, counterclockwise from its bottom-left
    corner; each child's edges come back in the same order, and the children
    in the order of Rect.split_at.  f is evaluated at the centre and at the
    four cut points; of the parent's edges only the piece holding a cut point
    is walked again, in two halves.  The four half cross lines are walked
    once each and shared by the two children beside them.  A piece still
    rejected at the depth limit fails the first child whose contour holds
    it, as BoundaryZeroError when the smallest relative |f| over that
    child's whole contour is below BOUNDARY_REL_TOL and as
    DepthExceededError otherwise.
    """
    rects = box.split_at(cx, cy)

    def walk(
        start: tuple[complex, tuple[float, float]],
        end: tuple[complex, tuple[float, float]],
    ) -> _Edge:
        a, b = start[0], end[0]
        try:
            return _walk_edge(q, _segment(a, b), abs(b - a), start, end, max_depth, stats)
        except _Unresolved as err:
            return err.partial

    def cut(edge: _Edge, m: complex) -> tuple[_Edge, _Edge, tuple[complex, tuple[float, float]]]:
        """edge split at the point m on it, and the sample at m."""
        along = (lambda p: p.real) if edge.pts[0].imag == m.imag else (lambda p: p.imag)
        sign = 1.0 if along(edge.pts[-1]) > along(edge.pts[0]) else -1.0
        j = bisect.bisect_right(edge.pts, sign * along(m), key=lambda p: sign * along(p)) - 1
        if edge.pts[j] == m:
            return edge.head(j), edge.tail(j), (m, edge.vals[j])
        sample = (m, _eval_point(q, m, stats))
        before = walk((edge.pts[j], edge.vals[j]), sample)
        after = walk(sample, (edge.pts[j + 1], edge.vals[j + 1]))
        return edge.head(j).join(before), after.join(edge.tail(j + 1)), sample

    bottom, right, top, left = edges
    c = complex(cx, cy)
    centre = (c, _eval_point(q, c, stats))
    b0, b1, mb = cut(bottom, complex(cx, box.im_lo))
    r0, r1, mr = cut(right, complex(box.re_hi, cy))
    t0, t1, mt = cut(top, complex(cx, box.im_hi))
    l0, l1, ml = cut(left, complex(box.re_lo, cy))
    down, east, up, west = walk(mb, centre), walk(centre, mr), walk(centre, mt), walk(ml, centre)
    sides = (
        [b0, down, west.reversed(), l1],
        [b1, r0, east.reversed(), down.reversed()],
        [west, up, t1, l0],
        [east, r1, t0, up.reversed()],
    )
    for child in sides:
        failed = next((e.unresolved for e in child if e.unresolved), None)
        if failed is not None:
            mag, point = min(
                ((v[1], p) for e in child for p, v in zip(e.pts, e.vals)),
                key=lambda mp: mp[0],
            )
            raise failed.classify(mag, point)
    return [
        (rect, _winding_to_count(_phase_sum(child)), child)
        for rect, child in zip(rects, sides)
    ]


def _centroids(q: Quasipolynomial, box: Rect, edges: list[_Edge]) -> tuple[complex, complex]:
    """The first moment (1/2 pi i) * contour integral of lambda f'/f over the
    walked edges of box, over every sample and over every other sample.

    Each sum is sum(mid(lambda_i, lambda_j) * (log f_j - log f_i)) over
    neighbouring samples, with ln|f| = ln relmag + ln max(|e^lambda|,
    |a lambda^k|) and the phase unwrapped by the walked steps, so it takes no
    evaluation.  When box holds exactly one zero the moment is that zero
    (Delves & Lyness, Math. Comp. 21, 1967); the two sums differ by about the
    error of the coarser one.
    """
    c = box.center
    pts = [edges[0].pts[0]] + [p for e in edges for p in e.pts[1:]]
    relmags = [edges[0].vals[0][1]] + [v[1] for e in edges for v in e.vals[1:]]
    steps = [d for e in edges for d in e.steps]
    # ln|a lambda^k|, and ln|f| = ln relmag + the larger of it and Re lambda;
    # at lambda = 0, f = 1 with relmag 1
    alg = [q.log_abs_a + q.k * math.log(abs(p)) if p else -math.inf for p in pts]
    logs = [math.log(m) + (p.real if p.real > a else a) for p, m, a in zip(pts, relmags, alg)]
    dlog = [complex(l1 - l0, d) for l0, l1, d in zip(logs, logs[1:], steps)]
    fine = sum((0.5 * (p0 + p1) - c) * d for p0, p1, d in zip(pts, pts[1:], dlog))
    coarse = sum(
        (0.5 * (p0 + p1) - c) * (d0 + d1)
        for p0, p1, d0, d1 in zip(pts[::2], pts[2::2], dlog[::2], dlog[1::2])
    )
    if len(dlog) % 2:
        coarse += (0.5 * (pts[-2] + pts[-1]) - c) * dlog[-1]
    return c + fine / (2j * math.pi), c + coarse / (2j * math.pi)


def _gate(box: Rect, z: complex, other: complex, eps: float) -> bool:
    """Whether the moment z lies strictly inside box and within eps/2 of the
    estimate other."""
    return (
        box.re_lo < z.real < box.re_hi
        and box.im_lo < z.imag < box.im_hi
        and abs(z - other) < 0.5 * eps
    )


def _centroid_box(
    q: Quasipolynomial,
    box: Rect,
    edges: list[_Edge],
    eps: float,
    max_depth: int,
) -> Rect | None:
    """A box of diameter <= eps inside box, holding its one zero, or None.

    box counts 1 on its walked edges.  The square of half-side
    _CENTROID_HALF_SIDE * eps around their first moment (_centroids),
    clipped to box, is walked only when the moment passes _gate; it is
    returned when it counts exactly 1.  It lies in box, so it holds box's
    zero and the rest of box holds none.  Every miss is logged at DEBUG.
    """
    z, other = _centroids(q, box, edges)
    if not _gate(box, z, other, eps):
        _log.debug("centroid box in %r missed: gate (moment %r, coarse %r)", box, z, other)
        return None
    h = _CENTROID_HALF_SIDE * eps
    re_lo, re_hi = max(box.re_lo, z.real - h), min(box.re_hi, z.real + h)
    im_lo, im_hi = max(box.im_lo, z.imag - h), min(box.im_hi, z.imag + h)
    if not (re_lo < re_hi and im_lo < im_hi) or math.hypot(re_hi - re_lo, im_hi - im_lo) > eps:
        _log.debug("centroid box in %r missed: degenerate at %r", box, z)
        return None
    small = Rect(re_lo, re_hi, im_lo, im_hi)
    try:
        count = count_zeros_rect(q, small, max_depth).count
    except (BoundaryZeroError, DepthExceededError, WindingError) as err:
        _log.debug("centroid box %r in %r missed: %s", small, box, type(err).__name__)
        return None
    if count != 1:
        _log.debug("centroid box %r in %r missed: count %d", small, box, count)
        return None
    return small


def isolate_zeros(
    q: Quasipolynomial,
    rect: Rect,
    eps: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Rect]:
    """Quadtree isolation: disjoint boxes of diameter <= eps, one zero each.

    Boxes counting 0 are dropped; boxes counting 1 with diameter <= eps are
    returned.  A box counting 1 that is wider is first tried in one step
    (see _centroid_box): a square of diameter <= eps inside it, around the
    first moment of its walked edges, is returned when it counts 1.
    Everything else is split into four children.  Every box keeps its walked
    edges, so a split samples only its cross lines and the pieces cut by them
    (see _split).  When a zero lands on an interior split line
    (BoundaryZeroError or DepthExceededError from a child), the split point
    is retried at a fixed sequence of relative jitters before the error is
    allowed to escape.  A box that still holds several zeros after
    MAX_SUBDIVISIONS levels raises DepthExceededError.  The union of
    returned boxes accounts for every zero of the root rectangle.
    """
    _check_positive(eps=eps)
    stats = _WalkStats()
    root_edges = _walk_contour(q, rect, max_depth, stats)
    out: list[Rect] = []
    stack: list[tuple[Rect, int, int, list[_Edge]]] = [
        (rect, _winding_to_count(_phase_sum(root_edges)), 0, root_edges)
    ]
    while stack:
        box, count, level, edges = stack.pop()
        if count == 0:
            continue
        if count == 1:
            found = (
                box if box.diameter <= eps
                else _centroid_box(q, box, edges, eps, max_depth)
            )
            if found is not None:
                out.append(found)
                continue
        if level >= MAX_SUBDIVISIONS:
            raise DepthExceededError(
                f"{count} zero(s) not separated after {MAX_SUBDIVISIONS} subdivisions "
                f"around {box.center!r}"
            )
        # A zero on a split line usually surfaces as DepthExceededError (the
        # 1e-12 boundary classification needs a sample almost exactly on the
        # zero), so both failures trigger the jitter retry.
        last_err: QuasizeroError | None = None
        for dx, dy in _SPLIT_JITTER:
            cx = box.center.real + dx * box.width
            cy = box.center.imag + dy * box.height
            try:
                children = _split(q, box, edges, cx, cy, max_depth, stats)
            except (BoundaryZeroError, DepthExceededError) as err:
                _log.debug(
                    "split of %r at jitter (%g, %g) failed with %s",
                    box, dx, dy, type(err).__name__,
                )
                last_err = err
                continue
            break
        else:
            assert last_err is not None
            raise last_err
        counts = [child_count for _, child_count, _ in children]
        if sum(counts) != count:
            raise WindingError(
                f"child counts {counts} do not add up to parent count {count}"
            )
        for child, child_count, child_edges in children:
            stack.append((child, child_count, level + 1, child_edges))
    out.sort(key=lambda b: (b.center.imag, b.center.real))
    return out
