"""Certified zero counting via the argument principle.

f is entire, so the number of zeros inside a closed contour equals the total
change of arg(f) around it divided by 2*pi.  One edge walker samples f along
every contour edge and bisects each piece until the phase change between
neighbouring samples is below pi/2; the accumulated change is then
guaranteed to be the true winding provided f never vanishes on the contour
itself.  The phase is computed by factoring out whichever term of f
dominates, so contours far out in the plane are handled without overflow.

The walker returns its samples, not only their phase steps, so quadtree
isolation never walks a line twice.  Every box keeps its four walked edges.
Splitting it cuts each edge at its cut point (only the piece holding the
cut point is bisected again) and walks the two cross lines once; each half
of a cross line serves both children beside it, one in each direction, and
a child's count is the sum of the steps along its four edges.

This counter is the independent certificate for the refinement pipeline: it
never looks inside the refiners, only at values of f along curves.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import Quasipolynomial
from .errors import (
    BoundaryZeroError,
    DepthExceededError,
    InvalidQueryError,
    QuasizeroError,
    WindingError,
)

#: adjacent boundary samples must differ in phase by less than this
PHASE_STEP_LIMIT = math.pi / 2

#: contours are pre-sampled at least this densely (in arc length) before the
#: adaptive test runs; the phase rate of f away from its zeros is of order
#: max(1, k/|lambda|), so quarter-unit pieces keep the true per-piece change
#: under pi/2 and the wrapped-step test honest (a coarser start can alias a
#: whole turn into an apparently small step)
INITIAL_PIECE_LENGTH = 0.25

#: a contour sample with |f| below this, relative to the dominant term of f,
#: is treated as "zero on the boundary"
BOUNDARY_REL_TOL = 1e-12

#: the accumulated phase divided by 2*pi must be this close to an integer
WINDING_INT_TOL = 1e-6

#: default and minimum adaptive bisection depth per contour piece
DEFAULT_MAX_DEPTH = 24
MIN_MAX_DEPTH = 8

#: deterministic relative offsets tried for interior split lines when a zero
#: lands on one (first entry is the unjittered split)
_SPLIT_JITTER = ((0.0, 0.0), (1e-4, 1e-4), (-2e-4, 1.5e-4), (2.5e-4, -2e-4))


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
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidQueryError(f"radius must be finite and > 0, got {self.radius!r}")
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
    __slots__ = ("segments", "min_mag", "min_mag_point", "evals")

    def __init__(self) -> None:
        self.segments = 0
        self.min_mag = math.inf
        self.min_mag_point = 0j
        self.evals = 0


def _phase_and_relmag(q: Quasipolynomial, lam: complex) -> tuple[float, float]:
    """(arg f(lambda) wrapped to [-pi, pi], |f| / dominant-term magnitude).

    Writes f = exp(dom) * (1 + exp(sub - dom)) with dom, sub the complex logs
    of the two terms ordered by real part, so both factors are representable
    on any contour.
    """
    if lam == 0:
        return 0.0, 1.0  # f(0) = 1
    t_exp = lam
    t_alg = q.log_a + q.k * cmath.log(lam)
    if t_exp.real >= t_alg.real:
        dom, sub = t_exp, t_alg
    else:
        dom, sub = t_alg, t_exp
    remainder = 1.0 + cmath.exp(sub - dom)
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
    stats.evals += 1
    if mag < stats.min_mag:
        stats.min_mag = mag
        stats.min_mag_point = lam
    return ph, mag


def _accepted_step(f0: tuple[float, float], f1: tuple[float, float]) -> float | None:
    """Phase change over a contour piece with end values f0, f1, or None when
    the piece must be bisected.

    This is the one acceptance rule for every piece of every contour.
    """
    d = math.remainder(f1[0] - f0[0], math.tau)
    return d if abs(d) < PHASE_STEP_LIMIT else None


class _Edge:
    """A walked contour edge: its samples (points and (phase, relmag) values)
    in walking order, and the wrapped phase step between each neighbouring
    pair.

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
    """A contour piece still rejected after max_depth bisections.

    point is the midpoint of the piece, step its wrapped phase step, and
    partial the walk's edge up to here, with every sample it evaluated.
    """

    def __init__(
        self,
        point: complex,
        step: float,
        pts: list[complex],
        vals: list[tuple[float, float]],
    ) -> None:
        super().__init__(point, step)
        self.point = point
        self.step = step
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
            f"phase step {abs(self.step):.3f} >= pi/2 after exhausting bisection depth "
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

    The edge is pre-split into equal pieces no longer than
    INITIAL_PIECE_LENGTH, and each piece is bisected until _accepted_step
    accepts it, at most max_depth times.  Raises _Unresolved, with the
    samples evaluated so far as its partial edge, when a piece is still
    rejected at that depth.
    """
    n = max(1, math.ceil(length / INITIAL_PIECE_LENGTH))
    knots, knot_vals = [start[0]], [start[1]]
    for i in range(1, n):
        p = point_of(i / n)
        knots.append(p)
        knot_vals.append(_eval_point(q, p, stats))
    knots.append(end[0])
    knot_vals.append(end[1])
    steps: list[float] = []
    # the samples are the knots themselves until a piece needs bisection
    pts: list[complex] | None = None
    vals: list[tuple[float, float]] = []
    for i in range(n):
        f0, f1 = knot_vals[i], knot_vals[i + 1]
        d = _accepted_step(f0, f1)
        if d is not None:
            steps.append(d)
            if pts is not None:
                pts.append(knots[i + 1])
                vals.append(f1)
            continue
        if pts is None:
            pts, vals = knots[: i + 1], knot_vals[: i + 1]
        # bisect the piece; pending holds the right ends of its parts still
        # to walk, the next one last: (parameter, point, value, depth left)
        t0 = i / n
        pending = [((i + 1) / n, knots[i + 1], f1, max_depth)]
        while pending:
            t1, p1, f1, depth = pending[-1]
            d = _accepted_step(f0, f1)
            if d is not None:
                pending.pop()
                pts.append(p1)
                vals.append(f1)
                steps.append(d)
                t0, f0 = t1, f1
            elif depth > 0:
                tm = 0.5 * (t0 + t1)
                pm = point_of(tm)
                pending[-1] = (t1, p1, f1, depth - 1)
                pending.append((tm, pm, _eval_point(q, pm, stats), depth - 1))
            else:
                raise _Unresolved(
                    point_of(0.5 * (t0 + t1)),
                    math.remainder(f1[0] - f0[0], math.tau),
                    pts + [e[1] for e in reversed(pending)] + knots[i + 2 :],
                    vals + [e[2] for e in reversed(pending)] + knot_vals[i + 2 :],
                )
    stats.segments += len(steps)
    if pts is None:
        return _Edge(knots, knot_vals, steps)
    return _Edge(pts, vals, steps)


def _segment(p0: complex, p1: complex) -> Callable[[float], complex]:
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


def _walk_rect(
    q: Quasipolynomial, rect: Rect, max_depth: int, stats: _WalkStats
) -> Iterator[_Edge]:
    """The four edges of rect, walked one at a time counterclockwise from its
    bottom-left corner (bottom, right, top, left)."""
    ends = [(c, _eval_point(q, c, stats)) for c in rect.corners()]
    for (p0, f0), (p1, f1) in zip(ends, ends[1:] + ends[:1]):
        try:
            yield _walk_edge(
                q, _segment(p0, p1), abs(p1 - p0), (p0, f0), (p1, f1), max_depth, stats
            )
        except _Unresolved as err:
            raise err.classify(stats.min_mag, stats.min_mag_point) from None


def count_zeros_rect(
    q: Quasipolynomial, rect: Rect, max_depth: int = DEFAULT_MAX_DEPTH
) -> ContourCount:
    """Number of zeros of f inside rect, certified by the argument principle.

    The boundary is walked counterclockwise; each edge is bisected until
    adjacent phase samples differ by less than pi/2.  Raises BoundaryZeroError
    when |f| (relative to its dominant term) drops below 1e-12 on the contour
    (perturb the rectangle and retry), DepthExceededError when bisection depth
    runs out away from a vanishing |f|, and WindingError if the accumulated
    phase fails the integer consistency check.
    """
    if max_depth < MIN_MAX_DEPTH:
        raise InvalidQueryError(f"max_depth must be >= {MIN_MAX_DEPTH}, got {max_depth}")
    stats = _WalkStats()
    count = _winding_to_count(_phase_sum(_walk_rect(q, rect, max_depth, stats)))
    return ContourCount(count, rect, stats.segments, stats.min_mag)


def count_zeros_disk(
    q: Quasipolynomial,
    center: complex,
    radius: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ContourCount:
    """Number of zeros of f inside the disk |lambda - center| <= radius."""
    if max_depth < MIN_MAX_DEPTH:
        raise InvalidQueryError(f"max_depth must be >= {MIN_MAX_DEPTH}, got {max_depth}")
    disk = Disk(complex(center), float(radius))
    stats = _WalkStats()

    def point_of(t: float) -> complex:
        return disk.center + disk.radius * cmath.exp(1j * t)

    anchors = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.tau]
    ends = [(p, _eval_point(q, p, stats)) for p in map(point_of, anchors[:4])]
    ends.append(ends[0])
    quarter_arc = 0.5 * math.pi * disk.radius
    total = 0.0
    for i in range(4):
        t_lo, t_hi = anchors[i], anchors[i + 1]

        def arc_point(t: float, t_lo: float = t_lo, t_hi: float = t_hi) -> complex:
            return point_of(t_lo + t * (t_hi - t_lo))

        try:
            arc = _walk_edge(q, arc_point, quarter_arc, ends[i], ends[i + 1], max_depth, stats)
        except _Unresolved as err:
            raise err.classify(stats.min_mag, stats.min_mag_point) from None
        total += sum(arc.steps)
    count = _winding_to_count(total)
    return ContourCount(count, disk, stats.segments, stats.min_mag)


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


def isolate_zeros(
    q: Quasipolynomial,
    rect: Rect,
    eps: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_subdivisions: int = 64,
) -> list[Rect]:
    """Quadtree isolation: disjoint boxes of diameter <= eps, one zero each.

    Boxes counting 0 are dropped; boxes counting 1 with diameter <= eps are
    returned; everything else is split into four children.  Every box keeps
    its walked edges, so a split samples only its cross lines and the pieces
    cut by them (see _split).  When a zero lands on an interior split line
    (BoundaryZeroError or DepthExceededError from a child), the split point
    is retried at a fixed sequence of relative jitters before the error is
    allowed to escape.  The union of returned boxes accounts for every zero
    of the root rectangle.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise InvalidQueryError(f"eps must be finite and > 0, got {eps!r}")
    if max_depth < MIN_MAX_DEPTH:
        raise InvalidQueryError(f"max_depth must be >= {MIN_MAX_DEPTH}, got {max_depth}")
    stats = _WalkStats()
    root_edges = list(_walk_rect(q, rect, max_depth, stats))
    out: list[Rect] = []
    stack: list[tuple[Rect, int, int, list[_Edge]]] = [
        (rect, _winding_to_count(_phase_sum(root_edges)), 0, root_edges)
    ]
    while stack:
        box, count, level, edges = stack.pop()
        if count == 0:
            continue
        if count == 1 and box.diameter <= eps:
            out.append(box)
            continue
        if level >= max_subdivisions:
            raise DepthExceededError(
                f"{count} zero(s) not separated after {max_subdivisions} subdivisions "
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
