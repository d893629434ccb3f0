"""Argument-principle counting: contour walks, error taxonomy, isolation."""

from __future__ import annotations

import cmath
import logging
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quasizero.oracle as oracle
from quasizero import (
    BoundaryZeroError,
    DepthExceededError,
    Disk,
    InvalidQueryError,
    Quasipolynomial,
    Rect,
    count_zeros_disk,
    count_zeros_rect,
    isolate_zeros,
    newton_refine,
    small_zeros,
)
from conftest import lambert_w_zeros

Q11 = Quasipolynomial(1, 1)

#: the boxes of the quadtree alone, without the centroid step, on the
#: isolation inputs of TestIsolateZeros and on two rects with long cross lines
QUADTREE_BOXES = [
    (
        Q11, Rect(-2, 2, -2, 2), 1e-3,
        [(-0.56758466796875, -0.5670962890625, -8.837890625e-05, 0.0004)],
    ),
    (Q11, Rect(50, 54, 0, 4), 0.5, []),
    (
        Q11, Rect(0, 4, 8, 30), 0.05,
        [
            (2.3984375, 2.40625, 10.75, 10.79296875),
            (2.8515625, 2.859375, 17.109375, 17.15234375),
            (3.15625, 3.1640625, 23.42578125, 23.46875),
            (3.3984375, 3.40625, 29.69921875, 29.7421875),
        ],
    ),
    (
        Q11, Rect(0, 4, 8, 30), 0.1,
        [
            (2.390625, 2.40625, 10.75, 10.8359375),
            (2.84375, 2.859375, 17.109375, 17.1953125),
            (3.15625, 3.171875, 23.3828125, 23.46875),
            (3.390625, 3.40625, 29.65625, 29.7421875),
        ],
    ),
    (
        Quasipolynomial(2, 1.5 - 0.5j), Rect(-5, 9, -40.1, 40.3), 0.5,
        [
            (7.7421875, 7.796875, -37.901562500000004, -37.587500000000006),
            (7.359375, 7.4140625, -31.30625, -30.9921875),
            (6.921875, 6.9765625, -25.025, -24.7109375),
            (6.375, 6.4296875, -18.74375, -18.4296875),
            (5.609375, 5.6640625, -12.148437500000002, -11.834375000000001),
            (4.2421875, 4.296875, -5.239062500000001, -4.925000000000002),
            (-0.1875, -0.1328125, -0.8421875000000021, -0.5281250000000021),
            (-0.3515625, -0.296875, 0.41406249999999784, 0.7281249999999978),
            (4.0234375, 4.078125, 4.182812499999997, 4.4968749999999975),
            (5.5, 5.5546875, 11.092187499999996, 11.406249999999996),
            (6.3203125, 6.375, 17.687499999999996, 18.0015625),
            (6.8671875, 6.921875, 23.968749999999993, 24.28281249999999),
            (7.3046875, 7.359375, 30.5640625, 30.878124999999997),
            (7.6875, 7.7421875, 36.8453125, 37.159375),
        ],
    ),
    (
        Q11, Rect(-9, 9, -9, 9), 0.5,
        [
            (1.4077687499999998, 1.6889625, -4.4991, -4.21779375),
            (-0.84211875, -0.5608125, -0.27950625, 0.0018000000000000002),
            (1.4077687499999998, 1.6889625, 4.21970625, 4.5009),
        ],
    ),
]


class TestRectCount:
    def test_single_zero_box(self):
        # Contains only the first upper-chain zero near 1.838 + 10.996i;
        # the neighbors are a full spacing (~2*pi) away.
        res = count_zeros_rect(Q11, Rect(0, 4, 8, 14))
        assert res.count == 1
        assert res.edge_segments >= 4
        assert res.min_boundary_mag > 0

    def test_left_tail_is_zero_free(self):
        res = count_zeros_rect(Q11, Rect(-20, -10, 0, 10))
        assert res.count == 0

    def test_far_field_is_zero_free(self):
        res = count_zeros_rect(Quasipolynomial(3, 3j), Rect(50, 60, -5, 5))
        assert res.count == 0

    def test_counts_add_under_bisection(self):
        # [0,4] x [8,26] holds the zeros near Im = 11.0, 17.3, 23.6; a split
        # at Im = 20 keeps the cut line away from all of them.
        whole = count_zeros_rect(Q11, Rect(0, 4, 8, 26))
        lower = count_zeros_rect(Q11, Rect(0, 4, 8, 20))
        upper = count_zeros_rect(Q11, Rect(0, 4, 20, 26))
        assert whole.count == 3
        assert lower.count + upper.count == whole.count

    def test_wide_quiet_segments_still_counted(self):
        # A 6-unit-wide rectangle whose corner-to-corner samples would alias
        # a full 2*pi phase turn if the walk sampled only the corners.
        res = count_zeros_rect(Q11, Rect(0, 4, 8, 14))
        assert res.count == 1
        tall = count_zeros_rect(Q11, Rect(-3, 5, 5, 30))
        assert tall.count == 4

    def test_boundary_zero_detected(self, omega):
        # Bottom edge passes exactly through the real zero: its midpoint,
        # the first point the walk evaluates on it, lands on the zero to
        # within a few ulps and the relative magnitude drops below 1e-12,
        # while no piece beside the zero is ever certified.
        rect = Rect(omega - 1, omega + 1, 0.0, 2.0)
        with pytest.raises(BoundaryZeroError) as exc:
            count_zeros_rect(Q11, rect, max_depth=10)
        assert exc.value.magnitude < 1e-12
        assert abs(exc.value.point - omega) < 1e-6

    def test_near_boundary_zero_exhausts_depth(self, omega):
        # An edge 1e-9 above the zero, with bisection points shifted so
        # none lands near the closest approach: the minimum sampled
        # magnitude stays around 1e-9 relative (above the boundary-zero
        # cutoff), but no piece beside the zero is certified until pieces
        # shrink to the 1e-9 scale, far beyond the depth budget.
        rect = Rect(omega - 1.1, omega + 0.9, 1e-9, 2.0)
        with pytest.raises(DepthExceededError):
            count_zeros_rect(Q11, rect, max_depth=10)

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            Rect(1, 0, 0, 1)
        with pytest.raises(InvalidQueryError):
            Rect(0, 1, 2, 2)
        with pytest.raises(InvalidQueryError):
            Rect(0, math.inf, 0, 1)
        with pytest.raises(InvalidQueryError):
            count_zeros_rect(Q11, Rect(0, 1, 0, 1), max_depth=7)


class TestDiskCount:
    def test_origin_disk_holds_one_zero(self):
        res = count_zeros_disk(Q11, 0, 2)
        assert res.count == 1
        assert isinstance(res.contour, Disk)

    def test_disk_around_first_chain_zero(self):
        res = count_zeros_disk(Q11, 1.83788 + 10.99557j, 1)
        assert res.count == 1

    def test_tiny_disk_around_regular_point(self):
        res = count_zeros_disk(Q11, 1 + 1j, 1e-3)
        assert res.count == 0

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            count_zeros_disk(Q11, 0, 0.0)
        with pytest.raises(InvalidQueryError):
            count_zeros_disk(Q11, 0, -1.0)
        with pytest.raises(InvalidQueryError):
            count_zeros_disk(Q11, complex(math.nan, 0), 1.0)
        with pytest.raises(InvalidQueryError):
            count_zeros_disk(Q11, 0, 1.0, max_depth=6)


class TestIsolateZeros:
    def test_single_box_around_real_zero(self, omega):
        boxes = isolate_zeros(Q11, Rect(-2, 2, -2, 2), eps=1e-3)
        assert len(boxes) == 1
        box = boxes[0]
        assert box.re_lo <= omega <= box.re_hi
        assert box.im_lo <= 0.0 <= box.im_hi
        assert math.hypot(box.re_hi - box.re_lo, box.im_hi - box.im_lo) <= 1e-3

    def test_far_field_rect_is_empty(self):
        assert isolate_zeros(Q11, Rect(50, 54, 0, 4), eps=0.5) == []

    def test_boxes_conserve_root_count(self):
        # Holds the four chain zeros near Im = 11.0, 17.3, 23.6, 29.9.
        root = Rect(0, 4, 8, 30)
        total = count_zeros_rect(Q11, root).count
        boxes = isolate_zeros(Q11, root, eps=0.05)
        assert total == 4
        assert len(boxes) == total
        # Each box isolates exactly one zero and they are pairwise disjoint.
        for box in boxes:
            assert count_zeros_rect(Q11, box).count == 1
        centers = [
            complex(0.5 * (b.re_lo + b.re_hi), 0.5 * (b.im_lo + b.im_hi))
            for b in boxes
        ]
        for i in range(len(centers)):
            for j_idx in range(i + 1, len(centers)):
                assert abs(centers[i] - centers[j_idx]) > 1.0
        # Newton from each center must land inside its own box.
        for box, center in zip(boxes, centers):
            z = newton_refine(Q11, center).refined
            assert box.re_lo <= z.real <= box.re_hi
            assert box.im_lo <= z.imag <= box.im_hi

    def test_output_is_sorted_by_position(self):
        boxes = isolate_zeros(Q11, Rect(0, 4, 8, 30), eps=0.1)
        keys = [
            (0.5 * (b.im_lo + b.im_hi), 0.5 * (b.re_lo + b.re_hi)) for b in boxes
        ]
        assert keys == sorted(keys)

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            isolate_zeros(Q11, Rect(0, 1, 0, 1), eps=0.0)
        with pytest.raises(InvalidQueryError):
            isolate_zeros(Q11, Rect(0, 1, 0, 1), eps=0.5, max_depth=5)


#: the longest edge whose bisection depth, ceil(log2(L / _DEPTH_UNIT)), is finite
LONGEST_EDGE = oracle._DEPTH_UNIT * sys.float_info.max


class TestOverlongEdges:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_zeros_rect(Q11, Rect(0, 1e308, 0, 1e308)),
            lambda: count_zeros_rect(Q11, Rect(-1e308, 1e308, 0, 1)),
            lambda: count_zeros_rect(Q11, Rect(0, math.nextafter(LONGEST_EDGE, math.inf), 0, 1)),
            lambda: count_zeros_disk(Q11, 0, 1e308),
            lambda: isolate_zeros(Q11, Rect(-1e308, 1e308, -1, 1), eps=1.0),
            lambda: small_zeros(Q11, 1e308),
        ],
        ids=["square", "wide", "just-too-long", "disk", "isolate", "small-zeros"],
    )
    def test_an_edge_without_a_finite_depth_is_an_invalid_query(self, call):
        with pytest.raises(InvalidQueryError, match="too long to walk"):
            call()

    def test_the_longest_edge_with_a_finite_depth_is_walked(self):
        # the walk starts and runs out of depth; the query is not rejected
        with pytest.raises(DepthExceededError):
            count_zeros_rect(Q11, Rect(0, LONGEST_EDGE, 0, 1))


class TestCentroidBoxes:
    """A box holding one zero but wider than eps is finished by one square
    around the first moment of its walked edges, when that square counts 1."""

    @pytest.mark.parametrize("q, rect, eps, quadtree", QUADTREE_BOXES)
    def test_a_centroid_that_always_misses_leaves_the_quadtree(
        self, monkeypatch, q, rect, eps, quadtree
    ):
        monkeypatch.setattr(oracle, "_centroid_box", lambda *args: None)
        boxes = isolate_zeros(q, rect, eps)
        assert repr(boxes) == repr([Rect(*b) for b in quadtree])

    @pytest.mark.parametrize("q, rect, eps, quadtree", QUADTREE_BOXES)
    def test_each_box_holds_one_reference_zero(self, q, rect, eps, quadtree):
        far = max(abs(rect.im_lo), abs(rect.im_hi))
        zeros = [z for z in lambert_w_zeros(q.k, q.a, far) if rect.contains(z)]
        boxes = isolate_zeros(q, rect, eps)
        assert len(boxes) == len(zeros) == len(quadtree)
        for box in boxes:
            assert box.diameter <= eps
            assert sum(box.contains(z) for z in zeros) == 1

    def test_the_moment_of_a_one_zero_box_is_its_zero(self, omega):
        # the walked edges of Rect(-1, 0, -0.5, 0.5), from the walker itself;
        # their moment lies near the zero, but at eps = 0.02 the two sums
        # miss the gate, so isolation splits this box
        box = Rect(-1, 0, -0.5, 0.5)
        stats = oracle._WalkStats()
        edges = oracle._walk_contour(Q11, box, oracle.DEFAULT_MAX_DEPTH, stats)
        walked = oracle._centroids(Q11, box, edges)
        assert not oracle._gate(box, *walked, 0.02)
        assert abs(walked[0] - omega) < 0.05


class TestIsolationSharesEdges:
    def test_cost_stays_within_three_and_a_half_root_counts(self, monkeypatch):
        # The pins are absolute now.  The knot walker took 908 evaluations for
        # this root count and 2,784 to isolate (3.1x); certifying whole pieces
        # takes 38 for the root count, where dominance accepts most of each
        # edge unevaluated, and 745 to isolate, whose cross lines run through
        # the zeros (20x).  Every evaluation goes through _eval_point.
        evals = [0]
        scalar = oracle._eval_point

        def counting(q, lam, stats):
            evals[0] += 1
            return scalar(q, lam, stats)

        monkeypatch.setattr(oracle, "_eval_point", counting)
        rect = Rect(-5, 8, -50.3, 50.1)
        root = count_zeros_rect(Q11, rect)
        root_evals, evals[0] = evals[0], 0
        assert root_evals == 38
        boxes = isolate_zeros(Q11, rect, eps=0.5)
        assert len(boxes) == root.count == 17
        assert evals[0] == 745

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 3),
        log_abs_a=st.floats(math.log(0.25), math.log(4.0)),
        arg_a=st.floats(-math.pi, math.pi),
        im_lo=st.floats(-80.0, 80.0),
        height=st.floats(5.0, 40.0),
        eps=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_boxes_recount_to_one_and_cover_the_root(
        self, k, log_abs_a, arg_a, im_lo, height, eps
    ):
        q = Quasipolynomial(k, cmath.rect(math.exp(log_abs_a), arg_a))
        im_lo += 0.1 * math.e  # keep the edges off the real axis and round numbers
        im_hi = im_lo + height
        far = max(abs(im_lo), abs(im_hi), 1.0)
        rect = Rect(
            min(0.0, log_abs_a) - 4.1, log_abs_a + k * math.log(far) + 3.3, im_lo, im_hi
        )
        try:
            root = count_zeros_rect(q, rect).count
        except (BoundaryZeroError, DepthExceededError):
            assume(False)
        boxes = isolate_zeros(q, rect, eps)
        assert len(boxes) == root
        for box in boxes:
            assert box.diameter <= eps
            assert count_zeros_rect(q, box).count == 1
        for i, b in enumerate(boxes):
            for c in boxes[i + 1 :]:
                assert not (
                    b.re_lo < c.re_hi and c.re_lo < b.re_hi
                    and b.im_lo < c.im_hi and c.im_lo < b.im_hi
                ), f"{b} overlaps {c}"


class TestIsolationLogsRetries:
    # The split lines of Rect(-2, 2, -2, 2) cross at the origin, and the
    # horizontal one runs through the real zero near -0.567.
    RECT = Rect(-2, 2, -2, 2)

    def test_each_failed_split_is_logged_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="quasizero.oracle")
        boxes = isolate_zeros(Q11, self.RECT, eps=1e-3)
        assert len(boxes) == 1
        records = [r for r in caplog.records if r.name == "quasizero.oracle"]
        assert all(r.levelno == logging.DEBUG for r in records)
        retries = [r for r in records if r.getMessage().startswith("split of")]
        assert retries
        first = retries[0].getMessage()
        assert repr(self.RECT) in first
        assert "jitter (0, 0)" in first
        assert "DepthExceededError" in first or "BoundaryZeroError" in first

    @pytest.mark.parametrize(
        "offset, reasons",
        [
            # the root box's moments disagree by more than eps / 2
            (None, ("gate",)),
            # the square around this point holds no zero
            (0.4 + 0.4j, ("count 0",)),
            # the square's bottom edge runs through the zero
            (oracle._CENTROID_HALF_SIDE * 1e-3 * 1j, ("BoundaryZeroError", "DepthExceededError")),
        ],
    )
    def test_each_centroid_miss_is_logged_at_debug(
        self, monkeypatch, caplog, omega, offset, reasons
    ):
        if offset is not None:
            point = omega + offset
            monkeypatch.setattr(oracle, "_centroids", lambda q, box, edges: (point, point))
        caplog.set_level(logging.DEBUG, logger="quasizero.oracle")
        boxes = isolate_zeros(Q11, self.RECT, eps=1e-3)
        assert len(boxes) == 1 and boxes[0].contains(omega)
        if offset is not None:
            # every miss falls back to the split, down to the quadtree's box
            assert repr(boxes) == repr([Rect(*QUADTREE_BOXES[0][3][0])])
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        misses = [r.getMessage() for r in caplog.records if "missed: " in r.getMessage()]
        assert misses
        assert f"in {self.RECT!r} missed: " in misses[0]
        assert misses[0].rpartition("missed: ")[2].startswith(reasons)

    def test_nothing_is_logged_by_default(self, caplog, capsys):
        caplog.set_level(logging.WARNING)
        isolate_zeros(Q11, self.RECT, eps=1e-3)
        assert not caplog.records
        assert capsys.readouterr() == ("", "")


def _reference_count(q, contour):
    """The number of Lambert-W reference zeros inside contour, and the
    distance from the nearest of all of them to its boundary."""
    if isinstance(contour, Disk):
        c, r = contour.center, contour.radius
        zeros = lambert_w_zeros(q.k, q.a, abs(c.imag) + r + 1.0)
        inside = sum(abs(z - c) < r for z in zeros)
        gap = min((abs(abs(z - c) - r) for z in zeros), default=math.inf)
        return inside, gap
    zeros = lambert_w_zeros(q.k, q.a, max(abs(contour.im_lo), abs(contour.im_hi)) + 1.0)
    inside = sum(contour.contains(z) for z in zeros)

    def gap(z):
        dx = max(contour.re_lo - z.real, 0.0, z.real - contour.re_hi)
        dy = max(contour.im_lo - z.imag, 0.0, z.imag - contour.im_hi)
        if dx or dy:
            return math.hypot(dx, dy)
        return min(
            z.real - contour.re_lo, contour.re_hi - z.real,
            z.imag - contour.im_lo, contour.im_hi - z.imag,
        )

    return inside, min(map(gap, zeros), default=math.inf)


def _count(q, contour):
    if isinstance(contour, Disk):
        return count_zeros_disk(q, contour.center, contour.radius).count
    return count_zeros_rect(q, contour).count


def _assert_reference_count(q, contour):
    """The walk's count equals the reference count.  Only a reference zero
    within 1e-6 of the boundary excuses a walk that fails."""
    want, gap = _reference_count(q, contour)
    try:
        got = _count(q, contour)
    except (BoundaryZeroError, DepthExceededError):
        assert gap < 1e-6, (q, contour, want)
        return
    assert got == want, (q, contour, gap)


class TestCountsMatchTheReference:
    """Counts equal those of conftest.lambert_w_zeros, which shares no code
    with the walker."""

    @pytest.mark.parametrize(
        "q, contour, count",
        [
            # the ROADMAP item 2 table (the first two are certify known-defect
            # disks), then the two other certify known-defect disks
            (Quasipolynomial(120, 1), Disk(0, 4.1), 120),
            (Quasipolynomial(120, 1), Disk(1, 4.1), 120),
            (Quasipolynomial(120, 1), Rect(-3, 5, -3.1, 3.3), 120),
            (Quasipolynomial(40, 1), Disk(0, 1.7), 40),
            (
                Quasipolynomial(139, 0.7791805146646235 + 0.4939196527468593j),
                Disk(0.7592633019597814 + 0.09518271469796336j, 0.8220796232032086),
                41,
            ),
            (
                Quasipolynomial(55, 0.5891018581993529 - 0.17709462989456168j),
                Disk(-0.2525479047391457 - 0.3108474741244649j, 0.8109677973190467),
                16,
            ),
        ],
    )
    def test_high_k_contours_near_the_origin(self, q, contour, count):
        assert _reference_count(q, contour)[0] == count
        assert _count(q, contour) == count

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 200),
        log_abs_a=st.floats(math.log(1e-3), math.log(1e3)),
        arg_a=st.floats(-math.pi, math.pi),
        centre=st.complex_numbers(max_magnitude=2.0),
        radius=st.floats(0.3, 5.0),
    )
    def test_disks_near_the_origin(self, k, log_abs_a, arg_a, centre, radius):
        q = Quasipolynomial(k, cmath.rect(math.exp(log_abs_a), arg_a))
        _assert_reference_count(q, Disk(centre, radius))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 16),
        log10_abs_a=st.floats(-20.0, 20.0),
        arg_a=st.floats(-math.pi, math.pi),
        im_lo=st.floats(-300.0, 300.0),
        height=st.floats(1.0, 100.0),
        pad=st.floats(0.0, 1.0),
    )
    def test_rects_across_the_zero_curve(self, k, log10_abs_a, arg_a, im_lo, height, pad):
        q = Quasipolynomial(k, cmath.rect(10.0**log10_abs_a, arg_a))
        far = max(abs(im_lo), abs(im_lo + height), 1.0)
        re_lo = min(0.0, q.log_abs_a) - 4.0 - pad
        re_hi = max(q.log_abs_a + k * math.log(far), re_lo) + 3.0 + pad
        _assert_reference_count(q, Rect(re_lo, re_hi, im_lo, im_lo + height))


def _dense_phase_change(k, a, p0, p1):
    """The change of arg(e^lambda + a lambda^k) along the segment p0 -> p1,
    by mpmath alone at 30 digits: the segment is cut into 64 parts, and each
    part is bisected until its principal phase step is below 0.3."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a_mp, z0, dz = mpmath.mpc(a), mpmath.mpc(p0), mpmath.mpc(p1) - mpmath.mpc(p0)

        def arg_f(t):
            lam = z0 + t * dz
            return mpmath.arg(mpmath.exp(lam) + a_mp * lam**k)

        def principal(d):
            return d - 2 * mpmath.pi * mpmath.nint(d / (2 * mpmath.pi))

        total = mpmath.mpf(0)
        knots = [mpmath.mpf(i) / 64 for i in range(65)]
        pending = [(t0, arg_f(t0)) for t0 in reversed(knots)]
        t0, g0 = pending.pop()
        while pending:
            t1, g1 = pending[-1]
            d = principal(g1 - g0)
            if abs(d) < 0.3:
                total += d
                t0, g0 = pending.pop()
            else:
                tm = (t0 + t1) / 2
                pending.append((tm, arg_f(tm)))
        return float(total)


class TestEachAcceptedPieceIsSound:
    """The phase step the walk takes for each accepted piece equals the
    change of arg f along it, by a dense mpmath walk."""

    @pytest.mark.parametrize(
        "q, call",
        [
            (Q11, lambda q: count_zeros_rect(q, Rect(-5, 8, -50.3, 50.1))),
            (Quasipolynomial(3, 0.5 + 0.5j), lambda q: count_zeros_rect(q, Rect(-6, 30, -60.3, 80.1))),
            # the algebraic term dominates left of Re ~ 120, e^lambda right of it
            (
                Quasipolynomial(16, cmath.rect(1e20, 0.3)),
                lambda q: count_zeros_rect(q, Rect(0.0, 800.0, 100.3, 120.7)),
            ),
            (Quasipolynomial(120, 1), lambda q: count_zeros_disk(q, 1, 4.1)),
            (Quasipolynomial(2, 2), lambda q: isolate_zeros(q, Rect(-9, 9, -9, 9), 0.5)),
        ],
    )
    def test_steps_match_a_dense_walk(self, monkeypatch, q, call):
        edges = []
        walk = oracle._walk_edge

        def recording(*args):
            edges.append(walk(*args))
            return edges[-1]

        monkeypatch.setattr(oracle, "_walk_edge", recording)
        call(q)
        pieces = [
            (p0, p1, d) for e in edges for p0, p1, d in zip(e.pts, e.pts[1:], e.steps)
        ]
        assert len(pieces) >= 6
        for p0, p1, d in pieces:
            assert abs(_dense_phase_change(q.k, q.a, p0, p1) - d) < 1e-9, (p0, p1, d)


class TestDominanceMargin:
    """A piece whose disk sits exactly where the two terms of f balance is
    not accepted by the dominance rule; a little way in, it is."""

    @staticmethod
    def verdict(q, m, ell):
        p0, p1 = m - ell, m + ell
        f0, f1 = oracle._phase_and_relmag(q, p0), oracle._phase_and_relmag(q, p1)
        return oracle._dominance_step(q, p0, f0, p1, f1, m, ell)

    @pytest.mark.parametrize(
        "k, a, ell, y, guess, side",
        [
            # e^lambda: ln|a| + k ln(|m| + ell) = Re m - ell
            (1, 1.0, 1.0, 0.0, 2.1, "exp"),
            (200, 1e-20, 0.5, 0.0, 1500.0, "exp"),
            (16, 1e20, 3.0, 0.0, 150.0, "exp"),
            (3, 1e-20 + 1e-20j, 2.0, 1e7, 5.0, "exp"),
            (200, 1.0, 0.25, 1e7, 3200.0, "exp"),
            # a lambda^k: Re m + ell = ln|a| + k ln(|m| - ell)
            (200, 1.0, 0.5, 0.0, 1.5, "alg"),
            (200, 1.0, 0.5, 0.0, 1700.0, "alg"),
            (3, 1e-20 + 1e-20j, 2.0, 1e7, 0.6, "alg"),
        ],
    )
    def test_equality_is_not_accepted(self, k, a, ell, y, guess, side):
        mpmath = pytest.importorskip("mpmath")
        q = Quasipolynomial(k, a)
        with mpmath.workdps(40):
            ln_a = mpmath.log(abs(mpmath.mpc(a)))

            def lead(x):
                """How far the named term leads on D(x + iy, ell)."""
                r = mpmath.hypot(x, y)
                if side == "exp":
                    return x - ell - ln_a - k * mpmath.log(r + ell)
                return ln_a + k * mpmath.log(r - ell) - x - ell

            x = mpmath.findroot(lead, guess)
            assert abs(mpmath.im(x)) == 0 and abs(x - guess) < 0.5 * abs(guess)
            # a relative 1e-6 into the region where the term dominates
            step = 1e-6 * max(1.0, abs(float(x)), y)
            inward = float(x + step) if lead(x + step) > 0 else float(x - step)
            assert lead(inward) > 0
            x = float(x)
        for m in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
            assert self.verdict(q, complex(m, y), ell) is None, m
        assert self.verdict(q, complex(inward, y), ell) is not None
