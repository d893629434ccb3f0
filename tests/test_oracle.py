"""Argument-principle counting: contour walks, error taxonomy, isolation."""

from __future__ import annotations

import cmath
import logging
import math
import random

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
    QuasizeroError,
    Rect,
    count_zeros_disk,
    count_zeros_rect,
    isolate_zeros,
    newton_refine,
)
from conftest import lambert_w_zeros

Q11 = Quasipolynomial(1, 1)

#: the boxes of the quadtree alone, without the centroid step, on the
#: isolation inputs of TestIsolateZeros and TestBatchedKnotsMatchTheScalarWalk
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
        # Bottom edge passes exactly through the real zero: the pre-split
        # knot spacing is 0.25, so with re_lo = omega - 1 one knot lands on
        # the zero to within a few ulps and the relative magnitude drops
        # below 1e-12, while the phase jump of pi across the zero never
        # subdivides away.
        rect = Rect(omega - 1, omega + 1, 0.0, 2.0)
        with pytest.raises(BoundaryZeroError) as exc:
            count_zeros_rect(Q11, rect, max_depth=10)
        assert exc.value.magnitude < 1e-12
        assert abs(exc.value.point - omega) < 1e-6

    def test_near_boundary_zero_exhausts_depth(self, omega):
        # An edge 1e-9 above the zero, with knot positions shifted so none
        # lands near the closest approach: the minimum sampled magnitude
        # stays around 1e-9 relative (above the boundary-zero cutoff) but
        # the phase jump across the zero stays near pi until the knot
        # spacing shrinks to the 1e-9 scale, far beyond the depth budget.
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
        # the walked edges of Rect(-1, 0, -0.5, 0.5), from the walker itself
        box = Rect(-1, 0, -0.5, 0.5)
        edges = list(oracle._walk_rect(Q11, box, oracle.DEFAULT_MAX_DEPTH, oracle._WalkStats()))
        fine, coarse = oracle._centroids(Q11, box, edges)
        assert abs(fine - omega) < abs(coarse - omega) < 0.05
        assert abs(fine - omega) < 0.01


class TestIsolationSharesEdges:
    def test_cost_stays_within_three_and_a_half_root_counts(self, monkeypatch):
        # Before edge sharing this rectangle took 14,967 evaluations against
        # 908 for its root count (16.5x), and 4,445 before each one-zero box
        # was finished at its centroid.  Every point goes through either
        # _eval_point or the batched kernel, which takes the knots of long
        # edges; counting both counts each evaluated point once.
        evals = [0]
        scalar, batch = oracle._eval_point, oracle._phase_and_relmag_batch

        def counting(q, lam, stats):
            evals[0] += 1
            return scalar(q, lam, stats)

        def counting_batch(q, lam):
            evals[0] += len(lam)
            return batch(q, lam)

        monkeypatch.setattr(oracle, "_eval_point", counting)
        monkeypatch.setattr(oracle, "_phase_and_relmag_batch", counting_batch)
        rect = Rect(-5, 8, -50.3, 50.1)
        root = count_zeros_rect(Q11, rect)
        root_evals, evals[0] = evals[0], 0
        # batching the knots must not change the number of evaluations
        assert root_evals == 908
        boxes = isolate_zeros(Q11, rect, eps=0.5)
        assert len(boxes) == root.count == 17
        assert evals[0] == 2784
        assert evals[0] <= 3.5 * root_evals

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


def _reference_walk_edge(q, point_of, length, start, end, max_depth, stats):
    """The scalar walker that the batched knots replaced: every knot goes
    through oracle._eval_point one at a time, then the same bisection loop."""
    n = max(1, math.ceil(length / oracle.INITIAL_PIECE_LENGTH))
    knots, knot_vals = [start[0]], [start[1]]
    for i in range(1, n):
        p = point_of(i / n)
        knots.append(p)
        knot_vals.append(oracle._eval_point(q, p, stats))
    knots.append(end[0])
    knot_vals.append(end[1])
    steps = []
    pts = None
    vals = []
    for i in range(n):
        f0, f1 = knot_vals[i], knot_vals[i + 1]
        d = oracle._accepted_step(f0, f1)
        if d is not None:
            steps.append(d)
            if pts is not None:
                pts.append(knots[i + 1])
                vals.append(f1)
            continue
        if pts is None:
            pts, vals = knots[: i + 1], knot_vals[: i + 1]
        t0 = i / n
        pending = [((i + 1) / n, knots[i + 1], f1, max_depth)]
        while pending:
            t1, p1, f1, depth = pending[-1]
            d = oracle._accepted_step(f0, f1)
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
                pending.append((tm, pm, oracle._eval_point(q, pm, stats), depth - 1))
            else:
                raise oracle._Unresolved(
                    point_of(0.5 * (t0 + t1)),
                    math.remainder(f1[0] - f0[0], math.tau),
                    pts + [e[1] for e in reversed(pending)] + knots[i + 2 :],
                    vals + [e[2] for e in reversed(pending)] + knot_vals[i + 2 :],
                )
    stats.segments += len(steps)
    if pts is None:
        return oracle._Edge(knots, knot_vals, steps)
    return oracle._Edge(pts, vals, steps)


LIBRARY_WALK = oracle._walk_edge


def _outcome(out, stats):
    """out and the stats (evals, segments, smallest relmag and its point);
    repr tells every float apart bit for bit, signed zeros included."""
    return repr(out), stats.evals, stats.segments, repr(stats.min_mag), repr(stats.min_mag_point)


def _walked(monkeypatch, walker, call):
    """call()'s repr, or the class and message of what it raised, and the
    outcome of every edge walk on the way (its samples and steps, or what
    it raised, and its stats after it), with walker as oracle's walker."""
    walks = []

    def recording(*args):
        stats = args[-1]
        try:
            edge = walker(*args)
        except oracle._Unresolved as err:
            partial = err.partial
            walks.append(
                _outcome(("unresolved", err.point, err.step, partial.pts, partial.vals), stats)
            )
            raise
        except QuasizeroError as err:
            walks.append(_outcome((type(err).__name__, str(err)), stats))
            raise
        walks.append(_outcome(("edge", edge.pts, edge.vals, edge.steps), stats))
        return edge

    with monkeypatch.context() as m:
        m.setattr(oracle, "_walk_edge", recording)
        try:
            result = repr(call())
        except (QuasizeroError, oracle._Unresolved) as err:
            result = (type(err).__name__, str(err))
    return result, walks


def _edge_walk(q, p0, p1, max_depth=oracle.DEFAULT_MAX_DEPTH):
    """A call that walks the segment p0 -> p1 alone, with fresh stats."""

    def call():
        stats = oracle._WalkStats()
        start, end = ((p, oracle._eval_point(q, p, stats)) for p in (p0, p1))
        segment = oracle._segment(p0, p1)
        oracle._walk_edge(q, segment, abs(p1 - p0), start, end, max_depth, stats)

    return call


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _coefficient(rng):
    """|A| log-uniform in 1e-20..1e20, any argument."""
    return cmath.rect(_log_uniform(rng, 1e-20, 1e20), rng.uniform(-math.pi, math.pi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchedKnotsMatchTheScalarWalk:
    """Edges with more than _BATCH_KNOTS interior knots evaluate them in one
    numpy pass; every walk must match the scalar reference walker bit for
    bit: samples, steps, stats, results, and error class and message."""

    def assert_same(self, monkeypatch, call):
        ours = _walked(monkeypatch, LIBRARY_WALK, call)
        assert ours == _walked(monkeypatch, _reference_walk_edge, call)
        return ours

    @pytest.fixture
    def batched(self, monkeypatch):
        """Counts of batched edges and of those handed on to bisection."""
        counts = {"edges": 0, "bisected": 0}
        inner = oracle._batch_knots

        def counting(q, point_of, n, start, end, stats):
            out = inner(q, point_of, n, start, end, stats)
            counts["edges"] += 1
            counts["bisected"] += out[-1] < n
            return out

        monkeypatch.setattr(oracle, "_batch_knots", counting)
        return counts

    def test_tall_rects(self, monkeypatch, batched):
        rng = random.Random(20261018)
        for _ in range(16):
            k = rng.randint(1, 16)
            q = Quasipolynomial(k, _coefficient(rng))
            height = _log_uniform(rng, 5.0, 2000.0)
            im_lo = rng.uniform(-2000.0, 2000.0 - height)
            far = max(abs(im_lo), abs(im_lo + height), 1.0)
            re_lo = min(0.0, q.log_abs_a) - 4.0 - rng.random()
            re_hi = max(q.log_abs_a + k * math.log(far), re_lo) + 3.0 + rng.random()
            rect = Rect(re_lo, re_hi, im_lo, im_lo + height)
            self.assert_same(monkeypatch, lambda: count_zeros_rect(q, rect))
        assert batched["edges"] > 30 and batched["bisected"] > 0

    def test_disks(self, monkeypatch, batched):
        rng = random.Random(1018)
        for i in range(24):
            q = Quasipolynomial(rng.randint(1, 16), _coefficient(rng))
            centre = 0j if i % 3 == 0 else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            radius = _log_uniform(rng, 0.5, 40.0)
            self.assert_same(monkeypatch, lambda: count_zeros_disk(q, centre, radius))
        assert batched["edges"] > 10

    def test_isolation(self, monkeypatch, batched):
        # the split lines of these rects are long enough to be batched
        q = Quasipolynomial(2, 1.5 - 0.5j)
        self.assert_same(monkeypatch, lambda: isolate_zeros(q, Rect(-5, 9, -40.1, 40.3), 0.5))
        self.assert_same(monkeypatch, lambda: isolate_zeros(Q11, Rect(-9, 9, -9, 9), 0.5))
        assert batched["edges"] > 10

    def test_edge_through_the_origin(self, monkeypatch, batched):
        # the knot at t = 1/2 is exactly lambda = 0, where f = 1
        for q in (Q11, Quasipolynomial(3, -2.0), Quasipolynomial(16, 1e-20j)):
            self.assert_same(monkeypatch, _edge_walk(q, -10 + 0j, 10 + 0j))
            self.assert_same(monkeypatch, lambda: count_zeros_rect(q, Rect(-10, 10, 0.0, 7)))
        assert batched["edges"] >= 6

    def test_far_right_edges_where_dominance_flips(self, monkeypatch, batched):
        # the algebraic term dominates left of Re ~ 46 + 16 ln|lambda| ~ 120
        # and e^lambda to the right of it, out past Re lambda = 700
        q = Quasipolynomial(16, cmath.rect(1e20, 0.3))
        self.assert_same(monkeypatch, _edge_walk(q, 0.0 + 100.3j, 800.0 + 100.3j))
        self.assert_same(monkeypatch, _edge_walk(q, 710.0 - 30.0j, 710.0 + 30.0j))
        self.assert_same(monkeypatch, lambda: count_zeros_rect(q, Rect(0.0, 800.0, 100.3, 120.7)))
        # beyond DBL_MAX/4, where cmath.log rescales before taking the log
        self.assert_same(monkeypatch, lambda: count_zeros_disk(q, 4.6e307 + 0j, 100.0))
        assert batched["edges"] >= 8

    def test_a_rejected_piece_falls_back_to_bisection(self, monkeypatch, batched):
        # 48 pieces passing 0.03 from the zero near 2.4016 + 10.7763i; the
        # piece beside it is bisected, and those before it are not
        _, walks = self.assert_same(monkeypatch, _edge_walk(Q11, 2.43 + 5j, 2.43 + 17j))
        assert batched == {"edges": 1, "bisected": 1}
        assert walks[0][1:3] == (52, 51)

    def test_an_unresolved_piece(self, monkeypatch, omega):
        # 40 pieces passing 1e-9 above the real zero
        p0, p1 = complex(omega - 5.1, 1e-9), complex(omega + 4.9, 1e-9)
        result, _ = self.assert_same(monkeypatch, _edge_walk(Q11, p0, p1, 10))
        assert result[0] == "_Unresolved"
        self.assert_same(
            monkeypatch, lambda: count_zeros_rect(Q11, Rect(p0.real, p1.real, 1e-9, 2.0), 10)
        )
        self.assert_same(
            monkeypatch, lambda: count_zeros_rect(Q11, Rect(omega - 5, omega + 5, 0.0, 2.0), 10)
        )

    def test_an_exact_tie_in_the_phase_remainder(self, monkeypatch):
        # At lambda = -5 the raw phase is exactly 3*pi, halfway between two
        # multiples of tau; math.remainder takes the even one, giving -pi.
        q = Quasipolynomial(3, 1.0)
        _, walks = self.assert_same(monkeypatch, _edge_walk(q, -5 + 5j, -5 - 5j))
        assert "(-3.141592653589793, " in walks[0][0]

    def test_a_knot_where_f_vanishes(self, monkeypatch):
        # No knot meets |f| = 0 exactly in floating point, so make two: the
        # scalar kernel raises there and the batched one gives relmag 0.
        p0, p1 = 2.3 + 40j, 2.3 + 60j
        zeros = {p0 + (i / 80) * (p1 - p0) for i in (37, 52)}
        scalar, batch = oracle._phase_and_relmag, oracle._phase_and_relmag_batch

        def vanishing(q, lam):
            if lam in zeros:
                raise BoundaryZeroError(
                    f"f vanished at contour point {lam!r}", point=lam, magnitude=0.0
                )
            return scalar(q, lam)

        def vanishing_batch(q, lam):
            phase, relmag = batch(q, lam)
            for i, p in enumerate(lam.tolist()):
                if p in zeros:
                    phase[i], relmag[i] = math.nan, 0.0
            return phase, relmag

        monkeypatch.setattr(oracle, "_phase_and_relmag", vanishing)
        monkeypatch.setattr(oracle, "_phase_and_relmag_batch", vanishing_batch)
        q = Quasipolynomial(2, 1.3 - 0.4j)
        result, walks = self.assert_same(monkeypatch, _edge_walk(q, p0, p1))
        # raised at the first of the two, after the ends and the 36 knots
        # before it
        first = p0 + (37 / 80) * (p1 - p0)
        assert result == ("BoundaryZeroError", f"f vanished at contour point {first!r}")
        assert walks[0][1:3] == (2 + 36, 0)
