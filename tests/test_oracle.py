"""Argument-principle counting: contour walks, error taxonomy, isolation."""

from __future__ import annotations

import cmath
import math

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
)

Q11 = Quasipolynomial(1, 1)


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


class TestIsolationSharesEdges:
    def test_cost_stays_within_six_root_counts(self, monkeypatch):
        # Before edge sharing this rectangle took 14,967 evaluations against
        # 908 for its root count (16.5x).
        evals = [0]
        inner = oracle._phase_and_relmag

        def counting(q, lam):
            evals[0] += 1
            return inner(q, lam)

        monkeypatch.setattr(oracle, "_phase_and_relmag", counting)
        rect = Rect(-5, 8, -50.3, 50.1)
        root = count_zeros_rect(Q11, rect)
        root_evals, evals[0] = evals[0], 0
        boxes = isolate_zeros(Q11, rect, eps=0.5)
        assert len(boxes) == root.count == 17
        assert evals[0] <= 6 * root_evals

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
