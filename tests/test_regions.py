"""Region partition, thresholds, sector radius, and band-edge solves."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasizero import (
    InvalidQueryError,
    Quasipolynomial,
    RegionKind,
    classify,
    gamma_abscissa,
    gamma_polyline,
    half_plane,
    min_h_t1,
    min_h_t2,
    sector_radius,
    sigma,
)
from conftest import bisect_root

Q11 = Quasipolynomial(1, 1)


class TestClassify:
    def test_deep_left_tail(self):
        # sigma_1(-10) = -10 - ln 10 is far below -2.
        assert classify(Q11, 1, 2.0, 1.0, -10).kind is RegionKind.T1

    def test_inner_disk(self):
        assert classify(Q11, 1, 2.0, 1.0, 0.5).kind is RegionKind.INNER_DISK

    def test_far_field(self):
        # sigma_1(30) = 30 - ln 30 ~ 26.6 is above 2.
        assert classify(Q11, 1, 2.0, 1.0, 30).kind is RegionKind.T2

    def test_half_plane_flag(self):
        assert classify(Q11, 1, 2.0, 1.0, 3 - 4j).j == 1
        assert classify(Q11, 1, 2.0, 1.0, 3 + 4j).j == 2
        # Points on the real axis are assigned the upper half plane.
        assert classify(Q11, 1, 2.0, 1.0, -10).j == 2
        assert half_plane(5 + 0j) == 2
        assert half_plane(5 - 1e-12j) == 1

    def test_invalid_parameters(self):
        with pytest.raises(InvalidQueryError):
            classify(Q11, 1, 0.0, 1.0, 5)
        with pytest.raises(InvalidQueryError):
            classify(Q11, 1, 2.0, 0.0, 5)
        with pytest.raises(InvalidQueryError):
            classify(Q11, 3, 2.0, 1.0, 5)

    @pytest.mark.parametrize("s", [1, 2])
    def test_partition_matches_direct_arithmetic(self, s):
        # Every sampled point gets exactly one label, and the label agrees
        # with direct evaluation of |lambda| and sigma_S.
        rng = random.Random(424242)
        q = Quasipolynomial(2, 0.5 + 0.5j)
        h, r = 1.5, 2.0
        for _ in range(5000):
            lam = complex(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
            label = classify(q, s, h, r, lam)
            if abs(lam) <= r:
                expected = RegionKind.INNER_DISK
            else:
                coord = sigma(q, s, lam)
                if abs(coord) <= h:
                    expected = RegionKind.BAND
                elif coord < -h:
                    expected = RegionKind.T1
                else:
                    expected = RegionKind.T2
            assert label.kind is expected
            assert label.j == (1 if lam.imag < 0 else 2)


class TestThresholds:
    def test_unit_coefficient(self):
        assert min_h_t1(Q11) == pytest.approx(math.log(2), rel=1e-15)
        assert min_h_t2(Q11) == pytest.approx(math.log(2), rel=1e-15)

    def test_large_coefficient(self):
        q = Quasipolynomial(1, 2)
        assert min_h_t1(q) == pytest.approx(0.0, abs=1e-15)
        assert min_h_t2(q) == pytest.approx(math.log(4), rel=1e-15)

    def test_small_coefficient_mirrors(self):
        q = Quasipolynomial(1, 0.5)
        assert min_h_t1(q) == pytest.approx(math.log(4), rel=1e-15)
        assert min_h_t2(q) == pytest.approx(0.0, abs=1e-15)


class TestSectorRadius:
    def test_wide_sector_needs_no_growth(self):
        # With sin(delta) = 0.999 the envelope (1 + ln r)/r is already below
        # the bound at r = e, so the minimal radius is e itself.
        delta = math.asin(0.999)
        assert sector_radius(Q11, 1, 1.0, delta) == pytest.approx(math.e)

    def test_narrow_sector_matches_bisection(self):
        # Independent oracle: root of (1 + ln r)/r = 0.1 on [e, 1e6].
        delta = math.asin(0.1)
        expected = bisect_root(
            lambda rr: (1.0 + math.log(rr)) / rr - 0.1, math.e, 1e6, tol=1e-13
        )
        got = sector_radius(Q11, 1, 1.0, delta)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_monotone_in_delta(self):
        radii = [sector_radius(Q11, 1, 2.0, d) for d in (0.1, 0.3, 0.6, 1.2)]
        assert radii == sorted(radii, reverse=True)

    def test_envelope_below_bound_beyond_radius(self):
        q = Quasipolynomial(3, 2j)
        delta = 0.3
        r_star = sector_radius(q, 1, 2.0, delta)
        for rr in (r_star, 2 * r_star, 10 * r_star, 100 * r_star):
            assert (2.0 + 3 * math.log(rr)) / rr <= math.sin(delta) + 1e-12

    def test_band_tail_contained_in_sectors(self):
        # Rejection-sample band points with |lambda| in [R*, 10R*] and check
        # they all lie within delta of the imaginary axis directions.
        q = Quasipolynomial(1, 1)
        h, delta = 2.0, 0.3
        r_star = sector_radius(q, 1, h, delta)
        rng = random.Random(7)
        accepted = 0
        while accepted < 1000:
            x = rng.uniform(-10.0, 10.0)
            y = rng.uniform(-10 * r_star, 10 * r_star)
            lam = complex(x, y)
            mag = abs(lam)
            if mag < r_star or mag > 10 * r_star:
                continue
            if abs(sigma(q, 1, lam)) > h:
                continue
            accepted += 1
            assert abs(abs(math.atan2(y, x)) - math.pi / 2) < delta

    def test_invalid_delta(self):
        for bad in (0.0, math.pi / 2, 2.0, -0.1):
            with pytest.raises(InvalidQueryError):
                sector_radius(Q11, 1, 1.0, bad)


def _band_edge_gap(k: int, s: int, h: float, lam: complex) -> float:
    """sigma_S(lambda) - h from the definition, with no library code."""
    return lam.real + (-1) ** s * k * math.log(abs(lam)) - h


@st.composite
def band_edge_queries(draw):
    """(k, S, h, y) with y = 0, 0 < |y| < k/2 (where sigma_1 falls) or up to 1e7."""
    k = draw(st.integers(1, 200))
    s = draw(st.sampled_from([1, 2]))
    h = draw(st.floats(-5.0, 5.0))
    y = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda t: t * k / 2),
        st.floats(k / 2, 1e7),
    ))
    return k, s, h, draw(st.sampled_from([1.0, -1.0])) * y


class TestGammaAbscissa:
    def test_matches_fixed_point_oracle(self):
        # Independent oracle: x <- 2 + ln(sqrt(x^2 + 1e4)) converges because
        # the map's derivative x/(x^2 + 1e4) is tiny.
        x = 0.0
        for _ in range(200):
            x = 2.0 + math.log(math.hypot(x, 100.0))
        got = gamma_abscissa(Q11, 1, 2.0, 100.0)
        assert got == pytest.approx(x, abs=1e-8)
        assert 6.6 < got < 6.62

    def test_large_imaginary_part_asymptote(self):
        x = gamma_abscissa(Q11, 1, 0.0, 1e6)
        assert x == pytest.approx(math.log(1e6), abs=1e-3)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("h", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("y", [-250.0, 17.5, 4000.0])
    def test_residual_contract(self, s, h, y):
        q = Quasipolynomial(2, 0.5 + 0.5j)
        x = gamma_abscissa(q, s, h, y)
        assert abs(sigma(q, s, complex(x, y)) - h) < 1e-9

    def test_root_beyond_the_old_scan_bracket(self):
        # x - 50 ln|x + 5i| = 0 has its outer root near 282, far outside
        # +-(|y| + |h| + 10); the independent bisection finds it on [200, 400].
        q = Quasipolynomial(50, 1)
        expected = bisect_root(
            lambda x: x - 50 * math.log(math.hypot(x, 5.0)), 200.0, 400.0
        )
        got = gamma_abscissa(q, 1, 0.0, 5.0)
        assert got == pytest.approx(expected, rel=1e-13)
        assert 282.0 < got < 282.2

    @given(band_edge_queries())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_outer_root_at_any_k_and_height(self, query):
        k, s, h, y = query
        x = gamma_abscissa(Quasipolynomial(k, 1), s, h, y)
        assert abs(_band_edge_gap(k, s, h, complex(x, y))) < 1e-10
        # Beyond the root (right for S = 1, left for S = 2) sigma_S - h keeps
        # the sign it has at infinity on a grid covering the dip at x -+.
        outward = 1 if s == 1 else -1
        span = 2 * k + 10 + abs(x)
        for i in range(1, 401):
            lam = complex(x + outward * span * i / 400, y)
            if lam != 0:
                assert outward * _band_edge_gap(k, s, h, lam) > 0, (query, x, lam)

    @pytest.mark.parametrize("k, h, y", [
        (1, 2.0, 10.0), (50, 0.0, 5.0), (8, -2.379, 1.5), (7, 3.0, 0.0),
        (200, -4.0, 99.0), (3, 0.5, -1e7),
    ])
    def test_mirror_identity(self, k, h, y):
        # sigma_2(x + iy) = -sigma_1(-x + iy), so the S = 2 edge at h is the
        # mirror image of the S = 1 edge at -h, bit for bit.
        q = Quasipolynomial(k, 1)
        assert gamma_abscissa(q, 2, h, y) == -gamma_abscissa(q, 1, -h, y)

    @pytest.mark.parametrize("h, y, name", [
        (math.inf, 10.0, "h"), (math.nan, 10.0, "h"), (-math.inf, 10.0, "h"),
        (2.0, math.inf, "y"), (2.0, math.nan, "y"),
    ])
    def test_nonfinite_input_rejected(self, h, y, name):
        with pytest.raises(InvalidQueryError, match=f"^{name} must be finite"):
            gamma_abscissa(Q11, 1, h, y)


class TestGammaPolyline:
    def test_points_on_curve(self):
        pts = gamma_polyline(Q11, 1, 2, 2.0, 10.0, 200.0, 64)
        assert len(pts) == 64
        assert pts[0].imag == 10.0
        assert pts[-1].imag == 200.0
        for p in pts:
            assert abs(sigma(Q11, 1, p) - 2.0) < 1e-9

    def test_equally_spaced_heights(self):
        pts = gamma_polyline(Q11, 2, 2, 1.0, 0.0, 10.0, 11)
        for i, p in enumerate(pts):
            assert p.imag == pytest.approx(float(i), abs=1e-12)

    def test_stays_on_the_outer_branch(self):
        # For k = 8 sigma_1 falls between x-+ = 4 -+ sqrt(16 - y^2) and here
        # crosses h = -2.379 three times; every point must lie right of x+,
        # on one smooth branch.
        pts = gamma_polyline(Quasipolynomial(8, 1), 1, 2, -2.379, 0.0, 3.0, 7)
        for p in pts:
            assert p.real > 4.0 + math.sqrt(16.0 - p.imag**2)
        assert all(abs(p.real - r.real) < 0.05 for p, r in zip(pts, pts[1:]))

    def test_lower_half_plane(self):
        pts = gamma_polyline(Q11, 1, 1, 1.0, -50.0, -10.0, 5)
        assert all(p.imag < 0 for p in pts)

    def test_validation(self):
        with pytest.raises(InvalidQueryError):
            gamma_polyline(Q11, 1, 2, 2.0, 10.0, 200.0, 1)
        with pytest.raises(InvalidQueryError):
            gamma_polyline(Q11, 1, 1, 2.0, 10.0, 200.0, 8)
        with pytest.raises(InvalidQueryError):
            gamma_polyline(Q11, 1, 2, 2.0, -10.0, 200.0, 8)
        with pytest.raises(InvalidQueryError):
            gamma_polyline(Q11, 1, 5, 2.0, 10.0, 200.0, 8)

    @pytest.mark.parametrize("h, im_lo, im_hi, name", [
        (math.inf, 0.0, 10.0, "h"),
        (math.nan, 0.0, 10.0, "h"),
        (2.0, 0.0, math.inf, "im_hi"),
        (2.0, math.nan, math.nan, "im_lo"),
        (2.0, -math.inf, -1.0, "im_lo"),
    ])
    def test_nonfinite_input_rejected(self, h, im_lo, im_hi, name):
        j = 1 if im_hi < 0 else 2
        with pytest.raises(InvalidQueryError, match=f"^{name} must be finite"):
            gamma_polyline(Q11, 1, j, h, im_lo, im_hi, 8)
