"""Zero chain enumeration: guesses, refiners, spacing, small zeros."""

from __future__ import annotations

import logging
import math

import pytest

from quasizero import (
    CertificationError,
    DegenerateZeroError,
    DerivativeVanishedError,
    DivergedError,
    InvalidIndexError,
    InvalidQueryError,
    NonConsecutiveError,
    Quasipolynomial,
    asymptotic_guess,
    count_zeros_disk,
    enumerate_zeros,
    newton_refine,
    nu_min,
    sigma,
    small_zeros,
    spacing_report,
)
from quasizero import zeros as zeros_mod
from conftest import lambert_w_chain_zero, lambert_w_zeros

Q11 = Quasipolynomial(1, 1)
TWO_PI = 2 * math.pi


class TestAsymptoticGuess:
    def test_first_branch_closed_form(self):
        # ln(2*pi) + i*(2*pi + pi + pi/2), written out independently.
        expected = complex(math.log(TWO_PI), TWO_PI + math.pi + math.pi / 2)
        got = asymptotic_guess(Q11, 1)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.83788 + 10.99557j, abs=1e-5)

    def test_negative_branch_conjugates(self):
        assert asymptotic_guess(Q11, -1) == asymptotic_guess(Q11, 1).conjugate()
        q = Quasipolynomial(2, 0.5 + 0.5j)
        mirrored = asymptotic_guess(q.conjugate(), 3).conjugate()
        assert asymptotic_guess(q, -3) == mirrored

    def test_real_part_identity(self):
        # Re(guess) - k*ln(2*pi*|nu|) - ln|a| vanishes; exactly for |a| = 1
        # (the ln|a| addend is zero), to rounding otherwise.
        for nu in (1, 7, 40, -3):
            g = asymptotic_guess(Q11, nu)
            assert g.real - 1 * math.log(2 * math.pi * abs(nu)) == 0.0
        q = Quasipolynomial(3, -2 + 1j)
        for nu in (2, 11, -9):
            g = asymptotic_guess(q, nu)
            drift = g.real - 3 * math.log(2 * math.pi * abs(nu)) - q.log_abs_a
            assert abs(drift) < 1e-13

    def test_imaginary_part_structure(self):
        q = Quasipolynomial(2, 3j)
        g = asymptotic_guess(q, 4)
        expected = TWO_PI * 4 + math.pi + q.arg_a + 2 * math.pi / 2
        assert g.imag == pytest.approx(expected, rel=1e-14)

    def test_invalid_indices(self):
        with pytest.raises(InvalidIndexError):
            asymptotic_guess(Q11, 0)
        with pytest.raises(InvalidIndexError):
            asymptotic_guess(Q11, 1.5)
        with pytest.raises(InvalidIndexError):
            asymptotic_guess(Q11, True)

    def test_displayed_sign_variant_misses_zero_curve(self):
        # Flipping the sign of the k*ln(2*pi*|nu|) term (the other reading
        # of the closed form) lands far off the zero curve sigma_1 = ln|a|,
        # while the adopted form lands within 0.2 of it.
        nu = 10
        good = asymptotic_guess(Q11, nu)
        variant = complex(-good.real, good.imag)
        assert abs(sigma(Q11, 1, good)) < 0.2
        assert abs(sigma(Q11, 1, variant)) > 2.0


class TestNewtonRefine:
    def test_converges_to_bisection_root(self, omega):
        rec = newton_refine(Q11, -0.5)
        assert abs(rec.refined - omega) < 1e-9
        assert rec.residual < 1e-12
        assert rec.newton_iters >= 1
        assert rec.nu is None and rec.radius is None

    def test_from_asymptotic_seed(self):
        rec = newton_refine(Q11, asymptotic_guess(Q11, 1))
        assert rec.newton_iters <= 10
        assert rec.residual < 1e-12
        assert count_zeros_disk(Q11, rec.refined, 1.0).count == 1

    def test_exact_seed_returns_immediately(self):
        z = newton_refine(Q11, -0.5).refined
        rec = newton_refine(Q11, z)
        assert rec.newton_iters == 0
        assert rec.refined == z

    def test_diverges_far_from_any_zero(self):
        # From lambda = 20 each step is about -1, marching out of the trust
        # disk of radius 5 long before any zero is reached.
        with pytest.raises(DivergedError):
            newton_refine(Q11, 20)

    def test_vanishing_derivative_detected(self):
        # k=1, a=-1: f'(0) = e^0 - 1 = 0 exactly.
        with pytest.raises(DerivativeVanishedError):
            newton_refine(Quasipolynomial(1, -1), 0)

    def test_double_zero_flagged_degenerate(self):
        # a = -e puts a double zero at lambda = 1 (f(1) = f'(1) = 0).
        with pytest.raises(DegenerateZeroError):
            newton_refine(Quasipolynomial(1, -math.e), 1.0)

    @pytest.mark.parametrize("nu", [5000, 100_000, -100_000])
    def test_far_chain_zero_stops_at_the_float_floor(self, nu):
        # Rounding lambda alone leaves a relative |f| near |lambda| * 2**-53,
        # above the 1e-12 gate here (1.7e-12 at nu = 5000, 4.3e-11 at
        # 100,000), so the iteration stops on a step of at most 4 ulps.
        rec = newton_refine(Q11, asymptotic_guess(Q11, nu))
        ref = lambert_w_chain_zero(1, 1, nu)
        assert rec.residual >= 1e-12
        assert abs(rec.refined - ref) <= 4 * 2.0**-52 * abs(ref)
        assert rec.newton_iters <= 5

    def test_huge_seed_uses_stabilized_step(self):
        # sigma_1 at the seed is around 400, far beyond naive evaluation.
        q = Quasipolynomial(1, 1)
        guess = asymptotic_guess(q, 10)
        seed = guess + 400.0
        with pytest.raises(DivergedError):
            # No zero near the shifted seed; the stabilized step must still
            # produce finite iterates rather than overflowing.
            newton_refine(q, seed)


class TestEnumerateZeros:
    def test_unit_cell_full_range(self):
        records = enumerate_zeros(Q11, 1, 40)
        assert [r.nu for r in records] == list(range(5, 41))
        assert all(r.residual < 1e-10 for r in records)
        imags = [r.refined.imag for r in records]
        assert imags == sorted(imags)

    def test_skipped_indices_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="quasizero.zeros"):
            records = enumerate_zeros(Q11, 0, 4)
        assert records == []
        assert "skipping" in caplog.text

    def test_on_curve_invariant(self):
        q = Quasipolynomial(3, 0.5 + 0.5j)
        records = enumerate_zeros(q, 5, 25)
        assert len(records) == 21
        for r in records:
            assert abs(sigma(q, 1, r.refined) - q.log_abs_a) < 1e-8

    @pytest.mark.parametrize("a", [1, -2])
    def test_conjugate_symmetry_for_real_coefficient(self, a):
        q = Quasipolynomial(1, a)
        upper = {r.nu: r.refined for r in enumerate_zeros(q, 5, 12)}
        lower = {r.nu: r.refined for r in enumerate_zeros(q, -12, -5)}
        for nu, z in upper.items():
            assert abs(lower[-nu] - z.conjugate()) < 1e-9

    def test_pairwise_separation(self):
        records = enumerate_zeros(Q11, -8, 8)
        pts = [r.refined for r in records]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert abs(pts[i] - pts[j]) >= 1.0

    def test_both_refiners_recorded(self):
        rec = enumerate_zeros(Q11, 7, 7)[0]
        assert rec.radius > 0
        assert rec.fixedpoint_iters == 0
        assert rec.guess == asymptotic_guess(Q11, 7)

    def test_distance_to_guess_decays(self):
        (r10,), (r100,) = enumerate_zeros(Q11, 10, 10), enumerate_zeros(Q11, 100, 100)
        d10 = abs(r10.refined - r10.guess)
        d100 = abs(r100.refined - r100.guess)
        assert d100 < d10
        # The remainder scales like ln|nu|/|nu|.
        assert d100 < d10 * (math.log(100) / 100) / (math.log(10) / 10) * 3

    def test_invalid_range(self):
        with pytest.raises(InvalidQueryError):
            enumerate_zeros(Q11, 10, 5)

    def test_nu_min_grid(self):
        assert nu_min(Q11) == 5
        assert nu_min(Quasipolynomial(3, 1)) == 5
        assert nu_min(Quasipolynomial(7, 1)) == 7


class TestSpacingReport:
    def test_gaps_close_to_two_pi(self):
        report = spacing_report(enumerate_zeros(Q11, 10, 12))
        assert len(report.gaps) == 2
        for g in report.gaps:
            assert abs(g.gap - TWO_PI) < 0.2
            assert g.deviation == abs(g.gap - TWO_PI)

    def test_single_record_is_empty(self):
        report = spacing_report(enumerate_zeros(Q11, 10, 10))
        assert report.gaps == ()
        assert report.decay_ratio is None

    def test_hole_rejected(self):
        records = enumerate_zeros(Q11, 10, 13)
        with pytest.raises(NonConsecutiveError):
            spacing_report([records[0], records[2], records[3]])

    def test_unindexed_records_rejected(self):
        rec = newton_refine(Q11, -0.5)
        with pytest.raises(NonConsecutiveError):
            spacing_report([rec, rec])

    def test_deviation_decays_along_the_chain(self):
        report = spacing_report(enumerate_zeros(Q11, 10, 101))
        assert report.max_deviation_from_nu_10 is not None
        assert report.max_deviation_from_nu_10 < 0.2
        assert report.decay_ratio is not None
        assert report.decay_ratio < 1.0


class TestSmallZeros:
    def test_unit_cell_inner_disk(self, omega):
        zs = small_zeros(Q11, 2.0)
        assert len(zs) == 1
        assert abs(zs[0] - omega) < 1e-9

    def test_count_matches_disk_oracle(self):
        for q, radius in [
            (Quasipolynomial(1, math.e), 0.1),
            (Quasipolynomial(2, 1), 0.5),
        ]:
            zs = small_zeros(q, radius)
            assert len(zs) == count_zeros_disk(q, 0, radius).count

    @staticmethod
    def assert_match_lambert_w(k, a, radius):
        zs = small_zeros(Quasipolynomial(k, a), radius)
        ref = [z for z in lambert_w_zeros(k, a, radius) if abs(z) <= radius]
        assert len(zs) == len(ref)
        for z in zs:
            nearest = min(ref, key=lambda w: abs(w - z))
            assert abs(z - nearest) <= 1e-10 * max(1.0, abs(z))
            ref.remove(nearest)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("a", [1, 0.5 - 2j, 3j])
    def test_zeros_match_lambert_w(self, k, a):
        for radius in (1.5, 8.0, 20.0):
            self.assert_match_lambert_w(k, a, radius)

    @pytest.mark.parametrize("k, radius", [(14, 2.0), (40, 3.3), (120, 4.1), (200, 6.0)])
    def test_large_k_zeros_match_lambert_w(self, k, radius):
        # the zeros near the origin sit closer than the first isolation
        # boxes are wide, so Newton from a box centre can run to a
        # neighbour: such boxes must be isolated again, not accepted
        self.assert_match_lambert_w(k, 1, radius)

    def test_meeting_disks_rejected(self, monkeypatch):
        # every box "proves" the same zero: the disks meet before the count
        monkeypatch.setattr(zeros_mod, "_box_zero", lambda q, box: (0.5j, 1e-3))
        with pytest.raises(CertificationError, match="meet"):
            small_zeros(Quasipolynomial(3, 1), 8.0)

    def test_unproven_box_is_named(self, monkeypatch):
        monkeypatch.setattr(zeros_mod, "_box_zero", lambda q, box: None)
        with pytest.raises(CertificationError, match="isolation box Rect"):
            small_zeros(Q11, 2.0)

    def test_invalid_radius(self):
        with pytest.raises(InvalidQueryError):
            small_zeros(Q11, 0.0)
