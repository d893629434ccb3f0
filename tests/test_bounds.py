"""Sampled inequality verification and band quadrangle geometry."""

from __future__ import annotations

import copy
import dataclasses
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

import quasizero.bounds as bounds

from quasizero import (
    DeltaTooLargeError,
    EmptyRegionError,
    EmptySampleError,
    InvalidIndexError,
    InvalidQueryError,
    Quasipolynomial,
    RegionKind,
    classify,
    count_zeros_rect,
    estimate_c_delta,
    min_h_t1,
    min_h_t2,
    quadrangle,
    sigma,
    verify_eq3,
    verify_eq4,
)
from quasizero import Rect
from conftest import (
    bisect_root,
    lambert_w_chain_zero,
    lambert_w_zeros,
    point_in_polygon,
    polygon_signed_area,
)

Q11 = Quasipolynomial(1, 1)


class TestVerifyEq3:
    def test_unit_cell_passes(self):
        h = math.log(2) + 0.5
        report = verify_eq3(Q11, h=h, r=1.0, n=10_000, seed=7)
        assert report.passed
        assert report.inequality_id == "eq3"
        assert report.samples == 10_000
        assert report.seed == 7
        assert report.threshold == 0.5
        assert report.min_ratio >= 0.5
        # The provable floor 1 - e^(-h)/|a| is sharper than 1/2 and must
        # also hold on every sample.
        assert report.analytic_floor == pytest.approx(1 - math.exp(-h))
        assert report.min_ratio >= report.analytic_floor
        # The worst point really lives in the sampled region.
        label = classify(Q11, 1, h, 1.0, report.worst_point)
        assert label.kind is RegionKind.T1

    def test_complex_coefficient_passes(self):
        q = Quasipolynomial(2, 0.5 + 0.5j)
        h = min_h_t1(q) + 0.5
        report = verify_eq3(q, h=h, r=1.0, n=5_000, seed=3)
        assert report.passed
        assert report.min_ratio >= 0.5

    def test_zero_samples_rejected(self):
        with pytest.raises(EmptySampleError):
            verify_eq3(Q11, h=1.5, r=1.0, n=0, seed=0)

    def test_h_below_threshold_rejected(self):
        with pytest.raises(InvalidQueryError):
            verify_eq3(Q11, h=math.log(2), r=1.0, n=100, seed=0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_inner_radius_rejected_before_drawing(self, monkeypatch, r):
        monkeypatch.setattr(bounds, "_philox", None)
        with pytest.raises(InvalidQueryError, match=f"R must be finite and > 0, got {r!r}"):
            verify_eq3(Q11, h=1.5, r=r, n=100, seed=0)

    def test_unreachable_region_detected(self):
        # Inside |lambda| <= 10, sigma_1 >= -10 - ln 10, so the tail
        # sigma_1 < -30 has no points and rejection sampling must give up.
        with pytest.raises(EmptyRegionError):
            verify_eq3(Q11, h=30.0, r=1.0, n=100, seed=0, window=10.0)

    def test_deterministic_replay(self):
        a = verify_eq3(Q11, h=1.5, r=1.0, n=2_000, seed=11)
        b = verify_eq3(Q11, h=1.5, r=1.0, n=2_000, seed=11)
        assert a == b
        c = verify_eq3(Q11, h=1.5, r=1.0, n=2_000, seed=12)
        assert c.worst_point != a.worst_point


class TestVerifyEq4:
    def test_unit_cell_passes(self):
        h = math.log(2) + 0.5
        report = verify_eq4(Q11, h=h, r=1.0, n=10_000, seed=7)
        assert report.passed
        assert report.inequality_id == "eq4"
        assert report.min_ratio >= 0.5
        assert report.analytic_floor is None
        assert sigma(Q11, 1, report.worst_point) > h
        assert abs(report.worst_point) > 1.0

    def test_large_coefficient_passes(self):
        q = Quasipolynomial(3, 2)
        report = verify_eq4(q, h=min_h_t2(q) + 0.5, r=1.0, n=5_000, seed=5)
        assert report.passed

    def test_window_inside_exclusion_radius(self):
        with pytest.raises(EmptyRegionError):
            verify_eq4(Q11, h=1.5, r=2.0, n=100, seed=0, window=1.0)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_inner_radius_rejected_before_drawing(self, monkeypatch, r):
        monkeypatch.setattr(bounds, "_philox", None)
        with pytest.raises(InvalidQueryError, match=f"R must be finite and > 0, got {r!r}"):
            verify_eq4(Q11, h=1.5, r=r, n=100, seed=0)

    def test_h_below_threshold_rejected(self):
        q = Quasipolynomial(1, 2)
        with pytest.raises(InvalidQueryError):
            verify_eq4(q, h=math.log(4) - 0.1, r=1.0, n=100, seed=0)

    def test_printed_set_variant_is_informational(self):
        h = math.log(2) + 0.5
        report = verify_eq4(Q11, h=h, r=1.0, n=2_000, seed=9, printed_set=True)
        assert report.inequality_id == "eq4-printed"
        # The mirrored-coordinate set is sampled and reported without any
        # claim; the structural fields still behave normally.
        assert report.samples == 2_000


class TestEstimateCDelta:
    def test_positive_and_stable(self):
        report = estimate_c_delta(
            Q11, h=2.0, r=1.0, delta=0.5, nu_hi=30, n=10_000, seed=42
        )
        assert report.inequality_id == "eq7"
        assert report.passed
        assert report.min_ratio > 0
        assert report.threshold == 0.0
        assert report.stability_ratio is not None
        assert 0.8 <= report.stability_ratio <= 1.25

    def test_monotone_in_delta(self):
        estimates = []
        for delta in (0.25, 0.5, 1.0):
            report = estimate_c_delta(
                Q11, h=2.0, r=1.0, delta=delta, nu_hi=30, n=10_000, seed=42
            )
            estimates.append(report.min_ratio)
        # Smaller excluded disks admit points closer to the zeros, so the
        # estimate grows with delta (up to a 20% sampling margin).
        assert estimates[0] <= estimates[1] * 1.2
        assert estimates[1] <= estimates[2] * 1.2

    def test_oversized_delta_rejected(self):
        with pytest.raises(DeltaTooLargeError):
            estimate_c_delta(
                Q11, h=2.0, r=1.0, delta=3.2, nu_hi=30, n=100, seed=0
            )

    def test_worst_point_clear_of_every_zero(self):
        # The zero 10.4843-34.6197i (chain index -4) has modulus 36.172,
        # just outside a small-zero disk of fixed radius 2*pi*(nu_min + 0.75)
        # = 36.128; with that disk it went unpunctured and the worst sampled
        # point fell within delta of it.
        k, a, delta, nu_hi = 3, complex(-0.6119490585488511, -0.4428120183686167), 0.1, 37
        report = estimate_c_delta(
            Quasipolynomial(k, a), h=1.5704695592471318, r=1.0, delta=delta,
            nu_hi=nu_hi, n=500, seed=1872928758,
        )
        zeros = lambert_w_zeros(k, a, math.tau * nu_hi + 1.0)
        assert min(abs(z - complex(10.4843, -34.6197)) for z in zeros) < 1e-4
        assert min(abs(report.worst_point - z) for z in zeros) > delta

    def test_large_k_band(self):
        # the band's small-zero disk at k = 16 needs small_zeros to isolate
        # its crowded boxes again; the worst point must clear every zero
        k, delta, nu_hi = 16, 0.05, 21
        report = estimate_c_delta(
            Quasipolynomial(k, 1), h=1.0, r=1.0, delta=delta, nu_hi=nu_hi,
            n=2000, seed=1,
        )
        assert report.passed and report.min_ratio > 0
        zeros = lambert_w_zeros(k, 1, math.tau * nu_hi + 1.0)
        assert min(abs(report.worst_point - z) for z in zeros) > delta

    def test_windowed_distances_match_the_full_matrix(self):
        rng = random.Random(3)
        # zeros in clusters of nearly equal Im, so windows hold several
        zeros = sorted(
            (complex(rng.uniform(-3, 3), 2 * math.pi * i + rng.uniform(-0.05, 0.05))
             for i in range(-20, 21) for _ in range(3)),
            key=lambda z: z.imag,
        )
        zs = np.array(zeros)
        lam = np.array([complex(rng.uniform(-3, 3), rng.uniform(-130, 130))
                        for _ in range(4000)])
        for delta in (0.05, 0.5, 2.0):
            full = np.abs(lam[:, None] - zs[None, :]).min(axis=1) > delta
            assert np.array_equal(bounds._clear_of(lam, zs, delta), full)
        brute = min(abs(a - b) for i, a in enumerate(zeros) for b in zeros[i + 1 :])
        assert bounds._min_gap(zeros) == brute

    def test_validation(self):
        with pytest.raises(InvalidIndexError):
            estimate_c_delta(Q11, h=2.0, r=1.0, delta=0.5, nu_hi=2, n=100, seed=0)
        with pytest.raises(InvalidQueryError):
            estimate_c_delta(Q11, h=2.0, r=1.0, delta=-0.5, nu_hi=30, n=100, seed=0)
        q = Quasipolynomial(1, 10)
        with pytest.raises(InvalidQueryError):
            # h must exceed |ln|a|| so the band holds the zero curve.
            estimate_c_delta(q, h=1.0, r=1.0, delta=0.5, nu_hi=30, n=100, seed=0)


def _reference_ratio_alg_batch(q, lam):
    """The separate algebraic-ratio kernel that _ratio_batch replaced."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        u = lam - q.k * np.log(lam) - np.log(complex(q.a))
        u = np.clip(u.real, -745.0, 700.0) + 1j * u.imag
        return np.abs(1.0 + np.exp(u))


def _reference_ratio_exp_batch(q, lam):
    """The separate exponential-ratio kernel that _ratio_batch replaced."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        u = q.k * np.log(lam) + np.log(complex(q.a)) - lam
        u = np.clip(u.real, -745.0, 700.0) + 1j * u.imag
        return np.abs(1.0 + np.exp(u))


def _reference_sigma1(k, lam):
    """sigma_1 recomputed from the points, as the two-pass sampler did: nan
    where x^2 + y^2 overflows or is not a normal float, so never saturated."""
    with np.errstate(all="ignore"):
        rr = lam.real * lam.real + lam.imag * lam.imag
        sig = lam.real - 0.5 * k * np.log(rr)
    return np.where((rr >= sys.float_info.min) & (rr < math.inf), sig, math.nan)


def _reference_rejection_sample(rng, hull, k, accept, n, what):
    """The list-and-concatenate sampler that the preallocated one replaced,
    with sigma_1 recomputed from its points in a second pass."""
    x_lo, x_hi, y_lo, y_hi = hull
    if not (x_lo < x_hi and y_lo < y_hi):
        raise EmptyRegionError(f"degenerate sampling hull for {what}")
    kept = []
    taken = 0
    consecutive_rejects = 0
    while taken < n:
        xs = rng.uniform(x_lo, x_hi, bounds._CHUNK)
        ys = rng.uniform(y_lo, y_hi, bounds._CHUNK)
        with np.errstate(all="ignore"):
            rr = xs * xs + ys * ys
            half_log = 0.5 * k * np.log(rr)
        mask = accept(xs, ys, rr, half_log)
        hits = int(mask.sum())
        if hits == 0:
            consecutive_rejects += bounds._CHUNK
            if consecutive_rejects >= bounds.MAX_CONSECUTIVE_REJECTS:
                raise EmptyRegionError(
                    f"no point of {what} found in {consecutive_rejects} draws"
                )
            continue
        consecutive_rejects = 0
        kept.append((xs + 1j * ys)[mask])
        taken += hits
    lam = np.concatenate(kept)[:n]
    return lam, _reference_sigma1(k, lam)


def _points_at_re_u(q, targets, rng):
    """Points lambda where Re(lambda - k Log lambda - Log a) is each target.

    Solves x = t + k ln|x + iy| + ln|a| by fixed-point iteration at a random
    |y| in 50..1000, where the map contracts (its slope is at most k/(2|y|)).
    """
    ys = rng.uniform(50.0, 1000.0, targets.size) * rng.choice([-1.0, 1.0], targets.size)
    xs = targets.copy()
    for _ in range(60):
        xs = targets + 0.5 * q.k * np.log(xs * xs + ys * ys) + q.log_abs_a
    return xs + 1j * ys


class TestBatchedRatioKernel:
    @pytest.mark.parametrize("q", [
        Q11,
        Quasipolynomial(2, 0.5 + 0.5j),
        Quasipolynomial(3, -2),
        Quasipolynomial(7, 3e-20 - 1e-20j),
        Quasipolynomial(16, 4e19j),
        Quasipolynomial(1, 1e150),
    ])
    def test_matches_the_separate_kernels(self, q):
        rng = np.random.default_rng(17)
        targets = np.concatenate([
            rng.uniform(-800.0, 710.0, 3000),
            rng.uniform(-43.0, -41.0, 3000),  # dense around the skip threshold
            rng.uniform(-800.0, -746.0, 200),  # below the -745 clip
            rng.uniform(701.0, 710.0, 200),  # above the +700 clip
        ])
        # Re u of the exponential ratio is minus that of the algebraic one,
        # so the negated targets give it the same span.
        lam = _points_at_re_u(q, np.concatenate([targets, -targets]), rng)
        # x^2 + y^2 overflowing, subnormal or zero: the estimate is not
        # trusted there (at 1e-163 + 1e-163j with a = 1e150, Re u of the
        # exponential ratio is -29.6 while the estimate reads -inf)
        lam = np.concatenate([lam, [1e200 + 1e200j, -1e200 + 3e199j, 1e-160 - 2e-160j,
                                    -3e-160 + 1e-161j, 3e-162 - 1e-162j, 1e-163 + 1e-163j]])
        with np.errstate(all="ignore"):
            re_u = (lam - q.k * np.log(lam) - np.log(complex(q.a))).real
        for sign in (1.0, -1.0):
            assert (sign * re_u < -745.0).sum() > 100
            assert (sign * re_u > 700.0).sum() > 100
            assert (np.abs(sign * re_u + 42.0) < 1.0).sum() > 1000

        sig1 = _reference_sigma1(q.k, lam)
        for alg, reference in ((True, _reference_ratio_alg_batch),
                               (False, _reference_ratio_exp_batch)):
            expected = reference(q, lam)
            assert np.array_equal(bounds._ratio_batch(q, lam, sig1, alg), expected)
            skipped = bounds._saturated(q, sig1, alg)
            assert (expected[skipped] == 1.0).all()
            # most points below the threshold are skipped, none above it
            sign = 1.0 if alg else -1.0
            assert skipped.sum() > 0.9 * (sign * re_u < -42.5).sum()
            assert not skipped[sign * re_u > -41.9].any()


def _drawn(blocks):
    """Concatenate the sampler's blocks, copying each before the next
    overwrites the buffer it views."""
    lam, sig1 = zip(*[(lam.copy(), sig1.copy()) for lam, sig1 in blocks])
    return np.concatenate(lam), np.concatenate(sig1)


def _ours_and_reference(call):
    """call()'s report, and the report recomputed from the same draws by
    the whole-array reference sampler, the separate kernels and np.argmin.

    The sampler's arguments (generator, hull, region test, n) and the ratio
    kind of each sampled stream are recorded as call() runs; the reference
    draws from a copy of the generator.
    """
    draws, kernels = [], []
    sample, reduce = bounds._rejection_sample, bounds._min_ratio

    def record_sample(rng, *args):
        draws.append(_reference_rejection_sample(copy.deepcopy(rng), *args)[0])
        return sample(rng, *args)

    def record_reduce(q, blocks, alg):
        kernels.append((_reference_ratio_alg_batch if alg else _reference_ratio_exp_batch, q))
        return reduce(q, blocks, alg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_rejection_sample", record_sample)
        mp.setattr(bounds, "_min_ratio", record_reduce)
        ours = call()
    ratios = [kernel(q, lam) for lam, (kernel, q) in zip(draws, kernels)]
    i = int(np.argmin(ratios[0]))
    min_ratio = float(ratios[0][i])
    theirs = dataclasses.replace(
        ours, samples=int(draws[0].size), min_ratio=min_ratio,
        worst_point=complex(draws[0][i]),
        passed=min_ratio >= ours.threshold if ours.threshold > 0 else min_ratio > 0,
    )
    if len(ratios) == 2:  # eq7's doubled-sample stream
        theirs = dataclasses.replace(
            theirs, stability_ratio=float(ratios[1].min()) / min_ratio
        )
    return ours, theirs


class TestReportsMatchTheReference:
    @pytest.mark.parametrize("call", [
        # three chunks of about 4000 hits; the last accepts more than needed
        lambda: verify_eq3(Q11, h=math.log(2) + 0.5, r=1.0, n=10_000, seed=7),
        lambda: verify_eq3(Quasipolynomial(3, 0.5 + 0.5j), h=2.0, r=1.0, n=5_000, seed=3),
        # a thin cap of |lambda| <= 100: about 1% of the draws are accepted
        lambda: verify_eq3(Q11, h=97.0, r=1.0, n=500, seed=5, window=100.0),
        lambda: verify_eq4(Quasipolynomial(3, 2), h=2.0, r=1.0, n=9_000, seed=5),
        lambda: verify_eq4(Quasipolynomial(2, -0.3j), h=1.0, r=1.0, n=4_000, seed=8,
                           printed_set=True),
        lambda: verify_eq4(Q11, h=1.5, r=1.0, n=3_000, seed=9, printed_set=False),
        lambda: estimate_c_delta(Q11, h=2.0, r=1.0, delta=0.5, nu_hi=30, n=3_000, seed=42),
        lambda: estimate_c_delta(Quasipolynomial(2, 0.8 - 0.6j), h=1.5, r=1.0, delta=0.1,
                                 nu_hi=60, n=1_500, seed=4),
        # both terms of f overflow binary64 at the worst sample
        lambda: verify_eq4(Quasipolynomial(1, 1e305), h=math.log(2e305) + 0.5, r=1,
                           n=20_000, seed=5, printed_set=True),
        # every draw has a subnormal x^2 + y^2, so no sample may be skipped
        lambda: verify_eq4(Q11, h=1.0, r=1e-162, n=1000, seed=1, window=1e-160),
        # several blocks each; at h = 45 every ratio is exactly 1.0, so the
        # worst point must be the very first draw
        lambda: verify_eq3(Q11, h=45.0, r=1.0, n=200_000, seed=11),
        lambda: verify_eq4(Quasipolynomial(2, 0.5 - 1j), h=2.0, r=1.0, n=300_000, seed=12),
        lambda: estimate_c_delta(Quasipolynomial(2, 0.8 - 0.6j), h=1.5, r=1.0, delta=0.1,
                                 nu_hi=200, n=150_000, seed=13),
    ])
    def test_identical_reports(self, call):
        ours, theirs = _ours_and_reference(call)
        assert ours == theirs
        assert repr(ours) == repr(theirs)

    @pytest.mark.parametrize("n, threshold", [
        (100, 0.0),  # the first chunk alone has more hits than needed
        (5_000, 0.0),  # the second chunk's hits are cut
        (20, 0.9996),  # about 1.6 hits per chunk, some chunks have none
        (150_000, 0.0),  # three blocks, the first two cut short of _BLOCK
    ])
    def test_sampler_matches(self, n, threshold):
        def accept(xs, ys, rr, half_log):
            return xs > threshold

        def draw(sampler):
            return sampler(bounds._philox(31), (-1.0, 1.0, -1.0, 1.0), 3, accept, n, "cap")

        sizes = [lam.size for lam, _ in draw(bounds._rejection_sample)]
        assert max(sizes) <= bounds._BLOCK and sum(sizes) == n
        ours, our_sig = _drawn(draw(bounds._rejection_sample))
        theirs, their_sig = draw(_reference_rejection_sample)
        assert ours.shape == (n,)
        assert np.array_equal(ours, theirs)
        assert np.array_equal(np.signbit(ours.real), np.signbit(theirs.real))
        assert np.array_equal(np.signbit(ours.imag), np.signbit(theirs.imag))
        assert np.array_equal(our_sig, their_sig)

    @pytest.mark.parametrize("side, normal", [
        (1e-160, 0.0),  # x^2 + y^2 below 1e-320 is subnormal
        (1e-153, 0.9825),  # subnormal within 1.49e-154 of the origin: 1.75% of draws
        (1e200, 0.0),  # x^2 + y^2 overflows
    ])
    def test_untrusted_sigma1_is_nan(self, side, normal):
        def accept(xs, ys, rr, half_log):
            return np.ones(xs.shape, dtype=bool)

        def draw(sampler):
            hull = (-side, side, -side, side)
            return sampler(bounds._philox(2), hull, 2, accept, 1000, "square")

        _, sig1 = _drawn(draw(bounds._rejection_sample))
        _, their_sig = draw(_reference_rejection_sample)
        assert np.array_equal(sig1, their_sig, equal_nan=True)
        assert np.isnan(sig1).mean() == pytest.approx(1.0 - normal, abs=0.01)
        assert not bounds._saturated(Q11, sig1, True)[np.isnan(sig1)].any()
        assert not bounds._saturated(Q11, sig1, False)[np.isnan(sig1)].any()

    def test_empty_region_same_error(self):
        def never(xs, ys, rr, half_log):
            return np.zeros(xs.shape, dtype=bool)

        messages = []
        for sampler in (lambda *args: _drawn(bounds._rejection_sample(*args)),
                        _reference_rejection_sample):
            with pytest.raises(EmptyRegionError) as err:
                sampler(bounds._philox(1), (0.0, 1.0, 0.0, 1.0), 1, never, 10, "nothing")
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def _traced_peak(call):
    """Peak bytes traced by tracemalloc while call() runs."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestSamplerMemory:
    """The samplers fold each block of points into a running minimum, so
    their memory does not grow with n."""

    @pytest.mark.parametrize("check", [
        lambda n: verify_eq3(Q11, h=1.5, r=1.0, n=n, seed=1),
        lambda n: verify_eq4(Q11, h=1.5, r=1.0, n=n, seed=1),
        lambda n: estimate_c_delta(Q11, h=2.0, r=1.0, delta=0.3, nu_hi=30, n=n, seed=1),
    ], ids=["eq3", "eq4", "eq7"])
    def test_peak_does_not_grow_with_n(self, check):
        check(100)  # first-call imports and caches are not the sampler's
        small = _traced_peak(lambda: check(10_000))
        large = _traced_peak(lambda: check(1_000_000))
        # the whole-array sampler traced 35 MB (eq3, eq4) and 154 MB (eq7) at n = 10^6
        assert large < 8e6
        assert large < 6 * small


def _mpmath_ratio(q, lam, alg):
    """|1 + e^(lambda - k Log lambda)/a| (alg) or |1 + a e^(k Log lambda - lambda)|
    at 40 digits, with no overflow or saturation at any |a|."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, a = mpmath.mpc(lam), mpmath.mpc(q.a)
        if alg:
            return float(abs(1 + mpmath.exp(lam - q.k * mpmath.log(lam)) / a))
        return float(abs(1 + a * mpmath.exp(q.k * mpmath.log(lam) - lam)))


class TestReportsAtExtremeCoefficients:
    """With |ln|a|| near 700 the worst sample sits where e^lambda or
    |a lambda^k| is outside binary64; min_ratio is still the true ratio."""

    def test_eq3_tiny_coefficient(self):
        q = Quasipolynomial(1, 1e-305)
        report = verify_eq3(q, h=math.log(2 / q.abs_a) + 0.5, r=1.0, n=20_000, seed=3)
        assert report.min_ratio == pytest.approx(
            _mpmath_ratio(q, report.worst_point, alg=True), rel=1e-9)
        assert report.passed

    def test_eq4_huge_coefficient(self):
        q = Quasipolynomial(2, 1e305)
        report = verify_eq4(q, h=math.log(2 * q.abs_a) + 0.5, r=1.0, n=20_000, seed=5)
        assert report.min_ratio == pytest.approx(
            _mpmath_ratio(q, report.worst_point, alg=False), rel=1e-9)
        assert report.passed

    def test_eq4_printed_set_fails(self):
        # sigma_2 > h contains zeros of f, so the sampled ratio drops below 1/2
        q = Quasipolynomial(1, 1e305)
        report = verify_eq4(q, h=math.log(2 * q.abs_a) + 0.5, r=1.0, n=20_000, seed=5,
                            printed_set=True)
        assert report.min_ratio == pytest.approx(
            _mpmath_ratio(q, report.worst_point, alg=False), rel=1e-9)
        assert report.min_ratio < 0.5
        assert report.passed is False

    def test_eq7_huge_coefficient(self):
        q = Quasipolynomial(1, 1e305)
        report = estimate_c_delta(q, h=math.log(1e305) + 1.0, r=1.0, delta=0.3, nu_hi=8,
                                  n=20_000, seed=2)
        assert report.min_ratio == pytest.approx(
            _mpmath_ratio(q, report.worst_point, alg=True), rel=1e-9)
        # the doubled-sample minimum over min_ratio, pinned bit for bit
        assert report.stability_ratio == 0.25976330293636785


def _corner_oracle(q, nu, h):
    """Corners recomputed from scratch: the two cut-line zeros from Lambert W,
    then bisect x - k*ln|x+iy| = level on each cut line."""
    offset = (math.pi + q.k * math.pi / 2 + q.arg_a) % (2 * math.pi)
    if offset == 0.0:
        offset = 2 * math.pi
    z_lo = lambert_w_chain_zero(q.k, q.a, nu)
    z_hi = lambert_w_chain_zero(q.k, q.a, nu + 1)
    corners = []
    for level, y in [
        (-h, z_lo.imag - offset),
        (h, z_lo.imag - offset),
        (h, z_hi.imag - offset),
        (-h, z_hi.imag - offset),
    ]:
        lim = abs(y) + abs(h) + 10
        x = bisect_root(
            lambda xx: xx - q.k * math.log(math.hypot(xx, y)) - level,
            -lim,
            lim,
            tol=1e-14,
        )
        corners.append(complex(x, y))
    return corners


class TestQuadrangle:
    def test_matches_direct_corner_computation(self):
        geom = quadrangle(Q11, 10, 2.0)
        oracle = _corner_oracle(Q11, 10, 2.0)
        for got, want in zip(geom.corners, oracle):
            assert abs(got - want) < 1e-8
        diag_oracle = max(
            abs(p - r) for i, p in enumerate(oracle) for r in oracle[i + 1 :]
        )
        assert geom.diag == pytest.approx(diag_oracle, rel=1e-9)

    def test_dimensions_near_asymptotic_shape(self):
        geom = quadrangle(Q11, 10, 2.0)
        bl, br, tr, tl = geom.corners
        assert tl.imag - bl.imag == pytest.approx(2 * math.pi, abs=0.1)
        assert br.real - bl.real == pytest.approx(4.0, abs=0.2)

    def test_diagonal_flattens_along_the_chain(self):
        limit = math.hypot(2 * math.pi, 2 * 2.0)
        d10 = quadrangle(Q11, 10, 2.0).diag
        d100 = quadrangle(Q11, 100, 2.0).diag
        assert abs(d100 - limit) / limit < 0.01
        assert abs(d100 - limit) < abs(d10 - limit)

    @pytest.mark.parametrize("q", [Q11, Quasipolynomial(2, 0.5 + 0.5j)])
    @pytest.mark.parametrize("nu", [5, 10, -5])
    def test_contains_its_zero_counterclockwise(self, q, nu):
        geom = quadrangle(q, nu, 2.0)
        zero = lambert_w_chain_zero(q.k, q.a, nu)
        assert point_in_polygon(zero, geom.corners)
        assert polygon_signed_area(geom.corners) > 0

    def test_degenerate_offset_alignment_still_brackets(self):
        # k=1, a=3i makes the raw cut offset exactly one full period, so the
        # cut lines run through the asymptotic zero heights; the true zeros
        # drift below the asymptote and the strip still brackets its own
        # zero with a strictly positive margin.
        q = Quasipolynomial(1, 3j)
        for nu in (5, 40):
            geom = quadrangle(q, nu, 2.0)
            zero = lambert_w_chain_zero(q.k, q.a, nu)
            assert point_in_polygon(zero, geom.corners)

    @pytest.mark.parametrize(
        "q, nu, h",
        [
            # cut at the neighbouring zeros, 6.29 above the branch zero
            (Quasipolynomial(57, complex(-2.9187253475711652e16, -7051242231281229.0)), 775, 40.0),
            # refining the cut zeros from their asymptotic seeds diverged
            (Quasipolynomial(4, 1), 5, 2.0),
            (Quasipolynomial(4, 1), -5, 2.0),
        ],
    )
    def test_cut_lines_bracket_the_branch_zero(self, q, nu, h):
        geom = quadrangle(q, nu, h)
        zero = lambert_w_chain_zero(q.k, q.a, nu)
        bl, _, _, tl = geom.corners
        assert bl.imag < zero.imag < tl.imag
        assert point_in_polygon(zero, geom.corners)

    @pytest.mark.parametrize("k", [125, 150, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_high_degree_cells(self, k, sign):
        # The corner solves must work at k up to 200, where the band edges
        # lie near Re = 1500, far from the imaginary axis.
        q = Quasipolynomial(k, 1)
        geom = quadrangle(q, sign * k, 1.0)
        for corner, level in zip(geom.corners, (-1.0, 1.0, 1.0, -1.0)):
            assert sigma(q, 1, corner) == pytest.approx(level, abs=1e-10)
        assert point_in_polygon(lambert_w_chain_zero(k, q.a, sign * k), geom.corners)
        assert polygon_signed_area(geom.corners) > 0
        assert math.isfinite(geom.diag)

    def test_enclosing_rectangle_counts_one_zero(self):
        geom = quadrangle(Q11, 10, 2.0)
        xs = [c.real for c in geom.corners]
        ys = [c.imag for c in geom.corners]
        rect = Rect(min(xs), max(xs), min(ys), max(ys))
        assert count_zeros_rect(Q11, rect).count == 1

    def test_validation(self):
        with pytest.raises(InvalidIndexError):
            quadrangle(Q11, 2, 2.0)
        with pytest.raises(InvalidQueryError):
            quadrangle(Quasipolynomial(1, 10), 10, 1.0)
        for h in (math.inf, math.nan):
            with pytest.raises(InvalidQueryError, match="^h must be finite"):
                quadrangle(Q11, 5, h)
