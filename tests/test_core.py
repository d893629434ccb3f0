"""Evaluation-layer tests: eval_f, eval_fprime, sigma, and the ratio family."""

from __future__ import annotations

import cmath
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasizero import (
    EXP_SATURATION,
    BoundaryZeroError,
    DerivativeVanishedError,
    EvalOverflowError,
    Quasipolynomial,
    RatioValue,
    ZeroArgumentError,
    enumerate_zeros,
    eval_f,
    eval_fprime,
    oracle,
    ratio_alg,
    ratio_exp,
    relative_magnitude,
    sigma,
    zeros,
)

GRID = [
    Quasipolynomial(1, 1),
    Quasipolynomial(1, -2),
    Quasipolynomial(2, 0.5 + 0.5j),
    Quasipolynomial(3, 3j),
]


class TestQuasipolynomial:
    def test_coefficient_properties(self):
        q = Quasipolynomial(2, 0.5 + 0.5j)
        assert q.abs_a == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert q.arg_a == pytest.approx(math.pi / 4, rel=1e-15)
        assert q.log_abs_a == pytest.approx(0.5 * math.log(0.5), rel=1e-15)
        assert q.conjugate().a == 0.5 - 0.5j

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            Quasipolynomial(0, 1)
        with pytest.raises(ValueError):
            Quasipolynomial(-1, 1)
        with pytest.raises(ValueError):
            Quasipolynomial(1.5, 1)
        with pytest.raises(ValueError):
            Quasipolynomial(True, 1)

    def test_rejects_bad_coefficient(self):
        with pytest.raises(ValueError):
            Quasipolynomial(1, 0)
        with pytest.raises(ValueError):
            Quasipolynomial(1, complex(math.nan, 0))
        with pytest.raises(ValueError):
            Quasipolynomial(1, complex(math.inf, 1))

    def test_hashable(self):
        assert Quasipolynomial(1, 1) == Quasipolynomial(1, 1 + 0j)
        assert len({Quasipolynomial(1, 1), Quasipolynomial(1, 1)}) == 1


class TestEvalF:
    def test_value_at_origin(self):
        # f(0) = e^0 + a*0^k = 1 for every k >= 1.
        assert eval_f(Quasipolynomial(1, 1), 0) == 1 + 0j
        assert eval_f(Quasipolynomial(2, -1), 0) == 1 + 0j

    def test_vanishes_at_bisection_root(self, omega):
        # omega is the independently bisected real zero of e^x + x.
        assert abs(eval_f(Quasipolynomial(1, 1), omega)) < 1e-12

    def test_matches_naive_sum_at_moderate_points(self):
        rng = random.Random(20240917)
        for q in GRID:
            for _ in range(500):
                lam = complex(rng.uniform(-30, 30), rng.uniform(-50, 50))
                naive = cmath.exp(lam) + q.a * lam**q.k
                scale = abs(cmath.exp(lam)) + q.abs_a * abs(lam) ** q.k
                assert abs(eval_f(q, lam) - naive) <= 1e-12 * scale

    def test_overflow_raises_with_context(self):
        q = Quasipolynomial(1, 1)
        with pytest.raises(EvalOverflowError) as exc:
            eval_f(q, 800)
        assert exc.value.lam == 800 + 0j
        assert exc.value.log_magnitude > 709

    def test_far_left_is_algebraic_term(self):
        # e^(-800) underflows to zero, leaving a*lambda^k exactly.
        f = eval_f(Quasipolynomial(1, 1), -800)
        assert abs(f - (-800)) < 1e-9

    def test_nonfinite_argument_rejected(self):
        q = Quasipolynomial(1, 1)
        with pytest.raises(ValueError):
            eval_f(q, complex(math.inf, 0))
        with pytest.raises(ValueError):
            eval_f(q, complex(0, math.nan))

    def test_huge_coefficient_cancellation(self):
        # With a = -1e308 both terms individually exceed binary64 near the
        # real zero of e^x - 1e308*x, yet their difference is representable.
        # The zero is located by the independent fixed point
        # x <- ln(1e308) + ln(x), which contracts at rate 1/x ~ 0.0014.
        q = Quasipolynomial(1, -1e308)
        x = 710.0
        for _ in range(60):
            x = math.log(1e308) + math.log(x)
        f = eval_f(q, x)
        assert cmath.isfinite(f)
        # The fixed point makes ln(1e308) + ln(x) = x, so e^x equals the
        # algebraic term and |f|/e^x is the relative residual; compare in
        # the log domain because e^x itself is not representable.
        assert math.exp(math.log(abs(f)) - x) < 1e-10
        # sigma_1 is beyond +-700 here, so the ratio forms saturate.
        assert ratio_alg(q, x).saturated
        # Away from the zero the true magnitude does exceed binary64.
        with pytest.raises(EvalOverflowError):
            eval_f(q, 716.5)


class TestEvalFprime:
    def test_values_at_origin(self):
        # f'(lambda) = e^lambda + a*k*lambda^(k-1); the k = 1 case keeps the
        # constant term at the origin.
        assert eval_fprime(Quasipolynomial(1, 1), 0) == 2 + 0j
        assert eval_fprime(Quasipolynomial(2, 3), 0) == 1 + 0j

    def test_value_at_bisection_root(self, omega):
        # At the zero, e^omega = -omega, so f'(omega) = 1 - omega.
        d = eval_fprime(Quasipolynomial(1, 1), omega)
        assert abs(d - (1 - omega)) < 1e-12

    def test_matches_central_difference(self):
        rng = random.Random(77)
        for q in GRID:
            for _ in range(250):
                lam = complex(rng.uniform(-25, 25), rng.uniform(-25, 25))
                h = 1e-6 * max(1.0, abs(lam))
                num = (eval_f(q, lam + h) - eval_f(q, lam - h)) / (2 * h)
                ana = eval_fprime(q, lam)
                scale = abs(cmath.exp(lam)) + q.abs_a * (abs(lam) + 1) ** q.k
                assert abs(num - ana) <= 1e-5 * max(abs(ana), 1e-5 * scale)


class TestSigma:
    def test_band_coordinates_at_real_point(self):
        q = Quasipolynomial(2, 5)
        lam = math.e
        assert sigma(q, 1, lam) == pytest.approx(math.e - 2.0, abs=1e-12)
        assert sigma(q, 2, lam) == pytest.approx(math.e + 2.0, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ZeroArgumentError):
            sigma(Quasipolynomial(1, 1), 1, 0)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            sigma(Quasipolynomial(1, 1), 3, 1.0)

    def test_zero_curve_level_at_bisection_root(self, omega):
        # Zeros satisfy sigma_1 = ln|a|; here ln|a| = 0.
        assert abs(sigma(Quasipolynomial(1, 1), 1, omega)) < 1e-12

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=300)
    def test_sides_sum_to_twice_real_part(self, x, y, k):
        lam = complex(x, y)
        if abs(lam) < 1e-12:
            return
        q = Quasipolynomial(k, 2 - 1j)
        total = sigma(q, 1, lam) + sigma(q, 2, lam)
        assert total == pytest.approx(2 * x, abs=1e-9 * max(1.0, abs(lam)))


class TestRatios:
    def test_ratio_alg_matches_naive_far_left(self):
        # At lambda = -10 both terms are tiny, so the naive quotient is an
        # independent check: |1 + e^lambda/(a*lambda^k)|.
        q = Quasipolynomial(1, 1)
        naive = abs(1 + cmath.exp(-10) / (1 * (-10)))
        assert ratio_alg(q, -10) == pytest.approx(naive, rel=1e-13)
        assert not ratio_alg(q, -10).saturated

    def test_ratio_exp_matches_naive_far_right(self):
        q = Quasipolynomial(1, 1)
        naive = abs(cmath.exp(20) + 20) / abs(cmath.exp(20))
        assert ratio_exp(q, 20) == pytest.approx(naive, rel=1e-12)

    def test_both_ratios_vanish_at_zero(self, omega):
        q = Quasipolynomial(1, 1)
        assert ratio_alg(q, omega) < 1e-12
        assert ratio_exp(q, omega) < 1e-12
        assert relative_magnitude(q, omega) < 1e-12

    def test_saturation_flags(self):
        q = Quasipolynomial(1, 1)
        for lam in (800, -800):
            for fn in (ratio_alg, ratio_exp):
                r = fn(q, lam)
                assert float(r) == 1.0
                assert r.saturated
        assert not ratio_alg(q, 1 + 1j).saturated
        assert not ratio_exp(q, 1 + 1j).saturated

    def test_ratio_alg_origin_rejected(self):
        with pytest.raises(ZeroArgumentError):
            ratio_alg(Quasipolynomial(1, 1), 0)

    def test_ratio_exp_defined_at_origin(self):
        # The algebraic term vanishes at 0 for k >= 1, so the quotient is 1.
        assert ratio_exp(Quasipolynomial(3, 2j), 0) == 1.0

    def test_ratio_value_is_a_float(self):
        r = RatioValue(0.5, saturated=True)
        assert isinstance(r, float)
        assert r.saturated
        assert r * 2 == 1.0
        assert not RatioValue(0.25).saturated

    def test_ratios_consistent_with_eval(self):
        # |f| reconstructed from either ratio must agree with eval_f to a
        # tolerance relative to the dominant-term scale.
        rng = random.Random(1234)
        for q in GRID:
            checked = 0
            while checked < 1500:
                lam = complex(rng.uniform(-30, 30), rng.uniform(-50, 50))
                if abs(lam) < 1e-6:
                    continue
                s1 = sigma(q, 1, lam)
                if abs(s1) > 20:
                    continue
                checked += 1
                abs_f = abs(eval_f(q, lam))
                alg_term = q.abs_a * abs(lam) ** q.k
                exp_term = math.exp(lam.real)
                scale = alg_term + exp_term
                assert abs(abs_f - alg_term * ratio_alg(q, lam)) <= 1e-12 * scale
                assert abs(abs_f - exp_term * ratio_exp(q, lam)) <= 1e-12 * scale

    def test_relative_magnitude_is_smaller_ratio(self):
        # |1 + w| and the smaller ratio are the same quantity rounded along
        # different paths; their gap is bounded by the rounding of the
        # exponent lambda - k Log lambda - Log a that both carry.  Its k-fold
        # log has modulus k |Log lambda|, not k |ln|lambda||: the argument of
        # lambda counts too, which matters for large k near |lambda| = 1
        rng = random.Random(99)
        q = Quasipolynomial(2, 0.5 + 0.5j)
        for _ in range(300):
            lam = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if abs(lam) < 1e-6:
                continue
            expected = min(ratio_alg(q, lam), ratio_exp(q, lam))
            scale = abs(lam) + q.k * abs(cmath.log(lam)) + abs(q.log_abs_a)
            assert abs(relative_magnitude(q, lam) - expected) <= 2.0**-52 * scale

    def test_relative_magnitude_at_origin_and_saturation(self):
        q = Quasipolynomial(1, 1)
        assert relative_magnitude(q, 0) == 1.0
        assert relative_magnitude(q, 800) == 1.0
        assert EXP_SATURATION == 700.0


def _reference_two_term_eval(coeff, log_coeff, power, lam):
    """core._two_term_eval before its stabilized path used core._dominant."""
    if lam == 0:
        return 1.0 + coeff if power == 0 else 1.0 + 0j
    t_exp = lam
    if power == 0:
        t_alg = log_coeff
    else:
        t_alg = log_coeff + power * cmath.log(lam)
    if t_exp.real <= EXP_SATURATION and t_alg.real <= EXP_SATURATION and abs(lam) < 1e300:
        if power == 0:
            return cmath.exp(lam) + coeff
        if power * math.log(abs(lam)) <= EXP_SATURATION:
            return cmath.exp(lam) + coeff * lam**power
    if t_exp.real >= t_alg.real:
        dom, sub = t_exp, t_alg
    else:
        dom, sub = t_alg, t_exp
    remainder = 1.0 + cmath.exp(sub - dom)
    if remainder == 0:
        return 0j
    log_magnitude = dom.real + math.log(abs(remainder))
    if log_magnitude > math.log(sys.float_info.max):
        raise EvalOverflowError(lam, log_magnitude)
    return cmath.exp(dom + cmath.log(remainder))


def _reference_phase_and_relmag(q, lam):
    """oracle._phase_and_relmag with its own copy of the dominant/sub split."""
    if lam == 0:
        return 0.0, 1.0
    t_exp = lam
    t_alg = q.log_a + q.k * cmath.log(lam)
    if t_exp.real >= t_alg.real:
        dom, sub = t_exp, t_alg
    else:
        dom, sub = t_alg, t_exp
    remainder = 1.0 + cmath.exp(sub - dom)
    relmag = abs(remainder)
    if relmag == 0.0:
        raise BoundaryZeroError("f vanished", point=lam, magnitude=0.0)
    return math.remainder(dom.imag + cmath.phase(remainder), math.tau), relmag


def _reference_newton_terms(q, lam):
    """zeros._newton_terms with its own copy of the dominant/sub split."""
    if lam == 0:
        num, term1, term2 = 1.0 + 0j, 1.0, q.a if q.k == 1 else 0.0
    else:
        t_alg = q.log_a + q.k * cmath.log(lam)
        if lam.real >= t_alg.real:
            u = cmath.exp(t_alg - lam)
            num, term1, term2 = 1.0 + u, 1.0, q.k * u / lam
        else:
            u = cmath.exp(lam - t_alg)
            num, term1, term2 = u + 1.0, u, q.k / lam
    den = term1 + term2
    if den == 0:
        raise DerivativeVanishedError("f' vanished")
    return abs(num), num / den, abs(den) / max(abs(term1), abs(term2))


def _outcome(fn, *args):
    """repr of the value, which tells -0.0 from 0.0, or the error raised."""
    try:
        return repr(fn(*args))
    except (EvalOverflowError, BoundaryZeroError, DerivativeVanishedError) as err:
        return type(err).__name__ + repr(getattr(err, "log_magnitude", None))


def _kernel_points(rng, n):
    """n seeded (q, lambda) pairs, a quarter from each family: near 0, near
    the zero curve, within 1e-8 relative of a chain zero, and Re lambda past
    700; k runs from 1 to 200, |a| from 1e-20 to 1e20 and |lambda| to 1e5."""
    for i in range(n):
        q = Quasipolynomial(
            round(math.exp(rng.uniform(0.0, math.log(200.0)))),
            cmath.rect(10.0 ** rng.uniform(-20.0, 20.0), rng.uniform(-math.pi, math.pi)),
        )
        family = i % 4
        if family == 0:
            lam = cmath.rect(10.0 ** rng.uniform(-300.0, 0.0), rng.uniform(-math.pi, math.pi))
        elif family == 1:
            y = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 5.0)
            x = q.log_abs_a + q.k * math.log(abs(y))
            for _ in range(5):  # onto sigma_1 = ln|a|, where the terms balance
                x = q.log_abs_a + q.k * math.log(abs(complex(x, y)))
            lam = complex(x + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, 0.0), y)
        elif family == 2:
            nu = rng.choice((-1, 1)) * rng.randint(max(5, q.k), 10_000)
            zero = enumerate_zeros(q, nu, nu)[0].refined
            lam = zero * (1.0 + cmath.rect(10.0 ** rng.uniform(-16.0, -8.0), rng.uniform(0, 6.3)))
        else:
            # log-spaced past 700, so that many land where f is representable
            lam = complex(
                700.0 + 10.0 ** rng.uniform(-3.0, 5.0),
                rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 5.0),
            )
        yield q, lam


class TestDominantKernel:
    """Every relative |f| and every stabilized value comes from core._dominant,
    bit for bit what each caller's own copy of the split gave."""

    def test_callers_match_their_former_split_bit_for_bit(self):
        rng = random.Random(9)
        checked = 0
        for q, lam in _kernel_points(rng, 40_000):
            coeff = q.a * q.k
            assert _outcome(eval_f, q, lam) == _outcome(
                _reference_two_term_eval, q.a, q.log_a, q.k, lam
            ), (q, lam)
            assert _outcome(eval_fprime, q, lam) == _outcome(
                _reference_two_term_eval, coeff, cmath.log(coeff), q.k - 1, lam
            ), (q, lam)
            assert _outcome(oracle._phase_and_relmag, q, lam) == _outcome(
                _reference_phase_and_relmag, q, lam
            ), (q, lam)
            assert _outcome(zeros._newton_terms, q, lam) == _outcome(
                _reference_newton_terms, q, lam
            ), (q, lam)
            checked += 1
        assert checked == 40_000

    def test_relative_magnitude_is_the_contour_and_newton_residual(self):
        rng = random.Random(10)
        for q, lam in _kernel_points(rng, 4_000):
            rm = relative_magnitude(q, lam)
            assert rm == zeros._newton_terms(q, lam)[0], (q, lam)
            if rm:
                assert rm == oracle._phase_and_relmag(q, lam)[1], (q, lam)
