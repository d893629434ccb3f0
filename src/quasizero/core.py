"""Overflow-safe evaluation of f(lambda) = e^lambda + a*lambda^k.

Everything downstream (region classification, refinement, contour counting,
sampled inequality checks) reduces to evaluating this two-term expression and
its derivative, plus a few exponent-domain quantities derived from them.  The
two terms have log-magnitudes Re(lambda) and ln|a| + k*ln|lambda|; whenever
either exceeds the binary64 exponent range the naive sum overflows even though
the mathematical value may be tiny (near a zero both terms cancel).  The
evaluators here factor out the dominant term and work with the bounded
remainder instead, so no intermediate overflows while the result is
representable.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import EvalOverflowError, InvalidQueryError, ZeroArgumentError

#: exp() arguments beyond +-700 are treated as saturated; ln(DBL_MAX) ~ 709.78,
#: so this keeps ~10 e-folds of headroom for the bounded remainder factor.
EXP_SATURATION = 700.0

_LN_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Quasipolynomial:
    """The coefficient pair (k, a) defining f(lambda) = e^lambda + a*lambda^k.

    k is a positive integer exponent and a is a nonzero finite complex
    coefficient.  Instances are immutable and hashable, so they can be shared
    freely between threads and used as cache keys.  The coefficient's
    logarithms are computed on first use and kept on the instance.
    """

    k: int
    a: complex

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidQueryError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        a = complex(self.a)
        if a == 0:
            raise InvalidQueryError("a must be nonzero")
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise InvalidQueryError(f"a must be finite, got {a!r}")
        if a.imag == 0.0:
            # Canonicalize a signed zero so arg(a) is +pi, not -pi, for
            # negative real coefficients (conjugating a real coefficient
            # must not flip the branch and shift the chain indexing).
            a = complex(a.real, 0.0)
        object.__setattr__(self, "a", a)

    @property
    def abs_a(self) -> float:
        return abs(self.a)

    @cached_property
    def arg_a(self) -> float:
        return cmath.phase(self.a)

    @cached_property
    def log_abs_a(self) -> float:
        """ln|a|, the real part of the zero curve sigma_1 = ln|a|."""
        return math.log(abs(self.a))

    @cached_property
    def log_a(self) -> complex:
        """Log a, the log of the algebraic term's coefficient in f."""
        return cmath.log(self.a)

    def conjugate(self) -> "Quasipolynomial":
        """Coefficient-conjugated twin; its zeros are the conjugated zeros."""
        return Quasipolynomial(self.k, self.a.conjugate())


def _require_finite(lam: complex) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    return lam


def _dominant(log_coeff: complex, power: int, lam: complex) -> tuple[complex, complex, bool]:
    """(dom, w, exp_dominates) for e^lambda + coeff*lambda^power at lambda != 0.

    dom is the complex log of the larger term (e^lambda on a tie) and
    w = exp(sub - dom) the smaller term over it, so the sum is
    exp(dom) * (1 + w) with |w| <= 1 and neither factor overflows at any
    finite lambda.  log_coeff is Log coeff; for power == 0 the second term
    is the constant coeff.  For integer powers exp(p*Log(lam)) equals lam**p
    exactly (the branch ambiguity is a multiple of 2*pi*i*p), so working in
    the log domain introduces no branch error.
    """
    t_alg = log_coeff + power * cmath.log(lam) if power else log_coeff
    if lam.real >= t_alg.real:
        return lam, cmath.exp(t_alg - lam), True
    return t_alg, cmath.exp(lam - t_alg), False


def _two_term_eval(coeff: complex, log_coeff: complex, power: int, lam: complex) -> complex:
    """e^lambda + coeff*lambda^power with the dominant term factored out.

    log_coeff is Log coeff and lambda must be finite.  power >= 0; for
    power == 0 the second term is the constant coeff (this is the k = 1
    derivative case, where the power-zero term must survive at lambda = 0).
    Raises EvalOverflowError only when the value itself exceeds binary64
    range.
    """
    if lam == 0:
        return 1.0 + coeff if power == 0 else 1.0 + 0j

    # Fast path: both terms individually representable with room to spare.
    if lam.real <= EXP_SATURATION and abs(lam) < 1e300:
        if power == 0:
            if log_coeff.real <= EXP_SATURATION:
                return cmath.exp(lam) + coeff
        elif (
            (log_coeff + power * cmath.log(lam)).real <= EXP_SATURATION
            and power * math.log(abs(lam)) <= EXP_SATURATION
        ):
            return cmath.exp(lam) + coeff * lam**power

    # Stabilized path: f = exp(dom) * (1 + w), with the remainder bounded by 2.
    dom, w, _ = _dominant(log_coeff, power, lam)
    remainder = 1.0 + w
    if remainder == 0:
        return 0j
    log_magnitude = dom.real + math.log(abs(remainder))
    if log_magnitude > _LN_DBL_MAX:
        raise EvalOverflowError(lam, log_magnitude)
    return cmath.exp(dom + cmath.log(remainder))


def eval_f(q: Quasipolynomial, lam: complex) -> complex:
    """f(lambda) = e^lambda + a*lambda^k.

    Raises EvalOverflowError when |f(lambda)| exceeds binary64 range; never
    returns inf or nan for finite input.
    """
    lam = _require_finite(lam)
    return _two_term_eval(q.a, q.log_a, q.k, lam)


def eval_fprime(q: Quasipolynomial, lam: complex) -> complex:
    """f'(lambda) = e^lambda + a*k*lambda^(k-1), same overflow contract."""
    lam = _require_finite(lam)
    coeff = q.a * q.k
    return _two_term_eval(coeff, cmath.log(coeff), q.k - 1, lam)


def sigma(q: Quasipolynomial, s: int, lam: complex) -> float:
    """Band coordinate sigma_S = Re(lambda) + (-1)^S * k * ln|lambda|.

    S = 1 gives Re(lambda) - k*ln|lambda|, whose level set sigma_1 = ln|a|
    carries every zero (|e^lambda| = |a||lambda|^k there).  S = 2 gives the
    mirrored coordinate; the two always sum to 2*Re(lambda).
    """
    if s not in (1, 2):
        raise ValueError(f"S must be 1 or 2, got {s!r}")
    lam = _require_finite(lam)
    if lam == 0:
        raise ZeroArgumentError("sigma is undefined at lambda = 0")
    return lam.real + (-1) ** s * q.k * math.log(abs(lam))


def relative_magnitude(q: Quasipolynomial, lam: complex) -> float:
    """|f(lambda)| / max(|e^lambda|, |a*lambda^k|), overflow-safe.

    This is the residual measure used for certification: it is 0 exactly at a
    zero, ~1 far from the zero curve, and computable at any finite lambda.
    It is |1 + w| with w the smaller term over the larger (_dominant), the
    same value the contour walk and newton_refine compute: the smaller of
    |f|/|a lambda^k| and |f|/|e^lambda|, with no saturation at any finite
    lambda.
    """
    lam = _require_finite(lam)
    if lam == 0:
        return 1.0  # f(0) = 1 and the dominant term is e^0 = 1
    return abs(1.0 + _dominant(q.log_a, q.k, lam)[1])
