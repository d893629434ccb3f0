"""Enumeration and refinement of the zero chain of f(lambda) = e^lambda + a*lambda^k.

Away from the origin the zeros form two chains marching up and down the
logarithmic band, one zero per branch of the equation
lambda - k*Log(lambda) = ln|a| + i*(arg a + pi + 2*pi*nu).  The closed-form
seed for branch nu >= 1 is

    ln(|a| * (2*pi*nu)^k) + i*(2*pi*nu + pi + arg a + k*pi/2)

with error O(ln nu / nu).  Negative indices are defined by mirror symmetry:
the nu < 0 chain of coefficient a is the conjugate of the nu > 0 chain of
conj(a), which keeps conjugate pairs aligned (refined(-nu) == conj(refined(nu))
whenever a is real) and works verbatim for complex coefficients.

Each seed is polished two independent ways (a contracting fixed-point map and
Newton) and certified by the contour oracle downstream.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from .core import (
    Quasipolynomial,
    _log_or_none,
    _relative_magnitude,
    _require_finite,
    _two_term_eval,
)
from .errors import (
    CertificationError,
    DegenerateZeroError,
    DerivativeVanishedError,
    DivergedError,
    DuplicateZeroError,
    InvalidIndexError,
    InvalidQueryError,
    NonConsecutiveError,
    NotConvergedError,
)
from .oracle import Rect, count_zeros_disk, isolate_zeros

logger = logging.getLogger(__name__)

TWO_PI = math.tau

#: Newton stops when the relative residual |f| / max-term drops below this
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

#: Newton iterates must stay within this distance of their seed
NEWTON_TRUST_RADIUS = 5.0

#: fixed-point refinement stops when the step length drops below this
FIXEDPOINT_TOL = 1e-13
FIXEDPOINT_MAX_ITER = 100

#: a converged zero with relative |f'| below this is flagged as degenerate
DEGENERATE_FPRIME_TOL = 1e-8

#: two records closer than this are considered the same zero
DUPLICATE_TOL = 1e-6

#: Newton switches to the dominant-term-divided update beyond this |sigma_1|
_STABILIZED_SIGMA = 50.0


@dataclass(frozen=True)
class ZeroRecord:
    """One refined zero with its seed and its per-refiner certificates."""

    nu: int | None
    guess: complex
    refined: complex
    residual: float
    newton_iters: int
    fixedpoint_iters: int


@dataclass(frozen=True)
class SpacingGap:
    """Distance between the zeros of indices nu and nu + 1."""

    nu: int
    gap: float
    deviation: float


@dataclass(frozen=True)
class SpacingReport:
    """Consecutive-zero gaps and how fast they approach 2*pi.

    decay_ratio compares the mean deviation over gaps starting near nu = 100
    (indices 96..100) with the mean near nu = 10 (indices 10..14); it is None
    when the record range covers neither window.
    """

    gaps: tuple[SpacingGap, ...]
    max_deviation_from_nu_10: float | None
    decay_ratio: float | None


def nu_min(q: Quasipolynomial) -> int:
    """Smallest |nu| the asymptotic machinery is trusted for: max(5, k)."""
    return max(5, q.k)


def asymptotic_guess(q: Quasipolynomial, nu: int) -> complex:
    """Closed-form seed for the zero of branch nu (nu != 0).

    For nu >= 1 this is ln(|a|*(2*pi*nu)^k) + i*(2*pi*nu + pi + arg a + k*pi/2);
    nu <= -1 mirrors the positive chain of the conjugated coefficient.  The
    real part approaches the on-curve value: sigma_1 of the true zero is
    exactly ln|a|.
    """
    if not isinstance(nu, int) or isinstance(nu, bool):
        raise InvalidIndexError(f"nu must be an integer, got {nu!r}")
    if nu == 0:
        raise InvalidIndexError("nu = 0 does not index a chain zero")
    if nu < 0:
        return _positive_guess(q.conjugate(), -nu).conjugate()
    return _positive_guess(q, nu)


def _positive_guess(q: Quasipolynomial, nu: int) -> complex:
    """asymptotic_guess for nu >= 1, without argument checks."""
    re = q.log_abs_a + q.k * math.log(TWO_PI * nu)
    im = TWO_PI * nu + math.pi + q.arg_a + q.k * math.pi / 2.0
    return complex(re, im)


def _fixedpoint_branch(
    q: Quasipolynomial, mirror: Quasipolynomial, nu: int, max_iter: int, tol: float
) -> tuple[complex, complex, int]:
    """(asymptotic seed, fixed-point zero, steps taken) for branch nu != 0.

    mirror is q.conjugate(); branch nu < 0 is the conjugated branch -nu of it.
    """
    if nu < 0:
        seed, lam, iters = _fixedpoint_branch(mirror, q, -nu, max_iter, tol)
        return seed.conjugate(), lam.conjugate(), iters
    seed = _positive_guess(q, nu)
    anchor = 2j * math.pi * nu
    const = q.log_abs_a + 1j * (q.arg_a + math.pi)
    xi = seed - anchor
    for iteration in range(1, max_iter + 1):
        nxt = const + q.k * cmath.log(anchor + xi)
        if abs(nxt - xi) < tol:
            return seed, anchor + nxt, iteration
        xi = nxt
    raise NotConvergedError(
        f"fixed-point refinement for nu = {nu} did not converge in {max_iter} steps",
        last=anchor + xi,
        iterations=max_iter,
    )


def fixedpoint_refine(
    q: Quasipolynomial,
    nu: int,
    max_iter: int = FIXEDPOINT_MAX_ITER,
    tol: float = FIXEDPOINT_TOL,
) -> complex:
    """Refine branch nu by iterating xi <- c + k*Log(2*pi*nu*i + xi).

    Here c = ln|a| + i*(arg a + pi) and the iteration starts from the
    asymptotic seed; the map contracts like k/(2*pi*|nu|).  Negative nu uses
    the conjugate-mirror chain.  Raises NotConvergedError with the last
    iterate attached if the step never drops below tol.
    """
    if not isinstance(nu, int) or isinstance(nu, bool):
        raise InvalidIndexError(f"nu must be an integer, got {nu!r}")
    if abs(nu) < nu_min(q):
        raise InvalidIndexError(
            f"|nu| must be >= nu_min = {nu_min(q)}, got {nu}"
        )
    return _fixedpoint_branch(q, q.conjugate(), nu, max_iter, tol)[1]


def _newton_step(q: Quasipolynomial, lam: complex, log_lam: complex | None) -> complex:
    """f/f' with the dominant term divided out when far from the zero curve.

    lam is finite and log_lam is Log lam (None at lam = 0).
    """
    if lam != 0:
        sig1 = lam.real - q.k * math.log(abs(lam))  # sigma_1
        if abs(sig1) > _STABILIZED_SIGMA:
            t_exp = lam
            t_alg = q.log_a + q.k * log_lam
            if t_exp.real >= t_alg.real:
                u = cmath.exp(t_alg - t_exp)  # a*lambda^k / e^lambda
                numerator = 1.0 + u
                denominator = 1.0 + q.k * u / lam
            else:
                v = cmath.exp(t_exp - t_alg)  # e^lambda / (a*lambda^k)
                numerator = v + 1.0
                denominator = v + q.k / lam
            if denominator == 0:
                raise DerivativeVanishedError(f"f' vanished near {lam!r}")
            return numerator / denominator
    f = _two_term_eval(q.a, q.log_a, q.k, lam, log_lam)
    fp = _two_term_eval(q.a * q.k, q.log_ak, q.k - 1, lam, log_lam)
    if abs(fp) < 1e-300:
        raise DerivativeVanishedError(f"|f'({lam!r})| = {abs(fp):.3e}")
    return f / fp


def _relative_fprime(q: Quasipolynomial, lam: complex, log_lam: complex | None) -> float:
    """|f'| relative to the larger of its two terms (degeneracy detector)."""
    if lam == 0:
        return abs(_two_term_eval(q.a * q.k, q.log_ak, q.k - 1, lam, log_lam))
    t_exp = lam
    if q.k == 1:
        t_alg = q.log_ak
    else:
        t_alg = q.log_ak + (q.k - 1) * log_lam
    if t_exp.real >= t_alg.real:
        dom, sub = t_exp, t_alg
    else:
        dom, sub = t_alg, t_exp
    return abs(1.0 + cmath.exp(sub - dom))


def newton_refine(
    q: Quasipolynomial,
    seed: complex,
    max_iter: int = NEWTON_MAX_ITER,
    tol: float = NEWTON_TOL,
) -> ZeroRecord:
    """Newton iteration on f from the given seed.

    Stops when the relative residual |f| / max(|e^lambda|, |a*lambda^k|)
    drops below tol; a seed that already satisfies this returns with zero
    iterations.  Raises DivergedError when an iterate leaves the disk of
    radius 5 around the seed, DerivativeVanishedError on |f'| ~ 0, and
    DegenerateZeroError when the converged zero has relative |f'| < 1e-8
    (the zero may not be simple).
    """
    seed = _require_finite(seed)
    lam = seed
    log_lam = _log_or_none(lam)
    residual = _relative_magnitude(q, lam, log_lam)
    iters = 0
    while residual >= tol:
        if iters >= max_iter:
            raise NotConvergedError(
                f"Newton did not reach residual {tol:g} in {max_iter} steps "
                f"(residual {residual:.3e})",
                last=lam,
                iterations=iters,
            )
        lam = lam - _newton_step(q, lam, log_lam)
        if abs(lam - seed) > NEWTON_TRUST_RADIUS:
            raise DivergedError(
                f"iterate {lam!r} left the trust disk of radius "
                f"{NEWTON_TRUST_RADIUS} around seed {seed!r}"
            )
        iters += 1
        lam = _require_finite(lam)
        log_lam = _log_or_none(lam)
        residual = _relative_magnitude(q, lam, log_lam)
    if _relative_fprime(q, lam, log_lam) < DEGENERATE_FPRIME_TOL:
        raise DegenerateZeroError(
            f"zero at {lam!r} has relative |f'| < {DEGENERATE_FPRIME_TOL:g}; "
            "it may have multiplicity > 1"
        )
    return ZeroRecord(
        nu=None,
        guess=seed,
        refined=lam,
        residual=residual,
        newton_iters=iters,
        fixedpoint_iters=0,
    )


#: the two refiners must land this close together, else the Newton run is
#: suspected of capturing a neighbouring zero
_REFINER_AGREEMENT_TOL = 1e-6


def enumerate_zeros(q: Quasipolynomial, nu_lo: int, nu_hi: int) -> list[ZeroRecord]:
    """One converged, cross-checked ZeroRecord per admissible nu in [nu_lo, nu_hi].

    Indices with |nu| < nu_min(q) (including nu = 0) are skipped.  Each kept
    index is seeded with the asymptotic guess, refined independently by the
    fixed-point map and by Newton, and the two results must agree; the Newton
    result is recorded.  Records are sorted by Im and guarded against
    collapse (DuplicateZeroError if two land within 1e-6).
    """
    if not (isinstance(nu_lo, int) and isinstance(nu_hi, int)):
        raise InvalidQueryError(f"nu range must be integers, got {nu_lo!r}..{nu_hi!r}")
    if nu_lo > nu_hi:
        raise InvalidQueryError(f"empty nu range {nu_lo}..{nu_hi}")
    floor = nu_min(q)
    skipped = [nu for nu in range(nu_lo, nu_hi + 1) if abs(nu) < floor]
    if skipped:
        logger.info(
            "skipping %d chain indices with |nu| < %d (%d..%d); use small_zeros "
            "for the inner disk", len(skipped), floor, skipped[0], skipped[-1],
        )
    mirror = q.conjugate()
    records: list[ZeroRecord] = []
    for nu in range(nu_lo, nu_hi + 1):
        if abs(nu) < floor:
            continue
        guess, fp_lam, fp_iters = _fixedpoint_branch(
            q, mirror, nu, FIXEDPOINT_MAX_ITER, FIXEDPOINT_TOL
        )
        rec = newton_refine(q, guess)
        if abs(rec.refined - fp_lam) > _REFINER_AGREEMENT_TOL:
            raise CertificationError(
                f"refiners disagree at nu = {nu}: Newton {rec.refined!r} vs "
                f"fixed point {fp_lam!r}"
            )
        records.append(
            ZeroRecord(
                nu=nu,
                guess=rec.guess,
                refined=rec.refined,
                residual=rec.residual,
                newton_iters=rec.newton_iters,
                fixedpoint_iters=fp_iters,
            )
        )
    records.sort(key=lambda r: r.refined.imag)
    for a, b in zip(records, records[1:]):
        d = abs(a.refined - b.refined)
        if d < DUPLICATE_TOL:
            raise DuplicateZeroError(a.nu, b.nu, d)
    return records


def spacing_report(records: list[ZeroRecord]) -> SpacingReport:
    """Gaps |lambda_(nu+1) - lambda_nu| and their deviation from 2*pi.

    Requires records with consecutive, ascending nu (NonConsecutiveError
    otherwise); fewer than two records give an empty report.
    """
    if any(r.nu is None for r in records):
        raise NonConsecutiveError("spacing needs records with nu set")
    if len(records) < 2:
        return SpacingReport(gaps=(), max_deviation_from_nu_10=None, decay_ratio=None)
    for a, b in zip(records, records[1:]):
        if b.nu != a.nu + 1:
            raise NonConsecutiveError(
                f"records jump from nu = {a.nu} to nu = {b.nu}"
            )
    gaps = tuple(
        SpacingGap(
            nu=a.nu,
            gap=abs(b.refined - a.refined),
            deviation=abs(abs(b.refined - a.refined) - TWO_PI),
        )
        for a, b in zip(records, records[1:])
    )
    tail = [g.deviation for g in gaps if g.nu >= 10]
    max_dev = max(tail) if tail else None
    near10 = [g.deviation for g in gaps if 10 <= g.nu <= 14]
    near100 = [g.deviation for g in gaps if 96 <= g.nu <= 100]
    ratio = None
    if near10 and near100:
        mean10 = sum(near10) / len(near10)
        if mean10 > 0:
            ratio = (sum(near100) / len(near100)) / mean10
    return SpacingReport(gaps=gaps, max_deviation_from_nu_10=max_dev, decay_ratio=ratio)


def small_zeros(q: Quasipolynomial, radius: float) -> list[complex]:
    """All zeros with |lambda| <= radius, certified by a disk contour count.

    Quadtree isolation over the bounding square yields one-zero boxes; each
    box center is polished by Newton, results outside the disk are dropped,
    and the survivors must match the disk count exactly.  Oracle errors
    (boundary zeros, exhausted depth) propagate so the caller can adjust the
    radius.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise InvalidQueryError(f"radius must be finite and > 0, got {radius!r}")
    square = Rect(-radius, radius, -radius, radius)
    eps = min(0.5, radius)
    zeros: list[complex] = []
    for box in isolate_zeros(q, square, eps):
        rec = newton_refine(q, box.center)
        if not box.contains(rec.refined, pad=0.1 * box.diameter):
            raise CertificationError(
                f"Newton left its isolation box: seed {box.center!r} "
                f"-> {rec.refined!r}"
            )
        if abs(rec.refined) <= radius:
            zeros.append(rec.refined)
    certified = count_zeros_disk(q, 0j, radius)
    if certified.count != len(zeros):
        raise CertificationError(
            f"disk count {certified.count} != {len(zeros)} refined zeros "
            f"inside |lambda| <= {radius}"
        )
    zeros.sort(key=lambda z: (z.imag, z.real))
    return zeros
