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

With lambda = 2*pi*i*nu + xi and c = ln|a| + i*(arg a + pi), branch nu >= 1
is g(xi) = xi - c - k*Log(2*pi*i*nu + xi) = 0.  Each chain seed is polished
on that equation two independent ways, by the contracting fixed-point map
xi <- c + k*Log(2*pi*i*nu + xi) and by Newton on g, and the two must agree.
Neither evaluates f, so neither can overflow, and the branch fixes which zero
is found.

newton_refine is Newton on f itself, for seeds with no chain index (the
small_zeros box centres and user seeds).  A free zero may lie on the branch
cut of Log, where no single branch equation holds along the iteration, so it
keeps the z-form with a trust disk around the seed.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from .core import Quasipolynomial, _dominant, _require_finite, relative_magnitude
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

#: newton_refine stops when the relative residual |f| / max-term drops below this
NEWTON_TOL = 1e-12
#: step budget of both Newton iterations, on f and on a branch equation
NEWTON_MAX_ITER = 50

#: newton_refine also stops after a step of at most this many units of
#: |lambda| (4 ulps): rounding lambda alone leaves a relative |f| near
#: |lambda| * 2**-53, which is above NEWTON_TOL once |lambda| is above a few
#: thousand
_NEWTON_STEP_ULPS = 4 * 2.0**-52

#: newton_refine iterates must stay within this distance of their seed
NEWTON_TRUST_RADIUS = 5.0

#: fixed-point refinement stops when the step length drops below this
FIXEDPOINT_TOL = 1e-13
FIXEDPOINT_MAX_ITER = 100

#: a converged zero with relative |f'| below this is flagged as degenerate
DEGENERATE_FPRIME_TOL = 1e-8

#: two records closer than this are considered the same zero
DUPLICATE_TOL = 1e-6

#: Newton on a branch equation stops after a step shorter than this times
#: max(1, |xi|)
_BRANCH_STEP_TOL = 1e-10


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


def _refine_branch(
    q: Quasipolynomial,
    mirror: Quasipolynomial,
    nu: int,
    fp_max_iter: int,
    fp_tol: float,
) -> tuple[complex, complex, int, complex, int]:
    """(seed, fixed-point zero, its steps, Newton zero, its steps) for branch nu != 0.

    Both refiners solve g(xi) = 0 (module docstring) from the asymptotic seed.
    mirror is q.conjugate(); branch nu < 0 is the conjugated branch -nu of it,
    and a NotConvergedError names nu and the last iterate on branch nu itself.
    """
    conj = nu < 0
    p = mirror if conj else q
    seed = _positive_guess(p, abs(nu))
    anchor = 2j * math.pi * abs(nu)
    const = p.log_abs_a + 1j * (p.arg_a + math.pi)

    xi = seed - anchor
    for fp_iters in range(1, fp_max_iter + 1):
        nxt = const + p.k * cmath.log(anchor + xi)
        if abs(nxt - xi) < fp_tol:
            break
        xi = nxt
    else:
        raise NotConvergedError(
            f"fixed-point refinement for nu = {nu} did not converge in {fp_max_iter} steps",
            last=(anchor + xi).conjugate() if conj else anchor + xi,
            iterations=fp_max_iter,
        )
    fp_lam = anchor + nxt

    # Newton on g needs no trust disk and no degeneracy test: g' = 1 - k/lambda,
    # and |lambda| > 2*pi*|nu| >= 2*pi*k near the zero, so g' stays away from 0.
    xi = seed - anchor
    for nw_iters in range(1, NEWTON_MAX_ITER + 1):
        lam = anchor + xi
        step = (xi - const - p.k * cmath.log(lam)) / (1.0 - p.k / lam)
        xi -= step
        if abs(step) < _BRANCH_STEP_TOL * max(1.0, abs(xi)):
            lam = anchor + xi
            if conj:
                return seed.conjugate(), fp_lam.conjugate(), fp_iters, lam.conjugate(), nw_iters
            return seed, fp_lam, fp_iters, lam, nw_iters
    raise NotConvergedError(
        f"Newton on the branch equation for nu = {nu} did not converge in "
        f"{NEWTON_MAX_ITER} steps",
        last=(anchor + xi).conjugate() if conj else anchor + xi,
        iterations=NEWTON_MAX_ITER,
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
    return _refine_branch(q, q.conjugate(), nu, max_iter, tol)[1]


def _newton_terms(q: Quasipolynomial, lam: complex) -> tuple[float, complex, float]:
    """(relative |f|, Newton step f/f', relative |f'|) at a finite lambda.

    Both f and f' are divided by the larger of e^lambda and a*lambda^k, so
    the one exp of the smaller term over the larger (core._dominant) gives
    all three without overflow.  Relative |f'| is |f'| over the larger of
    its own two terms.
    """
    if lam == 0:
        # f(0) = 1, and f'(0) keeps the constant term a only when k = 1
        num, term1, term2 = 1.0 + 0j, 1.0, q.a if q.k == 1 else 0.0
    else:
        _, w, exp_dominates = _dominant(q.log_a, q.k, lam)
        num = 1.0 + w
        if exp_dominates:  # w = a*lambda^k / e^lambda
            term1, term2 = 1.0, q.k * w / lam
        else:  # w = e^lambda / (a*lambda^k)
            term1, term2 = w, q.k / lam
    den = term1 + term2
    if den == 0:
        raise DerivativeVanishedError(f"f' vanished near {lam!r}")
    return abs(num), num / den, abs(den) / max(abs(term1), abs(term2))


def newton_refine(
    q: Quasipolynomial,
    seed: complex,
    max_iter: int = NEWTON_MAX_ITER,
    tol: float = NEWTON_TOL,
) -> ZeroRecord:
    """Newton iteration on f itself from a free seed.

    This is the refiner for seeds that carry no chain index: the small_zeros
    box centres and user seeds.  It works on f rather than on a branch
    equation because a free zero may sit on the branch cut of Log: the zero
    -0.567 of e^lambda + lambda is on the negative real axis, where the
    branch index of its iterates jumps by k from one step to the next.

    Stops when the relative residual |f| / max(|e^lambda|, |a*lambda^k|)
    drops below tol, or right after a step of at most 4 ulps of |lambda|,
    where the residual has reached its float floor; a seed that already
    satisfies the residual gate returns with zero iterations.  Raises
    DivergedError when an iterate leaves the disk of radius 5 around the
    seed, DerivativeVanishedError when f' vanishes, and
    DegenerateZeroError when the converged zero has relative |f'| < 1e-8
    (the zero may not be simple).
    """
    seed = _require_finite(seed)
    lam = seed
    residual, step, rel_fprime = _newton_terms(q, lam)
    iters = 0
    while residual >= tol:
        if iters >= max_iter:
            raise NotConvergedError(
                f"Newton did not reach residual {tol:g} in {max_iter} steps "
                f"(residual {residual:.3e})",
                last=lam,
                iterations=iters,
            )
        lam = lam - step
        if abs(lam - seed) > NEWTON_TRUST_RADIUS:
            raise DivergedError(
                f"iterate {lam!r} left the trust disk of radius "
                f"{NEWTON_TRUST_RADIUS} around seed {seed!r}"
            )
        iters += 1
        lam = _require_finite(lam)
        floor = abs(step) <= _NEWTON_STEP_ULPS * abs(lam)
        residual, step, rel_fprime = _newton_terms(q, lam)
        if floor:
            break
    if rel_fprime < DEGENERATE_FPRIME_TOL:
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
    index is seeded with the asymptotic guess and refined on its branch
    equation g(xi) = xi - c - k*Log(2*pi*i*nu + xi) = 0 (see the module
    docstring) independently by the fixed-point map and by Newton on g; the
    two must agree within 1e-6 (CertificationError otherwise), and the Newton
    zero is recorded with residual = relative_magnitude(q, zero).  Either
    refiner past its step budget raises NotConvergedError.  Records are
    sorted by Im and guarded against collapse (DuplicateZeroError if two land
    within 1e-6).
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
        guess, fp_lam, fp_iters, lam, nw_iters = _refine_branch(
            q, mirror, nu, FIXEDPOINT_MAX_ITER, FIXEDPOINT_TOL
        )
        if abs(lam - fp_lam) > _REFINER_AGREEMENT_TOL:
            raise CertificationError(
                f"refiners disagree at nu = {nu}: Newton {lam!r} vs "
                f"fixed point {fp_lam!r}"
            )
        records.append(
            ZeroRecord(
                nu=nu,
                guess=guess,
                refined=lam,
                residual=relative_magnitude(q, lam),
                newton_iters=nw_iters,
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
