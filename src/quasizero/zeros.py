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
by Newton on g, which never evaluates f, so it cannot overflow, and the
branch fixes which zero is found.  A Rouche test against the linear Taylor
model of g at the converged zero then proves a disk around it that holds
exactly one zero of branch nu; its radius is recorded.

small_zeros takes its zeros from the Lambert-W seeds of quasizero.seeds,
each proven by a Rouche disk on f, and certifies the list with one disk
count.  newton_refine is Newton on f itself, for user seeds with no chain
index.  A free zero may lie on the branch cut of Log, where no single branch
equation holds along the iteration, so it keeps the z-form with a trust disk
around the seed.

_collect_band_zeros joins the chain and the small zeros below it into the
band's zero set, which the punctured-band floor of quasizero.bounds samples
around.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from .core import Quasipolynomial, _require_finite, relative_magnitude
from .errors import (
    BoundaryZeroError,
    CertificationError,
    DegenerateZeroError,
    DepthExceededError,
    DivergedError,
    DuplicateZeroError,
    InvalidIndexError,
    InvalidQueryError,
    NonConsecutiveError,
    NotConvergedError,
    _check_positive,
)
from .oracle import count_zeros_disk
from .seeds import _ROUCHE_ERR, _newton_terms, _proven_zeros

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

#: a converged zero with relative |f'| below this is flagged as degenerate
DEGENERATE_FPRIME_TOL = 1e-8

#: two records closer than this are considered the same zero
DUPLICATE_TOL = 1e-6

#: Newton on a branch equation stops after a step shorter than this times
#: max(1, |xi|)
_BRANCH_STEP_TOL = 1e-10

#: the small-zero disk of _collect_band_zeros ends this far inside the outer
#: chain zero of index +-nu_min, and moves inward by as much per retry
SMALL_DISK_MARGIN = 0.5


@dataclass(frozen=True)
class ZeroRecord:
    """One refined zero with its seed, its Newton steps and its proof radius.

    radius is proven for chain records: the disk of that radius around
    refined holds exactly one zero of branch nu, so it bounds the distance
    to the true zero.  It is None on newton_refine records.
    fixedpoint_iters is always 0; bench/spans.py still sums it.
    """

    nu: int | None
    guess: complex
    refined: complex
    residual: float
    newton_iters: int
    radius: float | None
    fixedpoint_iters: int = 0


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
    q: Quasipolynomial, mirror: Quasipolynomial, nu: int
) -> tuple[complex, complex, int, float]:
    """(seed, zero, Newton steps, proven radius) for branch nu != 0.

    Newton solves g(xi) = 0 (module docstring) from the asymptotic seed.
    mirror is q.conjugate(); branch nu < 0 is the conjugated branch -nu of it,
    and an error names nu and, if it carries one, the last iterate on branch
    nu itself.  A converged zero with no Rouche disk raises CertificationError.
    """
    conj = nu < 0
    p = mirror if conj else q
    seed = _positive_guess(p, abs(nu))
    anchor = 2j * math.pi * abs(nu)
    const = p.log_abs_a + 1j * (p.arg_a + math.pi)

    # Newton on g needs no trust disk and no degeneracy test: g' = 1 - k/lambda,
    # and |lambda| > 2*pi*|nu| >= 2*pi*k near the zero, so g' stays away from 0.
    xi = seed - anchor
    for nw_iters in range(1, NEWTON_MAX_ITER + 1):
        lam = anchor + xi
        step = (xi - const - p.k * cmath.log(lam)) / (1.0 - p.k / lam)
        xi -= step
        if abs(step) < _BRANCH_STEP_TOL * max(1.0, abs(xi)):
            break
    else:
        raise NotConvergedError(
            f"Newton on the branch equation for nu = {nu} did not converge in "
            f"{NEWTON_MAX_ITER} steps",
            last=(anchor + xi).conjugate() if conj else anchor + xi,
            iterations=NEWTON_MAX_ITER,
        )
    lam = anchor + xi

    # Rouche on D(lam, r) for G(z) = z - k*Log(z) - C, C = anchor + const, and
    # its linear model L(z) = G(lam) + G'(lam)*(z - lam).  r < Im lam keeps the
    # disk in the upper half-plane, where Log is analytic, and gives
    # r < |lam|; there |G''| = k/|z|^2 <= k/(|lam| - r)^2, so on the circle
    # |G - L| <= r^2*k/(2*(|lam| - r)^2) while |L| >= |G'|*r - |G| - err.
    # When the first is smaller, G has L's one zero in the disk.  After the
    # Newton stop |G| is at most about 1e-10*|xi|, which puts the quadratic
    # side below 1e-9 of the linear one, |G| + err: the few u by which G', r
    # and the test itself round cannot turn a miss into a pass.
    log_lam = cmath.log(lam)
    g = abs((lam - anchor) - const - p.k * log_lam)  # |G(lam)|
    dg = abs(1.0 - p.k / lam)  # |G'(lam)|
    mod = abs(lam)
    # err bounds the rounding of the computed G, per unit of |lambda| +
    # k*|Log lambda| + 2*pi*|nu|, with u = 2**-53.  G is computed as
    # ((lambda - A) - c) - k*Log(lambda), where A = i*fl(2*pi*|nu|) and
    # c = fl(ln|a|) + i*fl(arg a + pi), so C = A + c.  A is off by at most
    # 1.4u * 2*pi*|nu| (math.tau is 0.35u below 2*pi, plus the product's
    # rounding); c by at most u*|c| + 14u (hypot, log, phase, pi and the
    # sum); lambda - A, near c + k*Log(lambda), rounds by at most
    # u*(|c| + k*|Log lambda|); cmath.log is off by at most
    # 2u*(|Log lambda| + 1), so k times it, with the product's rounding, by
    # 3u*k*|Log lambda| + 2u*k; the last two subtractions round by at most
    # u*(k*|Log lambda| + 2*|G|).  Near the zero |ln|a|| = |Re lambda -
    # k*ln|lambda||, so |c| <= |lambda| + k*|Log lambda| + 2*pi, and
    # |lambda| >= 2*pi*|nu| >= 2*pi*max(5, k) covers 2u*k and the constant
    # terms.  The total is below 7u per unit; _ROUCHE_ERR is 8u.
    err = _ROUCHE_ERR * (mod + p.k * abs(log_lam) + anchor.imag)
    radius = 2.0 * (g + err) / dg
    if not (
        radius < lam.imag
        and dg * radius - g - err > radius * radius * p.k / (2.0 * (mod - radius) ** 2)
    ):
        raise CertificationError(
            f"no Rouche disk proves the zero of nu = {nu}: |G| = {g:.3e}, "
            f"|G'| = {dg:.3e}, r = {radius:.3e}"
        )
    if conj:
        return seed.conjugate(), lam.conjugate(), nw_iters, radius
    return seed, lam, nw_iters, radius


def newton_refine(q: Quasipolynomial, seed: complex) -> ZeroRecord:
    """Newton iteration on f itself from a free seed.

    This is the refiner for user seeds, which carry no chain index.  It
    works on f rather than on a branch equation because a free zero may sit
    on the branch cut of Log: the zero -0.567 of e^lambda + lambda is on the
    negative real axis, where the branch index of its iterates jumps by k
    from one step to the next.

    Stops when the relative residual |f| / max(|e^lambda|, |a*lambda^k|)
    drops below NEWTON_TOL, or right after a step of at most 4 ulps of
    |lambda|, where the residual has reached its float floor; a seed that
    already satisfies the residual gate returns with zero iterations.  Raises
    NotConvergedError after NEWTON_MAX_ITER steps without either stop,
    DivergedError when an iterate leaves the disk of radius 5 around the
    seed, DerivativeVanishedError when f' vanishes, and
    DegenerateZeroError when the converged zero has relative |f'| < 1e-8
    (the zero may not be simple).
    """
    seed = _require_finite(seed)
    lam = seed
    residual, step, rel_fprime = _newton_terms(q, lam)
    iters = 0
    while residual >= NEWTON_TOL:
        if iters >= NEWTON_MAX_ITER:
            raise NotConvergedError(
                f"Newton did not reach residual {NEWTON_TOL:g} in "
                f"{NEWTON_MAX_ITER} steps (residual {residual:.3e})",
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
        radius=None,
    )


def enumerate_zeros(q: Quasipolynomial, nu_lo: int, nu_hi: int) -> list[ZeroRecord]:
    """One converged, proven ZeroRecord per admissible nu in [nu_lo, nu_hi].

    Indices with |nu| < nu_min(q) (including nu = 0) are skipped.  Each kept
    index is seeded with the asymptotic guess and refined by Newton on its
    branch equation g(xi) = xi - c - k*Log(2*pi*i*nu + xi) = 0 (see the
    module docstring); NotConvergedError past the step budget.  The zero is
    recorded with residual = relative_magnitude(q, zero) and the radius of a
    Rouche disk around it that holds exactly one zero of branch nu
    (CertificationError when no such disk is proven).  Records are sorted by
    Im and guarded against collapse (DuplicateZeroError if two land within
    1e-6).
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
        guess, lam, nw_iters, radius = _refine_branch(q, mirror, nu)
        records.append(
            ZeroRecord(
                nu=nu,
                guess=guess,
                refined=lam,
                residual=relative_magnitude(q, lam),
                newton_iters=nw_iters,
                radius=radius,
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
    """All zeros with |lambda| <= radius, sorted by Im then Re.

    The disk is counted first (count_zeros_disk).  Its zeros come from the
    Lambert-W seeds, each polished by Newton on f and proven by a Rouche
    disk that holds exactly one zero; the disks kept, one per zero, must
    not meet, and the number inside the disk must match the count
    (seeds._proven_zeros, CertificationError otherwise).  Oracle errors
    (boundary zeros, exhausted depth) propagate so the caller can adjust
    the radius.
    """
    _check_positive(radius=radius)
    count = count_zeros_disk(q, 0j, radius).count

    def where(z: complex, r: float) -> bool | None:
        if abs(z) + r <= radius:
            return True
        return False if abs(z) - r > radius else None

    bounds = (-radius, radius, -radius, radius)
    return [z for z, _ in _proven_zeros(q, bounds, where, count, f"disk |lambda| <= {radius!r}")]


def _collect_band_zeros(q: Quasipolynomial, nu_hi: int) -> list[complex]:
    """Refined zeros covering the band up to |Im| = 2*pi*nu_hi.

    Chain indices |nu| in [nu_min, nu_hi] come from the enumerator; whatever
    lives below the chain is picked up by small_zeros on a disk that ends just inside the farther of the two chain zeros of index
    +-nu_min, nudged inward until its boundary is clear of zeros.  Chain
    zeros inside that disk are dropped as duplicates.
    """
    records = enumerate_zeros(q, -nu_hi, nu_hi)
    zeros = [rec.refined for rec in records]
    # The zeros below the chain lie about one period inside this radius.  The
    # nearer of the two +-nu_min zeros gives no such margin: when A is close
    # to the negative real axis its modulus exceeds that of the zero of index
    # -+(nu_min - 1) by less than 0.05.
    outer = max(abs(rec.refined) for rec in records if abs(rec.nu) == nu_min(q))
    for bump in range(1, 9):
        try:
            small = small_zeros(q, outer - SMALL_DISK_MARGIN * bump)
            break
        except (BoundaryZeroError, DepthExceededError):
            if bump == 8:
                raise
    for z in small:
        if all(abs(z - existing) > 1e-6 for existing in zeros):
            zeros.append(z)
    return zeros


def _min_gap(zeros: list[complex]) -> float:
    """Smallest distance between two of the zeros, which are sorted by Im.

    Compares neighbours at offset 1, 2, ... in that order and stops at the
    first offset whose smallest Im gap is already no less than the best
    distance, since every later offset has larger Im gaps.
    """
    best = math.inf
    for off in range(1, len(zeros)):
        pairs = list(zip(zeros, zeros[off:]))
        if min(b.imag - a.imag for a, b in pairs) >= best:
            break
        best = min(best, min(abs(a - b) for a, b in pairs))
    return best
