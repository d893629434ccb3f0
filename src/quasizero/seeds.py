"""Lambert-W seeds for the zeros of f(lambda) = e^lambda + a*lambda^k, and
the Rouche disks that prove them.

Every zero is lambda = -k*W_m(-1/(k*omega_j)) for one root omega_j of
omega^k = -a and one branch m of the Lambert W function (Corless, Gonnet,
Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996): taking k-th roots of
e^lambda = -a*lambda^k gives e^(lambda/k) = omega_j*lambda, and w = -lambda/k
turns that into w*e^w = -1/(k*omega_j).  Each zero belongs to exactly one
pair (j, m), and W_m maps into the strip (2m - 2)pi < Im w < (2m + 1)pi for
m >= 1, (2m - 1)pi < Im w < (2m + 2)pi for m <= -1 and -pi < Im w < pi for
m = 0, so the Im range of a contour fixes the branches worth trying.

The seeds only propose zeros.  Each is polished by at most three Newton
steps on f and kept when a Rouche test against the linear Taylor model of f
proves a disk around it that holds exactly one zero.  The caller certifies
completeness with one contour count (_proven_zeros).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .core import Quasipolynomial, _dominant
from .errors import CertificationError, DerivativeVanishedError

#: step budget of the W iterations; each converges in a handful of steps
#: from its start
_W_MAX_ITER = 40

#: a W iteration, or the Newton polish of a seed, stops after a step below
#: this times the size of its iterate
_W_STEP_TOL = 2.0**-50

#: Newton steps on f that polish each seed before its proof
_POLISH_STEPS = 3

#: bound on the rounding of a computed relative |f|, per unit of
#: |Log a| + k*|Log z| + |z| + k + 1 (see _rouche): 8 ulps
_ROUCHE_ERR = 2.0**-50

#: relative slack on both sides of the Rouche test, far above the relative
#: rounding of the computed |f'| and bound on |f''|
_ROUCHE_SLACK = 2.0**-20


def _lambert_w(z: complex, m: int) -> complex:
    """W_m(z), branch m of the Lambert W function, at a finite z != 0.

    A z with a zero imaginary part lies on the upper side of every branch
    cut, so the branches stay distinct there.  Branches m = -1, 0, 1 run
    Halley's iteration on w - z*e^(-w) from a start of Corless et al.: the
    branch-point series near -1/e, on the branches that meet there (0, and
    -1 above the real axis or 1 below it), Log(1 + z) for W_0 near 0, and
    the asymptotic series elsewhere.  Every other branch lies at
    |Im w| > 2*pi, far from the cut of Log w, and runs Newton on
    w + Log w = Log z + 2*pi*i*m from the asymptotic series; that form
    cannot overflow at any |w|.
    """
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    log_z = cmath.log(z) + 2j * math.pi * m
    if abs(m) > 1:
        w = _asymptotic(log_z)
        for _ in range(_W_MAX_ITER):
            step = (w + cmath.log(w) - log_z) * w / (w + 1.0)
            w -= step
            if abs(step) <= _W_STEP_TOL * abs(w):
                break
        return w
    if abs(z + math.exp(-1.0)) < 0.3 and (m == 0 or (m == -1) == (z.imag >= 0.0)):
        p = cmath.sqrt(2.0 * (math.e * z + 1.0))
        if m:
            p = -p
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    elif m == 0 and abs(z) < 2.0 and z.real > -0.25:
        w = cmath.log(1.0 + z)  # W_0(z) = z - z^2 + O(z^3)
    else:
        w = _asymptotic(log_z)
    for _ in range(_W_MAX_ITER):
        t = z * cmath.exp(-w)
        g, dg = w - t, 1.0 + t
        step = g / (dg + 0.5 * g * t / dg)
        w -= step
        if abs(step) <= _W_STEP_TOL * abs(w):
            break
    return w


def _asymptotic(l1: complex) -> complex:
    """The asymptotic series of W at L1 = Log z + 2*pi*i*m, to its 1/L1^2 term."""
    l2 = cmath.log(l1)
    return l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)


def _branch_range(w_im_lo: float, w_im_hi: float) -> range:
    """Branches m whose strip can meet w_im_lo <= Im w <= w_im_hi, with one
    extra branch on each side."""
    return range(math.floor(w_im_lo / math.tau) - 2, math.ceil(w_im_hi / math.tau) + 3)


def _seeds(q: Quasipolynomial, im_lo: float, im_hi: float) -> list[complex]:
    """-k*W_m(-1/(k*omega_j)) for every root omega_j of omega^k = -a and
    every branch m that can reach im_lo <= Im lambda <= im_hi."""
    k = q.k
    log_minus_a = cmath.log(-q.a)
    branches = _branch_range(-im_hi / k, -im_lo / k)
    out = []
    for j in range(k):
        z = -1.0 / (k * cmath.exp((log_minus_a + 2j * math.pi * j) / k))
        out += [-k * _lambert_w(z, m) for m in branches]
    return out


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


def _rouche(q: Quasipolynomial, z: complex, radius: float | None = None) -> float | None:
    """The radius of a disk around z != 0 proven to hold exactly one zero of
    f, or None when the test fails.

    The disk is D(z, radius), or with radius None the smallest one the test
    can prove, r = 2*(|f(z)| + err)/|f'(z)|.  Against the linear Taylor model
    of f at z, |f'(z)|*r - |f(z)| - err > r^2*M2/2, where
    M2 = e^(Re z + r) + |a|*k*(k-1)*(|z| + r)^(k-2) bounds |f''| on the disk,
    so f has the model's one zero in the disk (Rouche).
    """
    # f, f' and M2 are taken relative to S = |exp(dom)|, the larger term of
    # f at z: the test is homogeneous in S, and no term can overflow.  err
    # bounds the rounding of the computed |f|/S.  With u = 2**-53, the
    # exponent Log a + k*Log z is off by at most 3u*|Log a| + 4u*k*|Log z| +
    # 2u*k + 2u (the two cmath.log calls, the product and the sum), its
    # difference with z rounds by u*(|Log a| + k*|Log z| + |z|), and exp,
    # 1 + w and abs add 5u at |w| <= 1.  _ROUCHE_ERR's 8u per unit of
    # |Log a| + k*|Log z| + |z| + k + 1 leaves at least 6u to spare.  The
    # relative roundings of |f'| and M2 are covered by _ROUCHE_SLACK.
    dom, w, exp_dominates = _dominant(q.log_a, q.k, z)
    fz = abs(1.0 + w)
    fp = abs(1.0 + q.k * w / z if exp_dominates else w + q.k / z)
    mod = abs(z)
    err = _ROUCHE_ERR * (abs(q.log_a) + q.k * abs(cmath.log(z)) + mod + q.k + 1.0)
    r = 2.0 * (fz + err) / fp if radius is None else radius
    # S >= |a*z^k| bounds the second exponent by (k - 2)*ln(1 + r/|z|) -
    # 2*ln|z|; an M2 beyond the float range leaves no disk that wide proven
    try:
        m2 = math.exp(z.real + r - dom.real)
        if q.k > 1:
            m2 += q.k * (q.k - 1) * math.exp(q.log_abs_a + (q.k - 2) * math.log(mod + r) - dom.real)
    except OverflowError:
        return None
    if fp * r * (1.0 - _ROUCHE_SLACK) - fz - err > r * r * m2 * (1.0 + _ROUCHE_SLACK) / 2.0:
        return r
    return None


def _proven_zeros(
    q: Quasipolynomial,
    bounds: tuple[float, float, float, float],
    where: Callable[[complex, float], bool | None],
    count: int,
    contour: str,
) -> list[tuple[complex, float]]:
    """(zero, radius) of every zero inside a contour holding count zeros,
    each with a disk proven to hold exactly that zero, sorted by Im then Re.

    bounds is the contour's bounding box (re_lo, re_hi, im_lo, im_hi), and
    where(z, r) tells whether D(z, r) lies inside the contour (True), outside
    it (False) or meets it (None).  Every seed within 1 of bounds is
    polished by at most _POLISH_STEPS Newton steps on f and proven
    (_rouche), and its disk must not meet the contour.  Of the disks
    inside, two whose zeros lie in one another's disk hold one zero; the
    disks kept must not meet, and their number must equal count.  Any
    failure is a CertificationError naming contour: the disks hold distinct
    zeros, so their number equal to the count proves the list complete.
    """
    re_lo, re_hi, im_lo, im_hi = bounds
    disks = []
    unproven = None
    for seed in _seeds(q, im_lo - 1.0, im_hi + 1.0):
        if not (re_lo - 1.0 <= seed.real <= re_hi + 1.0 and im_lo - 1.0 <= seed.imag <= im_hi + 1.0):
            continue
        z, r = seed, None
        try:
            for _ in range(_POLISH_STEPS):
                step = _newton_terms(q, z)[1]
                z -= step
                if abs(step) <= _W_STEP_TOL * abs(z):
                    break
            r = _rouche(q, z) if z else None
        except DerivativeVanishedError:
            pass
        if r is None:
            unproven = seed if unproven is None else unproven
            continue
        side = where(z, r)
        if side is None:
            raise CertificationError(f"the Rouche disk D({z!r}, {r:.3e}) meets the {contour}")
        if side:
            disks.append((z, r))
    disks.sort(key=lambda d: (d[0].imag, d[0].real))
    reach = 2.0 * max((r for _, r in disks), default=0.0)
    kept: list[tuple[complex, float]] = []
    for z, r in disks:
        seen = False
        for other, r_other in reversed(kept):
            if z.imag - other.imag > reach:
                break
            gap = abs(z - other)
            seen = gap <= max(r, r_other)  # a second seed of a kept zero
            if seen:
                break
            if gap <= r + r_other:
                raise CertificationError(f"the Rouche disks of {other!r} and {z!r} meet")
        if not seen:
            kept.append((z, r))
    if len(kept) != count:
        missed = "" if unproven is None else f"; no Rouche disk proves the seed {unproven!r}"
        raise CertificationError(
            f"{contour} counts {count} zeros, but {len(kept)} proven disks lie inside{missed}"
        )
    return kept
