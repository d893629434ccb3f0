"""Sampled verification of the lower bounds and band geometry.

Three Monte Carlo checks, all driven by a counter-based (Philox) generator so
that identical seeds reproduce reports bit for bit:

* eq3: on the tail T1 (sigma_1 < -h, h above ln(2/|a|)) the algebraic term
  dominates and |f| >= 0.5 * |a||lambda|^k.  Sampled as the smallest
  algebraic ratio |f|/(|a||lambda|^k) >= 0.5.
* eq4: on the far field sigma_1 > h with h above ln(2|a|) the exponential
  term dominates and |f| >= 0.5 * |e^lambda|.  Sampled as the smallest
  exponential ratio |f|/|e^lambda| >= 0.5.
* eq7: on the band punctured by delta-disks around the zeros, |f| stays above
  a positive multiple of |a||lambda|^k; the smallest sampled algebraic ratio
  is the estimate of that constant, reported (not asserted against any
  external value) together with a doubled-sample stability check.

All three ratios are |1 + e^u| from one batched kernel, _ratio_batch, and
each report's min_ratio is that kernel's value at its worst sample.  Where
one term dominates by far (Re u < -42, most samples of eq3 and eq4) the ratio
is exactly 1.0 in binary64; those saturated samples get 1.0 without the
complex log and exp, so every ratio equals the full evaluation bit for bit.
The sampler works out ln(x^2 + y^2) once per drawn point, for its region
test, and a saturated sample is judged from the sigma_1 its draw computed.

The quadrangle helper cuts the band into cells by horizontal lines placed
pi + k*pi/2 + arg(a) below consecutive refined zeros; each cell contains
exactly one chain zero and its diagonal approaches sqrt(4*pi^2 + 4*h^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Quasipolynomial
from .errors import (
    BoundaryZeroError,
    DeltaTooLargeError,
    DepthExceededError,
    EmptyRegionError,
    EmptySampleError,
    InvalidIndexError,
    InvalidQueryError,
)
from .regions import gamma_abscissa, min_h_t1, min_h_t2
from .zeros import enumerate_zeros, nu_min, small_zeros

#: sampled lower-bound threshold shared by eq3 and eq4
HALF_THRESHOLD = 0.5

#: give up on a region after this many consecutive rejected draws
MAX_CONSECUTIVE_REJECTS = 100_000

#: default half-width of the sampling window around the origin
DEFAULT_WINDOW = 1000.0

_CHUNK = 8192

#: Re u below which |1 + e^u| is exactly 1.0: e^-42 < 2^-60, so the real part
#: 1 + Re e^u rounds to 1, the imaginary part vanishes inside abs, and abs
#: gives 1.0 even after Re u is clipped to -745
_SATURATED_U = -42.0

#: smallest normal float; below it x^2 + y^2 loses relative precision
_RR_NORMAL = sys.float_info.min

#: the small-zero disk of estimate_c_delta ends this far inside the outer
#: chain zero of index +-nu_min, and moves inward by as much per retry
SMALL_DISK_MARGIN = 0.5


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one sampled inequality check.

    min_ratio is the batched ratio at worst_point, the sample where it is
    smallest.  analytic_floor is only set for eq3 (the sharper provable bound
    1 - e^(-h)/|a|); stability_ratio only for eq7 (doubled-sample estimate
    divided by min_ratio).
    """

    inequality_id: str
    samples: int
    min_ratio: float
    threshold: float
    worst_point: complex
    passed: bool
    seed: int
    analytic_floor: float | None = None
    stability_ratio: float | None = None


@dataclass(frozen=True)
class QuadrangleGeom:
    """One band cell: counterclockwise corners and the longest diagonal."""

    nu: int
    corners: tuple[complex, complex, complex, complex]
    diag: float


def _check_finite(**values: float) -> None:
    """Reject an infinite or nan input by name before anything is drawn."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidQueryError(f"{name} must be finite, got {value!r}")


def _check_positive(**values: float) -> None:
    """Reject a value that is not finite and > 0 by name before anything is drawn."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise InvalidQueryError(f"{name} must be finite and > 0, got {value!r}")


def _check_band_holds_curve(q: Quasipolynomial, h: float) -> None:
    """Reject a band half-width h that is not finite or leaves the zero curve out."""
    _check_finite(h=h)
    if not h > abs(q.log_abs_a):
        raise InvalidQueryError(
            f"band must contain the zero curve: need h > |ln|a|| = "
            f"{abs(q.log_abs_a):.6g}, got h = {h!r}"
        )


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams never share draws."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


def _rejection_sample(
    rng: np.random.Generator,
    hull: tuple[float, float, float, float],
    k: int,
    accept: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    n: int,
    what: str,
) -> tuple[np.ndarray, np.ndarray]:
    """n accepted points (complex array) drawn uniformly from the hull box.

    Each draw's rr = x^2 + y^2 and half_log = (k/2) ln rr are computed once,
    for accept(xs, ys, rr, half_log); each accepted point's sigma_1 =
    x - half_log is returned beside it, nan where rr is not a normal float.
    """
    x_lo, x_hi, y_lo, y_hi = hull
    if not (x_lo < x_hi and y_lo < y_hi):
        raise EmptyRegionError(f"degenerate sampling hull for {what}")
    lam = np.empty(n, dtype=complex)
    sig1 = np.empty(n)
    taken = 0
    consecutive_rejects = 0
    while taken < n:
        xs = rng.uniform(x_lo, x_hi, _CHUNK)
        ys = rng.uniform(y_lo, y_hi, _CHUNK)
        with np.errstate(all="ignore"):
            rr = xs * xs + ys * ys
            half_log = 0.5 * k * np.log(rr)
        hits = np.flatnonzero(accept(xs, ys, rr, half_log))[: n - taken]
        if hits.size == 0:
            consecutive_rejects += _CHUNK
            if consecutive_rejects >= MAX_CONSECUTIVE_REJECTS:
                raise EmptyRegionError(
                    f"no point of {what} found in {consecutive_rejects} draws"
                )
            continue
        consecutive_rejects = 0
        got = slice(taken, taken + hits.size)
        lam.real[got] = xs[hits]
        lam.imag[got] = ys[hits]
        trusted = (rr[hits] >= _RR_NORMAL) & (rr[hits] < math.inf)
        sig1[got] = np.where(trusted, xs[hits] - half_log[hits], math.nan)
        taken += hits.size
    return lam, sig1


def _saturated(q: Quasipolynomial, sig1: np.ndarray, alg: bool) -> np.ndarray:
    """Mask of the points where _ratio_batch is exactly 1.0 without evaluation.

    Re u is sigma_1 - ln|a| for the algebraic ratio and ln|a| - sigma_1 for
    the exponential one.  sig1 comes from _rejection_sample, which trusts it
    only where x^2 + y^2 is a normal float: there it differs from the Re u
    that the full evaluation computes by rounding errors far below the 4
    e-folds between _SATURATED_U and ln 2^-54, where 1 + e^u would stop
    rounding to 1.
    """
    est = sig1 - q.log_abs_a if alg else q.log_abs_a - sig1
    return est < _SATURATED_U


def _ratio_batch(
    q: Quasipolynomial, lam: np.ndarray, sig1: np.ndarray, alg: bool
) -> np.ndarray:
    """Vectorized |1 + e^u| with the exponent clipped, at every point.

    u is lambda - k Log lambda - Log a for the algebraic ratio (alg,
    |f|/|a lambda^k|) and k Log lambda + Log a - lambda for the exponential
    one (|f|/|e^lambda|).  sig1 holds each point's sigma_1 from
    _rejection_sample; points where it puts Re u provably below _SATURATED_U
    get exactly 1.0 and are not evaluated.  Clipping only fires where the
    true ratio is astronomically large or saturated at 1, never near a
    minimum, so min/argmin selection is exact.
    """
    saturated = _saturated(q, sig1, alg)
    live = np.flatnonzero(~saturated) if saturated.any() else slice(None)
    part = lam[live]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if alg:
            u = part - q.k * np.log(part) - np.log(complex(q.a))
        else:
            u = q.k * np.log(part) + np.log(complex(q.a)) - part
        u = np.clip(u.real, -745.0, 700.0) + 1j * u.imag
        vals = np.abs(1.0 + np.exp(u))
    ratios = np.ones(lam.shape)
    ratios[live] = vals
    return ratios


def _finish_report(
    inequality_id: str,
    lam: np.ndarray,
    ratios: np.ndarray,
    threshold: float,
    seed: int,
    **extra: float | None,
) -> BoundReport:
    i = int(np.argmin(ratios))
    min_ratio = float(ratios[i])
    return BoundReport(
        inequality_id=inequality_id,
        samples=int(lam.size),
        min_ratio=min_ratio,
        threshold=threshold,
        worst_point=complex(lam[i]),
        passed=min_ratio >= threshold if threshold > 0 else min_ratio > 0,
        seed=seed,
        **extra,
    )


def _sample_tail(
    q: Quasipolynomial, h: float, r: float, n: int, seed: int, window: float,
    need: str, threshold_h: float, region: str,
    in_tail: Callable[[np.ndarray, np.ndarray], np.ndarray], alg: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Points and ratios of the eq3 or eq4 check within R < |lambda| <= window.

    need names the bound h must exceed ("eq3 needs h > ln(2/|a|)"),
    threshold_h is its value, and in_tail(xs, half_log) tests the region
    with half_log = (k/2) ln(x^2 + y^2).
    """
    if n <= 0:
        raise EmptySampleError(f"need at least one sample, got n = {n}")
    _check_positive(R=r)
    _check_finite(h=h, window=window)
    if not h > threshold_h:
        raise InvalidQueryError(f"{need} = {threshold_h:.6g}, got h = {h!r}")
    if not window > r:
        raise EmptyRegionError(
            f"window {window!r} leaves no room outside the inner disk R = {r!r}"
        )
    w2, r2 = window * window, r * r

    def accept(xs, ys, rr, half_log):
        return (rr <= w2) & (rr > r2) & in_tail(xs, half_log)

    hull = (-window, window, -window, window)
    lam, sig1 = _rejection_sample(_philox(seed), hull, q.k, accept, n, region)
    return lam, _ratio_batch(q, lam, sig1, alg)


def verify_eq3(
    q: Quasipolynomial,
    h: float,
    r: float,
    n: int,
    seed: int,
    window: float = DEFAULT_WINDOW,
) -> BoundReport:
    """Sampled check of |f| >= 0.5*|a||lambda|^k on T1 within |lambda| <= window.

    Requires h > ln(2/|a|) so the bound is provable; the report also carries
    the sharper analytic floor 1 - e^(-h)/|a|.
    """
    lam, ratios = _sample_tail(
        q, h, r, n, seed, window, "eq3 needs h > ln(2/|a|)", min_h_t1(q), "T1",
        lambda xs, half_log: xs - half_log < -h, alg=True,
    )
    floor = 1.0 - math.exp(-h) / abs(q.a)
    return _finish_report("eq3", lam, ratios, HALF_THRESHOLD, seed, analytic_floor=floor)


def verify_eq4(
    q: Quasipolynomial,
    h: float,
    r: float,
    n: int,
    seed: int,
    window: float = DEFAULT_WINDOW,
    printed_set: bool = False,
) -> BoundReport:
    """Sampled check of |f| >= 0.5*|e^lambda| on the far field sigma_1 > h.

    Requires h > ln(2|a|).  With printed_set=True the sampling region is
    sigma_2 > h instead; that variant is informational only (the region
    contains the large zeros, so the inequality genuinely fails there) and
    its report should be read, not asserted.
    """
    lam, ratios = _sample_tail(
        q, h, r, n, seed, window, "eq4 needs h > ln(2|a|)", min_h_t2(q),
        "sigma_2 > h" if printed_set else "sigma_1 > h",
        (lambda xs, half_log: xs + half_log > h) if printed_set
        else (lambda xs, half_log: xs - half_log > h),
        alg=False,
    )
    ident = "eq4-printed" if printed_set else "eq4"
    return _finish_report(ident, lam, ratios, HALF_THRESHOLD, seed)


def _collect_band_zeros(q: Quasipolynomial, nu_hi: int) -> list[complex]:
    """Refined zeros covering the band up to |Im| = 2*pi*nu_hi.

    Chain indices |nu| in [nu_min, nu_hi] come from the enumerator; whatever
    lives below the chain is picked up by certified small-zero isolation on
    a disk that ends just inside the farther of the two chain zeros of index
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


def _clear_of(lam: np.ndarray, zs: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the points farther than delta from every zero.

    zs is sorted by Im; each point is measured only against the zeros whose
    Im lies within 2*delta of its own, which include every zero within delta
    of it, so the mask equals that of the full distance matrix.
    """
    lo = np.searchsorted(zs.imag, lam.imag - 2.0 * delta, side="left")
    hi = np.searchsorted(zs.imag, lam.imag + 2.0 * delta, side="right")
    clear = np.ones(lam.shape, dtype=bool)
    for off in range(int((hi - lo).max(initial=0))):
        idx = lo + off
        near = idx < hi
        dist = np.abs(lam[near] - zs[idx[near]])
        clear[near] &= dist > delta
    return clear


def estimate_c_delta(
    q: Quasipolynomial,
    h: float,
    r: float,
    delta: float,
    nu_hi: int,
    n: int,
    seed: int,
) -> BoundReport:
    """Smallest sampled algebraic ratio on the band punctured at the zeros.

    Samples the band |sigma_1| <= h, |lambda| > R, |Im| <= 2*pi*nu_hi,
    rejecting points within delta of any refined zero; the minimum ratio,
    reported as min_ratio, is the estimate of the positive constant bounding
    |f|/(|a||lambda|^k) there.  The estimate is re-run with doubled samples
    on an independent stream and its quotient by min_ratio reported as
    stability_ratio.  delta must stay below half the minimum nearest-zero
    gap (DeltaTooLargeError otherwise).
    """
    if n <= 0:
        raise EmptySampleError(f"need at least one sample, got n = {n}")
    _check_positive(delta=delta, R=r)
    _check_band_holds_curve(q, h)
    if nu_hi < nu_min(q):
        raise InvalidIndexError(f"nu_hi must be >= nu_min = {nu_min(q)}, got {nu_hi}")

    zeros = sorted(_collect_band_zeros(q, nu_hi), key=lambda z: z.imag)
    zs = np.array(zeros, dtype=complex)
    gap_min = _min_gap(zeros)
    if not delta < 0.5 * gap_min:
        raise DeltaTooLargeError(
            f"delta = {delta!r} >= half the minimum zero gap {gap_min:.6g}"
        )

    y_max = math.tau * nu_hi
    x_lo = -h + q.k * min(0.0, math.log(r)) - 1.0
    x_hi = h + q.k * math.log(3.0 * y_max + 10.0) + 1.0
    r2 = r * r

    def accept(xs, ys, rr, half_log):
        ok = (np.abs(ys) <= y_max) & (rr > r2) & (np.abs(xs - half_log) <= h)
        if ok.any():
            ok[ok] = _clear_of(xs[ok] + 1j * ys[ok], zs, delta)
        return ok

    hull = (x_lo, x_hi, -y_max, y_max)

    def run(stream: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        lam, sig1 = _rejection_sample(
            _philox(seed, stream), hull, q.k, accept, count, "punctured band"
        )
        return lam, _ratio_batch(q, lam, sig1, alg=True)

    lam, ratios = run(0, n)
    _, ratios2 = run(1, 2 * n)
    first = float(ratios.min())
    return _finish_report(
        "eq7", lam, ratios, 0.0, seed,
        stability_ratio=float(ratios2.min()) / first if first > 0 else None,
    )


def _cut_offset(q: Quasipolynomial) -> float:
    """Vertical distance from a chain zero down to its cut line.

    The raw offset pi + k*pi/2 + arg(a) can exceed one 2*pi period (for
    example k = 2 with arg(a) = pi/4 gives 2.25*pi); reduced into (0, 2*pi],
    the strip between consecutive cut lines is exactly one period tall and
    brackets its own zero.
    """
    raw = math.pi + q.k * math.pi / 2.0 + q.arg_a
    reduced = raw - math.tau * math.floor(raw / math.tau)
    return reduced if reduced > 0.0 else math.tau


def quadrangle(q: Quasipolynomial, nu: int, h: float) -> QuadrangleGeom:
    """The band cell containing the chain zero of index nu.

    Horizontal cut lines sit pi + k*pi/2 + arg(a), reduced into (0, 2*pi],
    below the chain zeros of indices nu and nu + 1 from enumerate_zeros
    (mirrored through conjugation for nu < 0); the four corners solve
    sigma_1 = -h and sigma_1 = +h on those lines, ordered counterclockwise
    from the bottom-left.  diag is the longest diagonal, which approaches
    sqrt(4*pi^2 + 4*h^2) as |nu| grows.
    """
    if not isinstance(nu, int) or isinstance(nu, bool):
        raise InvalidIndexError(f"nu must be an integer, got {nu!r}")
    if abs(nu) < nu_min(q):
        raise InvalidIndexError(f"|nu| must be >= nu_min = {nu_min(q)}, got {nu}")
    _check_band_holds_curve(q, h)
    if nu < 0:
        mirrored = quadrangle(q.conjugate(), -nu, h)
        corners = tuple(c.conjugate() for c in reversed(mirrored.corners))
        return QuadrangleGeom(nu=nu, corners=corners, diag=mirrored.diag)

    z_lo, z_hi = (rec.refined for rec in enumerate_zeros(q, nu, nu + 1))
    offset = _cut_offset(q)
    y_lo = z_lo.imag - offset
    y_hi = z_hi.imag - offset
    bl = complex(gamma_abscissa(q, 1, -h, y_lo), y_lo)
    br = complex(gamma_abscissa(q, 1, h, y_lo), y_lo)
    tr = complex(gamma_abscissa(q, 1, h, y_hi), y_hi)
    tl = complex(gamma_abscissa(q, 1, -h, y_hi), y_hi)
    corners = (bl, br, tr, tl)
    diag = max(
        abs(p - s) for i, p in enumerate(corners) for s in corners[i + 1 :]
    )
    return QuadrangleGeom(nu=nu, corners=corners, diag=diag)
