"""Sampled verification of the lower bounds.

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

The sampler yields the accepted points in blocks of at most _BLOCK, and each
report folds every block into a running minimum as it arrives, so memory is
O(_BLOCK), not O(n).  The worst point is the first minimum in draw order,
the one np.argmin would pick over all n ratios at once.

The band cell geometry (quadrangle, QuadrangleGeom, _cut_offset) is defined
in quasizero.regions and the band's zero set (_collect_band_zeros, _min_gap)
in quasizero.zeros, neither of which needs numpy; both are re-exported here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import Quasipolynomial
from .errors import (
    DeltaTooLargeError,
    EmptyRegionError,
    EmptySampleError,
    InvalidIndexError,
    InvalidQueryError,
)
from .regions import (  # noqa: F401  (QuadrangleGeom, quadrangle, _cut_offset re-exported)
    QuadrangleGeom,
    _check_band_holds_curve,
    _cut_offset,
    min_h_t1,
    min_h_t2,
    quadrangle,
)
from .zeros import (  # noqa: F401  (SMALL_DISK_MARGIN re-exported)
    SMALL_DISK_MARGIN,
    _collect_band_zeros,
    _min_gap,
    nu_min,
)

#: sampled lower-bound threshold shared by eq3 and eq4
HALF_THRESHOLD = 0.5

#: give up on a region after this many consecutive rejected draws
MAX_CONSECUTIVE_REJECTS = 100_000

#: default half-width of the sampling window around the origin
DEFAULT_WINDOW = 1000.0

#: points drawn per call of the generator, for xs and then for ys
_CHUNK = 8192

#: accepted points per yielded block; at least _CHUNK, so one chunk's hits
#: always fit in an emptied block
_BLOCK = 1 << 16

#: Re u below which |1 + e^u| is exactly 1.0: e^-42 < 2^-60, so the real part
#: 1 + Re e^u rounds to 1, the imaginary part vanishes inside abs, and abs
#: gives 1.0 even after Re u is clipped to -745
_SATURATED_U = -42.0

#: smallest normal float; below it x^2 + y^2 loses relative precision
_RR_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one sampled inequality check.

    min_ratio is the batched ratio at worst_point, the first sample in draw
    order where it is smallest.  analytic_floor is only set for eq3 (the
    sharper provable bound 1 - e^(-h)/|a|); stability_ratio only for eq7
    (doubled-sample estimate divided by min_ratio).
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield n accepted points, drawn uniformly from the hull box, in blocks.

    Each block is (lam, sig1): at most _BLOCK points (complex) in draw order
    and each one's sigma_1 = x - half_log, nan where rr is not a normal
    float.  Both are views into one buffer that the next block overwrites,
    so a caller must be done with a block before asking for the next.  Each
    draw's rr = x^2 + y^2 and half_log = (k/2) ln rr are computed once, for
    accept(xs, ys, rr, half_log).  Memory is O(_BLOCK), whatever n is.
    """
    x_lo, x_hi, y_lo, y_hi = hull
    if not (x_lo < x_hi and y_lo < y_hi):
        raise EmptyRegionError(f"degenerate sampling hull for {what}")
    size = min(n, _BLOCK)
    lam = np.empty(size, dtype=complex)
    sig1 = np.empty(size)
    fill = 0
    left = n
    consecutive_rejects = 0
    while left > 0:
        xs = rng.uniform(x_lo, x_hi, _CHUNK)
        ys = rng.uniform(y_lo, y_hi, _CHUNK)
        with np.errstate(all="ignore"):
            rr = xs * xs + ys * ys
            half_log = 0.5 * k * np.log(rr)
        hits = np.flatnonzero(accept(xs, ys, rr, half_log))[:left]
        if hits.size == 0:
            consecutive_rejects += _CHUNK
            if consecutive_rejects >= MAX_CONSECUTIVE_REJECTS:
                raise EmptyRegionError(
                    f"no point of {what} found in {consecutive_rejects} draws"
                )
            continue
        consecutive_rejects = 0
        if fill + hits.size > size:
            yield lam[:fill], sig1[:fill]
            fill = 0
        got = slice(fill, fill + hits.size)
        lam.real[got] = xs[hits]
        lam.imag[got] = ys[hits]
        trusted = (rr[hits] >= _RR_NORMAL) & (rr[hits] < math.inf)
        sig1[got] = np.where(trusted, xs[hits] - half_log[hits], math.nan)
        fill += hits.size
        left -= hits.size
    yield lam[:fill], sig1[:fill]


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


def _min_ratio(
    q: Quasipolynomial, blocks: Iterator[tuple[np.ndarray, np.ndarray]], alg: bool
) -> tuple[float, complex]:
    """(smallest ratio, first point where it occurs) over the sampled blocks.

    A block's minimum replaces the running one only when strictly smaller,
    which keeps np.argmin's first-occurrence rule across blocks.  No ratio
    is nan: every sampled point has |lambda| > R > 0 and is finite, so its
    logs are finite and the clipped exponent is too.
    """
    best, worst = math.inf, complex(math.nan, math.nan)
    for lam, sig1 in blocks:
        ratios = _ratio_batch(q, lam, sig1, alg)
        i = int(np.argmin(ratios))
        if ratios[i] < best:
            best, worst = float(ratios[i]), complex(lam[i])
    return best, worst


def _finish_report(
    inequality_id: str,
    n: int,
    minimum: tuple[float, complex],
    threshold: float,
    seed: int,
    **extra: float | None,
) -> BoundReport:
    min_ratio, worst = minimum
    return BoundReport(
        inequality_id=inequality_id,
        samples=n,
        min_ratio=min_ratio,
        threshold=threshold,
        worst_point=worst,
        passed=min_ratio >= threshold if threshold > 0 else min_ratio > 0,
        seed=seed,
        **extra,
    )


def _sample_tail(
    q: Quasipolynomial, h: float, r: float, n: int, seed: int, window: float,
    need: str, threshold_h: float, region: str,
    in_tail: Callable[[np.ndarray, np.ndarray], np.ndarray], alg: bool,
) -> tuple[float, complex]:
    """Smallest ratio and its point for the eq3 or eq4 check within R < |lambda| <= window.

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
    blocks = _rejection_sample(_philox(seed), hull, q.k, accept, n, region)
    return _min_ratio(q, blocks, alg)


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
    minimum = _sample_tail(
        q, h, r, n, seed, window, "eq3 needs h > ln(2/|a|)", min_h_t1(q), "T1",
        lambda xs, half_log: xs - half_log < -h, alg=True,
    )
    floor = 1.0 - math.exp(-h) / abs(q.a)
    return _finish_report("eq3", n, minimum, HALF_THRESHOLD, seed, analytic_floor=floor)


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
    minimum = _sample_tail(
        q, h, r, n, seed, window, "eq4 needs h > ln(2|a|)", min_h_t2(q),
        "sigma_2 > h" if printed_set else "sigma_1 > h",
        (lambda xs, half_log: xs + half_log > h) if printed_set
        else (lambda xs, half_log: xs - half_log > h),
        alg=False,
    )
    ident = "eq4-printed" if printed_set else "eq4"
    return _finish_report(ident, n, minimum, HALF_THRESHOLD, seed)


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

    def run(stream: int, count: int) -> tuple[float, complex]:
        blocks = _rejection_sample(
            _philox(seed, stream), hull, q.k, accept, count, "punctured band"
        )
        return _min_ratio(q, blocks, alg=True)

    minimum = run(0, n)
    second, _ = run(1, 2 * n)
    first = minimum[0]
    return _finish_report(
        "eq7", n, minimum, 0.0, seed,
        stability_ratio=second / first if first > 0 else None,
    )
