"""The zero chain against reference refiners built on the public evaluators.

newton_refine and enumerate_zeros take Log lambda once per iterate and hand
it to core's private kernels.  The references below are plain loops written
only with the public eval_f, eval_fprime, relative_magnitude and sigma, one
public call per quantity.  The library must agree with them bit for bit: the
same refined zero, residual and iteration counts, or the same exception class,
message and attached iterate.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest

import quasizero.zeros as zeros_mod
from quasizero import (
    CertificationError,
    DegenerateZeroError,
    DerivativeVanishedError,
    DivergedError,
    DuplicateZeroError,
    NotConvergedError,
    Quasipolynomial,
    asymptotic_guess,
    enumerate_zeros,
    eval_f,
    eval_fprime,
    newton_refine,
    nu_min,
    relative_magnitude,
    sigma,
)
from quasizero.zeros import (
    DEGENERATE_FPRIME_TOL,
    DUPLICATE_TOL,
    FIXEDPOINT_MAX_ITER,
    FIXEDPOINT_TOL,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    NEWTON_TRUST_RADIUS,
)
from conftest import lambert_w_zeros

#: the chain blocks known to fail (k, A, nu_lo, nu_hi): Newton leaves its
#: trust disk, misses the residual gate far out, overflows, or lands on a
#: neighbouring zero
DEFECT_BLOCKS = (
    (5, complex(-1097854533.0075045, 2265248148.3581066), -21, -6),
    (1, complex(1.0, 0.0), 100000, 100015),
    (13, complex(6.107836910702787e-10, 3.141851005843345e-10), 6029, 6044),
    (113, complex(4.163755436210358e-21, 1.2472479523313062e-20), -137615, -137600),
    (57, complex(-2.9187253475711652e16, -7051242231281229.0), 775, 790),
    (200, complex(1e20, 0.0), 999984, 999999),
)


# -- references ---------------------------------------------------------------


def ref_newton_step(q: Quasipolynomial, lam: complex) -> complex:
    if lam != 0:
        if abs(sigma(q, 1, lam)) > 50.0:
            t_exp = lam
            t_alg = cmath.log(q.a) + q.k * cmath.log(lam)
            if t_exp.real >= t_alg.real:
                u = cmath.exp(t_alg - t_exp)
                numerator = 1.0 + u
                denominator = 1.0 + q.k * u / lam
            else:
                v = cmath.exp(t_exp - t_alg)
                numerator = v + 1.0
                denominator = v + q.k / lam
            if denominator == 0:
                raise DerivativeVanishedError(f"f' vanished near {lam!r}")
            return numerator / denominator
    f = eval_f(q, lam)
    fp = eval_fprime(q, lam)
    if abs(fp) < 1e-300:
        raise DerivativeVanishedError(f"|f'({lam!r})| = {abs(fp):.3e}")
    return f / fp


def ref_relative_fprime(q: Quasipolynomial, lam: complex) -> float:
    if lam == 0:
        return abs(eval_fprime(q, lam))
    coeff = q.a * q.k
    t_alg = cmath.log(coeff)
    if q.k > 1:
        t_alg = t_alg + (q.k - 1) * cmath.log(lam)
    dom, sub = (lam, t_alg) if lam.real >= t_alg.real else (t_alg, lam)
    return abs(1.0 + cmath.exp(sub - dom))


def ref_newton(q: Quasipolynomial, seed: complex) -> tuple:
    seed = complex(seed)
    lam = seed
    residual = relative_magnitude(q, lam)
    iters = 0
    while residual >= NEWTON_TOL:
        if iters >= NEWTON_MAX_ITER:
            raise NotConvergedError(
                f"Newton did not reach residual {NEWTON_TOL:g} in {NEWTON_MAX_ITER} "
                f"steps (residual {residual:.3e})",
                last=lam,
                iterations=iters,
            )
        lam = lam - ref_newton_step(q, lam)
        if abs(lam - seed) > NEWTON_TRUST_RADIUS:
            raise DivergedError(
                f"iterate {lam!r} left the trust disk of radius "
                f"{NEWTON_TRUST_RADIUS} around seed {seed!r}"
            )
        iters += 1
        residual = relative_magnitude(q, lam)
    if ref_relative_fprime(q, lam) < DEGENERATE_FPRIME_TOL:
        raise DegenerateZeroError(
            f"zero at {lam!r} has relative |f'| < {DEGENERATE_FPRIME_TOL:g}; "
            "it may have multiplicity > 1"
        )
    return seed, lam, residual, iters


def ref_fixedpoint(q: Quasipolynomial, nu: int) -> tuple[complex, int]:
    if nu < 0:
        lam, iters = ref_fixedpoint(q.conjugate(), -nu)
        return lam.conjugate(), iters
    anchor = 2j * math.pi * nu
    const = math.log(abs(q.a)) + 1j * (cmath.phase(q.a) + math.pi)
    xi = asymptotic_guess(q, nu) - anchor
    for iteration in range(1, FIXEDPOINT_MAX_ITER + 1):
        nxt = const + q.k * cmath.log(anchor + xi)
        if abs(nxt - xi) < FIXEDPOINT_TOL:
            return anchor + nxt, iteration
        xi = nxt
    raise NotConvergedError(
        f"fixed-point refinement for nu = {nu} did not converge in "
        f"{FIXEDPOINT_MAX_ITER} steps",
        last=anchor + xi,
        iterations=FIXEDPOINT_MAX_ITER,
    )


def ref_enumerate(q: Quasipolynomial, nu_lo: int, nu_hi: int) -> list[tuple]:
    records = []
    for nu in range(nu_lo, nu_hi + 1):
        if abs(nu) < nu_min(q):
            continue
        guess = asymptotic_guess(q, nu)
        fp_lam, fp_iters = ref_fixedpoint(q, nu)
        seed, lam, residual, iters = ref_newton(q, guess)
        if abs(lam - fp_lam) > 1e-6:
            raise CertificationError(
                f"refiners disagree at nu = {nu}: Newton {lam!r} vs "
                f"fixed point {fp_lam!r}"
            )
        records.append((nu, seed, lam, residual, iters, fp_iters))
    records.sort(key=lambda r: r[2].imag)
    for a, b in zip(records, records[1:]):
        d = abs(a[2] - b[2])
        if d < DUPLICATE_TOL:
            raise DuplicateZeroError(a[0], b[0], d)
    return records


# -- comparison ---------------------------------------------------------------


def _exact(x) -> str:
    """repr of the value, blind to float subclasses but not to signed zeros."""
    if isinstance(x, complex):
        return repr(complex(x))
    if isinstance(x, float):
        return repr(float(x))
    return repr(x)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # every error class is compared, not handled
        attached = {k: _exact(v) for k, v in sorted(vars(exc).items())}
        return ("raised", type(exc).__name__, str(exc), attached)
    return ("returned", result)


def _record_fields(rec) -> tuple:
    return tuple(
        _exact(v)
        for v in (rec.nu, rec.guess, rec.refined, rec.residual,
                  rec.newton_iters, rec.fixedpoint_iters)
    )


def _newton_outcome(q, seed):
    out = _outcome(newton_refine, q, seed)
    if out[0] == "returned":
        rec = out[1]
        assert rec.nu is None and rec.fixedpoint_iters == 0
        return ("returned", tuple(_exact(v) for v in (rec.guess, rec.refined,
                                                       rec.residual, rec.newton_iters)))
    return out


def _ref_newton_outcome(q, seed):
    out = _outcome(ref_newton, q, seed)
    if out[0] == "returned":
        return ("returned", tuple(_exact(v) for v in out[1]))
    return out


def _enumerate_outcome(q, lo, hi):
    out = _outcome(enumerate_zeros, q, lo, hi)
    if out[0] == "returned":
        return ("returned", [_record_fields(r) for r in out[1]])
    return out


def _ref_enumerate_outcome(q, lo, hi):
    out = _outcome(ref_enumerate, q, lo, hi)
    if out[0] == "returned":
        return ("returned", [tuple(_exact(v) for v in r) for r in out[1]])
    return out


# -- grids --------------------------------------------------------------------


def _wide_grid(seed: int, n: int):
    """(q, nu): k 1..16, |A| log-uniform 1e-20..1e20, |nu| log-uniform 5..1000."""
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.randint(1, 16)
        a = cmath.rect(10.0 ** rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))
        nu = rng.choice((-1, 1)) * round(5 * 200.0 ** rng.random())
        yield Quasipolynomial(k, a), nu


def _newton_seeds():
    rng = random.Random(20111103)
    for q, nu in _wide_grid(1, 600):
        guess = asymptotic_guess(q, nu)
        yield q, guess
        # off the seed, so some runs take longer or leave the trust disk
        yield q, guess + complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    # |sigma_1| > 50 on the zero curve itself: the stabilized step throughout
    for mag in (1e-35, 1e-25, 1e25, 1e35):
        for k in (1, 2, 7, 16):
            q = Quasipolynomial(k, cmath.rect(mag, rng.uniform(-math.pi, math.pi)))
            for nu in (-700, -40, -5, 5, 40, 700):
                guess = asymptotic_guess(q, nu)
                yield q, guess
                yield q, guess + complex(rng.uniform(-60, 60), rng.uniform(-2, 2))
    # near the origin, including lambda = 0 and k = 1 (f' keeps a power-0 term)
    for k in (1, 2, 3):
        for a in (1, -2, 0.5 + 0.5j, 3j, 1e-20, 1e20j):
            q = Quasipolynomial(k, a)
            for seed in (0j, 1e-300, 1e-3, 0.3 + 0.2j, -0.5j, 1 + 1j, -1.0, 2.5 - 0.5j):
                yield q, seed
    for k, a, lo, hi in DEFECT_BLOCKS:
        q = Quasipolynomial(k, a)
        for nu in range(lo, hi + 1):
            yield q, asymptotic_guess(q, nu)


def _blocks():
    rng = random.Random(9)
    for q, nu in _wide_grid(2, 120):
        lo = nu if nu > 0 else nu - 7
        yield q, lo, lo + 7
    for k in (1, 2, 3):
        for a in (1, -2, 0.5 + 0.5j, 3j):
            lo = rng.randint(-60, 40)
            yield Quasipolynomial(k, a), lo, lo + 20
    for k, a, lo, hi in DEFECT_BLOCKS:
        yield Quasipolynomial(k, a), lo, hi


# -- tests --------------------------------------------------------------------


def test_newton_refine_matches_reference_bit_for_bit():
    kinds = set()
    mismatches = []
    for q, seed in _newton_seeds():
        got = _newton_outcome(q, seed)
        want = _ref_newton_outcome(q, seed)
        kinds.add(got[1] if got[0] == "raised" else "returned")
        if got != want:
            mismatches.append((q, seed, got, want))
    assert not mismatches, mismatches[:3]
    # the grid reaches converged zeros and the typed failures alike
    assert {"returned", "DivergedError", "NotConvergedError", "EvalOverflowError"} <= kinds


def test_newton_refine_rejects_nonfinite_seed_like_reference():
    q = Quasipolynomial(2, 1)
    for seed in (complex(math.inf, 0), complex(0, math.nan)):
        assert _newton_outcome(q, seed) == _ref_newton_outcome(q, seed)
        assert _newton_outcome(q, seed)[1] == "ValueError"


def test_newton_refine_checks_every_iterate_is_finite(monkeypatch):
    # no public input is known to reach a nan step, so force one
    monkeypatch.setattr(zeros_mod, "_newton_step", lambda q, lam, log_lam: complex(math.nan, 0))
    q = Quasipolynomial(2, 1)
    with pytest.raises(ValueError, match=r"lambda must be finite, got \(nan"):
        newton_refine(q, asymptotic_guess(q, 5) + 1)


def test_enumerate_zeros_matches_reference_bit_for_bit():
    kinds = set()
    mismatches = []
    for q, lo, hi in _blocks():
        got = _enumerate_outcome(q, lo, hi)
        want = _ref_enumerate_outcome(q, lo, hi)
        kinds.add(got[1] if got[0] == "raised" else "returned")
        if got != want:
            mismatches.append((q, lo, hi, got, want))
    assert not mismatches, mismatches[:3]
    assert {"returned", "DivergedError", "NotConvergedError",
            "CertificationError", "EvalOverflowError"} <= kinds


def _chain_constant(q: Quasipolynomial, nu: int) -> complex:
    """c with lambda - k*Log(lambda) = c on the zero of chain index nu."""
    if nu > 0:
        return complex(math.log(abs(q.a)), cmath.phase(q.a) + math.pi * (1 + 2 * nu))
    return _chain_constant(q.conjugate(), -nu).conjugate()


@pytest.mark.xfail(
    raises=DivergedError,
    strict=True,
    reason="Newton from the asymptotic seed leaves its trust disk at k = 4, "
    "|nu| = 5 (ROADMAP item 2)",
)
@pytest.mark.parametrize("a", [1, 0.5, 2j])
def test_k4_chain_matches_lambert_w(a):
    q = Quasipolynomial(4, a)
    zeros = lambert_w_zeros(4, a, 2 * math.pi * 9)
    records = enumerate_zeros(q, -7, 7)
    assert [r.nu for r in sorted(records, key=lambda r: r.nu)] == [-7, -6, -5, 5, 6, 7]
    for rec in records:
        nearest = min(zeros, key=lambda z: abs(z - rec.refined))
        assert abs(rec.refined - nearest) <= 1e-9 * abs(nearest)
        # the zero found is the one on branch nu, not a neighbour
        miss = nearest - q.k * cmath.log(nearest) - _chain_constant(q, rec.nu)
        assert abs(miss) < 1e-6
