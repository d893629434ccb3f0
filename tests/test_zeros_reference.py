"""The zero chain against oracles that share no code with the refiners.

enumerate_zeros refines each chain zero on its branch equation; every zero it
returns is compared with the Lambert-W zero of the same branch, computed with
mpmath at 30 digits.  newton_refine works on f itself for free seeds, from one
kernel that divides both terms by the larger; it is compared with a reference
loop written only with the public eval_f, eval_fprime, relative_magnitude and
sigma, which switches to a dominant-term step only far from the zero curve.
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
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    NEWTON_TRUST_RADIUS,
)
from conftest import lambert_w_chain_zero, lambert_w_zeros

#: chain blocks (k, A, nu_lo, nu_hi) on which z-form Newton from the
#: asymptotic seed failed: it left its trust disk, missed the residual gate
#: far out, overflowed, or landed on a neighbouring zero
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


# -- comparison ---------------------------------------------------------------


def _outcome(fn, *args):
    """("returned", refined zero, Newton steps) or (error class name,)."""
    try:
        result = fn(*args)
    except Exception as exc:  # every error class is compared, not handled
        return (type(exc).__name__,)
    if isinstance(result, tuple):  # ref_newton's (seed, lam, residual, iters)
        return ("returned", result[1], result[3])
    assert result.nu is None and result.fixedpoint_iters == 0
    return ("returned", result.refined, result.newton_iters)


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


def _wide_blocks(n: int):
    """(q, nu_lo, nu_hi): k 1..200, |A| 1e-20..1e20, |nu| nu_min..1e6."""
    rng = random.Random(20111103)
    for _ in range(n):
        k = round(200.0 ** rng.random())
        a = cmath.rect(10.0 ** rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))
        floor = max(5, k)
        lo = round(floor * (1e6 / floor) ** rng.random())
        lo = min(lo, 10**6 - 7)
        if rng.random() < 0.5:
            lo = -lo - 7
        yield Quasipolynomial(k, a), lo, lo + 7


# -- tests --------------------------------------------------------------------


def test_newton_refine_agrees_with_reference():
    kinds = set()
    mismatches = []
    for q, seed in _newton_seeds():
        got = _outcome(newton_refine, q, seed)
        want = _outcome(ref_newton, q, seed)
        kinds.add(got[0])
        # one overflow-free kernel: no seed reaches EvalOverflowError
        assert got[0] != "EvalOverflowError", (q, seed)
        if abs(seed) < 1e4 and got[0] != want[0]:
            mismatches.append((q, seed, got, want))
        if got[0] == want[0] == "returned":
            z, z_ref = got[1], want[1]
            if abs(z - z_ref) > 1e-13 * max(1.0, abs(z_ref)) or abs(got[2] - want[2]) > 1:
                mismatches.append((q, seed, got, want))
    assert not mismatches, mismatches[:3]
    # the grid reaches converged zeros and the typed failures alike
    assert {"returned", "DivergedError", "NotConvergedError"} <= kinds


def test_newton_refine_rejects_nonfinite_seed_like_reference():
    q = Quasipolynomial(2, 1)
    for seed in (complex(math.inf, 0), complex(0, math.nan)):
        assert _outcome(newton_refine, q, seed) == _outcome(ref_newton, q, seed)
        assert _outcome(newton_refine, q, seed) == ("ValueError",)


def test_newton_refine_checks_every_iterate_is_finite(monkeypatch):
    # no public input is known to reach a nan step, so force one
    monkeypatch.setattr(
        zeros_mod, "_newton_terms", lambda q, lam: (1.0, complex(math.nan, 0), 1.0)
    )
    q = Quasipolynomial(2, 1)
    with pytest.raises(ValueError, match=r"lambda must be finite, got \(nan"):
        newton_refine(q, asymptotic_guess(q, 5) + 1)


def test_enumerate_zeros_matches_lambert_w():
    blocks = list(_blocks()) + list(_wide_blocks(100))
    misses = []
    for q, lo, hi in blocks:
        records = enumerate_zeros(q, lo, hi)
        wanted = [nu for nu in range(lo, hi + 1) if abs(nu) >= nu_min(q)]
        assert sorted(r.nu for r in records) == wanted, (q, lo, hi)
        for rec in records:
            z = lambert_w_chain_zero(q.k, q.a, rec.nu)
            if abs(rec.refined - z) > 1e-15 * max(1.0, abs(z)):
                misses.append((q, rec.nu, rec.refined, z))
    assert not misses, misses[:3]
    # the grid reaches k = 200, |nu| = 1e6 and both ends of the |A| range
    assert max(q.k for q, _, _ in blocks) == 200
    assert max(abs(lo) for _, lo, _ in blocks) > 999_000
    assert min(q.abs_a for q, _, _ in blocks) < 1e-19
    assert max(q.abs_a for q, _, _ in blocks) > 1e19


def test_chain_reaches_each_refiner_error(monkeypatch):
    q = Quasipolynomial(2, 3j)
    with monkeypatch.context() as m:
        m.setattr(zeros_mod, "FIXEDPOINT_MAX_ITER", 1)
        with pytest.raises(NotConvergedError, match="fixed-point") as exc:
            enumerate_zeros(q, 5, 6)
        assert exc.value.iterations == 1
    with monkeypatch.context() as m:
        m.setattr(zeros_mod, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NotConvergedError, match="Newton") as exc:
            enumerate_zeros(q, -6, -5)
        assert exc.value.iterations == 1
    with monkeypatch.context() as m:
        m.setattr(zeros_mod, "_REFINER_AGREEMENT_TOL", -1.0)
        with pytest.raises(CertificationError, match="refiners disagree"):
            enumerate_zeros(q, 5, 6)
    # restored: the same block returns
    assert [r.nu for r in enumerate_zeros(q, 5, 6)] == [5, 6]


def _chain_constant(q: Quasipolynomial, nu: int) -> complex:
    """c with lambda - k*Log(lambda) = c on the zero of chain index nu."""
    if nu > 0:
        return complex(math.log(abs(q.a)), cmath.phase(q.a) + math.pi * (1 + 2 * nu))
    return _chain_constant(q.conjugate(), -nu).conjugate()


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
