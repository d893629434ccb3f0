"""Closed-form reference zeros of f(lambda) = e^lambda + A*lambda^k.

Every zero is lambda = -k * W_m(-1 / (k * omega_j)) for one root omega_j of
omega^k = -A and one branch m of the Lambert W function (Corless, Gonnet,
Hare, Jeffrey and Knuth, "On the Lambert W function", 1996): taking k-th
roots of e^lambda = -A*lambda^k gives e^(lambda/k) = omega_j * lambda, and
w = -lambda/k turns that into w * e^w = -1 / (k * omega_j).  Each zero belongs
to exactly one pair (j, m).

This module uses mpmath only and never imports quasizero, so it shares no
code with the library it checks.  Bulk enumeration runs in mpmath's
double-precision context ``fp`` (about 15 microseconds per W evaluation);
``self_check`` confirms it against the 30-digit context.
"""

from __future__ import annotations

import math

from mpmath import fp, mp

TAU = 2.0 * math.pi

#: a reference zero farther than this (times max(1, |lambda|)) from an
#: answer makes the answer wrong
ZERO_RTOL = 1e-9


def _canonical(a: complex) -> complex:
    a = complex(a)
    return complex(a.real, 0.0) if a.imag == 0.0 else a


def _omegas(k: int, a: complex, ctx=fp) -> list:
    """The k roots of omega^k = -A."""
    base = ctx.log(-ctx.mpc(a.real, a.imag))
    return [ctx.exp((base + 2j * ctx.pi * j) / k) for j in range(k)]


def _branch_range(w_im_lo: float, w_im_hi: float) -> range:
    """Branches m whose image strip can meet w_im_lo <= Im w <= w_im_hi.

    W_m maps into (2m-2)pi < Im w < (2m+1)pi for m >= 1, into
    (2m-1)pi < Im w < (2m+2)pi for m <= -1 and into -pi < Im w < pi for m = 0;
    one extra branch on each side keeps the cover conservative.
    """
    lo = math.floor(w_im_lo / TAU) - 2
    hi = math.ceil(w_im_hi / TAU) + 2
    return range(lo, hi + 1)


def zeros_in_rect(
    k: int, a: complex, re_lo: float, re_hi: float, im_lo: float, im_hi: float
) -> list[complex]:
    """Every zero with re_lo <= Re <= re_hi and im_lo <= Im <= im_hi."""
    a = _canonical(a)
    # Im lambda = -k * Im w, so the box's Im range fixes the branches to try
    branches = _branch_range(-im_hi / k, -im_lo / k)
    out = []
    for omega in _omegas(k, a):
        z = -1.0 / (k * omega)
        for m in branches:
            lam = complex(-k * fp.lambertw(z, m))
            if re_lo <= lam.real <= re_hi and im_lo <= lam.imag <= im_hi:
                out.append(lam)
    return sorted(out, key=lambda z: (z.imag, z.real))


def zeros_in_disk(k: int, a: complex, center: complex, radius: float) -> list[complex]:
    """Every zero with |lambda - center| <= radius."""
    c = complex(center)
    box = zeros_in_rect(
        k, a, c.real - radius, c.real + radius, c.imag - radius, c.imag + radius
    )
    return [z for z in box if abs(z - c) <= radius]


def chain_constant(a: complex, nu: int, ctx=fp):
    """c_nu with lambda - k*Log(lambda) = c_nu on the zero of chain index nu.

    nu >= 1: c = ln|A| + i(arg A + pi + 2 pi nu).  nu <= -1 mirrors the
    positive chain of the conjugate coefficient: c = conj(c'_|nu|), where c'
    uses arg(conj A) (which stays +pi for negative real A).
    """
    a = _canonical(a)
    if nu > 0:
        return ctx.mpc(ctx.log(abs(a)), ctx.arg(ctx.mpc(a)) + ctx.pi * (1 + 2 * nu))
    ab = _canonical(a.conjugate())
    return ctx.mpc(ctx.log(abs(a)), -(ctx.arg(ctx.mpc(ab)) + ctx.pi * (1 - 2 * nu)))


def chain_zero(k: int, a: complex, nu: int, ctx=fp):
    """The zero with lambda/k - Log(lambda) = c_nu/k, found on its W branch.

    Returns a number of the given mpmath context (fp: a Python complex).

    lambda/k - Log(lambda) = c/k gives e^(lambda/k) / lambda = e^(c/k), so
    omega = e^(c/k) and z = -1/(k*omega) are fixed by nu; the branch m is the
    one whose zero satisfies the equation with the principal Log exactly (the
    other branches of the same z miss it by a nonzero multiple of 2*pi*i).
    """
    if nu == 0:
        raise ValueError("nu = 0 does not index a chain zero")
    c = chain_constant(a, nu, ctx)
    ck = c / k
    z = -ctx.exp(-ck) / k
    # one fixed-point step from c estimates lambda well enough to pick m
    approx = complex(c + k * ctx.log(c))
    w_approx = -approx / k
    m0 = round((w_approx.imag - float(ctx.arg(z))) / TAU)
    for m in (m0, m0 - 1, m0 + 1, m0 - 2, m0 + 2, m0 - 3, m0 + 3):
        lam = -k * ctx.lambertw(z, m)
        miss = lam / k - ctx.log(lam) - ck
        if abs(complex(miss)) < 1e-3:
            return lam
    raise ArithmeticError(f"no Lambert W branch matches chain index {nu} (k={k}, A={a!r})")


def ratio_alg(k: int, a: complex, lam: complex) -> float:
    """|f| / |A lambda^k| = |1 + e^(lambda - k Log lambda) / A| at 30 digits."""
    with mp.workdps(30):
        lam, am = mp.mpc(lam), mp.mpc(a)
        return float(abs(1 + mp.exp(lam - k * mp.log(lam)) / am))


def ratio_exp(k: int, a: complex, lam: complex) -> float:
    """|f| / |e^lambda| = |1 + A e^(k Log lambda - lambda)| at 30 digits."""
    with mp.workdps(30):
        lam, am = mp.mpc(lam), mp.mpc(a)
        return float(abs(1 + am * mp.exp(k * mp.log(lam) - lam)))


def sigma(k: int, s: int, lam: complex) -> float:
    """sigma_S = Re(lambda) + (-1)^S * k * ln|lambda| at 30 digits."""
    with mp.workdps(30):
        lm = mp.mpc(lam)
        return float(lm.real + (-1) ** s * k * mp.log(abs(lm)))


def close(x: complex, ref: complex) -> bool:
    return abs(x - ref) <= ZERO_RTOL * max(1.0, abs(ref))


def self_check() -> None:
    """Reproduce known zeros and counts; raise AssertionError on a mismatch."""
    with mp.workdps(30):
        z5 = complex(chain_zero(1, 1, 5, ctx=mp))
        assert abs(z5 - complex("3.5892625245295+36.0290217034277j")) < 1e-12, z5
        assert close(chain_zero(1, 1, 5), z5)
        omega = -mp.lambertw(1)
        assert abs(float(omega) + 0.5671432904097838) < 1e-15, omega
        inner = zeros_in_disk(1, 1, 0j, 1.0)
        assert len(inner) == 1 and abs(inner[0] - float(omega)) < 1e-14, inner
        assert len(zeros_in_disk(120, 1, 0j, 4.1)) == 120
        # the double-precision cover agrees with 30 digits, and both are zeros
        for k, a, nu in ((1, 1, 5), (3, -2, -40), (30, 1, 300), (200, 1e-20, 10**6)):
            lm = chain_zero(k, a, nu, ctx=mp)
            assert close(chain_zero(k, a, nu), complex(lm)), (k, a, nu)
            rel = abs(mp.exp(lm) + a * lm**k) / max(abs(mp.exp(lm)), abs(a * lm**k))
            assert rel < 1e-12, (k, a, nu, rel)
