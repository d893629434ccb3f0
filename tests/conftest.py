"""Shared numeric oracles for the test suite.

Everything here is computed by elementary, self-contained methods (bisection,
fixed-point iteration, ray casting) that do not touch the library internals,
so expected values can be cross-checked without trusting the code under test.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import pytest


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-15,
    max_iter: int = 200,
) -> float:
    """Locate a sign change of ``fn`` on [lo, hi] by plain bisection."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert f_lo * f_hi < 0, "oracle bracket must straddle a sign change"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * max(1.0, abs(mid)):
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def omega_constant() -> float:
    """The real zero of e^x + x, located by bisection on (-1, 0).

    This is the negated omega constant; it is the only zero of the k=1, a=1
    quasipolynomial inside |lambda| <= 2.
    """
    return bisect_root(lambda x: math.exp(x) + x, -1.0, 0.0)


@pytest.fixture(scope="session")
def omega() -> float:
    return omega_constant()


def point_in_polygon(pt: complex, vertices: Sequence[complex]) -> bool:
    """Crossing-number point-in-polygon test with half-open edges."""
    x, y = pt.real, pt.imag
    inside = False
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        r = vertices[(i + 1) % n]
        if (p.imag > y) != (r.imag > y):
            x_cross = p.real + (y - p.imag) * (r.real - p.real) / (r.imag - p.imag)
            if x < x_cross:
                inside = not inside
    return inside


def polygon_signed_area(vertices: Sequence[complex]) -> float:
    """Shoelace signed area; positive for counterclockwise vertex order."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        r = vertices[(i + 1) % n]
        total += p.real * r.imag - r.real * p.imag
    return 0.5 * total


def lambert_w_zeros(k: int, a: complex, im_max: float) -> list[complex]:
    """Every zero of e^lambda + a*lambda^k with |Im lambda| <= im_max.

    Each zero is -k*W_m(-1/(k*omega)) for a root omega of omega^k = -a and a
    branch m of the Lambert W function (Corless et al. 1996), computed with
    mpmath at 30 digits and checked against f itself.
    """
    mpmath = pytest.importorskip("mpmath")
    zeros = []
    with mpmath.workdps(30):
        a_mp = mpmath.mpc(a)
        branches = int(im_max / (2 * math.pi * k)) + 2
        for j in range(k):
            omega = mpmath.root(-a_mp, k, j)
            for m in range(-branches, branches + 1):
                lam = -k * mpmath.lambertw(-1 / (k * omega), m)
                if abs(lam.imag) > im_max:
                    continue
                residual = abs(mpmath.exp(lam) + a_mp * lam**k) / abs(a_mp * lam**k)
                assert residual < 1e-20, f"{lam} is not a zero"
                zeros.append(complex(lam))
    return zeros


def lambert_w_chain_zero(k: int, a: complex, nu: int) -> complex:
    """The zero of e^lambda + a*lambda^k on chain branch nu != 0, at 30 digits.

    For nu >= 1 the branch equation is lambda - k*Log(lambda) = c with
    c = ln|a| + i*(arg a + pi + 2*pi*nu); nu <= -1 is the conjugate of branch
    -nu for conj(a).  Writing lambda = -k*W with Im W < 0 turns it into
    W + Log W = z with z = -c/k - ln k - i*pi, solved by the Wright omega
    function W_K(e^z), K = ceil((Im z - pi) / (2*pi)) (Corless et al. 1996).
    For real a, e^z lies on the cut of W and rounding can pick the neighbour
    of K, so K - 1 and K + 1 are tried when K does not solve the branch
    equation.
    """
    mpmath = pytest.importorskip("mpmath")
    if nu < 0:
        return lambert_w_chain_zero(k, complex(a).conjugate(), -nu).conjugate()
    assert nu > 0, "nu = 0 does not index a chain zero"
    with mpmath.workdps(30):
        a_mp = mpmath.mpc(a)
        c = mpmath.log(abs(a_mp)) + 1j * (mpmath.arg(a_mp) + mpmath.pi * (1 + 2 * nu))
        z = -c / k - mpmath.log(k) - 1j * mpmath.pi
        branch = int(mpmath.ceil((z.imag - mpmath.pi) / (2 * mpmath.pi)))
        for m in (branch, branch - 1, branch + 1):
            lam = -k * mpmath.lambertw(mpmath.exp(z), m)
            if abs(lam - k * mpmath.log(lam) - c) < 1e-20 * max(1, abs(lam)):
                break
        else:
            raise AssertionError(f"no Lambert-W branch near {branch} solves branch {nu}")
        assert lam.imag > 0, f"{lam} is not on the upper chain"
        return complex(lam)
