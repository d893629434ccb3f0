"""Lambert-W seeds and their Rouche disks, against mpmath alone."""

from __future__ import annotations

import cmath
import math
import random

import pytest

import quasizero.seeds as seeds
from quasizero import (
    CertificationError,
    Quasipolynomial,
    Rect,
    asymptotic_guess,
    isolate_zeros,
    nu_min,
    small_zeros,
)
from conftest import lambert_w_zeros


def _w_points() -> list[complex]:
    """Points of every size and angle, and points on and beside the cuts."""
    rng = random.Random(4)
    pts = [
        cmath.rect(10.0 ** rng.uniform(-22, 22), rng.uniform(-math.pi, math.pi))
        for _ in range(150)
    ]
    pts += [-math.exp(-1) + complex(rng.gauss(0, 0.2), rng.gauss(0, 0.2)) for _ in range(60)]
    for x in (-0.3, -0.36, -0.37, -0.5, -1.0, -2.0, -1e-10, -1e5, 0.5, 2.0):
        pts += [complex(x, 0.0), complex(x, -0.0), complex(x, 1e-17), complex(x, -1e-17)]
    return pts


def test_w_matches_mpmath_on_every_branch():
    mpmath = pytest.importorskip("mpmath")
    misses = []
    for z in _w_points():
        for m in (-3, -2, -1, 0, 1, 2, 3, 40, -1000, 10**6):
            # mpmath reads a real z as lying on the upper side of the cuts
            ref = complex(mpmath.lambertw(mpmath.mpc(z.real, z.imag or 0.0), m))
            got = seeds._lambert_w(z, m)
            if abs(got - ref) > 1e-12 * max(1.0, abs(ref)):
                misses.append((z, m, got, ref))
    assert not misses, misses[:3]


def _assert_matches_reference(q: Quasipolynomial, radius: float) -> None:
    got = small_zeros(q, radius)
    ref = [z for z in lambert_w_zeros(q.k, q.a, radius) if abs(z) <= radius]
    assert len(got) == len(ref)
    for z in got:
        nearest = min(ref, key=lambda w: abs(w - z))
        assert abs(z - nearest) <= 1e-10 * max(1.0, abs(z)), (z, nearest)
        ref.remove(nearest)


@pytest.mark.parametrize("abs_a", [1e-20, 1.0, 1e20])
@pytest.mark.parametrize("k", [1, 2, 3, 14, 40, 120, 200])
def test_seeded_zero_sets_match_lambert_w(k, abs_a):
    # the disk of _collect_band_zeros: everything below the chain of q
    q = Quasipolynomial(k, cmath.rect(abs_a, 0.7))
    _assert_matches_reference(q, abs(asymptotic_guess(q, nu_min(q))) - 0.5)


@pytest.mark.parametrize(
    "k, a, radius",
    [
        (1, -1.0, 3.0),  # z = -1 lies on the cut of W_0
        (3, -1.0, 8.0),  # z = -1/3: two real zeros, on W_0 and W_-1
        (4, -(math.e / 4) ** 4 * 1.001, 8.0),  # z just right of the branch point -1/e
        (4, -(math.e / 4) ** 4 * 0.999, 8.0),  # z just left of it
        (40, -1e20, 300.0),
        (200, -1.0, 50.0),
    ],
)
def test_negative_real_coefficients(k, a, radius):
    # -a > 0, so z = -1/(k*omega_0) is real and negative: on W's cut
    _assert_matches_reference(Quasipolynomial(k, a), radius)


@pytest.mark.parametrize("k, a, radius", [(1, 1, 20.0), (3, -1.0, 8.0), (40, 1e20, 40.0)])
def test_a_root_seeded_from_wrong_branches_fails_the_count(monkeypatch, k, a, radius):
    # the first root omega_0 is seeded five branches off: its zeros in the
    # disk go missing, which the count must catch
    w = seeds._lambert_w
    first = []

    def shifted(z, m):
        first[:] = first or [z]
        return w(z, m + 5) if z == first[0] else w(z, m)

    monkeypatch.setattr(seeds, "_lambert_w", shifted)
    with pytest.raises(CertificationError, match="counts"):
        small_zeros(Quasipolynomial(k, a), radius)
    with pytest.raises(CertificationError, match="counts"):
        isolate_zeros(Quasipolynomial(k, a), Rect(-radius, radius, -radius, radius), 0.5)


def test_a_second_seed_of_one_zero_is_kept_once(monkeypatch):
    q = Quasipolynomial(3, 1)
    found = small_zeros(q, 20.0)
    seed = seeds._seeds

    def twice(q, im_lo, im_hi):
        once = seed(q, im_lo, im_hi)
        return once + [s * (1 + 1e-9) for s in once]

    monkeypatch.setattr(seeds, "_seeds", twice)
    again = small_zeros(q, 20.0)
    assert len(again) == len(found) == 7
    assert all(abs(a - b) < 1e-14 * abs(b) for a, b in zip(again, found))


class TestRouche:
    def test_a_zero_gets_a_tight_disk(self, omega):
        r = seeds._rouche(Quasipolynomial(1, 1), complex(omega))
        assert r is not None and r < 1e-14

    def test_a_point_off_the_zeros_gets_none(self):
        # f(0.5) = e^0.5 + 0.5; its linear model has a zero near -0.13, but
        # f'' keeps the test from passing
        assert seeds._rouche(Quasipolynomial(1, 1), 0.5 + 0j) is None

    def test_a_disk_holding_two_zeros_is_refused(self):
        q = Quasipolynomial(3, 1)
        z = 0.18462553105189208 + 1.0473263478649546j
        assert seeds._rouche(q, z, 0.5) == 0.5
        # the real zero -0.7729 is 1.419 from z
        assert seeds._rouche(q, z, 1.5) is None
