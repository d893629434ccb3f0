"""Acceptance suite: eight end-to-end criteria with printed verdicts.

Each test prints a single PASS or FAIL line (visible with ``pytest -s``,
or on failure in the captured output) and pins its tolerances inline.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import numpy as np

from quasizero import (
    Quasipolynomial,
    Rect,
    asymptotic_guess,
    count_zeros_rect,
    enumerate_zeros,
    estimate_c_delta,
    min_h_t1,
    min_h_t2,
    nu_min,
    sector_radius,
    sigma,
    small_zeros,
    spacing_report,
    verify_eq3,
    verify_eq4,
)
from conftest import omega_constant

GRID = [
    Quasipolynomial(k, a)
    for k in (1, 2, 3)
    for a in (1, -2, 0.5 + 0.5j, 3j)
]


def _verdict(label: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_1_zero_enumeration_and_certification():
    """Every chain zero in [nu_min, 40] and its mirror refines to residual
    below 1e-10 and sits on sigma_1 = ln|a| within 1e-8. Its +-2 box holds
    exactly one zero per the contour oracle."""

    def check():
        for q in GRID:
            lo = nu_min(q)
            records = enumerate_zeros(q, lo, 40) + enumerate_zeros(q, -40, -lo)
            assert len(records) == 2 * (41 - lo)
            for rec in records:
                assert rec.residual < 1e-10
                assert abs(sigma(q, 1, rec.refined) - q.log_abs_a) < 1e-8
                z = rec.refined
                box = Rect(z.real - 2, z.real + 2, z.imag - 2, z.imag + 2)
                assert count_zeros_rect(q, box).count == 1

    _verdict("criterion 1: on-curve enumeration with certified box counts", check)


def test_2_asymptotic_guess_quality():
    """The refined-to-guess distance shrinks along the chain in every grid
    cell, and |refined - guess| * |nu| / ln|nu| stays below 1.0 across
    nu in [5, 200] for the unit cell (the measured constant is printed)."""

    def check():
        for q in GRID:
            lo = nu_min(q)
            dist = {
                r.nu: abs(r.refined - r.guess)
                for r in enumerate_zeros(q, lo, 40)
            }
            near = max(dist[nu] for nu in range(max(lo, 5), 16))
            far = max(dist[nu] for nu in range(30, 41))
            assert far < near
        q = Quasipolynomial(1, 1)
        scaled = [
            abs(r.refined - r.guess) * abs(r.nu) / math.log(abs(r.nu))
            for r in enumerate_zeros(q, 5, 200)
        ]
        constant = max(scaled)
        print(f"criterion 2 remainder constant: {constant:.4f}")
        assert constant < 1.0

    _verdict("criterion 2: asymptotic remainder decay and scaling", check)


def test_3_spacing_approaches_two_pi():
    """All gaps for nu in [10, 100] sit within 0.2 of 2*pi, and the mean
    deviation over nu in [90, 100] is strictly below the one over
    [10, 20], in every grid cell."""

    def check():
        for q in GRID:
            report = spacing_report(enumerate_zeros(q, 10, 101))
            assert all(g.deviation < 0.2 for g in report.gaps)
            lead = [g.deviation for g in report.gaps if 10 <= g.nu <= 20]
            tail = [g.deviation for g in report.gaps if 90 <= g.nu <= 100]
            assert sum(tail) / len(tail) < sum(lead) / len(lead)

    _verdict("criterion 3: spacing 2*pi with decaying deviation", check)


def test_4_zero_free_regions_and_lower_bounds():
    """With h a half unit above its threshold, ten random 10x10 rectangles
    per side count zero, and the sampled tail inequalities hold with min
    ratio >= 0.5 over 1e4 points per region per cell."""

    def check():
        rng = random.Random(20260814)
        for idx, q in enumerate(GRID):
            h1 = min_h_t1(q) + 0.5
            h2 = min_h_t2(q) + 0.5
            for _ in range(10):
                x0 = rng.uniform(-200, -60)
                y0 = rng.uniform(-100, 100)
                rect = Rect(x0, x0 + 10, y0, y0 + 10)
                assert count_zeros_rect(q, rect).count == 0
            for _ in range(10):
                x0 = rng.uniform(60, 200)
                y0 = rng.uniform(-100, 100)
                rect = Rect(x0, x0 + 10, y0, y0 + 10)
                assert count_zeros_rect(q, rect).count == 0
            r3 = verify_eq3(q, h=h1, r=1.0, n=10_000, seed=100 + idx)
            assert r3.passed and r3.min_ratio >= 0.5
            r4 = verify_eq4(q, h=h2, r=1.0, n=10_000, seed=200 + idx)
            assert r4.passed and r4.min_ratio >= 0.5

    _verdict("criterion 4: zero-free regions and tail inequalities", check)


def test_5_small_zero_oracle():
    """The unit cell's only zero in |lambda| <= 2 matches the bisection
    root of e^x + x on (-1, 0) to 1e-9."""

    def check():
        zs = small_zeros(Quasipolynomial(1, 1), 2.0)
        assert len(zs) == 1
        assert abs(zs[0] - omega_constant()) < 1e-9

    _verdict("criterion 5: inner-disk zero against bisection", check)


def test_6_sector_containment_radius():
    """Beyond R* the band lies inside the two sectors of half-angle delta
    around the imaginary axis; shrinking delta never shrinks R*."""

    def check():
        h = 2.0
        for k in (1, 3):
            q = Quasipolynomial(k, 1)
            radii = {}
            for delta in (0.1, 0.3):
                r_star = sector_radius(q, h, delta)
                radii[delta] = r_star
                rng = np.random.default_rng(2468)
                x_hi = k * math.log(10 * r_star) + h + 1
                kept_x: list[np.ndarray] = []
                kept_y: list[np.ndarray] = []
                total = 0
                while total < 10_000:
                    xs = rng.uniform(-h - 1, x_hi, 40_000)
                    ys = rng.uniform(-10 * r_star, 10 * r_star, 40_000)
                    mag = np.hypot(xs, ys)
                    keep = (
                        (mag >= r_star)
                        & (mag <= 10 * r_star)
                        & (np.abs(xs - k * np.log(mag)) <= h)
                    )
                    kept_x.append(xs[keep])
                    kept_y.append(ys[keep])
                    total += int(keep.sum())
                x = np.concatenate(kept_x)[:10_000]
                y = np.concatenate(kept_y)[:10_000]
                angles = np.abs(np.abs(np.arctan2(y, x)) - math.pi / 2)
                assert angles.max() < delta
            assert radii[0.1] >= radii[0.3]

    _verdict("criterion 6: band tail contained in delta sectors", check)


def test_7_punctured_band_constant():
    """Each C_delta estimate is positive and stable within 20% under
    doubling the sample count. Across delta the estimates grow, up to a
    20% tolerance."""

    def check():
        q = Quasipolynomial(1, 1)
        estimates = []
        for delta in (0.25, 0.5, 1.0):
            report = estimate_c_delta(
                q, h=2.0, r=1.0, delta=delta, nu_hi=30, n=100_000, seed=42
            )
            assert report.min_ratio > 0
            assert report.stability_ratio is not None
            assert abs(report.stability_ratio - 1.0) <= 0.2
            estimates.append(report.min_ratio)
        assert estimates[0] <= estimates[1] * 1.2
        assert estimates[1] <= estimates[2] * 1.2
        print(
            "criterion 7 estimates: "
            + ", ".join(f"{c:.4f}" for c in estimates)
        )

    _verdict("criterion 7: punctured-band lower-bound estimates", check)


def test_8_cli_determinism():
    """Identical seeds produce byte-identical CLI output on repeat runs."""

    def check():
        env = {k: v for k, v in os.environ.items() if k != "QUASIZERO_SEED"}
        for argv in (
            [
                "bounds", "--ineq", "eq3", "--k", "1", "--a", "1+0i",
                "--h", "auto+0.5", "--samples", "2000", "--seed", "7",
            ],
            ["zeros", "--k", "1", "--a", "1+0i", "--nu", "5..40"],
            [
                "bounds", "--ineq", "eq7", "--k", "1", "--a", "1+0i",
                "--delta", "0.5", "--samples", "2000", "--seed", "11",
            ],
        ):
            cmd = [sys.executable, "-m", "quasizero", *argv]
            first = subprocess.run(cmd, capture_output=True, env=env)
            second = subprocess.run(cmd, capture_output=True, env=env)
            assert first.returncode == 0
            assert second.returncode == 0
            assert first.stdout == second.stdout

    _verdict("criterion 8: byte-identical seeded replays", check)
