"""Checks of every answer against the Lambert-W reference.

``check(op, answer)`` returns None when the answer is right and a one-line
reason when it is wrong.  "Wrong" has one meaning for every operation:

* a zero farther than 1e-9 * max(1, |lambda|) from its reference zero,
* a count that differs from the number of reference zeros inside the contour,
* isolation boxes that do not each hold exactly one reference zero,

and, for the sampled bounds and the geometry, a reported number that
disagrees with the same quantity recomputed at 30 digits (relative 1e-9), a
worst point outside the region sampled, or a puncture closer than delta to a
reference zero.

Like ``reference``, this module never imports quasizero.
"""

from __future__ import annotations

import math

import reference as ref

#: relative tolerance for sampled ratios and band-edge residuals
VALUE_RTOL = 1e-9


def _k_a(op: dict) -> tuple[int, complex]:
    return op["k"], complex(*op["a"])


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= VALUE_RTOL * max(1.0, abs(y))


def _chain(op: dict, records: list) -> str | None:
    k, a = _k_a(op)
    lo, hi = op["nu"]
    want = [nu for nu in range(lo, hi + 1) if abs(nu) >= max(5, k)]
    got = sorted(r[0] for r in records)
    if got != want:
        return f"chain indices {got[:3]}... do not match {want[:3]}..."
    for nu, re, im in records:
        expect = ref.chain_zero(k, a, nu)
        if not ref.close(complex(re, im), expect):
            return f"nu={nu}: {complex(re, im)!r} is {abs(complex(re, im) - expect):.3g} from {expect!r}"
    return None


def _count(found: int, zeros: list) -> str | None:
    if found != len(zeros):
        return f"count {found} != {len(zeros)} reference zeros"
    return None


def _isolate(op: dict, boxes: list) -> str | None:
    k, a = _k_a(op)
    zeros = ref.zeros_in_rect(k, a, *op["rect"])
    if len(boxes) != len(zeros):
        return f"{len(boxes)} boxes for {len(zeros)} reference zeros"
    for re_lo, re_hi, im_lo, im_hi in boxes:
        inside = [z for z in zeros if re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi]
        if len(inside) != 1:
            return f"box {[re_lo, re_hi, im_lo, im_hi]} holds {len(inside)} reference zeros"
    return None


def _zero_list(found: list, zeros: list) -> str | None:
    if len(found) != len(zeros):
        return f"{len(found)} zeros for {len(zeros)} reference zeros"
    unmatched = list(zeros)
    for re, im in found:
        z = complex(re, im)
        best = min(unmatched, key=lambda r: abs(r - z))
        if not ref.close(z, best):
            return f"{z!r} is {abs(z - best):.3g} from the nearest reference zero"
        unmatched.remove(best)
    return None


def _tail_bound(op: dict, rep: dict) -> str | None:
    """eq3 / eq4: passed, worst point in the sampled tail, ratio recomputed."""
    k, a = _k_a(op)
    w = complex(*rep["worst"])
    if not rep["passed"]:
        return f"{op['kind']} reported min ratio {rep['min_ratio']!r} below 1/2"
    s1 = ref.sigma(k, 1, w)
    in_region = s1 < -op["h"] if op["kind"] == "eq3" else s1 > op["h"]
    if not (in_region and op["r"] < abs(w) <= 1000.0):
        return f"worst point {w!r} lies outside the sampled region (sigma_1 = {s1!r})"
    exact = (ref.ratio_alg if op["kind"] == "eq3" else ref.ratio_exp)(k, a, w)
    if not _near(rep["min_ratio"], exact):
        return f"min ratio {rep['min_ratio']!r} != {exact!r} at {w!r}"
    return None


def _punctured(op: dict, rep: dict) -> str | None:
    """eq7: positive floor, worst point in the punctured band, ratio recomputed."""
    k, a = _k_a(op)
    w = complex(*rep["worst"])
    y_max = ref.TAU * op["nu_hi"]
    if not (rep["passed"] and rep["min_ratio"] > 0):
        return f"eq7 reported a nonpositive floor {rep['min_ratio']!r}"
    if not (abs(ref.sigma(k, 1, w)) <= op["h"] and abs(w.imag) <= y_max and abs(w) > op["r"]):
        return f"worst point {w!r} lies outside the band"
    zeros = ref.zeros_in_rect(k, a, -math.inf, math.inf, w.imag - 1.0, w.imag + 1.0)
    if any(abs(w - z) <= op["delta"] for z in zeros):
        return f"worst point {w!r} lies within delta of a reference zero"
    exact = ref.ratio_alg(k, a, w)
    if not _near(rep["min_ratio"], exact):
        return f"min ratio {rep['min_ratio']!r} != {exact!r} at {w!r}"
    return None


def _cut_offset(a: complex, k: int) -> float:
    raw = math.pi + k * math.pi / 2.0 + math.atan2(a.imag, a.real)
    reduced = raw - ref.TAU * math.floor(raw / ref.TAU)
    return reduced if reduced > 0.0 else ref.TAU


def _quadrangle(op: dict, corners: list) -> str | None:
    """Cut lines below the reference zeros nu and nu + 1; corners on sigma_1 = -+h."""
    k, a = _k_a(op)
    a = complex(a.real, 0.0) if a.imag == 0 else a
    nu, h = op["nu"], op["h"]
    off = _cut_offset(a, k)
    y_lo = ref.chain_zero(k, a, nu).imag - off
    y_hi = ref.chain_zero(k, a, nu + 1).imag - off
    levels = (-h, h, h, -h)
    heights = (y_lo, y_lo, y_hi, y_hi)
    for (re, im), level, y in zip(corners, levels, heights):
        if not _near(im, y):
            return f"corner {complex(re, im)!r} is off the cut line Im = {y!r}"
        s1 = ref.sigma(k, 1, complex(re, im))
        if not _near(s1, level):
            return f"corner {complex(re, im)!r} has sigma_1 = {s1!r}, not {level!r}"
    return None


def _gamma(op: dict, points: list) -> str | None:
    k, _ = _k_a(op)
    lo, hi = op["im"]
    n = op["n"]
    if len(points) != n:
        return f"{len(points)} polyline points, asked for {n}"
    for i, (re, im) in enumerate(points):
        y = lo + (hi - lo) * i / (n - 1)
        s = ref.sigma(k, op["s"], complex(re, im))
        if not (_near(im, y) and _near(s, op["h"])):
            return f"point {complex(re, im)!r} has sigma_{op['s']} = {s!r}, not {op['h']!r}"
    return None


def _sector(op: dict, radius: float) -> str | None:
    k = op["k"]
    sin_d = math.sin(op["delta"])

    def envelope(r: float) -> float:
        return (op["h"] + k * math.log(r)) / r

    if envelope(radius) > sin_d * (1 + 1e-12):
        return f"band leaves the sector beyond R = {radius!r}"
    if radius > math.e * (1 + 1e-8) and envelope(radius * (1 - 1e-8)) <= sin_d:
        return f"R = {radius!r} is not the smallest sector radius"
    return None


def check(op: dict, answer) -> str | None:
    """None when the answer agrees with the reference, else the reason."""
    kind = op["kind"]
    if kind in ("grid", "target"):
        return _chain(op, answer)
    if kind == "rect":
        k, a = _k_a(op)
        return _count(answer, ref.zeros_in_rect(k, a, *op["rect"]))
    if kind == "disk":
        k, a = _k_a(op)
        return _count(answer, ref.zeros_in_disk(k, a, complex(*op["centre"]), op["radius"]))
    if kind == "isolate":
        return _isolate(op, answer)
    if kind == "small":
        k, a = _k_a(op)
        return _zero_list(answer, ref.zeros_in_disk(k, a, 0j, op["radius"]))
    if kind in ("eq3", "eq4"):
        return _tail_bound(op, answer)
    if kind == "eq7":
        return _punctured(op, answer)
    if kind == "quad":
        return _quadrangle(op, answer["corners"])
    return _check_cli(op, answer)


def _check_cli(op: dict, answer: dict) -> str | None:
    """answer is the parsed JSON results block of the CLI (None for import)."""
    kind = op["kind"]
    if kind == "import":
        return None
    if kind == "zeros":
        records = [[r["nu"], r["zero"]["re"], r["zero"]["im"]] for r in answer["records"]]
        return _chain(op, records)
    if kind == "count":
        k, a = _k_a(op)
        return _count(answer["count"], ref.zeros_in_rect(k, a, *op["rect"]))
    if kind == "bounds":
        rep = {"passed": answer["passed"], "min_ratio": answer["min_ratio"],
               "worst": [answer["worst_point"]["re"], answer["worst_point"]["im"]]}
        return _punctured(op, rep)
    variant = op["variant"]
    if variant == "gamma":
        return _gamma(op, answer["points"])
    if variant == "quadrangle":
        return _quadrangle(op, answer["corners"])
    return _sector(op, answer["sector_radius"])
