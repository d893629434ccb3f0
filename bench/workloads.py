"""Seeded inputs for the four workloads and the calls that run them.

A run is a sequence of rounds; each round runs one operation of every kind
the workload lists, in that order.  An operation's inputs depend only on the
seed, the workload and the operation's place in the sequence.  Every
parameter follows a low-discrepancy (Kronecker) sequence over the rounds, so
any prefix of a run covers its range evenly.  The parameters that set the
cost (k, |A|, sizes, heights, radii) follow the same sequence for every
seed, so two seeds do the same amount of work; the seed moves the arguments
of A and the signs, and seeds the edge jitter and the samplers.  Round 0 puts
every parameter at the top of its range and is the same for every seed, so
each run meets the largest working set and peak_rss_mb does not depend on
the seed.

This module imports no quasizero code at import time: ``run_op`` receives
the package, so the parent process can import the module to describe and
check operations without loading the library.
"""

from __future__ import annotations

import math
import random

#: the kinds of one round, in order; a kind may repeat to weight the mix
ROUNDS = {
    "chain": ("grid", "target"),
    "certify": ("rect", "disk", "rect", "isolate", "small"),
    "sample": ("eq3", "eq4", "eq7", "quad", "quad"),
    "cli": ("import", "zeros", "count", "bounds", "geometry"),
}

#: consecutive chain indices per enumerate_zeros call
CHAIN_BLOCK = 16

#: eq7 puncture radius; far below half of every zero gap the workload meets
EQ7_DELTA = 0.1

# The timed operations stay where the seed library answers every input
# correctly (scanned against the reference: no failure in about 90,000 target
# blocks at k <= 16, |nu| >= 300, nor in 50,000 disks at k <= 12), so that a
# run's failed count is 0 and does not depend on how many rounds fit in the
# time.  The inputs known to fail are in DEFECTS and run in every run.

#: target chain blocks: k up to this, |nu| from TARGET_NU_MIN to 1000
TARGET_K_MAX = 16
TARGET_NU_MIN = 320

#: disk counts near the origin: k up to this (k >= 13 can undercount)
DISK_K_MAX = 10

#: eq7 (sample and cli): k up to this; at k = 3 the zero of index -+4 can lie
#: outside estimate_c_delta's small-zero disk
EQ7_K_MAX = 2

_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]

#: dimensions of the low-discrepancy sequence shared by every kind
_ARG, _SIGN = 6, 7


class _Draw:
    """Per-operation draws: ``u`` is low-discrepancy, ``rng`` is plain seeded."""

    def __init__(self, seed: int, workload: str, kind: str, rnd: int, index: int):
        # round 0 is the same for every seed, sampler seeds included
        self.rng = random.Random(f"{seed if rnd else ''}/{workload}/{index}")
        # sizes follow one schedule for every seed; signs and arguments of A
        # follow a seeded one
        fixed = random.Random(f"{workload}/{kind}/offsets")
        seeded = random.Random(f"{seed}/{workload}/{kind}/offsets")
        self._u0 = [(seeded if dim >= _ARG else fixed).random() for dim in range(len(_STEPS))]
        self._rnd = rnd

    def u(self, dim: int) -> float:
        if self._rnd == 0:
            return 0.999
        return (self._u0[dim] + self._rnd * _STEPS[dim]) % 1.0

    def coefficient(self, lo: float, hi: float, dim: int) -> tuple[float, float]:
        """A with log-uniform |A| in [lo, hi] and a uniform argument."""
        mag = _log_uniform(self.u(dim), lo, hi)
        arg = math.pi * (2.0 * self.u(_ARG) - 1.0)
        return mag * math.cos(arg), mag * math.sin(arg)

    def sign(self) -> int:
        return 1 if self.u(_SIGN) < 0.5 else -1


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _curve_re(k: int, abs_a: float, y: float) -> float:
    """Re of the zero curve sigma_1 = ln|A| at height y (|y| well above k)."""
    return math.log(abs_a) + k * math.log(max(abs(y), 1.0))


def make_op(seed: int, workload: str, index: int) -> dict:
    """The index-th operation of a run: its kind and every input it takes."""
    kinds = ROUNDS[workload]
    rnd, pos = divmod(index, len(kinds))
    kind = kinds[pos]
    d = _Draw(seed, workload, kind, rnd, index)
    op: dict = {"index": index, "round": rnd, "kind": kind}
    if kind in ("grid", "target"):
        if kind == "grid":
            k = 1 + int(3 * d.u(0))
            a = d.coefficient(0.25, 4.0, 1)
            start = 5 + int(d.u(2) * (1000 - CHAIN_BLOCK - 4))
        else:
            k = round(_log_uniform(d.u(0), 1, TARGET_K_MAX))
            a = d.coefficient(1e-20, 1e20, 1)
            start = round(_log_uniform(d.u(2), TARGET_NU_MIN, 1000 - CHAIN_BLOCK))
        lo = start if d.sign() > 0 else -(start + CHAIN_BLOCK - 1)
        op.update(k=k, a=a, nu=[lo, lo + CHAIN_BLOCK - 1])
    elif kind == "rect" or kind == "isolate":
        k = 1 + int(3 * d.u(0))
        a = d.coefficient(0.25, 4.0, 1)
        abs_a = math.hypot(*a)
        if kind == "rect":
            height = _log_uniform(d.u(2), 50.0, 2000.0)
            y_lo = 5.0 + d.u(3) * (2000.0 - height)
        else:
            height = _log_uniform(d.u(2), 20.0, 120.0)
            y_lo = -60.0 + d.u(3) * 200.0
        y_lo += d.rng.random()  # keep edges off round numbers
        y_hi = y_lo + height
        if kind == "rect" and d.sign() < 0:
            y_lo, y_hi = -y_hi, -y_lo
        re_lo = min(_curve_re(k, abs_a, y_lo), _curve_re(k, abs_a, y_hi))
        re_lo = min(re_lo, 0.0) - 4.0 - d.rng.random()
        re_hi = _curve_re(k, abs_a, max(abs(y_lo), abs(y_hi))) + 3.0 + d.rng.random()
        op.update(k=k, a=a, rect=[re_lo, re_hi, y_lo, y_hi])
        if kind == "isolate":
            op["eps"] = 0.5
    elif kind == "disk":
        k = round(_log_uniform(d.u(0), 1, DISK_K_MAX))
        a = d.coefficient(0.5, 2.0, 1)
        centre = 2.0 * d.u(3) - 1.0, 2.0 * d.u(4) - 1.0
        op.update(k=k, a=a, centre=centre, radius=_log_uniform(d.u(2), 0.5, 40.0))
    elif kind == "small":
        k = 1 + int(3 * d.u(0))
        op.update(k=k, a=d.coefficient(0.25, 4.0, 1), radius=5.0 + 35.0 * d.u(2))
    elif kind in ("eq3", "eq4"):
        k = 1 + int(3 * d.u(0))
        a = d.coefficient(0.25, 4.0, 1)
        abs_a = math.hypot(*a)
        base = math.log(2.0 / abs_a) if kind == "eq3" else math.log(2.0 * abs_a)
        op.update(
            k=k, a=a, h=max(base, 0.0) + 0.25 + d.u(3), r=1.0,
            n=round(_log_uniform(d.u(2), 1e5, 1e6)), seed=d.rng.randrange(2**32),
        )
    elif kind == "eq7":
        # k runs downward so that round 0 meets the widest band: k = 1 puts
        # the most samples into each chunk's sample-by-zero distance matrix
        k = EQ7_K_MAX - int(EQ7_K_MAX * d.u(0))
        a = d.coefficient(0.5, 2.0, 1)
        op.update(
            k=k, a=a, h=abs(math.log(math.hypot(*a))) + 0.5 + d.u(3), r=1.0,
            delta=EQ7_DELTA, nu_hi=round(_log_uniform(d.u(2), 40, 1000)),
            n=round(_log_uniform(d.u(4), 1000, 4000)), seed=d.rng.randrange(2**32),
        )
    elif kind == "quad":
        k = 1 + int(3 * d.u(0))
        a = d.coefficient(0.25, 4.0, 1)
        op.update(
            k=k, a=a, nu=5 + int(d.u(2) * 995),
            h=abs(math.log(math.hypot(*a))) + 0.5 + 2.0 * d.u(3),
        )
    else:
        op.update(_cli_op(kind, d))
    return op


#: fixed inputs on which the seed library is known to fail, per workload; each
#: run executes them untimed after its timed operations and reports them
#: apart, so the defects show in every run's output without making ``failed``
#: depend on how many rounds fit in the time
DEFECTS = {
    "chain": (
        {"kind": "target", "defect": "k >= 5, small nu: Newton leaves its trust disk",
         "k": 5, "a": [-1097854533.0075045, 2265248148.3581066], "nu": [-21, -6]},
        {"kind": "target", "defect": "far nu: residual gate 1e-12 above the float floor",
         "k": 1, "a": [1.0, 0.0], "nu": [100000, 100015]},
        {"kind": "target", "defect": "far nu, k = 13: residual gate",
         "k": 13, "a": [6.107836910702787e-10, 3.141851005843345e-10], "nu": [6029, 6044]},
        {"kind": "target", "defect": "large k, far nu: eval_f overflows binary64",
         "k": 113, "a": [4.163755436210358e-21, 1.2472479523313062e-20],
         "nu": [-137615, -137600]},
        {"kind": "target", "defect": "large k and |A|: the two refiners disagree",
         "k": 57, "a": [-2.9187253475711652e16, -7051242231281229.0], "nu": [775, 790]},
        {"kind": "target", "defect": "top of the ROADMAP target range",
         "k": 200, "a": [1e20, 0.0], "nu": [999984, 999999]},
    ),
    "certify": (
        {"kind": "disk", "defect": "high k near the origin undercounts",
         "k": 120, "a": [1.0, 0.0], "centre": [0.0, 0.0], "radius": 4.1},
        {"kind": "disk", "defect": "high k near the origin undercounts",
         "k": 120, "a": [1.0, 0.0], "centre": [1.0, 0.0], "radius": 4.1},
        {"kind": "disk", "defect": "high k near the origin undercounts",
         "k": 139, "a": [0.7791805146646235, 0.4939196527468593],
         "centre": [0.7592633019597814, 0.09518271469796336], "radius": 0.8220796232032086},
        {"kind": "disk", "defect": "high k near the origin: negative winding",
         "k": 55, "a": [0.5891018581993529, -0.17709462989456168],
         "centre": [-0.2525479047391457, -0.3108474741244649], "radius": 0.8109677973190467},
    ),
    "sample": (
        {"kind": "eq7", "defect": "estimate_c_delta misses the zero of index -+(nu_min - 1)",
         "k": 3, "a": [-0.6119490585488511, -0.4428120183686167], "h": 1.5704695592471318,
         "r": 1.0, "delta": EQ7_DELTA, "nu_hi": 37, "n": 500, "seed": 1872928758},
    ),
    "cli": (
        {"kind": "bounds", "defect": "estimate_c_delta misses the zero of index -+(nu_min - 1)",
         "k": 3, "a": [-0.6119490585488511, -0.4428120183686167], "h": 1.5704695592471318,
         "r": 1.0, "delta": EQ7_DELTA, "nu_hi": 37, "n": 500, "seed": 1872928758},
    ),
}


def _cli_op(kind: str, d: _Draw) -> dict:
    """Small arguments, so interpreter start and imports dominate."""
    if kind == "import":
        return {}
    k = 1 + int(3 * d.u(0))
    a = d.coefficient(0.25, 4.0, 1)
    abs_a = math.hypot(*a)
    if kind == "zeros":
        start = 5 + int(d.u(2) * 190)
        lo = start if d.sign() > 0 else -(start + 9)
        return {"k": k, "a": a, "nu": [lo, lo + 9]}
    if kind == "count":
        y_lo = 10.0 + d.u(2) * 90.0 + d.rng.random()
        y_hi = y_lo + 10.0 + 30.0 * d.u(3)
        re_lo = min(_curve_re(k, abs_a, y_lo), 0.0) - 3.0 - d.rng.random()
        re_hi = _curve_re(k, abs_a, y_hi) + 3.0 + d.rng.random()
        return {"k": k, "a": a, "rect": [re_lo, re_hi, y_lo, y_hi]}
    if kind == "bounds":
        a = d.coefficient(0.5, 2.0, 1)
        return {
            "k": 1 + int(EQ7_K_MAX * d.u(0)), "a": a, "h": abs(math.log(math.hypot(*a))) + 0.5 + d.u(3),
            "r": 1.0, "delta": EQ7_DELTA, "nu_hi": 10 + int(d.u(2) * 10),
            "n": 500, "seed": d.rng.randrange(2**32),
        }
    variant = ("gamma", "quadrangle", "sector")[int(3 * d.u(4))]
    h = abs(math.log(abs_a)) + 0.5 + 2.0 * d.u(3)
    if variant == "gamma":
        y_lo = 5.0 + 50.0 * d.u(2)
        return {"k": k, "a": a, "variant": variant, "s": 1 if d.sign() > 0 else 2,
                "h": h, "im": [y_lo, y_lo + 20.0], "n": 16}
    if variant == "quadrangle":
        return {"k": k, "a": a, "variant": variant, "nu": 5 + int(d.u(2) * 200), "h": h}
    return {"k": k, "a": a, "variant": variant, "h": h, "delta": 0.1 + 1.3 * d.u(2)}


def cli_argv(op: dict) -> list[str]:
    """Arguments after ``python -m quasizero`` for a cli operation."""
    kind = op["kind"]
    common = ["--k", str(op["k"]), f"--a={_complex_arg(op['a'])}"]
    if kind == "zeros":
        lo, hi = op["nu"]
        return ["zeros", *common, f"--nu={lo}..{hi}", "--format", "json"]
    if kind == "count":
        return ["count", *common, "--rect=" + ",".join(map(repr, op["rect"])),
                "--format", "json"]
    if kind == "bounds":
        return ["bounds", *common, "--ineq", "eq7", f"--h={op['h']!r}",
                f"--R={op['r']!r}", f"--delta={op['delta']!r}",
                "--nu-hi", str(op["nu_hi"]), "--samples", str(op["n"]),
                "--seed", str(op["seed"])]
    variant = op["variant"]
    if variant == "gamma":
        lo, hi = op["im"]
        return ["geometry", *common, "--curve", "gamma", "--S", str(op["s"]),
                "--j", "2", f"--h={op['h']!r}", f"--im={lo!r}..{hi!r}",
                "--n", str(op["n"]), "--format", "json"]
    if variant == "quadrangle":
        return ["geometry", *common, "--quadrangle", "--nu", str(op["nu"]),
                f"--h={op['h']!r}", "--format", "json"]
    return ["geometry", *common, "--sector", f"--h={op['h']!r}",
            f"--delta={op['delta']!r}", "--format", "json"]


def _complex_arg(a: tuple[float, float]) -> str:
    re, im = a
    return f"{re!r}{'+' if im >= 0 else ''}{im!r}j"


def _c(z: complex) -> list[float]:
    return [z.real, z.imag]


def run_op(qz, op: dict):
    """Call quasizero for one in-process operation; return a JSON-able answer.

    ``qz`` is a namespace whose module attributes are looked up at call time,
    so wrappers installed by the tracer see every call.
    """
    kind = op["kind"]
    q = qz.core.Quasipolynomial(op["k"], complex(*op["a"]))
    if kind in ("grid", "target"):
        recs = qz.zeros.enumerate_zeros(q, *op["nu"])
        return [[r.nu, *_c(r.refined)] for r in recs]
    if kind == "rect":
        return qz.oracle.count_zeros_rect(q, qz.oracle.Rect(*op["rect"])).count
    if kind == "disk":
        return qz.oracle.count_zeros_disk(q, complex(*op["centre"]), op["radius"]).count
    if kind == "isolate":
        boxes = qz.oracle.isolate_zeros(q, qz.oracle.Rect(*op["rect"]), op["eps"])
        return [[b.re_lo, b.re_hi, b.im_lo, b.im_hi] for b in boxes]
    if kind == "small":
        return [_c(z) for z in qz.zeros.small_zeros(q, op["radius"])]
    if kind in ("eq3", "eq4"):
        verify = qz.bounds.verify_eq3 if kind == "eq3" else qz.bounds.verify_eq4
        rep = verify(q, op["h"], op["r"], op["n"], op["seed"])
        return {"min_ratio": rep.min_ratio, "worst": _c(rep.worst_point),
                "passed": rep.passed, "samples": rep.samples}
    if kind == "eq7":
        rep = qz.bounds.estimate_c_delta(
            q, op["h"], op["r"], op["delta"], op["nu_hi"], op["n"], op["seed"]
        )
        return {"min_ratio": rep.min_ratio, "worst": _c(rep.worst_point),
                "passed": rep.passed, "samples": rep.samples}
    if kind == "quad":
        geom = qz.bounds.quadrangle(q, op["nu"], op["h"])
        return {"corners": [_c(c) for c in geom.corners], "diag": geom.diag}
    raise ValueError(f"unknown in-process operation kind {kind!r}")
