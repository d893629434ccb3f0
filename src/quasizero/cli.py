"""Command line front end.

Four subcommands: ``zeros`` (enumerate and refine a chain range, CSV or
JSON), ``count`` (argument-principle zero count on a rectangle or disk),
``bounds`` (sampled inequality checks eq3 / eq4 / eq7, JSON report) and
``geometry`` (polylines, quadrangles, diagonals and sector radii for the
band).

Each ``cmd_*`` takes the parsed arguments and the validated coefficient and
returns its config, its results (the JSON ``results`` value, or the lines of
a text format) and its exit status; ``main`` alone writes and times them.

Output is deterministic byte for byte at a fixed seed: numbers are rendered
in shortest round-trip decimal, and the sampling generator is counter-based.
Wall-clock time, from the validated coefficient to the built results, is
reported only under ``--timings``: as ``timings.elapsed_seconds`` in the JSON
envelope (null otherwise), or as a last ``# elapsed_seconds`` line of a text
format.  The environment variable QUASIZERO_SEED, when set, overrides
``--seed``.

Exit status: 0 on success, 1 when a requested check fails, a numeric
routine gives up or the reader closes stdout early, 2 for invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Callable, Sequence

from . import bounds as bounds_mod
from .core import Quasipolynomial
from .errors import (
    EmptySampleError,
    InvalidIndexError,
    InvalidQueryError,
    QuasizeroError,
    ZeroArgumentError,
)
from .oracle import DEFAULT_MAX_DEPTH, Rect, count_zeros_disk, count_zeros_rect
from .regions import gamma_polyline, min_h_t1, min_h_t2, quadrangle, sector_radius
from .zeros import enumerate_zeros, nu_min, spacing_report

SCHEMA_VERSION = 2

_USAGE_ERRORS = (
    InvalidQueryError,
    InvalidIndexError,
    EmptySampleError,
    ZeroArgumentError,
)


def parse_complex(text: str) -> complex:
    """Accept RE, IMi, RE+IMi (also with j), e.g. -2, 3i, 0.5+0.5i."""
    cleaned = text.strip().replace("i", "j").replace("I", "j")
    if not cleaned:
        raise argparse.ArgumentTypeError("empty complex literal")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number from {text!r} (expected RE+IMi)"
        ) from None


def _parse_range(text: str, convert: Callable[[str], Any], kind: str) -> tuple[Any, Any]:
    lo_s, sep, hi_s = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        lo, hi = convert(lo_s), convert(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range endpoints must be {kind}, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def parse_int_range(text: str) -> tuple[int, int]:
    """LO..HI with integer endpoints, LO <= HI."""
    return _parse_range(text, int, "integers")


def parse_float_range(text: str) -> tuple[float, float]:
    return _parse_range(text, float, "numbers")


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(
            f"{what} needs {count} comma-separated numbers, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} needs {count} comma-separated numbers, got {text!r}"
        ) from None


def parse_rect(text: str) -> tuple[float, float, float, float]:
    return _parse_floats(text, 4, "--rect")  # type: ignore[return-value]


def parse_disk(text: str) -> tuple[float, float, float]:
    return _parse_floats(text, 3, "--disk")  # type: ignore[return-value]


def resolve_seed(flag_value: int) -> int:
    """QUASIZERO_SEED wins over --seed so batch runs can be re-keyed."""
    env = os.environ.get("QUASIZERO_SEED")
    if env is None:
        return flag_value
    try:
        return int(env)
    except ValueError:
        raise InvalidQueryError(
            f"QUASIZERO_SEED must be an integer, got {env!r}"
        ) from None


def resolve_h(text: str, base: float) -> float:
    """Plain float, or auto / auto+X / auto-X on top of the per-check base."""
    cleaned = text.strip()
    if cleaned.startswith("auto"):
        rest = cleaned[4:]
        if not rest:
            return base + 0.5
        if rest[0] in "+-":
            try:
                return base + float(rest)
            except ValueError:
                pass
        raise InvalidQueryError(f"cannot parse --h value {text!r}")
    try:
        return float(cleaned)
    except ValueError:
        raise InvalidQueryError(f"cannot parse --h value {text!r}") from None


def fmt(x: float) -> str:
    return repr(float(x))


def _c(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True, help="power of the algebraic term")
    sub.add_argument(
        "--a", type=parse_complex, required=True, help="coefficient, e.g. -2 or 0.5+0.5i"
    )
    sub.add_argument("--timings", action="store_true", help="report the elapsed wall time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasizero",
        description="Zeros, counts, bounds and band geometry of e^lambda + a*lambda^k.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_zeros = subs.add_parser("zeros", help="enumerate and refine a chain range")
    _add_common(p_zeros)
    p_zeros.add_argument(
        "--nu", type=parse_int_range, required=True, metavar="LO..HI",
        help="chain index range; indices below the enumeration floor are skipped",
    )
    p_zeros.add_argument("--format", choices=("csv", "json"), default="csv")
    p_zeros.set_defaults(func=cmd_zeros)

    p_count = subs.add_parser("count", help="argument-principle zero count")
    _add_common(p_count)
    where = p_count.add_mutually_exclusive_group(required=True)
    where.add_argument(
        "--rect", type=parse_rect, metavar="RE_LO,RE_HI,IM_LO,IM_HI",
        help="axis-aligned rectangle",
    )
    where.add_argument(
        "--disk", type=parse_disk, metavar="RE,IM,R", help="disk center and radius"
    )
    p_count.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p_count.add_argument("--format", choices=("text", "json"), default="text")
    p_count.set_defaults(func=cmd_count)

    p_bounds = subs.add_parser(
        "bounds", help="sampled lower-bound checks (JSON report)"
    )
    _add_common(p_bounds)
    p_bounds.add_argument(
        "--ineq", choices=("eq3", "eq4", "eq7"), required=True,
        help="identifier of the sampled lower-bound check",
    )
    p_bounds.add_argument(
        "--h", default="auto",
        help="band half-width; auto or auto+X adds to the per-check threshold",
    )
    p_bounds.add_argument("--R", type=float, default=1.0, help="inner disk radius")
    p_bounds.add_argument("--samples", type=int, default=10_000)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument(
        "--window", type=float, default=bounds_mod.DEFAULT_WINDOW,
        help="half-width of the sampling square (eq3 and eq4)",
    )
    p_bounds.add_argument("--delta", type=float, help="puncture radius (eq7)")
    p_bounds.add_argument("--nu-hi", type=int, default=30, help="band height index (eq7)")
    p_bounds.add_argument(
        "--printed-set", action="store_true",
        help="eq4 only: sample sigma_2 > h instead (informational; contains zeros)",
    )
    p_bounds.set_defaults(func=cmd_bounds, format="json")

    p_geo = subs.add_parser(
        "geometry", help="geometric summaries of the band and its cells"
    )
    _add_common(p_geo)
    what = p_geo.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--curve", choices=("gamma",), help="export a band-edge polyline"
    )
    what.add_argument(
        "--quadrangle", action="store_true", help="band cell corners and diagonal"
    )
    what.add_argument(
        "--sector", action="store_true",
        help="smallest radius beyond which the band stays in the near-imaginary sectors",
    )
    p_geo.add_argument("--S", type=int, choices=(1, 2), default=1,
                       help="band coordinate index (gamma)")
    p_geo.add_argument("--j", type=int, choices=(1, 2), help="half-plane flag (gamma)")
    p_geo.add_argument("--nu", type=int, help="chain index (quadrangle)")
    p_geo.add_argument("--h", type=float, help="band half-width or edge level")
    p_geo.add_argument("--delta", type=float, help="sector half-angle (sector)")
    p_geo.add_argument("--im", type=parse_float_range, metavar="LO..HI",
                       help="imaginary range of the polyline (gamma)")
    p_geo.add_argument("--n", type=int, default=64, help="polyline point count (gamma)")
    p_geo.add_argument("--format", choices=("csv", "json"), default="csv")
    p_geo.set_defaults(func=cmd_geometry)

    return parser


#: what a command returns: its config beyond k and a, its results (the JSON
#: results value, or the lines of a text format) and its exit status
_Output = tuple[dict[str, Any], Any, int]


def cmd_zeros(args, q: Quasipolynomial) -> _Output:
    lo, hi = args.nu
    records = enumerate_zeros(q, lo, hi)
    nus = [rec.nu for rec in records]
    spacing = None
    if len(records) >= 2 and max(nus) - min(nus) + 1 == len(nus):
        spacing = spacing_report(records)
    config = {"nu_lo": lo, "nu_hi": hi}

    if args.format == "json":
        results = {
            "records": [
                {
                    "nu": rec.nu,
                    "guess": _c(rec.guess),
                    "zero": _c(rec.refined),
                    "residual": rec.residual,
                    "newton_iters": rec.newton_iters,
                    "radius": rec.radius,
                }
                for rec in records
            ],
            "spacing": None if spacing is None else {
                "gaps": len(spacing.gaps),
                "max_deviation_from_nu_10": spacing.max_deviation_from_nu_10,
                "decay_ratio": spacing.decay_ratio,
            },
        }
        return config, results, 0

    lines = ["nu,guess_re,guess_im,zero_re,zero_im,residual,newton_iters"]
    lines += [
        f"{rec.nu},{fmt(rec.guess.real)},{fmt(rec.guess.imag)},"
        f"{fmt(rec.refined.real)},{fmt(rec.refined.imag)},"
        f"{fmt(rec.residual)},{rec.newton_iters}"
        for rec in records
    ]
    if not records:
        lines.append(f"# note no chain indices with |nu| >= {nu_min(q)} in range")
    if spacing is not None:
        lines.append(f"# spacing gaps {len(spacing.gaps)}")
        if spacing.max_deviation_from_nu_10 is not None:
            lines.append(
                f"# spacing max_deviation_from_nu_10 {fmt(spacing.max_deviation_from_nu_10)}"
            )
        if spacing.decay_ratio is not None:
            lines.append(f"# spacing decay_ratio {fmt(spacing.decay_ratio)}")
    return config, lines, 0


def cmd_count(args, q: Quasipolynomial) -> _Output:
    if args.rect is not None:
        result = count_zeros_rect(q, Rect(*args.rect), max_depth=args.max_depth)
        region = {"rect": dict(zip(("re_lo", "re_hi", "im_lo", "im_hi"), args.rect))}
    else:
        re, im, radius = args.disk
        result = count_zeros_disk(q, complex(re, im), radius, max_depth=args.max_depth)
        region = {"disk": {"re": re, "im": im, "radius": radius}}
    config = {**region, "max_depth": args.max_depth}

    if args.format == "json":
        results = {
            "count": result.count,
            "edge_segments": result.edge_segments,
            "min_boundary_ratio": result.min_boundary_mag,
        }
        return config, results, 0
    return config, [
        f"count: {result.count}",
        f"edge_segments: {result.edge_segments}",
        f"min_boundary_ratio: {fmt(result.min_boundary_mag)}",
    ], 0


def cmd_bounds(args, q: Quasipolynomial) -> _Output:
    if args.printed_set and args.ineq != "eq4":
        raise InvalidQueryError(f"--printed-set applies to eq4 only, not {args.ineq}")
    seed = resolve_seed(args.seed)
    if args.ineq == "eq3":
        h = resolve_h(args.h, min_h_t1(q))
        report = bounds_mod.verify_eq3(
            q, h, args.R, args.samples, seed, window=args.window
        )
    elif args.ineq == "eq4":
        h = resolve_h(args.h, min_h_t2(q))
        report = bounds_mod.verify_eq4(
            q, h, args.R, args.samples, seed, window=args.window,
            printed_set=args.printed_set,
        )
    else:
        h = resolve_h(args.h, abs(q.log_abs_a))
        if args.delta is None:
            raise InvalidQueryError("eq7 needs --delta")
        report = bounds_mod.estimate_c_delta(
            q, h, args.R, args.delta, args.nu_hi, args.samples, seed
        )

    config = {
        "ineq": args.ineq, "h": h, "R": args.R, "samples": args.samples, "seed": seed,
        "window": args.window, "delta": args.delta, "nu_hi": args.nu_hi,
        "printed_set": args.printed_set,
    }
    results = {
        "inequality_id": report.inequality_id,
        "samples": report.samples,
        "min_ratio": report.min_ratio,
        "threshold": report.threshold,
        "seed": report.seed,
        "worst_point": _c(report.worst_point),
        "analytic_floor": report.analytic_floor,
        "stability_ratio": report.stability_ratio,
        "passed": report.passed,
    }
    return config, results, 0 if report.passed else 1


def cmd_geometry(args, q: Quasipolynomial) -> _Output:
    json_out = args.format == "json"
    if args.sector:
        if args.h is None or args.delta is None:
            raise InvalidQueryError("--sector needs --h and --delta")
        radius = sector_radius(q, args.h, args.delta)
        config = {"what": "sector", "h": args.h, "delta": args.delta}
        if json_out:
            return config, {"sector_radius": radius}, 0
        return config, ["sector_radius", fmt(radius)], 0

    if args.curve == "gamma":
        if args.h is None or args.j is None or args.im is None:
            raise InvalidQueryError("--curve gamma needs --h, --j and --im LO..HI")
        im_lo, im_hi = args.im
        points = gamma_polyline(q, args.S, args.j, args.h, im_lo, im_hi, args.n)
        config = {"what": "gamma", "S": args.S, "j": args.j, "h": args.h,
                  "im_lo": im_lo, "im_hi": im_hi, "n": args.n}
        if json_out:
            return config, {"points": [[p.real, p.imag] for p in points]}, 0
        return config, ["re,im", *(f"{fmt(p.real)},{fmt(p.imag)}" for p in points)], 0

    if args.nu is None or args.h is None:
        raise InvalidQueryError("--quadrangle needs --nu and --h")
    geom = quadrangle(q, args.nu, args.h)
    diag_limit = math.sqrt(4.0 * math.pi**2 + 4.0 * args.h**2)
    config = {"what": "quadrangle", "nu": args.nu, "h": args.h}
    if json_out:
        results = {
            "corners": [[c.real, c.imag] for c in geom.corners],
            "diag": geom.diag,
            "diag_limit": diag_limit,
        }
        return config, results, 0
    return config, [
        "corner,re,im",
        *(f"{i},{fmt(c.real)},{fmt(c.imag)}" for i, c in enumerate(geom.corners, start=1)),
        f"# diag {fmt(geom.diag)}",
        f"# diag_limit {fmt(diag_limit)}",
    ], 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        q = Quasipolynomial(args.k, args.a)
        t0 = time.perf_counter()
        config, results, status = args.func(args, q)
        elapsed = time.perf_counter() - t0
        out = sys.stdout
        if args.format == "json":
            payload = {
                "schema": SCHEMA_VERSION,
                "command": args.command,
                "config": {"k": q.k, "a": _c(q.a), **config},
                "results": results,
                "timings": {"elapsed_seconds": elapsed} if args.timings else None,
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            if args.timings:
                results.append(f"# elapsed_seconds {elapsed}")
            # one write per line, so a reader that closes early stops the writes
            for line in results:
                out.write(line + "\n")
        out.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (for example `| head`).  As the SIGPIPE
        # note of the signal module's docs advises, point stdout at devnull
        # so the flush at interpreter exit cannot raise again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuasizeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
