"""Zeros and lower bounds of the quasipolynomial e^lambda + a*lambda^k.

The package evaluates the function stably in the exponent domain, splits the
plane into four named regions around the zero curve, enumerates the zero
chain from asymptotic guesses, each refined zero proven by a Rouche disk that
holds exactly one zero of its branch, counts zeros by the argument principle,
and verifies the dominance bounds by seeded sampling.  Near the origin every
zero comes from its Lambert-W closed form, proven by a Rouche disk, and the
list is certified by one contour count.

Only the sampled bounds need numpy, so quasizero.bounds and the four names
served from it load on first access (PEP 562): importing the package for
zeros, counts, regions or band cells leaves numpy unloaded.  The command line
still loads it.
"""

import importlib

from .core import (
    Quasipolynomial,
    eval_f,
    eval_fprime,
    relative_magnitude,
    sigma,
)
from .errors import (
    BoundaryZeroError,
    CertificationError,
    DegenerateZeroError,
    DeltaTooLargeError,
    DepthExceededError,
    DerivativeVanishedError,
    DivergedError,
    DuplicateZeroError,
    EmptyRegionError,
    EmptySampleError,
    EvalOverflowError,
    InvalidIndexError,
    InvalidQueryError,
    NoSolutionError,
    NonConsecutiveError,
    NotConvergedError,
    QuasizeroError,
    WindingError,
    ZeroArgumentError,
)
from .oracle import (
    ContourCount,
    Disk,
    Rect,
    count_zeros_disk,
    count_zeros_rect,
    isolate_zeros,
)
from .regions import (
    QuadrangleGeom,
    RegionKind,
    RegionLabel,
    classify,
    gamma_abscissa,
    gamma_polyline,
    half_plane,
    min_h_t1,
    min_h_t2,
    quadrangle,
    sector_radius,
)
from .zeros import (
    SpacingGap,
    SpacingReport,
    ZeroRecord,
    asymptotic_guess,
    enumerate_zeros,
    newton_refine,
    nu_min,
    small_zeros,
    spacing_report,
)

__version__ = "0.1.0"

#: names served from quasizero.bounds, which is imported on first access
_BOUNDS_NAMES = frozenset(
    {
        "BoundReport",
        "estimate_c_delta",
        "verify_eq3",
        "verify_eq4",
    }
)


def __getattr__(name: str):
    # import_module, not "from . import bounds": the latter looks the
    # package attribute up first and so recurses back into this hook.
    if name == "bounds" or name in _BOUNDS_NAMES:
        bounds = importlib.import_module(f"{__name__}.bounds")
        return bounds if name == "bounds" else getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundReport",
    "BoundaryZeroError",
    "CertificationError",
    "ContourCount",
    "DegenerateZeroError",
    "DeltaTooLargeError",
    "DepthExceededError",
    "DerivativeVanishedError",
    "Disk",
    "DivergedError",
    "DuplicateZeroError",
    "EmptyRegionError",
    "EmptySampleError",
    "EvalOverflowError",
    "InvalidIndexError",
    "InvalidQueryError",
    "NoSolutionError",
    "NonConsecutiveError",
    "NotConvergedError",
    "QuadrangleGeom",
    "Quasipolynomial",
    "QuasizeroError",
    "Rect",
    "RegionKind",
    "RegionLabel",
    "SpacingGap",
    "SpacingReport",
    "WindingError",
    "ZeroArgumentError",
    "ZeroRecord",
    "asymptotic_guess",
    "classify",
    "count_zeros_disk",
    "count_zeros_rect",
    "enumerate_zeros",
    "estimate_c_delta",
    "eval_f",
    "eval_fprime",
    "gamma_abscissa",
    "gamma_polyline",
    "half_plane",
    "isolate_zeros",
    "min_h_t1",
    "min_h_t2",
    "newton_refine",
    "nu_min",
    "quadrangle",
    "relative_magnitude",
    "sector_radius",
    "sigma",
    "small_zeros",
    "spacing_report",
    "verify_eq3",
    "verify_eq4",
    "__version__",
]
