"""Host speed, measured by timing fixed work that shares no code with quasizero.

On a shared host (measured: a 2-vCPU virtual machine whose cores other
tenants use) a process slows down by up to 2x for seconds to minutes at a
time, which moves every wall time by far more than the bounds the benchmark
sets.  So each operation's wall time is rescaled by a calibration timed
around it:

    nominal_ms = wall_ms * NOMINAL_MS[kind] / calibration_ms

that is, the time the operation would take on a host where the calibration
takes NOMINAL_MS (about its typical time on that host).  Contention slows
different kinds of work by different factors, so each workload is rescaled
by the calibration whose work is most like its own:

* ``python``:  interpreted complex arithmetic (cmath, list appends), as in
  the scalar refiners and the contour walker;
* ``numpy``:   a batched complex log/exp/abs over 4096 points, as in the
  samplers;
* ``startup``: starting an interpreter that imports numpy and stopping it,
  as the CLI does before its own work.  On the 2-vCPU host above, ten
  15 s cli runs whose wall times spread 0.23-0.25 spread 0.03-0.10 when
  rescaled by this calibration; five runs rescaled by a bare interpreter
  start spread 0.06-0.12, no less than their wall times (0.07-0.09).

A change to quasizero moves nominal times and leaves the calibrations alone.
"""

from __future__ import annotations

import cmath
import subprocess
import sys
import time

#: calibration time of the nominal host, in milliseconds
NOMINAL_MS = {"python": 0.11, "numpy": 0.4, "startup": 165.0}

#: the calibration each workload is rescaled by
WORKLOAD_KIND = {"chain": "python", "certify": "python", "sample": "numpy", "cli": "startup"}

#: operations closer together than this share one calibration
EVERY_S = {"python": 0.01, "numpy": 0.01, "startup": 0.0}


def _python() -> None:
    acc = 0j
    for i in range(1, 200):
        z = complex(i * 0.37, 1.0 + i * 0.11)
        acc += cmath.exp(-z.real * 0.01) * cmath.log(z) / (1.0 + abs(z))


_POINTS = None


def _numpy() -> None:
    global _POINTS
    import numpy as np

    if _POINTS is None:
        t = np.linspace(0.0, 1.0, 4096)
        _POINTS = (1.0 + 99.0 * t) + 1j * (1000.0 * t - 500.0)
    u = 3.0 * np.log(_POINTS) - _POINTS
    np.abs(1.0 + 0.7 * np.exp(np.clip(u.real, -745.0, 700.0) + 1j * u.imag)).min()


def _startup() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


def calibrate(kind: str) -> float:
    """Milliseconds for the calibration: the fastest of a few passes (one
    for ``startup``, which runs around every CLI operation)."""
    work = {"python": _python, "numpy": _numpy, "startup": _startup}[kind]
    best = float("inf")
    for _ in range(1 if kind == "startup" else 3):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3
