"""Span recording around the calls between quasizero's modules.

``install()`` rebinds, in every package module, each public function name
the module holds, whether defined there or imported from a sibling (for
example ``quasizero.zeros.relative_magnitude`` or
``quasizero.bounds.enumerate_zeros``).  Callers look those names up at call
time, so every call that crosses a name, within a module or between two,
opens a span.  No file of the package changes.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory (flat arrays) until ``dump``.  A span's layer is the module
that defines the function; its self time is its duration minus the time its
children cover.  Counts that need a result or an exception (oracle
evaluations, refiner iterations, retries, failures) are taken as the spans
close.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

LAYERS = ("core", "regions", "zeros", "oracle", "bounds", "cli")

#: child counts of isolate_zeros that raise these are retried on a jittered split
_RETRIED = ("BoundaryZeroError", "DepthExceededError")

#: failure classes reported one by one; the rest of the zeros layer's
#: failures go to zeros.fail.other
ZEROS_FAILURES = ("DivergedError", "NotConvergedError", "CertificationError")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.current = -1
        self.op_id = -1
        self._first_count: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.current = idx
        return idx

    def close(self, idx: int, t0: float, t1: float) -> None:
        self.t0[idx] = t0
        self.t1[idx] = t1
        self.current = self.parent[idx]

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else None

    # -- counts taken where the work happens ---------------------------------

    def on_return(self, name: str, idx: int, result, seconds: float) -> None:
        c = self.counts
        parent = self.parent_name(idx)
        if name in ("oracle.count_zeros_rect", "oracle.count_zeros_disk"):
            evals = result.edge_segments
            c["oracle.evals"] += evals
            cont = result.contour
            if hasattr(cont, "radius"):
                c["oracle.length"] += 2.0 * 3.141592653589793 * cont.radius
            else:
                c["oracle.length"] += 2.0 * (cont.width + cont.height)
            if parent == "oracle.isolate_zeros":
                c["oracle.isolate_evals"] += evals
                p = self.parent[idx]
                if p not in self._first_count:
                    self._first_count.add(p)
                    c["oracle.isolate_root_evals"] += evals
        elif name == "zeros.newton_refine":
            c["zeros.newton_iters"] += result.newton_iters
        elif name == "zeros.enumerate_zeros":
            c["zeros.fixedpoint_iters"] += sum(r.fixedpoint_iters for r in result)
            c["zeros.zeros_out"] += len(result)
            c["zeros.enumerate_s"] += seconds
        elif name in ("bounds.verify_eq3", "bounds.verify_eq4", "bounds.estimate_c_delta"):
            c["bounds.samples"] += result.samples
            c["bounds.sample_s"] += seconds
        if parent == "bounds.estimate_c_delta" and name in (
            "zeros.enumerate_zeros", "zeros.small_zeros"
        ):
            c["bounds.band_zeros_s"] += seconds

    def on_raise(self, name: str, idx: int, err: BaseException) -> None:
        cls = type(err).__name__
        self.errors[idx] = cls
        parent = self.parent_name(idx)
        if name == "oracle.count_zeros_rect" and parent == "oracle.isolate_zeros":
            if cls in _RETRIED:
                self.counts["oracle.retries"] += 1
        if name.startswith("zeros.") and not (parent or "").startswith("zeros."):
            key = cls if cls in ZEROS_FAILURES else "other"
            self.counts[f"zeros.fail.{key}"] += 1

    # -- results --------------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer."""
        n = len(self.name)
        child = [0.0] * n
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            layer = self.names[self.name[i]].split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
        return calls, self_s

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
            "errors": {str(k): v for k, v in self.errors.items()},
            "counts": dict(self.counts),
        }

    def merge(self, other: dict) -> None:
        """Adopt spans recorded in a child process under the current span."""
        base = len(self.name)
        remap = [self.name_id(n) for n in other["names"]]
        for i, nid in enumerate(other["name"]):
            p = other["parent"][i]
            self.name.append(remap[nid])
            self.parent.append(p + base if p >= 0 else self.current)
            self.op.append(self.op_id)
            self.t0.append(other["t0"][i])
            self.t1.append(other["t1"][i])
        for k, v in other["errors"].items():
            self.errors[int(k) + base] = v
        self.counts.update(other["counts"])


def _wrap(rec: Recorder, fn, name: str):
    nid = rec.name_id(name)
    clock = time.perf_counter

    def span(*args, **kwargs):
        idx = rec.open(nid)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec.close(idx, t0, clock())
            rec.on_raise(name, idx, err)
            raise
        t1 = clock()
        rec.close(idx, t0, t1)
        rec.on_return(name, idx, result, t1 - t0)
        return result

    span.__wrapped__ = fn
    return span


def install(package) -> tuple[Recorder, list]:
    """Wrap every public function name in the package's modules.

    Returns the recorder and the list of (module, name, original) bindings
    that ``uninstall`` restores.
    """
    rec = Recorder()
    saved = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith(package.__name__ + "."):
                continue
            defined_in = obj.__module__.rsplit(".", 1)[1]
            saved.append((module, attr, obj))
            setattr(module, attr, _wrap(rec, obj, f"{defined_in}.{obj.__name__}"))
    return rec, saved


def uninstall(saved: list) -> None:
    for module, attr, obj in saved:
        setattr(module, attr, obj)
