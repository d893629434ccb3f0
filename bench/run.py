"""The quasizero benchmark: one command, one workload per run.

    python3 bench/run.py --workload {chain,certify,sample,cli} --seed N \
        --seconds S --trace {0,1} [--exact-counts]

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The run

1. checks the Lambert-W reference against known zeros (``reference.py``),
2. with --trace 0, times ``import quasizero`` in fresh interpreters
   (setup_s, the median of several; times are rescaled by the host's
   speed, see hostspeed.py),
3. starts one worker process, the single closed-loop client, which runs the
   workload's seeded operations one at a time (``worker.py``),
4. checks every answer against the reference after the worker has exited,
5. prints a report: each metric by name and unit, fail_share and
   wrong_share, one FAIL line per failed or wrong operation with its
   generated inputs and error class, so the defect can be rerun from the
   output alone, and one DEFECT line per known-defect input,
6. prints, as its last line, one JSON object with correct, attempted, failed
   and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
   with --trace 1.

``failed`` counts timed operations that raised or answered wrongly;
``correct`` is true when the reference could check every answer.  The timed
inputs stay where the seed library answers correctly, so ``failed`` reads 0
and a regression shows as a nonzero count.  The known defects run after the
timed phase on fixed inputs (``workloads.DEFECTS``); the report gives each as
a DEFECT line, with defect_fail_share and defect_wrong_share, and they are
not counted in ``attempted`` or ``failed``.

--exact-counts (with --trace 1) prints only the count metrics and the
failure tallies, which repeat byte for byte at the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
import reference  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402

WORKER_TIMEOUT_S = 150
SETUP_RUNS = 11

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric units; count metrics repeat exactly at a fixed seed
LAYER_UNITS = {
    "core.calls": "count", "core.self_s": "s", "core.eval_f_ns": "ns",
    "core.relative_magnitude_ns": "ns",
    "regions.calls": "count", "regions.self_s": "s",
    "zeros.calls": "count", "zeros.self_s": "s", "zeros.newton_iters": "count",
    "zeros.fixedpoint_iters": "count", "zeros.us_per_zero": "us",
    "zeros.fail.DivergedError": "count", "zeros.fail.NotConvergedError": "count",
    "zeros.fail.CertificationError": "count", "zeros.fail.other": "count",
    "oracle.calls": "count", "oracle.self_s": "s", "oracle.evals": "count",
    "oracle.evals_per_length": "count/len", "oracle.count_calls": "count",
    "oracle.us_per_eval": "us", "oracle.isolate_eval_ratio": "ratio",
    "oracle.retries": "count",
    "bounds.calls": "count", "bounds.self_s": "s", "bounds.samples_per_s": "1/s",
    "bounds.band_zeros_s": "s",
    "cli.import_s": "s", "cli.import_numpy_s": "s", "cli.run_s.zeros": "s",
    "cli.run_s.count": "s", "cli.run_s.bounds": "s", "cli.run_s.geometry": "s",
    "bench.untraced_ops_per_s": "1/s", "bench.traced_ops_per_s": "1/s",
    "bench.trace_overhead": "ratio",
}

#: exact counts: integers, plus the ratio of two integer counts
EXACT = sorted(
    [n for n, u in LAYER_UNITS.items() if u == "count"]
    + ["oracle.isolate_eval_ratio"]
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QUASIZERO_SEED")}
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median ``import quasizero`` time in fresh interpreters: (nominal, wall).

    Each import is rescaled by the startup calibration timed just before
    and just after it (hostspeed.py).
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import quasizero; print(time.perf_counter() - t)"
    )
    nominal, wall = [], []
    cal = hostspeed.calibrate("startup")
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        dt = float(out.stdout)
        cal_after = hostspeed.calibrate("startup")
        nominal.append(dt * 2.0 * hostspeed.NOMINAL_MS["startup"] / (cal + cal_after))
        wall.append(dt)
        cal = cal_after
    return statistics.median(nominal), statistics.median(wall)


def run_worker(args, env: dict) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # its own process group, so a timeout also ends the CLI runs it started
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    *records, last = [json.loads(line) for line in stdout.splitlines()]
    return {"records": records, **last["summary"]}


def grade(records: list) -> int:
    """Set rec['status'] to ok, error or wrong (with rec['reason']).

    Returns the number of answers the reference could not check.
    """
    unchecked = 0
    for rec in records:
        if "error" in rec:
            rec["status"] = "error"
            continue
        try:
            reason = verify.check(rec["op"], rec["answer"])
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed answer: {type(exc).__name__}: {exc}"
        except ArithmeticError as exc:
            print(f"error: reference failed on {rec['op']}: {exc}", file=sys.stderr)
            unchecked += 1
            reason = None
        rec["status"] = "ok" if reason is None else "wrong"
        if reason is not None:
            rec["reason"] = reason
    return unchecked


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(records: list, closing_cal_ms: float, workload: str) -> tuple[dict, dict]:
    """(nominal, wall) values of ops_per_s, op_ms_p50 and op_ms_p90.

    ops_per_s counts correct operations per second spent in operations,
    failed ones included; the latency percentiles cover the operations that
    completed correctly.  Nominal times rescale each operation by the mean of
    the host calibrations before and after it (see hostspeed.py).
    """
    cals = [r["cal_ms"] for r in records] + [closing_cal_ms]
    nominal_ms = hostspeed.NOMINAL_MS[hostspeed.WORKLOAD_KIND[workload]]
    out = []
    for scale in (True, False):
        ms = [
            r["ms"] * (2.0 * nominal_ms / (cals[i] + cals[i + 1]) if scale else 1.0)
            for i, r in enumerate(records)
        ]
        ok_ms = [m for m, r in zip(ms, records) if r["status"] == "ok"]
        out.append({
            "ops_per_s": len(ok_ms) / (sum(ms) * 1e-3),
            "op_ms_p50": percentile(ok_ms, 50),
            "op_ms_p90": percentile(ok_ms, 90),
        })
    return out[0], out[1]


def tally(records: list) -> tuple[int, int, int, dict]:
    """(attempted, failed, wrong, failures by error class) of graded records."""
    by_class: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            key = r.get("error", "wrong")
            by_class[key] = by_class.get(key, 0) + 1
    failed = sum(by_class.values())
    return len(records), failed, by_class.get("wrong", 0), by_class


def failure_lines(records: list, prefix: str = "FAIL", every: bool = False) -> list[str]:
    """One line per failed operation (per operation if ``every``) with its inputs."""
    lines = []
    for rec in records:
        if rec["status"] == "ok" and not every:
            continue
        op = rec["op"]
        entry = {"kind": op["kind"], "status": rec["status"]}
        if rec["status"] == "error":
            entry["error"] = rec["error"]
            entry["message"] = rec["message"]
        elif rec["status"] == "wrong":
            entry["reason"] = rec["reason"]
        if "defect" in op:
            entry["defect"] = op["defect"]
        entry["input"] = {k: v for k, v in op.items() if k not in ("kind", "round", "defect")}
        if op["kind"] in wl.ROUNDS["cli"]:
            entry["argv"] = ["python3", "-m", "quasizero", *wl.cli_argv(op)]
        lines.append(f"{prefix} " + json.dumps(entry, sort_keys=True))
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(wl.ROUNDS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--exact-counts", action="store_true")
    args = p.parse_args()
    if args.exact_counts and not args.trace:
        p.error("--exact-counts needs --trace 1")
    if not (SRC / "quasizero" / "__init__.py").is_file():
        print(f"error: no quasizero package under {SRC}", file=sys.stderr)
        return 2

    reference.self_check()
    env = child_env()
    setup = None if args.trace else setup_seconds(env)
    out = run_worker(args, env)
    unchecked = grade(out["records"])
    records = [r for r in out["records"] if "defect" not in r["op"]]
    defects = [r for r in out["records"] if "defect" in r["op"]]
    attempted, failed, wrong, by_class = tally(records)
    d_attempted, d_failed, d_wrong, d_by_class = tally(defects)

    if args.exact_counts:
        counts = {n: out["metrics"][n] for n in EXACT}
        print(json.dumps({"attempted": attempted, "failed": failed, "wrong": wrong,
                          "failures": by_class, "defects": d_by_class,
                          "counts": counts}, sort_keys=True))
        return 0

    for line in failure_lines(records):
        print(line)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, {wrong} wrong")
    print(f"# failures by class {json.dumps(by_class, sort_keys=True)}")
    print(f"# fail_share {failed / attempted!r} share")
    print(f"# wrong_share {wrong / attempted!r} share")
    for line in failure_lines(defects, "DEFECT", every=True):
        print(line)
    print(f"# known-defect inputs: {d_attempted} operations, {d_failed} failed, "
          f"{d_wrong} wrong, by class {json.dumps(d_by_class, sort_keys=True)}")
    print(f"# defect_fail_share {d_failed / d_attempted!r} share")
    print(f"# defect_wrong_share {d_wrong / d_attempted!r} share")
    if args.trace:
        metrics = {n: out["metrics"][n] for n in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        nominal, wall = end_to_end(records, out["cal_ms"], args.workload)
        metrics = {"setup_s": setup[0], **nominal, "peak_rss_mb": out["peak_rss_mb"]}
        units = UNITS
        for name, value in (("setup_s", setup[1]), *wall.items()):
            print(f"# wall {name} {value!r} {UNITS[name]}")
        print(f"# whole-run peak_rss_mb {out['run_peak_rss_mb']!r} MB")
    for name, value in metrics.items():
        print(f"# {name} {value!r} {units[name]}")
    result = {
        "correct": unchecked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
