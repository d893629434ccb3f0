"""The single closed-loop client: one fresh interpreter, one operation at a time.

Started by ``run.py``; prints one JSON line on stdout per operation, with its
inputs, answer or error class and duration, as soon as it ends, then a
summary line.  Answers are checked
by the parent after this process has exited, so the reference never runs
inside the timed phase.

--trace 0  times rounds of operations until they have run for --seconds,
           after round 0 as warm-up, then runs the workload's known-defect
           inputs (``workloads.DEFECTS``) untimed.
--trace 1  runs a fixed list of operations twice, untraced then traced, and
           adds the per-layer metrics.  The list is the workload's first
           rounds, sized by --seconds, followed by a fixed probe of one
           operation of every kind of every workload, so every layer reports
           measured work on every workload, and by the known-defect inputs.
           Counts depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

#: traced rounds per second of --seconds; keeps a traced run near that length
#: and its spans in memory below a few hundred thousand
TRACE_ROUNDS_PER_S = {"chain": 20, "certify": 3, "sample": 1.5, "cli": 0.3}

PROBE_SEED = 20111103

#: a CLI subprocess that runs longer than this is killed and counted as failed
CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QUASIZERO_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(op: dict, env: dict, shim_out: Path | None = None) -> tuple:
    """Run one cli operation in a fresh interpreter; (answer, error, message)."""
    if op["kind"] == "import":
        cmd = [sys.executable, "-c", "import quasizero"]
    elif shim_out is None:
        cmd = [sys.executable, "-m", "quasizero", *wl.cli_argv(op)]
    else:
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(shim_out), *wl.cli_argv(op)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    if proc.returncode != 0:
        msg = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit{proc.returncode}", msg[0]
    if op["kind"] == "import":
        return None, None, None
    return json.loads(proc.stdout)["results"], None, None


def execute(qz, op: dict, env: dict, shim_out: Path | None = None) -> dict:
    """Run one operation; the record carries its inputs, outcome and time."""
    t0 = time.perf_counter()
    if op["kind"] in wl.ROUNDS["cli"]:
        answer, err, msg = run_cli(op, env, shim_out)
    else:
        try:
            answer, err, msg = wl.run_op(qz, op), None, None
        except qz.errors.QuasizeroError as exc:
            answer, err, msg = None, type(exc).__name__, str(exc)
    ms = (time.perf_counter() - t0) * 1e3
    rec = {"op": op, "ms": ms}
    if err is None:
        rec["answer"] = answer
    else:
        rec["error"], rec["message"] = err, msg
    return rec


def emit(rec: dict) -> None:
    """Hand a record to the parent now, so this process keeps no history."""
    sys.stdout.write(json.dumps(rec) + "\n")


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_phase(qz, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """Emit timed records, each with the host calibration before it, until
    the operations have run for ``seconds`` (whole rounds only).

    Round 0, the top of every parameter range and the same for every seed,
    runs first as the untimed warm-up; the peak RSS right after it is the
    largest working set, free of the allocator history that later rounds
    leave behind.  Timing starts at round 1.
    """
    kinds = wl.ROUNDS[workload]
    for i in range(len(kinds)):
        execute(qz, wl.make_op(seed, workload, i), env)
    summary = {"peak_rss_mb": peak_rss_mb(workload)}
    cal_kind = hostspeed.WORKLOAD_KIND[workload]
    cal, cal_at = hostspeed.calibrate(cal_kind), time.perf_counter()
    busy_ms = 0.0
    index = len(kinds)
    while index % len(kinds) or busy_ms < seconds * 1e3:
        if time.perf_counter() - cal_at > hostspeed.EVERY_S[cal_kind]:
            cal, cal_at = hostspeed.calibrate(cal_kind), time.perf_counter()
        rec = execute(qz, wl.make_op(seed, workload, index), env)
        rec["cal_ms"] = cal
        emit(rec)
        busy_ms += rec["ms"]
        index += 1
    summary["cal_ms"] = hostspeed.calibrate(cal_kind)
    for op in wl.DEFECTS[workload]:
        emit(execute(qz, op, env))
    summary["run_peak_rss_mb"] = peak_rss_mb(workload)
    return summary


def probe_ops() -> list:
    ops = []
    for name, kinds in wl.ROUNDS.items():
        for i in range(len(kinds)):
            op = wl.make_op(PROBE_SEED, name, len(kinds) + i)
            op["probe"] = name
            ops.append(op)
    return ops


def import_times(env: dict, runs: int = 3) -> tuple[float, float]:
    """Median cumulative import time of quasizero and numpy, in seconds."""
    cmd = [sys.executable, "-X", "importtime", "-m", "quasizero",
           "zeros", "--k", "1", "--a", "1", "--nu", "5..7"]
    pkg, npy = [], []
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        pkg.append(cumulative["quasizero"])
        npy.append(cumulative["numpy"])
    return statistics.median(pkg), statistics.median(npy)


def per_call_ns(fn, q, points, reps: int = 5) -> float:
    per_rep = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for lam in points:
            fn(q, lam)
        per_rep.append((time.perf_counter() - t0) / len(points) * 1e9)
    return statistics.median(per_rep)


def core_kernels(qz, seed: int) -> dict:
    """Untraced ns per call over seeded fast-path and stabilised-path points."""
    rng = random.Random(f"{seed}/kernels")
    q = qz.core.Quasipolynomial(2, complex(0.7, 0.2))
    fast = [complex(rng.uniform(-20, 20), rng.uniform(-500, 500)) for _ in range(1000)]
    # Re in (700, 708): e^lambda needs the stabilised path, |f| still fits
    stab_f = [complex(rng.uniform(700.5, 708), rng.uniform(-1e3, 1e3)) for _ in range(1000)]
    # |sigma_1| > 700: ratio_alg and ratio_exp saturate
    stab_r = [complex(rng.uniform(720, 1500), rng.uniform(-1e3, 1e3)) for _ in range(1000)]
    return {
        "core.eval_f_ns": per_call_ns(qz.core.eval_f, q, fast + stab_f),
        "core.relative_magnitude_ns": per_call_ns(qz.core.relative_magnitude, q, fast + stab_r),
    }


def traced_phase(qz, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """Emit the traced pass's records; return the per-layer metrics."""
    import quasizero.cli  # noqa: F401  (the tracer wraps the cli module too)
    import spans

    kinds = wl.ROUNDS[workload]
    rounds = max(2, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    ops = [wl.make_op(seed, workload, i) for i in range(rounds * len(kinds))]
    ops += probe_ops() + list(wl.DEFECTS[workload])
    n_work = rounds * len(kinds)

    metrics = core_kernels(qz, seed)
    metrics["cli.import_s"], metrics["cli.import_numpy_s"] = import_times(env)

    untraced_ms = []
    run_s: dict[str, list] = {}
    for op in ops:
        r = execute(qz, op, env)
        untraced_ms.append(r["ms"])
        if op["kind"] in wl.ROUNDS["cli"] and op["kind"] != "import":
            run_s.setdefault(op["kind"], []).append(r["ms"] * 1e-3)
    for sub in ("zeros", "count", "bounds", "geometry"):
        metrics[f"cli.run_s.{sub}"] = statistics.median(run_s[sub])

    rec, saved = spans.install(qz)
    root = rec.name_id("bench.op")
    OUT.mkdir(exist_ok=True)
    shim_out = OUT / f"child-{os.getpid()}.json"
    traced_ms = []
    try:
        for i, op in enumerate(ops):
            rec.op_id = i
            idx = rec.open(root)
            t0 = time.perf_counter()
            is_cli = op["kind"] in wl.ROUNDS["cli"] and op["kind"] != "import"
            r = execute(qz, op, env, shim_out if is_cli else None)
            traced_ms.append(r["ms"])
            emit(r)
            if is_cli and shim_out.exists():
                rec.merge(json.loads(shim_out.read_text()))
                shim_out.unlink()
            rec.close(idx, t0, time.perf_counter())
    finally:
        spans.uninstall(saved)

    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(rec.dump()))
    metrics.update(layer_metrics(rec))
    work_s = [sum(ms[:n_work]) * 1e-3 for ms in (untraced_ms, traced_ms)]
    metrics["bench.untraced_ops_per_s"] = n_work / work_s[0]
    metrics["bench.traced_ops_per_s"] = n_work / work_s[1]
    metrics["bench.trace_overhead"] = work_s[1] / work_s[0]
    return metrics


def layer_metrics(rec) -> dict:
    import spans

    c = rec.counts
    calls, self_s = rec.layer_times()
    count_calls = sum(
        1 for nid in rec.name
        if rec.names[nid] in ("oracle.count_zeros_rect", "oracle.count_zeros_disk")
    )
    m = {}
    for layer in ("core", "regions", "zeros", "oracle", "bounds"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["zeros.newton_iters"] = c["zeros.newton_iters"]
    m["zeros.fixedpoint_iters"] = c["zeros.fixedpoint_iters"]
    m["zeros.us_per_zero"] = c["zeros.enumerate_s"] / max(1, c["zeros.zeros_out"]) * 1e6
    for cls in (*spans.ZEROS_FAILURES, "other"):
        m[f"zeros.fail.{cls}"] = c[f"zeros.fail.{cls}"]
    m["oracle.evals"] = c["oracle.evals"]
    m["oracle.evals_per_length"] = c["oracle.evals"] / max(1e-300, c["oracle.length"])
    m["oracle.count_calls"] = count_calls
    m["oracle.us_per_eval"] = self_s["oracle"] / max(1, c["oracle.evals"]) * 1e6
    m["oracle.isolate_eval_ratio"] = (
        c["oracle.isolate_evals"] / max(1, c["oracle.isolate_root_evals"])
    )
    m["oracle.retries"] = c["oracle.retries"]
    m["bounds.samples_per_s"] = c["bounds.samples"] / max(1e-300, c["bounds.sample_s"])
    m["bounds.band_zeros_s"] = c["bounds.band_zeros_s"]
    return m


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(wl.ROUNDS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import quasizero
    import_s = time.perf_counter() - t0
    if Path(quasizero.__file__).resolve().parent != SRC / "quasizero":
        raise SystemExit(f"imported quasizero from {quasizero.__file__}, not {SRC}")

    env = cli_env()
    if args.trace:
        summary = {"metrics": traced_phase(quasizero, args.workload, args.seed, args.seconds, env)}
    else:
        summary = timed_phase(quasizero, args.workload, args.seed, args.seconds, env)
    summary["import_s"] = import_s
    emit({"summary": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
