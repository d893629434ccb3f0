"""The benchmark's own tests: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402


def run_bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_reference_reproduces_known_zeros():
    reference.self_check()


def test_reference_shares_no_code_with_the_library():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import verify; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         capture_output=True, text=True, check=True).stdout
    assert "quasizero" not in out and "numpy" not in out


def test_inputs_depend_only_on_the_seed():
    for name, kinds in wl.ROUNDS.items():
        ops = [wl.make_op(7, name, i) for i in range(3 * len(kinds))]
        assert ops == [wl.make_op(7, name, i) for i in range(3 * len(kinds))]
        assert ops != [wl.make_op(8, name, i) for i in range(3 * len(kinds))]


def test_known_defect_inputs_are_fixed_operations_of_their_workload():
    for name, ops in wl.DEFECTS.items():
        assert ops
        for op in ops:
            assert op["kind"] in wl.ROUNDS[name] and op["defect"]
            assert "round" not in op and "index" not in op


def test_checks_catch_wrong_answers():
    chain_op = {"kind": "grid", "k": 2, "a": [0.5, 0.5], "nu": [40, 42]}
    zeros = {nu: reference.chain_zero(2, 0.5 + 0.5j, nu) for nu in range(40, 43)}
    answer = [[nu, z.real, z.imag] for nu, z in zeros.items()]
    assert verify.check(chain_op, answer) is None
    answer[1][2] += 1e-6 * abs(complex(*answer[1][1:]))
    assert verify.check(chain_op, answer) is not None

    disk_op = {"kind": "disk", "k": 120, "a": [1.0, 0.0], "centre": [0.0, 0.0], "radius": 4.1}
    assert verify.check(disk_op, 120) is None
    assert verify.check(disk_op, 16) is not None

    rect = [-1.0, 12.0, 0.5, 200.0]
    zeros = reference.zeros_in_rect(1, 1, *rect)
    boxes = [[z.real - 0.1, z.real + 0.1, z.imag - 0.1, z.imag + 0.1] for z in zeros]
    iso_op = {"kind": "isolate", "k": 1, "a": [1.0, 0.0], "rect": rect, "eps": 0.5}
    assert verify.check(iso_op, boxes) is None
    assert verify.check(iso_op, boxes[:-1]) is not None
    boxes[0][2] += 0.2
    assert verify.check(iso_op, boxes) is not None


@pytest.mark.parametrize("workload", ["chain", "certify"])
def test_exact_counts_repeat_byte_for_byte(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1",
            "--exact-counts")
    first, second = run_bench(*args), run_bench(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    out = json.loads(first.stdout)
    assert out["counts"]["core.calls"] > 0
    assert "defects" in out


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
