"""Command-line surface: flags, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quasizero import (
    Quasipolynomial,
    enumerate_zeros,
    quadrangle,
    sector_radius,
    sigma,
)
from quasizero.cli import main

Q11 = Quasipolynomial(1, 1)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, argv):
    """Invoke the CLI in-process; normalize argparse SystemExit to a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return (0 if code is None else code), out, err


class TestZerosCommand:
    def test_csv_shape_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, ["zeros", "--k", "1", "--a", "1+0i", "--nu", "1..40"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nu,guess_re,guess_im,zero_re,zero_im,residual,newton_iters"
        rows = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
        assert len(rows) == 36
        # Values parse back to the in-memory records exactly.
        records = {r.nu: r for r in enumerate_zeros(Q11, 1, 40)}
        for row in rows:
            fields = row.split(",")
            rec = records[int(fields[0])]
            assert float(fields[1]) == rec.guess.real
            assert float(fields[2]) == rec.guess.imag
            assert float(fields[3]) == rec.refined.real
            assert float(fields[4]) == rec.refined.imag
            assert float(fields[5]) == rec.residual
            assert int(fields[6]) == rec.newton_iters

    def test_empty_range_notes_skip(self, capsys):
        code, out, _ = run_cli(
            capsys, ["zeros", "--k", "1", "--a", "1+0i", "--nu", "0..0"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("nu,")
        assert any(ln.startswith("#") and "no chain indices" in ln for ln in lines)

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["zeros", "--k", "2", "--a", "3i", "--nu", "5..8", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 2
        assert doc["command"] == "zeros"
        assert doc["config"]["k"] == 2
        assert doc["config"]["a"] == {"re": 0.0, "im": 3.0}
        assert doc["timings"] is None
        assert len(doc["results"]["records"]) == 4

    def test_json_records_carry_the_proven_radius(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["zeros", "--k", "2", "--a", "3i", "--nu=-8..8", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)["results"]["records"]
        records = {r.nu: r for r in enumerate_zeros(Quasipolynomial(2, 3j), -8, 8)}
        assert sorted(row["nu"] for row in rows) == sorted(records)
        for row in rows:
            assert row["radius"] == records[row["nu"]].radius > 0
            assert "fixedpoint_iters" not in row

    def test_reader_closing_early_exits_one_without_traceback(self):
        # about 2,000 rows, far more than a pipe buffers, so the CLI is still
        # writing when its reader closes after two lines, as `| head -2` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "quasizero", "zeros", "--k", "1", "--a", "1",
             "--nu", "5..2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        header, row = proc.stdout.readline(), proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == ""  # no traceback, and no error line either
        assert header == "nu,guess_re,guess_im,zero_re,zero_im,residual,newton_iters\n"
        rec = enumerate_zeros(Q11, 5, 5)[0]
        assert row.rstrip("\n").split(",") == [
            "5", repr(rec.guess.real), repr(rec.guess.imag), repr(rec.refined.real),
            repr(rec.refined.imag), repr(rec.residual), str(rec.newton_iters),
        ]

    def test_malformed_coefficient_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["zeros", "--k", "1", "--a", "banana", "--nu", "1..5"]
        )
        assert code == 2
        assert err

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["zeros", "--k", "1", "--a", "1+0i", "--nu", "5-10"]
        )
        assert code == 2


class TestCountCommand:
    def test_rect_count(self, capsys):
        code, out, _ = run_cli(
            capsys, ["count", "--k", "1", "--a", "1+0i", "--rect", "0,4,8,14"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count: 1"
        assert lines[1].startswith("edge_segments: ")
        assert lines[2].startswith("min_boundary_ratio: ")

    def test_disk_count(self, capsys):
        code, out, _ = run_cli(
            capsys, ["count", "--k", "1", "--a", "1+0i", "--disk", "0,0,2"]
        )
        assert code == 0
        assert out.splitlines()[0] == "count: 1"

    def test_rect_and_disk_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "count", "--k", "1", "--a", "1+0i",
                "--rect", "0,4,8,14", "--disk", "0,0,2",
            ],
        )
        assert code == 2

    def test_neither_contour_given(self, capsys):
        code, _, _ = run_cli(capsys, ["count", "--k", "1", "--a", "1+0i"])
        assert code == 2

    def test_boundary_zero_is_numeric_failure(self, capsys):
        # Bottom edge through the real zero: the walk classifies it as a
        # boundary zero, which is a numeric failure, not a usage error.
        code, _, err = run_cli(
            capsys,
            [
                "count", "--k", "1", "--a", "1+0i",
                "--rect=-1.5671432904097838,0.4328567095902162,0,2",
            ],
        )
        assert code == 1
        assert "error:" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "count", "--k", "1", "--a", "1+0i",
                "--disk", "0,0,2", "--format", "json",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count"] == 1


    @pytest.mark.parametrize(
        "contour", ["--rect=0,1e308,0,1e308", "--rect=-1e308,1e308,0,1", "--disk=0,0,1e308"]
    )
    def test_overlong_contour_is_usage_error_without_traceback(self, contour):
        proc = subprocess.run(
            [sys.executable, "-m", "quasizero", "count", "--k", "1", "--a", "1", contour],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: contour edge of length ")
        assert len(proc.stderr.splitlines()) == 1

class TestBoundsCommand:
    def test_eq3_json_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq3", "--k", "1", "--a", "1+0i",
                "--h", "auto+0.5", "--samples", "2000", "--seed", "7",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 2
        assert doc["results"]["passed"] is True
        assert doc["results"]["min_ratio"] >= 0.5
        assert doc["config"]["h"] == pytest.approx(math.log(2) + 0.5)
        assert doc["timings"] is None

    def test_identical_seeds_identical_output(self, capsys):
        argv = [
            "bounds", "--ineq", "eq4", "--k", "2", "--a", "0.5+0.5i",
            "--h", "auto+0.5", "--samples", "1000", "--seed", "3",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_eq7_requires_delta(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["bounds", "--ineq", "eq7", "--k", "1", "--a", "1+0i"],
        )
        assert code == 2
        assert "delta" in err

    @pytest.mark.parametrize("ineq", ["eq3", "eq7"])
    def test_printed_set_outside_eq4_is_usage_error(self, capsys, ineq):
        code, out, err = run_cli(
            capsys,
            ["bounds", "--ineq", ineq, "--printed-set", "--k", "1", "--a", "1",
             "--delta", "0.3", "--samples", "100"],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --printed-set applies to eq4 only, not {ineq}\n"

    def test_eq7_reports_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq7", "--k", "1", "--a", "1+0i",
                "--delta", "0.5", "--nu-hi", "30", "--samples", "2000",
                "--seed", "42",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["inequality_id"] == "eq7"
        assert doc["results"]["min_ratio"] > 0
        assert doc["results"]["stability_ratio"] is not None

    def test_environment_seed_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASIZERO_SEED", "123")
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq3", "--k", "1", "--a", "1+0i",
                "--h", "auto+0.5", "--samples", "500", "--seed", "7",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 123
        assert doc["results"]["seed"] == 123

    def test_invalid_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASIZERO_SEED", "not-a-seed")
        code, _, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq3", "--k", "1", "--a", "1+0i",
                "--h", "auto+0.5", "--samples", "500",
            ],
        )
        assert code == 2

    def test_timings_opt_in(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq3", "--k", "1", "--a", "1+0i",
                "--h", "auto+0.5", "--samples", "500", "--seed", "1",
                "--timings",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc["timings"], dict)
        assert doc["timings"]["elapsed_seconds"] > 0


    def test_printed_set_with_huge_coefficient_fails(self, capsys):
        # the worst sample's exponential ratio is 0.0988; both terms of f
        # overflow binary64 there, since ln|a| = 702
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq4", "--printed-set", "--k", "1", "--a", "1e305",
                "--samples", "20000", "--seed", "5",
            ],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["passed"] is False
        assert doc["results"]["min_ratio"] == pytest.approx(0.09877403633572555, rel=1e-9)

    #: bound inputs that are not finite, each rejected before any draw
    NONFINITE = [
        ["--ineq", "eq3", "--window", "inf"],
        ["--ineq", "eq7", "--delta", "0.3", "--h", "inf"],
        ["--ineq", "eq3", "--R", "nan"],
        ["--ineq", "eq4", "--R", "nan"],
        ["--ineq", "eq3", "--window", "nan"],
        ["--ineq", "eq4", "--window", "nan"],
        ["--ineq", "eq3", "--h", "inf"],
    ]

    @pytest.mark.parametrize("flags", NONFINITE, ids=" ".join)
    def test_nonfinite_inputs_are_usage_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, ["bounds", "--k", "1", "--a", "1", *flags])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "must be finite" in err

    @pytest.mark.parametrize("ineq", ["eq3", "eq4"])
    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_inner_radius_is_usage_error(self, capsys, ineq, r):
        code, out, err = run_cli(
            capsys, ["bounds", "--ineq", ineq, "--k", "1", "--a", "1", f"--R={r}"]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: R must be finite and > 0, got {float(r)!r}\n"

    @pytest.mark.parametrize("flags", NONFINITE, ids=" ".join)
    def test_nonfinite_inputs_print_no_traceback(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "quasizero", "bounds", "--k", "1", "--a", "1", *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


class TestGeometryCommand:
    def test_gamma_rows_satisfy_curve_equation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "geometry", "--curve", "gamma", "--k", "1", "--a", "1+0i",
                "--S", "1", "--j", "2", "--h", "2", "--im", "10..200",
                "--n", "16",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re,im"
        rows = lines[1:]
        assert len(rows) == 16
        for row in rows:
            re_s, im_s = row.split(",")
            p = complex(float(re_s), float(im_s))
            assert abs(sigma(Q11, 1, p) - 2.0) < 1e-9

    def test_gamma_single_point_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "geometry", "--curve", "gamma", "--k", "1", "--a", "1+0i",
                "--S", "1", "--j", "2", "--h", "2", "--im", "10..200",
                "--n", "1",
            ],
        )
        assert code == 2

    def test_quadrangle_csv_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "geometry", "--quadrangle", "--k", "1", "--a", "1+0i",
                "--nu", "10", "--h", "2",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "corner,re,im"
        geom = quadrangle(Q11, 10, 2.0)
        for idx, corner in enumerate(geom.corners, start=1):
            fields = lines[idx].split(",")
            assert int(fields[0]) == idx
            assert float(fields[1]) == corner.real
            assert float(fields[2]) == corner.imag
        diag_line = next(ln for ln in lines if ln.startswith("# diag "))
        assert float(diag_line.split()[-1]) == geom.diag

    #: geometry inputs that are not finite, each a usage error naming the input
    NONFINITE = [
        (["--curve", "gamma", "--j", "2", "--h", "inf", "--im", "0..10"], "h"),
        (["--curve", "gamma", "--j", "2", "--h", "nan", "--im", "0..10"], "h"),
        (["--curve", "gamma", "--j", "2", "--h", "2", "--im", "0..inf"], "im_hi"),
        (["--curve", "gamma", "--j", "2", "--h", "2", "--im", "nan..nan"], "im_lo"),
        (["--quadrangle", "--nu", "5", "--h", "inf"], "h"),
    ]

    @pytest.mark.parametrize("flags, name", NONFINITE,
                             ids=[" ".join(flags) for flags, _ in NONFINITE])
    def test_nonfinite_inputs_are_usage_errors(self, capsys, flags, name):
        code, out, err = run_cli(capsys, ["geometry", "--k", "1", "--a", "1", *flags])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {name} must be finite, got ")

    def test_quadrangle_requires_nu(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["geometry", "--quadrangle", "--k", "1", "--a", "1+0i", "--h", "2"],
        )
        assert code == 2

    def test_sector_radius_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "geometry", "--sector", "--k", "1", "--a", "1+0i",
                "--h", "2", "--delta", "0.3",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sector_radius"
        assert float(lines[1]) == sector_radius(Q11, 1, 2.0, 0.3)

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "geometry", "--curve", "gamma", "--quadrangle",
                "--k", "1", "--a", "1+0i", "--h", "2",
            ],
        )
        assert code == 2


class TestParsing:
    def test_complex_forms(self, capsys):
        for text, expected in [
            ("0.5-0.5i", {"re": 0.5, "im": -0.5}),
            ("3i", {"re": 0.0, "im": 3.0}),
            ("-2", {"re": -2.0, "im": 0.0}),
        ]:
            code, out, _ = run_cli(
                capsys,
                [
                    "zeros", "--k", "1", "--a", text, "--nu", "5..5",
                    "--format", "json",
                ],
            )
            assert code == 0
            assert json.loads(out)["config"]["a"] == expected

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2

    def test_auto_h_uses_region_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "bounds", "--ineq", "eq4", "--k", "1", "--a", "-2",
                "--h", "auto", "--samples", "200", "--seed", "0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        # auto = ln(2|a|) + 0.5 for the far-field inequality.
        assert doc["config"]["h"] == pytest.approx(math.log(4) + 0.5)

    #: each subcommand with arguments that are valid apart from --k and --a
    COMMANDS = [
        ["zeros", "--nu", "5..7"],
        ["count", "--rect", "0,4,8,14"],
        ["bounds", "--ineq", "eq3", "--h", "auto", "--samples", "100"],
        ["geometry", "--sector", "--h", "2", "--delta", "0.3"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("k, a", [("0", "1"), ("1", "0"), ("1", "nan")])
    def test_invalid_coefficients_are_usage_errors(self, capsys, command, k, a):
        code, out, err = run_cli(capsys, [command[0], "--k", k, "--a", a, *command[1:]])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("k, a", [("0", "1"), ("1", "0"), ("1", "nan")])
    def test_invalid_coefficients_print_no_traceback(self, k, a):
        proc = subprocess.run(
            [sys.executable, "-m", "quasizero", "count", "--k", k, "--a", a,
             "--rect", "0,4,8,14"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")



class TestTimings:
    #: every subcommand in each of its formats
    TEXT = [
        ["zeros", "--k", "1", "--a", "1", "--nu", "1..12"],
        ["count", "--k", "1", "--a", "1", "--rect", "0,4,8,14"],
        ["geometry", "--k", "1", "--a", "1", "--sector", "--h", "2", "--delta", "0.3"],
        ["geometry", "--k", "1", "--a", "1", "--curve", "gamma", "--j", "2", "--h", "2",
         "--im", "10..20", "--n", "4"],
        ["geometry", "--k", "1", "--a", "1", "--quadrangle", "--nu", "10", "--h", "2"],
    ]
    JSON = [argv + ["--format", "json"] for argv in TEXT] + [
        ["bounds", "--ineq", "eq3", "--k", "1", "--a", "1", "--samples", "200", "--seed", "1"],
    ]

    @pytest.mark.parametrize("argv", TEXT, ids=" ".join)
    def test_text_output_gains_one_last_timing_line(self, capsys, argv):
        code, plain, _ = run_cli(capsys, argv)
        timed_code, timed, _ = run_cli(capsys, argv + ["--timings"])
        assert code == timed_code == 0
        head, sep, last = timed.rstrip("\n").rpartition("\n")
        assert sep and head + "\n" == plain
        prefix = "# elapsed_seconds "
        assert last.startswith(prefix) and float(last[len(prefix):]) >= 0.0

    @pytest.mark.parametrize("argv", JSON, ids=" ".join)
    def test_json_output_gains_the_elapsed_seconds(self, capsys, argv):
        code, plain, _ = run_cli(capsys, argv)
        timed_code, timed, _ = run_cli(capsys, argv + ["--timings"])
        assert code == timed_code == 0
        plain_doc, timed_doc = json.loads(plain), json.loads(timed)
        assert timed_doc["config"] == plain_doc["config"]
        assert timed_doc["results"] == plain_doc["results"]
        assert plain_doc["timings"] is None
        assert isinstance(timed_doc["timings"]["elapsed_seconds"], float)

def _readme_examples():
    """(name, argv, output) for each README command block that is followed
    directly by a plain block holding its output."""
    blocks = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)
    examples = []
    for (lang, body), (next_lang, output) in zip(blocks, blocks[1:]):
        if lang == "sh" and body.startswith("quasizero ") and next_lang == "":
            argv = shlex.split(body)[1:]
            shapes = [w[2:] for w in argv if w in ("--curve", "--quadrangle", "--sector")]
            examples.append((shapes[0] if shapes else argv[0], argv, output))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_every_documented_output_is_checked(self):
        names = [name for name, _, _ in README_EXAMPLES]
        assert names == ["zeros", "count", "bounds", "curve", "quadrangle", "sector"]

    @pytest.mark.parametrize(
        "argv, output", [e[1:] for e in README_EXAMPLES], ids=[e[0] for e in README_EXAMPLES]
    )
    def test_output_matches_readme_byte_for_byte(self, capsys, argv, output):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == output
