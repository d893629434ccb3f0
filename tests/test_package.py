"""Package surface: numpy and quasizero.bounds load only on first use."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

import quasizero


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that has the test run's environment."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60,
    )


def assert_ok(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr


class TestLazyBounds:
    def test_import_leaves_numpy_unloaded(self):
        assert_ok(run_fresh("""
            import sys, quasizero
            assert "numpy" not in sys.modules, "numpy"
            assert "quasizero.bounds" not in sys.modules, "quasizero.bounds"
        """))

    def test_band_cells_need_no_numpy(self):
        assert_ok(run_fresh("""
            import sys
            from quasizero import Quasipolynomial, QuadrangleGeom, quadrangle
            from quasizero.zeros import _collect_band_zeros, _min_gap
            geom = quadrangle(Quasipolynomial(1, 1), 5, 2.0)
            assert isinstance(geom, QuadrangleGeom)
            assert _min_gap(sorted(_collect_band_zeros(Quasipolynomial(1, 1), 6),
                                   key=lambda z: z.imag)) > 0
            assert "numpy" not in sys.modules, "numpy"
        """))

    def test_only_the_sampled_bounds_are_served_lazily(self):
        assert quasizero._BOUNDS_NAMES == {
            "BoundReport", "estimate_c_delta", "verify_eq3", "verify_eq4"
        }

    def test_moved_names_are_reexported_from_bounds(self):
        from quasizero import bounds, regions, zeros

        for name in ("quadrangle", "QuadrangleGeom", "_cut_offset"):
            assert getattr(bounds, name) is getattr(regions, name), name
        for name in ("_collect_band_zeros", "_min_gap", "SMALL_DISK_MARGIN"):
            assert getattr(bounds, name) is getattr(zeros, name), name
        assert quasizero.quadrangle is regions.quadrangle
        assert quasizero.QuadrangleGeom is regions.QuadrangleGeom

    @pytest.mark.parametrize(
        "first_use",
        [
            "quasizero.verify_eq3",
            "from quasizero import bounds, BoundReport",
            "from quasizero import *",
        ],
    )
    def test_first_use_loads_bounds(self, first_use):
        assert_ok(run_fresh(f"""
            import sys, quasizero
            {first_use}
            assert quasizero.bounds is sys.modules["quasizero.bounds"]
            assert quasizero.verify_eq3 is quasizero.bounds.verify_eq3
            assert "numpy" in sys.modules
        """))

    def test_every_public_name_resolves(self):
        for name in quasizero.__all__:
            assert getattr(quasizero, name) is not None, name
        assert quasizero.BoundReport is sys.modules["quasizero.bounds"].BoundReport

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            quasizero.no_such_name  # noqa: B018
        with pytest.raises(ImportError, match="no_such_name"):
            from quasizero import no_such_name  # noqa: F401

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quasizero", "zeros", "--k", "1", "--a", "1",
             "--nu", "5..7"],
            capture_output=True, text=True, timeout=60,
        )
        assert_ok(proc)
        rows = proc.stdout.splitlines()[1:4]
        assert [row.split(",")[0] for row in rows] == ["5", "6", "7"]
