"""Demos 01-05 run in-process and finish cleanly."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_spectrum_basics.py",
    "02_nonlinearity_gallery.py",
    "03_mountain_pass.py",
    "04_reduction_landscape.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_full_ledger_demo_writes_report(tmp_path, capsys):
    """Demo 05 writes its artifacts to out/ next to itself, so a copy of it
    runs in tmp_path and leaves the checkout's demos/out alone."""
    demo = tmp_path / "05_full_ledger.py"
    shutil.copy(DEMOS / "05_full_ledger.py", demo)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
    for name in ("report.json", "summary.csv", "profiles.svg"):
        assert (tmp_path / "out" / name).is_file()
