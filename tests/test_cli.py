import json
import os

import pytest

from neucrit.cli import main
from neucrit.pipeline import reference_config


def write_config(tmp_path, mutate=None, name="config.json"):
    cfg = reference_config()
    if mutate:
        mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_spectrum_json(capsys):
    assert main(["spectrum"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2
    assert out["eigenvalues"][:4] == [0.0, 1.0, 4.0, 9.0]


def test_spectrum_csv_and_modes_override(capsys):
    assert main(["spectrum", "--format", "csv", "--modes", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,eigenvalue,mode,block"
    assert len(lines) == 9
    assert lines[1].split(",") == ["0", "0", "0", "X"]
    assert lines[3].split(",")[3] == "Y"


def test_check_reports_hypotheses(capsys):
    assert main(["check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["five_pattern"] is True
    assert out["modulus"] == pytest.approx(0.3)


def test_check_resonant_exits_two(tmp_path, capsys):
    def resonant(cfg):
        cfg["nonlinearity"]["slope_minus_inf"] = 4.0
        cfg["nonlinearity"]["slope_plus_inf"] = 4.0

    path = write_config(tmp_path, resonant)
    assert main(["check", "--config", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ResonantSlope"


def test_solve_stage_subset(capsys):
    assert main(["solve", "--stage", "constants"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["stages"]["constants"]) == 5
    assert out["errors"] == {}


def test_reduce_runs_the_reduction_alone(capsys, monkeypatch):
    """The reduction reads only the problem, so `reduce` runs no homotopy
    sweep and needs no radius."""
    import neucrit.pipeline as pipeline

    def no_sweep(*args, **kwargs):
        raise AssertionError("reduce ran the homotopy sweep")

    monkeypatch.setattr(pipeline, "homotopy_bound", no_sweep)
    assert main(["reduce"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["errors", "reduction", "warnings"]
    assert out["errors"] == {} and out["warnings"] == []
    assert out["reduction"]["morse_index"] == 2


def test_reduce_inapplicable_exits_two(tmp_path, capsys):
    def steep(cfg):
        cfg["nonlinearity"]["knots"] = [[0.0, 6.0]]

    path = write_config(tmp_path, steep)
    assert main(["reduce", "--config", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ReductionInapplicable"


def test_ledger_csv_stdout(capsys):
    rc = main(["ledger", "--format", "csv", "--stage", "constants,ledger"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("index,classification")
    assert len(lines) == 6


def test_strict_deficiency_exits_three(tmp_path, capsys):
    rc = main(["run", "--stage", "constants,ledger", "--strict",
               "--out", str(tmp_path / "strict")])
    assert rc == 3
    capsys.readouterr()


def test_run_writes_artifacts_and_plot(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    names = sorted(os.path.basename(p) for p in printed)
    assert names == ["profiles.svg", "report.json", "summary.csv"]
    with open(out_dir / "report.json") as fh:
        blob = json.load(fh)
    assert blob["ledger"]["reconciliation"]["balanced"] is True

    plot_dir = tmp_path / "plots"
    assert main(["plot", str(out_dir / "report.json"),
                 "--out", str(plot_dir)]) == 0
    capsys.readouterr()
    assert (plot_dir / "profiles.svg").exists()


def test_plot_report_without_ledger(tmp_path, capsys):
    """A run without the ledger stage writes `"ledger": null`; plotting it
    draws no profiles, the same SVG as a report with no ledger key."""
    out_dir = tmp_path / "run"
    assert main(["run", "--stage", "constants", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = out_dir / "report.json"
    blob = json.loads(report.read_text())
    assert blob["ledger"] is None
    assert main(["plot", str(report)]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg")
    del blob["ledger"]
    keyless = tmp_path / "keyless.json"
    keyless.write_text(json.dumps(blob))
    assert main(["plot", str(keyless)]) == 0
    assert capsys.readouterr().out == svg


def test_plot_requires_report(capsys):
    assert main(["plot"]) == 1
    assert "report path" in capsys.readouterr().err


def test_config_errors_exit_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert main(["solve", "--stage", "warp_drive"]) == 1
    capsys.readouterr()
    qp = write_config(tmp_path, lambda cfg: cfg["domain"].update(quad_points="x"),
                      name="quad_points.json")
    assert main(["check", "--config", qp]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["not-a-command"]) == 1
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "neucrit" in capsys.readouterr().out
