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


def test_spectrum_and_check_write_to_out(tmp_path, capsys):
    out_dir = tmp_path / "out"
    for command in ("spectrum", "check"):
        assert main([command, "--out", str(out_dir)]) == 0
        path = out_dir / f"{command}.json"
        assert capsys.readouterr().out.strip() == str(path)
    assert json.loads((out_dir / "spectrum.json").read_text())["k"] == 2
    assert json.loads((out_dir / "check.json").read_text())["five_pattern"] is True


def test_spectrum_csv_writes_to_out(tmp_path, capsys):
    """`spectrum --format csv --out D` writes the table printed without
    `--out` to D/spectrum.csv and prints that path."""
    assert main(["spectrum", "--format", "csv"]) == 0
    table = capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["spectrum", "--format", "csv", "--out", str(out_dir)]) == 0
    path = out_dir / "spectrum.csv"
    assert capsys.readouterr().out.strip() == str(path)
    assert path.read_text() == table
    assert table.splitlines()[0] == "index,eigenvalue,mode,block"
    assert len(table.splitlines()) == 1 + 16


def test_solve_stage_subset(capsys):
    """The search stages run as a stage list of `run`; the constants alone
    give the five constant records.  `--seed` lands in the reported config."""
    assert main(["run", "--seed", "42", "--stage", "constants"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["stages"]["constants"]) == 5
    assert out["errors"] == {}
    assert out["config"]["solver"]["rng_seed"] == 42


def test_reduce_runs_the_reduction_alone(capsys, monkeypatch):
    """The reduction reads only the problem, so `run --stage reduction`
    runs no homotopy sweep and needs no radius."""
    import neucrit.pipeline as pipeline

    def no_sweep(*args, **kwargs):
        raise AssertionError("the reduction ran the homotopy sweep")

    monkeypatch.setattr(pipeline, "homotopy_bound", no_sweep)
    assert main(["run", "--stage", "reduction"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["stages"]) == ["reduction", "spectrum"]
    assert out["errors"] == {} and out["warnings"] == []
    assert out["stages"]["reduction"]["morse_index"] == 2


def test_reduction_inapplicable_is_a_skip(tmp_path, capsys):
    """An inapplicable reduction is a skip, not a failure: the report names
    it under `skips.reduction` and the run exits 0."""
    def steep(cfg):
        cfg["nonlinearity"]["knots"] = [[0.0, 6.0]]

    path = write_config(tmp_path, steep)
    assert main(["run", "--config", path, "--stage", "reduction"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "reduction" not in out["stages"] and out["errors"] == {}
    assert "reduction" in out["skips"]


def test_ledger_csv_stdout(capsys):
    rc = main(["run", "--format", "csv", "--stage", "constants,ledger"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("index,classification")
    assert len(lines) == 6


def test_csv_without_ledger_stage_is_a_usage_error(capsys, monkeypatch):
    import neucrit.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "run_pipeline", no_run)
    assert main(["run", "--format", "csv", "--stage", "constants"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ledger stage" in captured.err


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
    assert "required: report" in capsys.readouterr().err


def test_config_errors_exit_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert main(["run", "--stage", "warp_drive"]) == 1
    assert "unknown stages" in capsys.readouterr().err
    qp = write_config(tmp_path, lambda cfg: cfg["domain"].update(quad_points="x"),
                      name="quad_points.json")
    assert main(["check", "--config", qp]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    # 16 modes on the square split the eigenvalue 16 of (4, 0) and (0, 4)
    square = write_config(tmp_path, lambda cfg: cfg.update(
        domain={"kind": "rectangle", "lengths": [3.141592653589793] * 2}), name="square.json")
    assert main(["run", "--config", square, "--out", str(tmp_path / "square")]) == 1
    assert capsys.readouterr().err.startswith("config error: modes=16 splits")
    assert not (tmp_path / "square").exists()
    # nodes no cubic piece can join: a blend margin whose cube underflows,
    # two knots at one abscissa, a shape point on a knot, and a knot so far
    # out that rounding would break the C1 joins
    faults = {
        "margin_1e-110": lambda nl: nl.update(blend_margin=1e-110),
        "margin_1e-300": lambda nl: nl.update(blend_margin=1e-300),
        "duplicate_knots": lambda nl: nl["knots"].append([0.0, 2.5]),
        "shape_point_on_knot": lambda nl: nl.update(shape_points=[[1.0, 0.3, 0.0]]),
        "far_knot": lambda nl: nl["knots"].append([1e10, 2.5]),
    }
    for name, fault in faults.items():
        path = write_config(tmp_path, lambda cfg: fault(cfg["nonlinearity"]), name=f"{name}.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / name)]) == 1, name
        assert capsys.readouterr().err.startswith("config error: nonlinearity: "), name
        assert not (tmp_path / name).exists(), name


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["not-a-command"]) == 1
    capsys.readouterr()
    for removed in ("solve", "reduce", "ledger"):
        assert main([removed]) == 1, removed
        assert "invalid choice" in capsys.readouterr().err
    # each subcommand takes only the options it reads
    assert main(["spectrum", "--strict", "--seed", "3", "--stage", "constants"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["check", "--format", "csv"]) == 1
    capsys.readouterr()
    assert main(["plot", "report.json", "--config", "report.json"]) == 1
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "neucrit" in capsys.readouterr().out
