"""Report persistence, summaries, and CLI tests (tiny training budgets)."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ipinn
from ipinn.cli import main, parse_seeds
from ipinn.harness import (
    EVAL_GRID_POINTS,
    PLOT_ERROR_CAP,
    RunReport,
    build_report,
    cell_dir_name,
    collect_reports,
    emit_error_series,
    load_report,
    run_cell,
    summarize,
    summary_mask,
    write_report,
    write_summary_csv,
    format_summary,
)
from ipinn.network import MlpLayout, init_mlp
from ipinn.problems import get_problem
from ipinn.training import TrainConfig

TINY = TrainConfig(epochs=2, n_collocation=10, seed=0)


def _fake_report(problem: str, formulation: str, seed: int, mse: float,
                 status: str = "ok") -> RunReport:
    grid = np.array([0.0, 1.0])
    return RunReport(
        problem=problem, formulation=formulation, seed=seed,
        config=replace(TINY, seed=seed, formulation=formulation).snapshot(),
        loss_history=np.zeros((0, 3)), grid=grid,
        squared_error=np.full(2, mse), mse=mse, mse_summary=mse,
        status=status, message="", metadata={"x_name": "t"}, wall_time=0.1)


def _write_report(root, report: RunReport) -> None:
    cell = root / cell_dir_name(report.problem, report.formulation, report.seed)
    cell.mkdir(parents=True)
    (cell / "report.json").write_text(json.dumps(report.to_json()) + "\n")


# ---------------------------------------------------------------------------
# run_cell artifacts
# ---------------------------------------------------------------------------


def test_run_cell_persists_all_artifacts(tmp_path):
    report = run_cell("logistic", "invariant", TINY, out_dir=tmp_path)
    cell = tmp_path / "logistic_invariant_seed0"
    for name in ("report.json", "weights.bin", "error_series.csv",
                 "error_series_plot.csv"):
        assert (cell / name).exists()
    assert report.problem == "logistic"
    assert report.formulation == "invariant"
    assert report.grid.shape == (EVAL_GRID_POINTS,)
    assert report.squared_error.shape == (EVAL_GRID_POINTS,)
    assert report.loss_history.shape == (2, 3)
    assert report.config["formulation"] == "invariant"

    loaded = load_report(cell / "report.json")
    assert loaded.canonical() == report.canonical()
    assert loaded.wall_time == report.wall_time


def test_run_cell_overrides_config_formulation(tmp_path):
    report = run_cell("logistic", "vanilla",
                      replace(TINY, formulation="invariant"))
    assert report.formulation == "vanilla"


def test_run_cell_rejects_unknown_problem_before_training():
    with pytest.raises(ValueError):
        run_cell("pendulum", "invariant", TINY)


def test_report_json_roundtrip_is_exact():
    report = run_cell("oscillator", "invariant", TINY)
    again = RunReport.from_json(json.loads(json.dumps(report.to_json())))
    assert np.array_equal(again.grid, report.grid)
    assert np.array_equal(again.squared_error, report.squared_error)
    assert np.array_equal(again.loss_history, report.loss_history)
    assert again.mse == report.mse
    assert again.canonical() == report.canonical()


def test_canonical_ignores_wall_time():
    a = _fake_report("logistic", "invariant", 0, 1.0)
    b = replace(a, wall_time=9.9) if hasattr(a, "wall_time") else a
    b = RunReport.from_json({**a.to_json(), "wall_time": 9.9})
    assert a.canonical() == b.canonical()
    assert a.to_json() != b.to_json()


# ---------------------------------------------------------------------------
# masks and series
# ---------------------------------------------------------------------------


def _schwarz_invariant_report(last_bias) -> RunReport:
    """Report for a Schwarz invariant net whose outputs are its last bias."""
    params = init_mlp(MlpLayout(output_dim=4), 0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = last_bias
    config = TrainConfig(epochs=0, formulation="invariant")
    return build_report(get_problem("schwarz"), config, params,
                        np.zeros((0, 3)), wall_time=0.0)


def test_nan_mse_is_a_failed_evaluation():
    report = _schwarz_invariant_report(0.0)  # b/d = 0/0 at every grid point
    assert math.isnan(report.mse) and math.isnan(report.mse_summary)
    assert report.status == "failed-eval"
    assert f"undefined at {EVAL_GRID_POINTS} of {EVAL_GRID_POINTS}" in report.message


def test_infinite_mse_near_an_asymptote_stays_data():
    report = _schwarz_invariant_report([1.0, 1.0, 0.0, 1e-200])  # b/d = 1e200
    assert report.mse == math.inf
    assert report.status == "ok" and report.message == ""


def test_report_json_is_strict_and_keeps_non_finite_values(tmp_path):
    report = _schwarz_invariant_report(0.0)  # nan mse and squared errors
    report = replace(report, loss_history=np.array([[-math.inf, math.nan, math.inf]]))
    path = tmp_path / "report.json"
    write_report(report, path)

    def bare_token(token):
        raise AssertionError(f"non-standard JSON token {token}")

    data = json.loads(path.read_text(), parse_constant=bare_token)
    assert data["mse"] == "NaN" and data["mse_summary"] == "NaN"
    assert data["loss_history"] == [["-Infinity", "NaN", "Infinity"]]
    assert data["squared_error"].count("NaN") == EVAL_GRID_POINTS
    loaded = load_report(path)
    assert math.isnan(loaded.mse) and math.isnan(loaded.mse_summary)
    assert np.array_equal(loaded.squared_error, report.squared_error, equal_nan=True)
    assert np.array_equal(loaded.loss_history, report.loss_history, equal_nan=True)
    assert loaded.status == "failed-eval" and loaded.message == report.message

    inf_path = tmp_path / "inf.json"
    write_report(_schwarz_invariant_report([1.0, 1.0, 0.0, 1e-200]), inf_path)
    assert json.loads(inf_path.read_text(), parse_constant=bare_token)["mse"] == "Infinity"
    assert load_report(inf_path).mse == math.inf


def test_summary_mask_excludes_asymptote_window_for_schwarz():
    x = np.linspace(0.0, math.pi, 500)
    mask = summary_mask("schwarz", x)
    inside = np.abs(x - math.pi / 2.0) < 0.05
    assert not mask[inside].any()
    assert mask[~inside].all()
    assert summary_mask("logistic", x).all()


def test_error_series_roundtrips_at_full_precision(tmp_path):
    report = _fake_report("logistic", "invariant", 0, 1.0)
    report.grid = np.array([0.0, 1.0 / 3.0])
    report.squared_error = np.array([math.pi * 1e-17, 123456.789012345678])
    path = tmp_path / "series.csv"
    emit_error_series(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "squared_error"]
    assert len(rows) == 3
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(got[:, 0], report.grid)
    assert np.array_equal(got[:, 1], report.squared_error)


def test_plot_series_caps_huge_errors(tmp_path):
    report = _fake_report("schwarz", "vanilla", 0, 1.0)
    report.squared_error = np.array([1e12, 3.0])
    emit_error_series(report, tmp_path / "plot.csv", cap=PLOT_ERROR_CAP)
    with open(tmp_path / "plot.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == PLOT_ERROR_CAP
    assert float(rows[2][1]) == 3.0


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_statistics(tmp_path):
    for seed, mse in enumerate((1.0, 2.0, 3.0)):
        _write_report(tmp_path, _fake_report("logistic", "invariant", seed, mse))
    table = summarize(tmp_path)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.seeds == [0, 1, 2]
    assert row.mean_mse == 2.0
    assert abs(row.std_mse - math.sqrt(2.0 / 3.0)) < 1e-15
    assert row.n_failed == 0


def test_summarize_identical_reports_have_zero_std(tmp_path):
    for seed in range(5):
        _write_report(tmp_path, _fake_report("system", "vanilla", seed, 0.125))
    row = summarize(tmp_path).rows[0]
    assert row.mean_mse == 0.125
    assert row.std_mse == 0.0


def test_summarize_orders_rows_and_counts_failures(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "vanilla", 0, 1.0))
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    _write_report(tmp_path, _fake_report("schwarz", "vanilla", 0, math.inf,
                                         status="diverged"))
    _write_report(tmp_path, _fake_report("system", "invariant", 0, 1.0))
    table = summarize(tmp_path)
    cells = [(r.problem, r.formulation) for r in table.rows]
    assert cells == [("schwarz", "vanilla"), ("logistic", "invariant"),
                     ("logistic", "vanilla"), ("system", "invariant")]
    assert table.rows[0].n_failed == 1
    assert table.rows[0].mean_mse == math.inf


def test_summarize_empty_directory_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="0 reports"):
        summarize(tmp_path)


def test_summary_csv_and_text_render(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 0.5))
    table = summarize(tmp_path)
    csv_path = tmp_path / "summary.csv"
    write_summary_csv(table, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "problem"
    assert rows[1][:4] == ["logistic", "invariant", "1", "0"]
    assert float(rows[1][4]) == 0.5
    text = format_summary(table)
    assert "logistic" in text and "invariant" in text


def test_collect_reports_roundtrip(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    _write_report(tmp_path, _fake_report("logistic", "invariant", 1, 2.0))
    reports = collect_reports(tmp_path)
    assert {r.seed for r in reports} == {0, 1}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parse_seeds_forms():
    assert parse_seeds("3") == [3]
    assert parse_seeds("0,2,4") == [0, 2, 4]
    assert parse_seeds("0..4") == [0, 1, 2, 3, 4]
    with pytest.raises(argparse.ArgumentTypeError):
        parse_seeds("4..0")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_seeds("one")


def test_cli_run_summarize_series(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["run", "--problem", "logistic", "--formulation", "invariant",
                 "--seeds", "0..1", "--epochs", "2", "--collocation", "10",
                 "--out", str(out)])
    assert code == 0
    assert (out / "logistic_invariant_seed0" / "report.json").exists()
    assert (out / "logistic_invariant_seed1" / "report.json").exists()

    csv_path = tmp_path / "summary.csv"
    assert main(["summarize", "--in", str(out), "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    assert "logistic" in capsys.readouterr().out

    series_path = tmp_path / "series.csv"
    assert main(["series", "--report",
                 str(out / "logistic_invariant_seed0" / "report.json"),
                 "--csv", str(series_path)]) == 0
    with open(series_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == EVAL_GRID_POINTS + 1


def test_cli_errors_exit_with_status_two(tmp_path, capsys):
    code = main(["run", "--problem", "pendulum", "--seeds", "0",
                 "--epochs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "pendulum" in capsys.readouterr().err

    assert main(["summarize", "--in", str(tmp_path / "missing")]) == 2


def test_cli_benchmark_alpha_defaults_per_problem(tmp_path):
    out = tmp_path / "runs"
    main(["run", "--problem", "system", "--formulation", "invariant",
          "--seeds", "0", "--epochs", "1", "--collocation", "10",
          "--out", str(out)])
    report = load_report(out / "system_invariant_seed0" / "report.json")
    assert report.config["alpha_ic"] == 10.0

    main(["run", "--problem", "system", "--formulation", "invariant",
          "--seeds", "0", "--epochs", "1", "--collocation", "10",
          "--alpha", "1.0", "--out", str(tmp_path / "runs2")])
    report = load_report(tmp_path / "runs2" / "system_invariant_seed0"
                         / "report.json")
    assert report.config["alpha_ic"] == 1.0


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _python(args, env_overrides=None, drop=()):
    """Run python with ipinn importable and the given environment changes."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(ipinn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                               if env.get("PYTHONPATH") else []))
    env.update(env_overrides or {})
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


_SHOW_BLAS_THREADS = ("import os, ipinn, numpy; "
                      "print(os.environ['OPENBLAS_NUM_THREADS'])")


def test_import_pins_blas_to_one_thread():
    out = _python(["-c", _SHOW_BLAS_THREADS], drop=("OPENBLAS_NUM_THREADS",))
    assert out.strip() == "1"


def test_import_keeps_a_preset_blas_thread_count():
    out = _python(["-c", _SHOW_BLAS_THREADS], {"OPENBLAS_NUM_THREADS": "2"})
    assert out.strip() == "2"


def test_parallel_run_matches_serial_run(tmp_path):
    """ipinn run --jobs 2 and --jobs 1 write the same canonical reports."""
    args = ["-m", "ipinn", "run", "--problem", "logistic", "--formulation", "both",
            "--seeds", "0..1", "--epochs", "5", "--collocation", "20"]
    for jobs in ("1", "2"):
        _python(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)])
    serial = collect_reports(tmp_path / "1")
    parallel = collect_reports(tmp_path / "2")
    assert len(serial) == 4
    assert [r.canonical() for r in parallel] == [r.canonical() for r in serial]
