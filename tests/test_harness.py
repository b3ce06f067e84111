"""Report persistence, summaries, and CLI tests (tiny training budgets)."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import ipinn
from ipinn import harness, problems
from ipinn.cli import build_parser, main, parse_seeds
from ipinn.harness import (
    EVAL_GRID_POINTS,
    PLOT_ERROR_CAP,
    RunReport,
    SummaryRow,
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
from ipinn.network import MlpLayout, init_mlp, save_weights
from ipinn.problems import REGISTRY, DomainError, get_problem
from ipinn.training import TrainConfig

TINY = TrainConfig(epochs=2, n_collocation=10, seed=0)


def _fake_report(problem: str, formulation: str, seed: int, mse: float,
                 status: str = "ok") -> RunReport:
    grid = np.array([0.0, 1.0])
    return RunReport(
        problem=problem, formulation=formulation, seed=seed,
        config=asdict(replace(TINY, seed=seed, formulation=formulation)),
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
    assert len(os.listdir(cell)) == 4  # no temporary file left behind
    assert report.problem == "logistic"
    assert report.formulation == "invariant"
    assert report.grid.shape == (EVAL_GRID_POINTS,)
    assert report.squared_error.shape == (EVAL_GRID_POINTS,)
    assert report.loss_history.shape == (2, 3)
    assert report.config["formulation"] == "invariant"

    loaded = load_report(cell / "report.json")
    assert loaded.canonical() == report.canonical()
    assert loaded.wall_time == report.wall_time


def test_failed_rewrite_of_a_cell_leaves_no_report(tmp_path, monkeypatch):
    """A rerun that fails midway must not leave its report beside the
    artifacts of the run before it."""
    first = replace(TINY, epochs=20)
    run_cell("logistic", "invariant", first, out_dir=tmp_path)
    cell = tmp_path / "logistic_invariant_seed0"
    assert (cell / "report.json").exists()

    write_series = harness.emit_error_series

    def failing(report, path, cap=None):
        if Path(path).name == "error_series_plot.csv":
            raise OSError("disk full")
        write_series(report, path, cap)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "emit_error_series", failing)
        with pytest.raises(OSError):
            run_cell("logistic", "invariant", replace(TINY, epochs=3, learning_rate=0.1),
                     out_dir=tmp_path)
    assert not (cell / "report.json").exists()
    with pytest.raises(ValueError, match="0 reports"):
        summarize(tmp_path)

    report = run_cell("logistic", "invariant", first, out_dir=tmp_path)
    assert sorted(os.listdir(cell)) == ["error_series.csv", "error_series_plot.csv",
                                        "report.json", "weights.bin"]
    assert load_report(cell / "report.json").canonical() == report.canonical()


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
    b = RunReport.from_json({**a.to_json(), "wall_time": 9.9})
    assert a.canonical() == b.canonical()
    assert a.to_json() != b.to_json()


REPORT_TEXT = """\
{
  "problem": "logistic",
  "formulation": "invariant",
  "seed": 3,
  "config": {
    "epochs": 1,
    "learning_rate": 0.001,
    "alpha_ic": 1.0,
    "n_collocation": 2,
    "seed": 3,
    "formulation": "invariant"
  },
  "loss_history": [
    [
      0.5,
      0.25,
      0.75
    ]
  ],
  "grid": [
    0.0,
    1.0
  ],
  "squared_error": [
    0.125,
    "Infinity"
  ],
  "mse": "Infinity",
  "mse_summary": "Infinity",
  "status": "ok",
  "message": "",
  "metadata": {
    "x_name": "t"
  },
  "wall_time": 0.5
}
"""


def test_write_report_bytes(tmp_path):
    """The report file, key order and float spelling included, byte for byte."""
    report = RunReport(
        problem="logistic", formulation="invariant", seed=3,
        config=asdict(TrainConfig(epochs=1, n_collocation=2, seed=3)),
        loss_history=np.array([[0.5, 0.25, 0.75]]), grid=np.array([0.0, 1.0]),
        squared_error=np.array([0.125, math.inf]), mse=math.inf, mse_summary=math.inf,
        status="ok", message="", metadata={"x_name": "t"}, wall_time=0.5)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_bytes() == REPORT_TEXT.encode("utf-8")


# ---------------------------------------------------------------------------
# masks and series
# ---------------------------------------------------------------------------


def _schwarz_invariant_report(last_bias, stop=None) -> RunReport:
    """Report for a Schwarz invariant net whose outputs are its last bias."""
    params = init_mlp(MlpLayout(output_dim=4), 0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = last_bias
    config = TrainConfig(epochs=0, formulation="invariant")
    return build_report(get_problem("schwarz"), config, params,
                        np.zeros((0, 3)), wall_time=0.0, stop=stop)


def test_nan_mse_is_a_failed_evaluation():
    report = _schwarz_invariant_report(0.0)  # b/d = 0/0 at every grid point
    assert math.isnan(report.mse) and math.isnan(report.mse_summary)
    assert report.status == "failed-eval"
    assert report.message == (f"evaluation failed: the reconstruction is undefined "
                              f"at {EVAL_GRID_POINTS} of {EVAL_GRID_POINTS} grid points")
    # equal reports have equal canonical forms, nan included, in standard JSON
    assert _schwarz_invariant_report(0.0).canonical() == report.canonical()
    assert json.loads(json.dumps(report.to_json(), allow_nan=False))["mse"] == "NaN"


def test_exact_solution_domain_error_is_a_failed_evaluation(monkeypatch):
    """A reconstruction outside the exact solution's domain makes every error
    inf; a run that diverged keeps its stop message."""
    def undefined(t):
        raise DomainError("solution is undefined there")

    monkeypatch.setitem(problems.REGISTRY, "schwarz", replace(REGISTRY["schwarz"], exact=undefined))
    report = _schwarz_invariant_report([1.0, 0.5, 0.0, 1.0])
    assert report.status == "failed-eval"
    assert report.message == "evaluation failed: solution is undefined there"
    assert np.array_equal(report.grid, np.linspace(0.0, math.pi, EVAL_GRID_POINTS))
    assert np.array_equal(report.squared_error, np.full(EVAL_GRID_POINTS, math.inf))
    assert report.mse == math.inf and report.mse_summary == math.inf

    stop = "epoch 3: non-finite training loss"
    diverged = _schwarz_invariant_report([1.0, 0.5, 0.0, 1.0], stop=stop)
    assert diverged.status == "diverged" and diverged.message == stop
    assert diverged.mse == math.inf and diverged.mse_summary == math.inf


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
    # a list is read as floats on either branch
    assert summary_mask("schwarz", [1.0, math.pi / 2.0]).tolist() == [True, False]
    assert summary_mask("logistic", [1.0, 2.0]).tolist() == [True, True]


def test_mask_note_follows_the_mask():
    """The metadata says what mse_summary leaves out exactly when it leaves
    out a grid point: on Schwarz, and not on logistic."""
    schwarz = _schwarz_invariant_report([1.0, 0.0, 0.0, 1.0])
    assert "pi/2" in schwarz.metadata["mse_summary_mask"]
    params = init_mlp(MlpLayout(), 0)
    logistic = build_report(get_problem("logistic"), TrainConfig(epochs=0), params,
                            np.zeros((0, 3)), wall_time=0.0)
    assert logistic.mse_summary == logistic.mse
    assert "mse_summary_mask" not in logistic.metadata


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
# atomic artifact writes
# ---------------------------------------------------------------------------


def _fail_report_midway(monkeypatch, path):
    report = _fake_report("logistic", "invariant", 0, 1.0)
    report.metadata["unserializable"] = object()
    write_report(report, path)


def _fail_weights_midway(monkeypatch, path):
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=3), 0)
    monkeypatch.setattr(type(params), "to_flat", lambda self: 1 / 0)
    save_weights(path, params, seed=0)


def _fail_series_midway(monkeypatch, path):
    report = _fake_report("logistic", "invariant", 0, 1.0)
    report.squared_error = [1.0, "not a number"]
    emit_error_series(report, path)


def _fail_summary_midway(monkeypatch, path):
    rows = [SummaryRow("logistic", "invariant", [0], 1.0, 0.0, 1.0, 0.0, 0),
            SummaryRow("logistic", "vanilla", [0], "not a number", 0.0, 1.0, 0.0, 0)]
    write_summary_csv(rows, path)


@pytest.mark.parametrize("fail", [_fail_report_midway, _fail_weights_midway,
                                  _fail_series_midway, _fail_summary_midway])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, fail):
    """An exception in the middle of a write leaves the old file and no temporary."""
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier contents\n")
    with pytest.raises((TypeError, ZeroDivisionError)):
        fail(monkeypatch, path)
    assert path.read_bytes() == b"earlier contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_statistics(tmp_path):
    for seed, mse in enumerate((1.0, 2.0, 3.0)):
        _write_report(tmp_path, _fake_report("logistic", "invariant", seed, mse))
    rows = summarize(tmp_path)
    assert len(rows) == 1
    row = rows[0]
    assert row.seeds == [0, 1, 2]
    assert row.mean_mse == 2.0
    assert abs(row.std_mse - math.sqrt(2.0 / 3.0)) < 1e-15
    assert row.n_failed == 0


def test_summarize_identical_reports_have_zero_std(tmp_path):
    for seed in range(5):
        _write_report(tmp_path, _fake_report("system", "vanilla", seed, 0.125))
    row = summarize(tmp_path)[0]
    assert row.mean_mse == 0.125
    assert row.std_mse == 0.0


def test_summarize_orders_rows_and_counts_failures(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "vanilla", 0, 1.0))
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    _write_report(tmp_path, _fake_report("schwarz", "vanilla", 0, math.inf,
                                         status="diverged"))
    _write_report(tmp_path, _fake_report("system", "invariant", 0, 1.0))
    rows = summarize(tmp_path)
    cells = [(r.problem, r.formulation) for r in rows]
    assert cells == [("schwarz", "vanilla"), ("logistic", "invariant"),
                     ("logistic", "vanilla"), ("system", "invariant")]
    assert rows[0].n_failed == 1
    assert rows[0].mean_mse == math.inf


def test_summarize_empty_directory_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="0 reports"):
        summarize(tmp_path)


def test_summary_csv_and_text_render(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 0.5))
    summary = summarize(tmp_path)
    csv_path = tmp_path / "summary.csv"
    write_summary_csv(summary, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "problem"
    assert rows[1][:4] == ["logistic", "invariant", "1", "0"]
    assert float(rows[1][4]) == 0.5
    text = format_summary(summary)
    assert "logistic" in text and "invariant" in text


def test_report_with_an_interval_key_still_loads(tmp_path, capsys):
    """Reports written while TrainConfig had an interval or a mean_reduction
    field hold "interval": null or "mean_reduction": false in their config;
    new ones lack both keys."""
    for key, value in (("interval", None), ("mean_reduction", False)):
        out = tmp_path / key
        report = _fake_report("logistic", "invariant", 0, 1e-3)
        assert key not in report.config
        report.config = {**report.config, key: value}
        _write_report(out, report)
        path = out / cell_dir_name("logistic", "invariant", 0) / "report.json"
        loaded = load_report(path)
        assert loaded.config[key] is value
        assert loaded.canonical() == report.canonical()
        [row] = summarize(out)
        assert (row.problem, row.seeds, row.mean_mse) == ("logistic", [0], 1e-3)
        csv_path = out / "series.csv"
        assert main(["series", "--report", str(path), "--csv", str(csv_path)]) == 0
        assert csv_path.read_bytes() == b"t,squared_error\r\n0,0.001\r\n1,0.001\r\n"


def test_collect_reports_roundtrip(tmp_path):
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    _write_report(tmp_path, _fake_report("logistic", "invariant", 1, 2.0))
    reports = collect_reports(tmp_path)
    assert {r.seed for r in reports} == {0, 1}


def test_reports_and_rows_come_in_registry_formulation_and_seed_order(tmp_path):
    """Cell directories sort exponential first and seed 10 before seed 2;
    the reports and the summary rows do not."""
    out = tmp_path / "runs"
    assert main(["run", "--problem", "all", "--formulation", "both", "--seeds", "2,10",
                 "--epochs", "1", "--collocation", "5", "--out", str(out)]) == 0
    pairs = [(problem, formulation)
             for problem in ("schwarz", "logistic", "oscillator", "exponential", "system")
             for formulation in ("invariant", "vanilla")]
    assert [(r.problem, r.formulation, r.seed) for r in collect_reports(out)] == [
        (problem, formulation, seed) for problem, formulation in pairs for seed in (2, 10)]
    assert [(r.problem, r.formulation, r.seeds) for r in summarize(out)] == [
        (problem, formulation, [2, 10]) for problem, formulation in pairs]


def test_summarize_rejects_two_reports_of_one_cell(tmp_path, capsys):
    """A copied cell directory would count its seed twice in the mean."""
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    _write_report(tmp_path, _fake_report("logistic", "invariant", 1, 2.0))
    copy = tmp_path / "old_copy"
    copy.mkdir()
    original = tmp_path / cell_dir_name("logistic", "invariant", 0) / "report.json"
    (copy / "report.json").write_bytes(original.read_bytes())
    with pytest.raises(ValueError) as exc:
        summarize(tmp_path)
    assert str(original) in str(exc.value) and str(copy / "report.json") in str(exc.value)
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    assert "old_copy" in capsys.readouterr().err


def test_summarize_rejects_reports_of_one_pair_with_different_configs(tmp_path, capsys):
    """Cells of one pair trained with other settings would be averaged as if
    they were more seeds of one experiment."""
    _write_report(tmp_path, _fake_report("logistic", "invariant", 0, 1.0))
    other = _fake_report("logistic", "invariant", 1, 2.0)
    other.config = {**other.config, "epochs": other.config["epochs"] + 1}
    _write_report(tmp_path, other)
    _write_report(tmp_path, _fake_report("logistic", "vanilla", 0, 1.0))
    with pytest.raises(ValueError, match="different epochs") as exc:
        summarize(tmp_path)
    for seed in (0, 1):
        path = tmp_path / cell_dir_name("logistic", "invariant", seed) / "report.json"
        assert str(path) in str(exc.value)
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    assert "different epochs" in capsys.readouterr().err


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
    with pytest.raises(argparse.ArgumentTypeError, match="repeats 1, 2"):
        parse_seeds("2,0..2,1")


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


@pytest.mark.parametrize("args, fault", [
    (["--jobs", "0"], "argument --jobs"),
    (["--jobs", "-4"], "argument --jobs"),
    (["--jobs", "two"], "argument --jobs"),
    (["--mean-reduction"], "unrecognized arguments: --mean-reduction"),
], ids=["0", "-4", "two", "mean-reduction"])
def test_cli_rejects_a_job_count_below_one(tmp_path, capsys, args, fault):
    """argparse stops `run` before --out exists: on a job count below one, and
    on the flag of the mean_reduction knob that left TrainConfig."""
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main(["run", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert fault in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0,0,1", "0..2,1", "3,3"])
def test_cli_rejects_a_repeated_seed(tmp_path, capsys, seeds):
    """Two cells of one seed would train into one directory."""
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "logistic", "--formulation", "invariant",
              "--seeds", seeds, "--epochs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
                                           ("--lr", "-0.001"), ("--alpha", "nan"),
                                           ("--alpha", "inf")])
def test_cli_rejects_a_bad_learning_rate_or_weight(tmp_path, capsys, option, value):
    """A value TrainConfig rejects stops the run before any cell trains."""
    out = tmp_path / "runs"
    code = main(["run", "--problem", "logistic", "--seeds", "0", "--epochs", "1",
                 option, value, "--out", str(out)])
    assert code == 2
    name = "learning_rate" if option == "--lr" else "alpha_ic"
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("seeds, refused", [(["--seeds", "-1"], -1),
                                            (["--seeds", "0,-2"], -2),
                                            (["--seeds=-3..-1"], -3)],
                         ids=["-1", "0,-2", "-3..-1"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, seeds, refused):
    """A negative seed stops the run with one error line naming the first such
    seed, before any cell trains."""
    out = tmp_path / "runs"
    code = main(["run", "--problem", "logistic", *seeds, "--epochs", "1",
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be at least 0, got {refused}\n"
    assert captured.out == ""
    assert not out.exists()


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("corrupt, fault", [
    (lambda d: json.dumps(d)[:40], "not a JSON report"),
    (lambda d: json.dumps([d]), "JSON object, not a list"),
    (lambda d: json.dumps(_without(d, "metadata")), "lacks the keys ['metadata']"),
    (lambda d: json.dumps({**d, "seed": "zero"}), "does not fit"),
    (lambda d: json.dumps({**d, "seed": 3.7}), "does not fit"),
    (lambda d: json.dumps({**d, "seed": True}), "does not fit"),
    (lambda d: json.dumps({**d, "seed": "2"}), "does not fit"),
    (lambda d: json.dumps({**d, "seed": -1}), "does not fit"),
    (lambda d: json.dumps({**d, "config": 3}), "does not fit"),
    (lambda d: json.dumps({**d, "loss_history": [[1.0, 2.0]]}), "does not fit"),
    (lambda d: json.dumps({**d, "problem": 3}), "does not fit"),
    (lambda d: json.dumps({**d, "status": None}), "does not fit"),
    (lambda d: json.dumps({**d, "message": 5}), "does not fit"),
    (lambda d: json.dumps({**d, "mse": True}), "does not fit"),
    (lambda d: json.dumps({**d, "mse": "0.25"}), "does not fit"),
    (lambda d: json.dumps({**d, "config": [["epochs", 2]]}), "does not fit"),
    (lambda d: json.dumps({**d, "metadata": []}), "does not fit"),
    (lambda d: json.dumps({**d, "grid": d["grid"][:-1]}), "does not fit"),
    (lambda d: json.dumps({**d, "loss_history": [1.0, 2.0, 3.0]}), "does not fit"),
    (lambda d: json.dumps({**d, "loss_history": [[1.0, 2.0, 3.0], [1.0]]}),
     "loss_history does not fit"),
    (lambda d: json.dumps({**d, "problem": "pendulum"}), "problem does not fit"),
    (lambda d: json.dumps({**d, "formulation": "hybrid"}), "formulation does not fit"),
    (lambda d: json.dumps({**d, "status": "okay"}), "status does not fit"),
], ids=["truncated", "json-list", "missing-key", "non-integer-seed", "fractional-seed",
        "boolean-seed", "numeric-string-seed", "negative-seed",
        "config-not-an-object", "ragged-loss-history", "integer-problem", "null-status",
        "integer-message", "boolean-mse", "numeric-string-mse", "config-as-pairs",
        "metadata-as-list", "grid-one-point-short", "flat-loss-history",
        "uneven-loss-history-rows", "unregistered-problem", "unknown-formulation",
        "unknown-status"])
def test_load_report_names_file_and_fault(tmp_path, capsys, corrupt, fault):
    path = tmp_path / "runs" / "cell" / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(corrupt(_fake_report("logistic", "invariant", 0, 1e-3).to_json()))
    with pytest.raises(ValueError) as err:
        load_report(path)
    assert str(err.value).startswith(f"{path}: ")
    assert fault in str(err.value)
    csv_path = tmp_path / "series.csv"
    assert main(["series", "--report", str(path), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not csv_path.exists()
    assert main(["summarize", "--in", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_from_json_names_the_missing_keys():
    with pytest.raises(ValueError, match=r"lacks the keys \['problem', 'formulation', "):
        RunReport.from_json({})
    data = _fake_report("logistic", "invariant", 0, 1e-3).to_json()
    with pytest.raises(ValueError, match=r"lacks the keys \['wall_time'\]$"):
        RunReport.from_json(_without(data, "wall_time"))


def test_cli_run_defaults_are_the_train_config_defaults():
    args = build_parser().parse_args(["run", "--out", "runs"])
    config = TrainConfig()
    assert (args.epochs, args.collocation, args.lr) == (
        config.epochs, config.n_collocation, config.learning_rate)


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


def _python(args, env_overrides=None, drop=(), check=True):
    """Run python with ipinn importable and the given environment changes."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(ipinn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                               if env.get("PYTHONPATH") else []))
    env.update(env_overrides or {})
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check)


_SHOW_BLAS_THREADS = ("import os, ipinn, numpy; "
                      "print(os.environ['OPENBLAS_NUM_THREADS'])")


def test_import_pins_blas_to_one_thread():
    out = _python(["-c", _SHOW_BLAS_THREADS], drop=("OPENBLAS_NUM_THREADS",)).stdout
    assert out.strip() == "1"


def test_import_keeps_a_preset_blas_thread_count():
    out = _python(["-c", _SHOW_BLAS_THREADS], {"OPENBLAS_NUM_THREADS": "2"}).stdout
    assert out.strip() == "2"


def test_import_leaves_the_worker_pool_unloaded():
    """Only `run --jobs` above 1 needs the process pool and multiprocessing."""
    out = _python(["-c", "import sys, ipinn.cli; "
                         "print('concurrent.futures.process' in sys.modules, "
                         "'multiprocessing' in sys.modules)"]).stdout
    assert out.split() == ["False", "False"]


# what perfbench's gradient check does in its own process, then the oscillator
# reference at the grid, the interval's ends and beyond them, and a nan time,
# and each problem's exact solution by name, the logistic one far before its start
_QUIET_PROCESS = """
import numpy as np, ipinn
for name in ipinn.REGISTRY:
    problem = ipinn.get_problem(name)
    for kind in ("invariant", "vanilla"):
        spec = problem.formulation(kind)
        layout = ipinn.MlpLayout(output_dim=spec.output_dim)
        flat = ipinn.init_mlp(layout, 0).flat
        points = ipinn.sample_collocation(spec.interval, 50, 0)
        ipinn.loss_and_grad(ipinn.ParamSet.from_flat(layout, flat), spec, points,
                            problem.alpha_ic)
        loss = ipinn.invariant_loss if kind == "invariant" else ipinn.vanilla_loss
        loss(ipinn.ParamSet.from_flat(layout, flat), problem, points, problem.alpha_ic)
ipinn.exact_eval("oscillator", np.linspace(0.0, 10.0, 500))
ipinn.exact_eval("oscillator", np.array([-5e-10, 0.0, 10.0, 10.0 + 5e-10, np.nan]))
for name in ipinn.REGISTRY:
    ipinn.exact_eval(name, np.linspace(0.0, 1.0, 50))
ipinn.exact_eval("logistic", -1000.0)
"""


def test_library_calls_print_nothing():
    """Importing ipinn, its losses and gradients and the oscillator reference
    write nothing to stdout or stderr, at import, at call time or at exit."""
    done = _python(["-c", _QUIET_PROCESS], check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


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


def test_worker_pool_is_no_wider_than_the_cells(tmp_path, monkeypatch):
    """--jobs above the cell count starts one worker per cell, and one cell none."""
    widths = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for seeds, cells in (("0", 1), ("0..2", 3)):
        widths.clear()
        assert main(["run", "--problem", "logistic", "--formulation", "invariant",
                     "--seeds", seeds, "--epochs", "1", "--collocation", "10",
                     "--jobs", "6", "--out", str(tmp_path / seeds)]) == 0
        assert len(collect_reports(tmp_path / seeds)) == cells
        assert widths == ([] if cells == 1 else [cells])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_cell_is_named_and_the_others_run(tmp_path, jobs):
    """A cell that raises is reported against its cell; the sweep goes on."""
    (tmp_path / "logistic_invariant_seed1" / "report.json").mkdir(parents=True)
    done = _python(["-m", "ipinn", "run", "--problem", "logistic",
                    "--formulation", "invariant", "--seeds", "0..2",
                    "--epochs", "2", "--collocation", "20", "--jobs", jobs,
                    "--out", str(tmp_path)], check=False)
    assert done.returncode == 2
    assert "1 of 3 cells failed" in done.stderr
    failed = [line for line in done.stdout.splitlines() if "status=error" in line]
    assert len(failed) == 1
    assert failed[0].split()[:3] == ["logistic", "invariant", "seed=1"]
    assert "IsADirectoryError" in failed[0]
    for seed in (0, 2):
        report = load_report(tmp_path / f"logistic_invariant_seed{seed}" / "report.json")
        assert report.seed == seed
