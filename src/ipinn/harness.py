"""Experiment driver: evaluation grids, run reports, persistence, summaries."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import DomainError
from .network import ParamSet, mlp_values, save_weights
from .problems import REGISTRY, ProblemSpec, get_problem
from .training import TrainConfig, train

EVAL_GRID_POINTS = 500
PLOT_ERROR_CAP = 1e6
SCHWARZ_MASK_HALF_WIDTH = 0.05


@dataclass
class RunReport:
    """Everything one (problem, formulation, seed) cell produced.

    mse averages the per-point squared errors over the full evaluation grid;
    mse_summary applies the problem's summary mask (for schwarz, a window
    around the asymptote is excluded; elsewhere the two agree).  status is
    "ok", "diverged" (training aborted on a non-finite loss) or "failed-eval"
    (the reconstructed curve left the reference solution's domain, or is
    undefined somewhere on the grid so that its mse is nan).  An infinite
    mse with status "ok" is data: an error that overflows near an asymptote.
    """

    problem: str
    formulation: str
    seed: int
    config: dict
    loss_history: np.ndarray
    grid: np.ndarray
    squared_error: np.ndarray
    mse: float
    mse_summary: float
    status: str
    message: str
    metadata: dict
    wall_time: float

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "formulation": self.formulation,
            "seed": self.seed,
            "config": self.config,
            "loss_history": [[float(v) for v in row] for row in self.loss_history],
            "grid": [float(v) for v in self.grid],
            "squared_error": [float(v) for v in self.squared_error],
            "mse": self.mse,
            "mse_summary": self.mse_summary,
            "status": self.status,
            "message": self.message,
            "metadata": self.metadata,
            "wall_time": self.wall_time,
        }

    def canonical(self) -> dict:
        """The reproducible part: everything except the wall clock."""
        data = self.to_json()
        del data["wall_time"]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunReport":
        return cls(
            problem=str(data["problem"]),
            formulation=str(data["formulation"]),
            seed=int(data["seed"]),
            config=dict(data["config"]),
            loss_history=np.asarray(data["loss_history"], dtype=float).reshape(-1, 3),
            grid=np.asarray(data["grid"], dtype=float),
            squared_error=np.asarray(data["squared_error"], dtype=float),
            mse=float(data["mse"]),
            mse_summary=float(data["mse_summary"]),
            status=str(data["status"]),
            message=str(data["message"]),
            metadata=dict(data["metadata"]),
            wall_time=float(data["wall_time"]),
        )


def summary_mask(problem_name: str, x: np.ndarray) -> np.ndarray:
    """Grid points that enter mse_summary."""
    if problem_name != "schwarz":
        return np.ones(np.asarray(x).shape, dtype=bool)
    center = math.pi / 2.0
    w = SCHWARZ_MASK_HALF_WIDTH
    return ~((x > center - w) & (x < center + w))


def evaluate_params(problem: ProblemSpec, formulation: str, params: ParamSet,
                    n_grid: int = EVAL_GRID_POINTS):
    """Per-point squared error of the reconstructed solution on a uniform grid.

    Returns (grid, squared_error) where squared_error sums over solution
    components.  The grid lives in the formulation's own coordinate; for the
    exponential invariant run the comparison is parametric, against the exact
    solution evaluated at the reconstructed abscissa.
    """
    spec = problem.formulation(formulation)
    grid = np.linspace(spec.interval[0], spec.interval[1], n_grid)
    with np.errstate(all="ignore"):
        outputs = mlp_values(params, grid).T
        x, recon = spec.reconstruct(grid, outputs)
        exact = problem.exact(x)
        sq = np.sum((np.asarray(recon) - np.asarray(exact)) ** 2, axis=1)
    return grid, sq


def build_report(problem: ProblemSpec, config: TrainConfig, params: ParamSet,
                 history: np.ndarray, wall_time: float, status: str = "ok",
                 message: str = "") -> RunReport:
    spec = problem.formulation(config.formulation)
    metadata = {"x_name": spec.x_name}
    if problem.name == "schwarz":
        metadata["mse_summary_mask"] = (
            "mse_summary excludes grid points within "
            f"{SCHWARZ_MASK_HALF_WIDTH} of the asymptote at pi/2; "
            "mse averages the full grid")
    try:
        grid, sq = evaluate_params(problem, config.formulation, params)
        mse = float(np.mean(sq))
        mse_summary = float(np.mean(sq[summary_mask(problem.name, grid)]))
        if math.isnan(mse) or math.isnan(mse_summary):
            if status == "ok":
                status = "failed-eval"
            message = message or ("evaluation failed: the reconstruction is "
                                  f"undefined at {int(np.isnan(sq).sum())} of "
                                  f"{sq.size} grid points")
    except DomainError as err:
        grid = np.linspace(spec.interval[0], spec.interval[1], EVAL_GRID_POINTS)
        sq = np.full(EVAL_GRID_POINTS, np.inf)
        mse = math.inf
        mse_summary = math.inf
        if status == "ok":
            status = "failed-eval"
        message = message or f"evaluation failed: {err}"
    return RunReport(
        problem=problem.name,
        formulation=config.formulation,
        seed=config.seed,
        config=config.snapshot(),
        loss_history=np.asarray(history, dtype=float).reshape(-1, 3),
        grid=grid,
        squared_error=sq,
        mse=mse,
        mse_summary=mse_summary,
        status=status,
        message=message,
        metadata=metadata,
        wall_time=wall_time,
    )


def cell_dir_name(problem_name: str, formulation: str, seed: int) -> str:
    return f"{problem_name}_{formulation}_seed{seed}"


def run_cell(problem_name: str, formulation: str, config: TrainConfig,
             out_dir=None) -> RunReport:
    """Train one cell and, when out_dir is given, persist its artifacts.

    Divergent runs still produce and persist a report; the paper-side claim
    that the vanilla Schwarz formulation can blow up is data, not an error.
    """
    problem = get_problem(problem_name)
    cfg = replace(config, formulation=formulation)
    params, _, report = train(problem, cfg)
    if out_dir is not None:
        cell = Path(out_dir) / cell_dir_name(problem_name, formulation, cfg.seed)
        cell.mkdir(parents=True, exist_ok=True)
        write_report(report, cell / "report.json")
        save_weights(cell / "weights.bin", params, seed=cfg.seed)
        emit_error_series(report, cell / "error_series.csv")
        emit_error_series(report, cell / "error_series_plot.csv",
                          cap=PLOT_ERROR_CAP)
    return report


def _strict_json(value):
    """value with every non-finite float spelled as a JSON string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


def write_report(report: RunReport, path) -> None:
    """Write report as standard JSON.

    Non-finite floats become the strings "NaN", "Infinity" and "-Infinity",
    which `float`, and so `load_report`, read back as the same values.
    """
    with open(path, "w") as fh:
        json.dump(_strict_json(report.to_json()), fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_report(path) -> RunReport:
    with open(path) as fh:
        return RunReport.from_json(json.load(fh))


def emit_error_series(report: RunReport, path, cap: float | None = None) -> None:
    """Two-column CSV of the squared-error series, 17 significant digits.

    cap clips the error column (the plot variant); raw values otherwise.
    """
    err = report.squared_error
    if cap is not None:
        err = np.minimum(err, cap)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([report.metadata.get("x_name", "t"), "squared_error"])
        for x, e in zip(report.grid, err):
            writer.writerow(["%.17g" % x, "%.17g" % e])


@dataclass
class SummaryRow:
    problem: str
    formulation: str
    seeds: list[int]
    mean_mse: float
    std_mse: float
    mean_mse_summary: float
    std_mse_summary: float
    n_failed: int


@dataclass
class SummaryTable:
    rows: list[SummaryRow]


def _cell_order(problem: str, formulation: str) -> tuple[int, str, int]:
    names = list(REGISTRY)
    problem_rank = names.index(problem) if problem in names else len(names)
    return (problem_rank, problem, 0 if formulation == "invariant" else 1)


def collect_reports(report_dir) -> list[RunReport]:
    root = Path(report_dir)
    paths = sorted(root.glob("*/report.json"))
    reports = [load_report(p) for p in paths]
    if not reports:
        raise ValueError(f"found 0 reports under {root}")
    return reports


def summarize(report_dir) -> SummaryTable:
    """Population mean and std of mse per cell, in registry order.

    Invariant rows precede vanilla rows for the same problem.  Failed cells
    stay in the statistics (their mse is typically inf) and are counted.
    """
    reports = collect_reports(report_dir)
    groups: dict[tuple[str, str], list[RunReport]] = {}
    for r in reports:
        groups.setdefault((r.problem, r.formulation), []).append(r)
    rows = []
    for (problem, formulation) in sorted(groups, key=lambda k: _cell_order(*k)):
        cell = sorted(groups[(problem, formulation)], key=lambda r: r.seed)
        mses = np.array([r.mse for r in cell])
        summaries = np.array([r.mse_summary for r in cell])
        # infinite mse from failed cells makes the std nan; that is data
        with np.errstate(invalid="ignore"):
            rows.append(SummaryRow(
                problem=problem,
                formulation=formulation,
                seeds=[r.seed for r in cell],
                mean_mse=float(np.mean(mses)),
                std_mse=float(np.std(mses)),
                mean_mse_summary=float(np.mean(summaries)),
                std_mse_summary=float(np.std(summaries)),
                n_failed=sum(r.status != "ok" for r in cell),
            ))
    return SummaryTable(rows)


def write_summary_csv(table: SummaryTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "formulation", "n_seeds", "seeds",
                         "mean_mse", "std_mse", "mean_mse_summary",
                         "std_mse_summary", "n_failed"])
        for row in table.rows:
            writer.writerow([
                row.problem, row.formulation, len(row.seeds),
                " ".join(str(s) for s in row.seeds),
                "%.17g" % row.mean_mse, "%.17g" % row.std_mse,
                "%.17g" % row.mean_mse_summary, "%.17g" % row.std_mse_summary,
                row.n_failed,
            ])


def format_summary(table: SummaryTable) -> str:
    lines = [f"{'problem':<12} {'formulation':<10} {'seeds':<10} "
             f"{'mse (mean ± std)':<26} {'summary mse (mean ± std)':<26} failed"]
    for row in table.rows:
        seeds = ",".join(str(s) for s in row.seeds)
        lines.append(
            f"{row.problem:<12} {row.formulation:<10} {seeds:<10} "
            f"{row.mean_mse:<11.4e}± {row.std_mse:<12.4e} "
            f"{row.mean_mse_summary:<11.4e}± {row.std_mse_summary:<12.4e} "
            f"{row.n_failed}")
    return "\n".join(lines)
