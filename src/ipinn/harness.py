"""Experiment driver: evaluation grids, run reports, persistence, summaries."""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .network import ParamSet, mlp_values, save_weights
from .problems import FORMULATIONS, REGISTRY, DomainError, ProblemSpec, get_problem
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
    "ok", "diverged" (training stopped on a non-finite loss or update) or
    "failed-eval" (see `evaluate_params`).  An infinite mse with status "ok"
    is data: an error that overflows near an asymptote.  `to_json` is its one
    JSON form, the one that `write_report` writes and `from_json` reads.
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
        """One key per field, in field order, as `_strict_json` spells it:
        standard JSON, so equal reports give equal dicts."""
        return _strict_json({f.name: getattr(self, f.name) for f in fields(self)})

    def canonical(self) -> dict:
        """The reproducible part: everything except the wall clock."""
        data = self.to_json()
        del data["wall_time"]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunReport":
        """The report of a `to_json` dict, which is a `write_report` file parsed
        as JSON; data that is not a dict, a missing key, a field of the wrong
        type or shape, a problem or formulation outside `REGISTRY` or
        `FORMULATIONS`, or a status other than the three raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, not a {type(data).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in data]
        if missing:
            raise ValueError(f"the report lacks the keys {missing}")
        report = cls(**{f.name: _field_from_json(f.type, f.name, data[f.name])
                        for f in fields(cls)})
        for name, known in (("problem", REGISTRY), ("formulation", FORMULATIONS),
                            ("status", ("ok", "diverged", "failed-eval"))):
            if getattr(report, name) not in known:
                raise ValueError(f"{name} does not fit: it must be one of {list(known)}, "
                                 f"got {getattr(report, name)!r}")
        if report.loss_history.size and report.loss_history.shape[1:] != (3,):
            raise ValueError("loss_history does not fit: it must be rows of 3 losses, "
                             f"got shape {report.loss_history.shape}")
        report.loss_history = report.loss_history.reshape(-1, 3)  # [] is no epochs
        if report.seed < 0:
            raise ValueError(f"seed does not fit: it must be non-negative, got {report.seed!r}")
        if report.grid.ndim != 1 or report.squared_error.shape != report.grid.shape:
            raise ValueError(f"grid of shape {report.grid.shape} does not fit squared_error "
                             f"of shape {report.squared_error.shape}")
        return report


def _field_from_json(kind: str, name: str, value):
    """The value of a RunReport field annotated `kind`, checked against it; a
    float may be a JSON number or one of `to_json`'s non-finite spellings,
    and an array is nested lists of floats."""
    if kind == "np.ndarray":
        try:
            return np.array(_field_from_json("list", name, value), dtype=float)
        except ValueError as err:  # ragged nested lists
            raise ValueError(f"{name} does not fit: {err}") from None
    if kind == "list" and type(value) is list:
        return [v if type(v) is float else
                _field_from_json("list" if type(v) is list else "float", name, v)
                for v in value]
    if kind == "float" and (type(value) in (int, float)
                            or value in ("NaN", "Infinity", "-Infinity")):
        return float(value)
    if type(value).__name__ == kind:  # str, int or dict
        return value
    raise ValueError(f"{name} does not fit: it must be a JSON {kind}, got {value!r}")


def summary_mask(problem_name: str, x: np.ndarray) -> np.ndarray:
    """Grid points that enter mse_summary, of any x that np.asarray reads as floats."""
    x = np.asarray(x, dtype=float)
    if problem_name != "schwarz":
        return np.ones(x.shape, dtype=bool)
    center = math.pi / 2.0
    w = SCHWARZ_MASK_HALF_WIDTH
    return ~((x > center - w) & (x < center + w))


def evaluate_params(problem: ProblemSpec, formulation: str, params: ParamSet):
    """Per-point squared error of the reconstructed solution on a uniform grid.

    Returns (grid, squared_error, fault): EVAL_GRID_POINTS values each, where
    squared_error sums over solution components, and "" or why the
    evaluation failed, where the reconstructed curve leaves the exact
    solution's domain (every error inf) or is undefined (nan).  The grid
    lives in the formulation's own coordinate; for the exponential invariant
    run the comparison is parametric, against the exact solution evaluated
    at the reconstructed abscissa.
    """
    spec = problem.formulation(formulation)
    grid = np.linspace(spec.interval[0], spec.interval[1], EVAL_GRID_POINTS)
    with np.errstate(all="ignore"):
        x, recon = spec.reconstruct(grid, mlp_values(params, grid).T)
        try:
            exact = problem.exact(x)
        except DomainError as err:
            return grid, np.full(EVAL_GRID_POINTS, np.inf), str(err)
        sq = np.sum((np.asarray(recon) - np.asarray(exact)) ** 2, axis=1)
    undefined = int(np.isnan(sq).sum())
    return grid, sq, (f"the reconstruction is undefined at {undefined} of {sq.size} "
                      "grid points" if undefined else "")


def build_report(problem: ProblemSpec, config: TrainConfig, params: ParamSet,
                 history: np.ndarray, wall_time: float, stop: str | None = None) -> RunReport:
    """The report of the `params` and `history` that `train` returned with
    `stop`: status "diverged" with the stop message if training stopped,
    else "failed-eval" with the fault if `evaluate_params` failed, else "ok"."""
    metadata = {"x_name": problem.formulation(config.formulation).x_name}
    grid, sq, fault = evaluate_params(problem, config.formulation, params)
    mask = summary_mask(problem.name, grid)
    if not mask.all():
        metadata["mse_summary_mask"] = (
            "mse_summary excludes grid points within "
            f"{SCHWARZ_MASK_HALF_WIDTH} of the asymptote at pi/2; "
            "mse averages the full grid")
    if stop is not None:
        status, message = "diverged", stop
    elif fault:
        status, message = "failed-eval", f"evaluation failed: {fault}"
    else:
        status, message = "ok", ""
    return RunReport(
        problem=problem.name,
        formulation=config.formulation,
        seed=config.seed,
        config=asdict(config),
        loss_history=np.asarray(history, dtype=float).reshape(-1, 3),
        grid=grid,
        squared_error=sq,
        mse=float(np.mean(sq)),
        mse_summary=float(np.mean(sq[mask])),
        status=status,
        message=message,
        metadata=metadata,
        wall_time=wall_time,
    )


def cell_dir_name(problem_name: str, formulation: str, seed: int) -> str:
    return f"{problem_name}_{formulation}_seed{seed}"


def run_cell(problem_name: str, formulation: str, config: TrainConfig,
             out_dir=None) -> RunReport:
    """Train, evaluate and report one cell, and persist its artifacts when
    out_dir is given.  wall_time times `train` alone; evaluation follows once
    the training pass is freed.  Divergent runs still produce and persist a
    report; that the vanilla Schwarz formulation can blow up is data.
    """
    problem = get_problem(problem_name)
    cfg = replace(config, formulation=formulation)
    start = time.perf_counter()
    params, history, stop = train(problem, cfg)
    wall_time = time.perf_counter() - start
    report = build_report(problem, cfg, params, history, wall_time, stop)
    if out_dir is not None:
        cell = Path(out_dir) / cell_dir_name(problem_name, formulation, cfg.seed)
        cell.mkdir(parents=True, exist_ok=True)
        # the report goes first and comes back last, so a write that fails
        # midway leaves no report beside artifacts of another run
        (cell / "report.json").unlink(missing_ok=True)
        save_weights(cell / "weights.bin", params, seed=cfg.seed)
        emit_error_series(report, cell / "error_series.csv")
        emit_error_series(report, cell / "error_series_plot.csv",
                          cap=PLOT_ERROR_CAP)
        write_report(report, cell / "report.json")
    return report


def _strict_json(value):
    """value as standard JSON data: arrays as lists, non-finite floats as strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, np.ndarray):
        return _strict_json(value.tolist())
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


def write_report(report: RunReport, path) -> None:
    """Write `report.to_json()`, which is standard JSON, indented by 2, in one piece.

    Its non-finite floats are the strings "NaN", "Infinity" and "-Infinity",
    which `float`, and so `load_report`, read back as the same values.
    The file is replaced atomically, like every artifact a run writes.
    """
    with atomic_write(path) as fh:
        fh.write(json.dumps(report.to_json(), indent=2, allow_nan=False) + "\n")


def load_report(path) -> RunReport:
    """The report in a file written by `write_report`.

    A file that is not a JSON object holding every report field, each of a
    usable type, raises ValueError naming the file and the fault.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not a JSON report ({err})") from None
    try:
        return RunReport.from_json(data)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def emit_error_series(report: RunReport, path, cap: float | None = None) -> None:
    """Two-column CSV of the squared-error series, 17 significant digits.

    cap clips the error column (the plot variant); raw values otherwise.  The
    rows are written as one string, with the header's CRLF line ends.
    """
    err = report.squared_error
    if cap is not None:
        err = np.minimum(err, cap)
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerow([report.metadata.get("x_name", "t"), "squared_error"])
        fh.write("".join("%.17g,%.17g\r\n" % row for row in
                         zip(np.asarray(report.grid).tolist(), np.asarray(err).tolist())))


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


def collect_reports(report_dir) -> list[RunReport]:
    """Every `*/report.json` under `report_dir`, one per (problem,
    formulation, seed), and one config but for the seed per (problem,
    formulation): a second report of a cell, or a report trained with
    another config than an earlier one of its pair, raises ValueError naming
    both files.  The reports come back sorted by problem in `REGISTRY` order,
    then formulation in `FORMULATIONS` order, then seed."""
    root = Path(report_dir)
    reports, seen, configs = [], {}, {}
    for path in sorted(root.glob("*/report.json")):
        report = load_report(path)
        cell = (report.problem, report.formulation, report.seed)
        if cell in seen:
            raise ValueError(f"{seen[cell]} and {path} both hold {cell[0]} "
                             f"{cell[1]} seed {cell[2]}")
        seen[cell] = path
        config = {k: v for k, v in report.config.items() if k != "seed"}
        first_path, first_config = configs.setdefault(cell[:2], (path, config))
        if config != first_config:
            differ = sorted(k for k in config.keys() | first_config.keys()
                            if k not in config or k not in first_config
                            or config[k] != first_config[k])
            raise ValueError(f"{first_path} and {path} hold {cell[0]} {cell[1]} "
                             f"cells trained with different {', '.join(differ)}")
        reports.append(report)
    if not reports:
        raise ValueError(f"found 0 reports under {root}")
    return sorted(reports, key=lambda r: (list(REGISTRY).index(r.problem),
                                          FORMULATIONS.index(r.formulation), r.seed))


def summarize(report_dir) -> list[SummaryRow]:
    """Population mean and std of mse per (problem, formulation) pair, one
    row per pair in the order `collect_reports` returns the cells: registry
    order, invariant before vanilla, with each row's seeds ascending.

    Failed cells stay in the statistics (their mse is typically inf) and are
    counted.  The cells of one row must share their config but for the seed;
    see `collect_reports`.
    """
    rows = []
    for (problem, formulation), run in itertools.groupby(
            collect_reports(report_dir), key=lambda r: (r.problem, r.formulation)):
        cell = list(run)
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
    return rows


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "formulation", "n_seeds", "seeds",
                         "mean_mse", "std_mse", "mean_mse_summary",
                         "std_mse_summary", "n_failed"])
        for row in rows:
            writer.writerow([
                row.problem, row.formulation, len(row.seeds),
                " ".join(str(s) for s in row.seeds),
                "%.17g" % row.mean_mse, "%.17g" % row.std_mse,
                "%.17g" % row.mean_mse_summary, "%.17g" % row.std_mse_summary,
                row.n_failed,
            ])


def format_summary(rows: list[SummaryRow]) -> str:
    lines = [f"{'problem':<12} {'formulation':<10} {'seeds':<10} "
             f"{'mse (mean ± std)':<26} {'summary mse (mean ± std)':<26} failed"]
    for row in rows:
        seeds = ",".join(str(s) for s in row.seeds)
        lines.append(
            f"{row.problem:<12} {row.formulation:<10} {seeds:<10} "
            f"{row.mean_mse:<11.4e}± {row.std_mse:<12.4e} "
            f"{row.mean_mse_summary:<11.4e}± {row.std_mse_summary:<12.4e} "
            f"{row.n_failed}")
    return "\n".join(lines)
