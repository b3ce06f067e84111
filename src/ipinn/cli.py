"""Command-line driver for running cells, summarizing, and exporting series."""

from __future__ import annotations

import argparse
import sys
import traceback
from collections import Counter
from pathlib import Path

from .harness import (RunReport, format_summary, load_report, run_cell,
                      emit_error_series, summarize, write_summary_csv)
from .problems import FORMULATIONS, REGISTRY, get_problem
from .training import TrainConfig


def parse_seeds(text: str) -> list[int]:
    """Seed lists: "3", "0,2,4", or the inclusive range form "0..4".

    A seed may appear once: two cells of one seed would train into the same
    directory.
    """
    seeds: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo_text, hi_text = part.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed spec {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    repeated = sorted(seed for seed, n in Counter(seeds).items() if n > 1)
    if repeated:
        raise argparse.ArgumentTypeError(
            f"seed spec {text!r} repeats {', '.join(map(str, repeated))}")
    return seeds


def positive_int(text: str) -> int:
    """An integer of at least 1, such as a worker count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipinn",
        description="Train invariant and vanilla physics-informed ODE solvers "
                    "and report their errors.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train experiment cells, persist artifacts")
    run_p.add_argument("--problem", default="all",
                       help="problem name or 'all' (default: all)")
    run_p.add_argument("--formulation", default="both",
                       choices=[*FORMULATIONS, "both"])
    run_p.add_argument("--seeds", type=parse_seeds, default="0..4",
                       help="e.g. '0..4' or '0,2,7' (default: 0..4)")
    run_p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    run_p.add_argument("--collocation", type=int, default=TrainConfig.n_collocation,
                       help="number of collocation points")
    run_p.add_argument("--alpha", type=float, default=None,
                       help="initial-condition loss weight; defaults to each "
                            "problem's benchmark value")
    run_p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                       help="Adam step size")
    run_p.add_argument("--jobs", type=positive_int, default=1,
                       help="cells to train in parallel")
    run_p.add_argument("--out", required=True, help="output directory")

    sum_p = sub.add_parser("summarize", help="aggregate persisted run reports")
    sum_p.add_argument("--in", dest="in_dir", required=True,
                       help="directory holding cell subdirectories")
    sum_p.add_argument("--csv", default=None, help="also write the table as CSV")

    ser_p = sub.add_parser("series", help="export one report's error series as CSV")
    ser_p.add_argument("--report", required=True, help="path to a report.json")
    ser_p.add_argument("--csv", required=True, help="output CSV path")
    return parser


def _cell_line(report: RunReport) -> str:
    return (f"{report.problem:<12} {report.formulation:<9} "
            f"seed={report.seed} status={report.status:<11} "
            f"mse={report.mse:.4e} summary={report.mse_summary:.4e} "
            f"[{report.wall_time:.1f}s]")


def _cmd_run(args) -> int:
    problems = list(REGISTRY.values()) if args.problem == "all" else [get_problem(args.problem)]
    formulations = FORMULATIONS if args.formulation == "both" else [args.formulation]
    cells = [
        (problem.name, form,
         TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                     alpha_ic=problem.alpha_ic if args.alpha is None else args.alpha,
                     n_collocation=args.collocation,
                     seed=seed, formulation=form))
        for problem in problems
        for form in formulations
        for seed in args.seeds
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for (name, form, cfg), outcome in _run_cells(cells, out, args.jobs):
        if isinstance(outcome, Exception):
            failed += 1
            traceback.print_exception(outcome, file=sys.stderr)
            print(f"{name:<12} {form:<9} seed={cfg.seed} status={'error':<11} "
                  f"{type(outcome).__name__}: {outcome}", flush=True)
        else:
            print(_cell_line(outcome), flush=True)
    print(f"wrote {len(cells) - failed} cells under {out}")
    if failed:
        print(f"error: {failed} of {len(cells)} cells failed", file=sys.stderr)
        return 2
    return 0


def _run_cells(cells, out: Path, jobs: int):
    """Yield (cell, its report or the exception it raised), as cells finish.

    A failing cell, or a crashed worker, is reported against its own cell
    and the other cells still run.  The pool is no wider than the number of
    cells, since every worker is started up front; one cell runs in process.
    The pool's modules are imported only here, so a serial run and every
    process that merely imports the CLI do not load them.
    """
    jobs = min(jobs, len(cells))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(run_cell, *cell, out): cell for cell in cells}
            for future in as_completed(futures):
                err = future.exception()
                yield futures[future], future.result() if err is None else err
    else:
        for cell in cells:
            try:
                outcome = run_cell(*cell, out)
            except Exception as err:
                outcome = err
            yield cell, outcome


def _cmd_summarize(args) -> int:
    rows = summarize(args.in_dir)
    print(format_summary(rows))
    if args.csv is not None:
        write_summary_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_series(args) -> int:
    report = load_report(args.report)
    emit_error_series(report, args.csv)
    print(f"wrote {args.csv}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "summarize": _cmd_summarize,
                "series": _cmd_series}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
