"""The ipinn benchmark: end-to-end and per-layer timings, checked outputs.

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source tree: the program is imported from ./src and
run in child processes, whose CPU time and peak memory the benchmark reads
from the operating system.  Every cell the program writes is recomputed by
oracle.py.  The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; README.md in this directory says what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

WORKLOADS = ("matrix", "converge", "sweep")
COLLOCATION = 200
MATRIX_EPOCHS = 200
CONVERGE_EPOCHS = 3000
CONVERGE_MSE_LIMIT = 1e-6
SWEEP_EPOCHS = 5
# converge trains one of the paper's seeds 0..4, on which its accuracy claim
# is stated (9e-12 to 4e-10); --seed picks which.  matrix trains seed 0 and
# sweep seeds 0..4 on every run: at their short budgets accuracy_digits moves
# by 1.5 to 3.3 (matrix) and 1.4 to 1.8 (sweep) digits with the training
# seeds, wider than any bound worth setting, while an epoch's cost does not
# depend on the seed.  There --seed picks the gradient-check directions and
# the cell that `ipinn series` exports.
PAPER_SEEDS = 5
MATRIX_SEED = 0
SETUP_REPEATS = 9
# a run must end within 180 s; children still running at this age are killed
DEADLINE_S = 170.0
FD_STEP = 1e-5
FD_RTOL = 1e-5
FD_GTOL = 1e-7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "epoch_ms": "ms", "accuracy_digits": "digits"}


class BenchError(Exception):
    """The benchmark itself cannot go on; no result is printed."""


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    output: str

    def last_json(self) -> dict:
        lines = self.output.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest() -> dict:
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: build[k] for k in ("blas", "lapack") if k in build}
    except (TypeError, KeyError):
        blas = None
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
    }


def program_env() -> dict:
    """The caller's environment with ./src importable; no thread variable set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@functools.lru_cache(maxsize=1)
def program():
    """ipinn itself, for the gradient property check (not for timing)."""
    sys.path.insert(0, str(SRC))
    import ipinn
    return ipinn


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = program_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.self_test: dict | None = None

    def op(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)

    def child(self, args: list[str], log: Path) -> Child:
        """Run python with args; wall from spawn to exit, rusage of the tree."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{args[:2]} killed at the run deadline")
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, log.read_text())

    # ----- inputs -----

    def plan(self) -> list[dict]:
        seed = self.seed % PAPER_SEEDS
        if self.workload == "matrix":
            return [{"problem": p, "formulation": f, "seed": MATRIX_SEED,
                     "epochs": MATRIX_EPOCHS, "collocation": COLLOCATION}
                    for p, f in oracle.PAIRS]
        if self.workload == "converge":
            return [{"problem": "logistic", "formulation": "invariant", "seed": seed,
                     "epochs": CONVERGE_EPOCHS, "collocation": COLLOCATION}]
        return [{"problem": p, "formulation": f, "seed": s, "epochs": SWEEP_EPOCHS,
                 "collocation": COLLOCATION}
                for p, f in oracle.PAIRS for s in range(PAPER_SEEDS)]

    # ----- checks -----

    def check_cells(self, tag: str, cells_dir: Path, plan: list[dict],
                    failure: str | None, reference: dict | None,
                    probe: bool = False) -> list[dict]:
        """Oracle checks of each planned cell, one operation each.

        The workload's own properties (descent, gradient, converge's mse
        limit) are not asked of the probe's three-epoch cells.
        """
        workload = None if probe else self.workload
        checked = []
        for c in plan:
            name = oracle.cell_name(c["problem"], c["formulation"], c["seed"])
            try:
                if failure is not None:
                    raise oracle.CheckFailed(failure)
                info = oracle.check_cell(cells_dir / name,
                                         descent=workload in ("matrix", "converge"))
                if reference is not None and reference.get(name) != info["digest"]:
                    raise oracle.CheckFailed("canonical report differs from the "
                                             "first round of this run")
                if workload == "matrix":
                    self.check_gradient(cells_dir / name, info)
                if workload == "converge" and not info["mse"] < CONVERGE_MSE_LIMIT:
                    raise oracle.CheckFailed(f"mse {info['mse']:.3e} is not below "
                                             f"{CONVERGE_MSE_LIMIT:g}")
            except (oracle.CheckFailed, OSError, ValueError, KeyError) as err:
                self.op(f"{tag}/{name}: {err}")
                continue
            self.op(None)
            checked.append(info)
        if self.self_test is None and checked:
            good = [i for i in checked if i["status"] == "ok" and math.isfinite(i["mse"])]
            if good:
                missed = oracle.self_test(cells_dir / good[0]["cell"], self.dir / "selftest")
                self.self_test = {"cell": good[0]["cell"], "missed": missed}
        return checked

    def check_gradient(self, cell_dir: Path, info: dict) -> None:
        """loss_and_grad against a central difference of the loss, seeded direction."""
        ipinn = program()
        header, flat = oracle.read_weights(cell_dir / "weights.bin")
        layout = ipinn.MlpLayout(**header["layout"])
        problem = ipinn.get_problem(info["problem"])
        spec = problem.formulation(info["formulation"])
        points = ipinn.sample_collocation(spec.interval, COLLOCATION, info["seed"])
        _, grad = ipinn.loss_and_grad(ipinn.ParamSet.from_flat(layout, flat), spec,
                                      points, problem.alpha_ic)
        pair = oracle.PAIRS.index((info["problem"], info["formulation"]))
        direction = np.random.default_rng([self.seed, pair]).standard_normal(flat.size)
        direction /= np.linalg.norm(direction)
        loss = (ipinn.invariant_loss if info["formulation"] == "invariant"
                else ipinn.vanilla_loss)

        def total(x):
            return loss(ipinn.ParamSet.from_flat(layout, x), problem, points,
                        problem.alpha_ic).total

        fd = (total(flat + FD_STEP * direction)
              - total(flat - FD_STEP * direction)) / (2.0 * FD_STEP)
        exact = float(grad @ direction)
        if not abs(fd - exact) <= FD_RTOL * abs(exact) + FD_GTOL * np.linalg.norm(grad):
            raise oracle.CheckFailed(f"gradient {exact!r} vs central difference {fd!r}")

    # ----- rounds -----

    def round(self, tag: str, reference: dict | None, spans: Path | None) -> dict:
        out = self.dir / tag
        cells_dir = out / "cells"
        cells_dir.mkdir(parents=True)
        plan = self.plan()
        if self.workload == "sweep":
            return self.sweep_round(tag, out, cells_dir, plan, reference, spans)
        spec = out / "spec.json"
        spec.write_text(json.dumps({"out": str(cells_dir), "cells": plan}))
        args = [str(BENCH / "child.py"), "cells", str(spec)]
        if spans is not None:
            args.append(str(spans))
        child = self.child(args, out / "child.log")
        failure = None if child.returncode == 0 else f"child exited {child.returncode}"
        checked = self.check_cells(tag, cells_dir, plan, failure, reference)
        if failure is None:
            cell_s = dict(zip((oracle.cell_name(c["problem"], c["formulation"], c["seed"])
                               for c in plan), child.last_json()["cell_s"]))
            for info in checked:
                info["epoch_ms"] = 1e3 * cell_s[info["cell"]] / info["epochs"]
        return {"wall": child.wall, "cpu": child.cpu, "rss_mb": child.rss_mb,
                "cells": checked}

    def sweep_round(self, tag, out, cells_dir, plan, reference, spans) -> dict:
        problem, formulation = oracle.PAIRS[self.seed % len(oracle.PAIRS)]
        exported = oracle.cell_name(problem, formulation, self.seed % PAPER_SEEDS)
        invocations = [
            ["run", "--problem", "all", "--formulation", "both",
             "--seeds", f"0..{PAPER_SEEDS - 1}", "--epochs", str(SWEEP_EPOCHS),
             "--collocation", str(COLLOCATION), "--out", str(cells_dir)],
            ["summarize", "--in", str(cells_dir), "--csv", str(out / "summary.csv")],
            ["series", "--report", str(cells_dir / exported / "report.json"),
             "--csv", str(out / "series.csv")],
        ]
        children = []
        for i, argv in enumerate(invocations):
            if spans is None:
                args = ["-m", "ipinn", *argv]
            else:
                args = [str(BENCH / "child.py"), "cli", f"{spans}.{i}", *argv]
            children.append(self.child(args, out / f"cli{i}.log"))
        codes = [c.returncode for c in children]
        failure = None if codes[0] == 0 else f"ipinn run exited {codes[0]}"
        checked = self.check_cells(tag, cells_dir, plan, failure, reference)
        for info in checked:
            info["epoch_ms"] = 1e3 * info["wall_time"] / info["epochs"]
        try:
            if codes[1] != 0:
                raise oracle.CheckFailed(f"ipinn summarize exited {codes[1]}")
            oracle.check_summary(out / "summary.csv", checked)
            self.op(None)
        except (oracle.CheckFailed, OSError, ValueError, KeyError) as err:
            self.op(f"{tag}/summary.csv: {err}")
        try:
            if codes[2] != 0:
                raise oracle.CheckFailed(f"ipinn series exited {codes[2]}")
            with open(cells_dir / exported / "report.json") as fh:
                oracle.check_series(out / "series.csv", json.load(fh))
            self.op(None)
        except (oracle.CheckFailed, OSError, ValueError, KeyError) as err:
            self.op(f"{tag}/series.csv: {err}")
        return {"wall": sum(c.wall for c in children), "cpu": sum(c.cpu for c in children),
                "rss_mb": max(c.rss_mb for c in children), "cells": checked}

    def setup(self) -> tuple[list[float], list[float]]:
        first = self.plan()[0]
        walls, imports = [], []
        for i in range(SETUP_REPEATS):
            child = self.child([str(BENCH / "child.py"), "setup", first["problem"],
                                first["formulation"], str(first["seed"])],
                               self.dir / "setup" / f"{i}.log")
            if child.returncode != 0:
                raise BenchError(f"set-up child exited {child.returncode}:\n{child.output}")
            walls.append(child.wall)
            imports.append(child.last_json()["import_s"])
        return walls, imports


def digests(round_: dict) -> dict:
    return {info["cell"]: info["digest"] for info in round_["cells"]}


def accuracy_digits(workload: str, cells: list[dict]) -> float:
    """-log10 of the median (sweep: lowest) oracle mse of the invariant cells.

    The sweep's five epochs leave the median near 1, which carries no digit.
    """
    mses = [c["mse"] for c in cells if c["formulation"] == "invariant"]
    if not mses:
        raise BenchError("no invariant cell passed its checks")
    mse = min(mses) if workload == "sweep" else statistics.median(mses)
    return -math.log10(mse)


def end_to_end(run: Run, setup_walls: list[float], rounds: list[dict]) -> dict:
    cells = [c for r in rounds for c in r["cells"]]
    if not cells:
        raise BenchError("no cell passed its checks:\n" + "\n".join(run.errors[:10]))
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "epoch_ms": statistics.median(c["epoch_ms"] for c in cells),
        "accuracy_digits": accuracy_digits(run.workload, rounds[0]["cells"]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# per-layer table from spans
# ---------------------------------------------------------------------------

def load_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        if not Path(path).exists():
            continue
        with open(path) as fh:
            raw = json.load(fh)
        base = len(spans)
        for name, start, end, parent, attrs in raw:
            spans.append({"name": name, "dur": end - start, "attrs": attrs,
                          "parent": -1 if parent < 0 else base + parent, "kids": 0.0})
    for s in spans:
        if s["parent"] >= 0:
            spans[s["parent"]]["kids"] += s["dur"]
    return spans


def layer_metrics(spans: list[dict], import_s: list[float], cells: list[dict],
                  overhead_s: float) -> dict:
    def durs(name, pair=None):
        return [s["dur"] for s in spans if s["name"] == name
                and (pair is None or s["attrs"].get("pair") == pair)]

    def median_ms(values):
        return 1e3 * statistics.median(values) if values else None

    table: dict[str, tuple[float | None, str]] = {}
    for problem, formulation in oracle.PAIRS:
        pair = f"{problem}-{formulation}"
        full = median_ms(durs("training.loss_and_grad", pair))
        fwd = median_ms(durs(f"training.{formulation}_loss", pair))
        table[f"training.loss_and_grad_ms.{pair}"] = (full, "ms")
        table[f"training.loss_ms.{pair}"] = (fwd, "ms")
        table[f"autodiff.reverse_ms.{pair}"] = (
            None if full is None or fwd is None else full - fwd, "ms")
    table["training.adam_step_ms"] = (median_ms(durs("training.adam_step")), "ms")
    trains = [s for s in spans if s["name"] == "training.train" and s["attrs"].get("epochs")]
    table["training.train_self_ms"] = (
        1e3 * sum(s["dur"] - s["kids"] for s in trains)
        / sum(s["attrs"]["epochs"] for s in trains) if trains else None, "ms")
    cold = durs("reference.oscillator_reference")
    table["reference.oscillator_reference_s"] = (max(cold) if cold else None, "s")
    for name, metric in (("harness.evaluate_params", "harness.evaluate_params_ms"),
                         ("network.mlp_values", "network.mlp_values_ms"),
                         ("reference.exact_eval", "reference.exact_eval_ms"),
                         ("network.save_weights", "harness.save_weights_ms"),
                         ("harness.emit_error_series", "harness.emit_error_series_ms"),
                         ("harness.summarize", "harness.summarize_ms"),
                         ("harness.load_report", "harness.load_report_ms")):
        table[metric] = (median_ms(durs(name)), "ms")
    table["harness.run_cell_self_ms"] = (median_ms(
        [s["dur"] - s["kids"] for s in spans if s["name"] == "harness.run_cell"]), "ms")
    table["harness.artifact_kb"] = (
        statistics.median(c["bytes"] for c in cells) / 1024.0 if cells else None, "KiB")
    table["cli.import_s"] = (statistics.median(import_s), "s")
    table["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items() if v is not None}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = manifest()
    run = Run(workload, seed, trace)
    setup_walls, import_s = run.setup()
    rounds: list[dict] = []
    if not trace:
        start = time.monotonic()
        while True:
            reference = digests(rounds[0]) if rounds else None
            rounds.append(run.round(f"round{len(rounds)}", reference, None))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        metrics = end_to_end(run, setup_walls, rounds)
    else:
        rounds.append(run.round("untraced", None, None))
        spans = run.dir / "spans.json"
        rounds.append(run.round("traced", digests(rounds[0]), spans))
        probe_cells = run.dir / "probe" / "cells"
        probe_cells.mkdir(parents=True)
        child = run.child([str(BENCH / "child.py"), "probe", str(probe_cells),
                           str(seed % PAPER_SEEDS), str(run.dir / "probe.json")],
                          run.dir / "probe" / "child.log")
        probe_plan = [{"problem": p, "formulation": f, "seed": seed % PAPER_SEEDS}
                      for p, f in oracle.PAIRS]
        failure = None if child.returncode == 0 else f"probe exited {child.returncode}"
        checked = run.check_cells("probe", probe_cells, probe_plan, failure, None,
                                  probe=True)
        span_files = [spans, *sorted(run.dir.glob("spans.json.*")), run.dir / "probe.json"]
        metrics = layer_metrics(load_spans(span_files), import_s,
                                rounds[1]["cells"] + checked,
                                rounds[1]["wall"] - rounds[0]["wall"])
    result = {
        "correct": run.self_test is not None and not run.self_test["missed"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **result,
        "errors": run.errors,
        "oracle_self_test": run.self_test,
        "setup_walls_s": setup_walls,
        "rounds": [{"wall_s": r["wall"], "cpu_s": r["cpu"], "peak_rss_mb": r["rss_mb"],
                    "cells": {c["cell"]: {k: c[k] for k in
                                          ("status", "mse", "epochs", "digest", "bytes")}
                              for c in r["cells"]}}
                   for r in rounds],
        "manifest": env,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ipinn" / "__init__.py").is_file():
        print(f"error: no ipinn sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace))
            print_table(workload, results[workload])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
