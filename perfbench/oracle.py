"""Independent checks of the artifacts that ipinn writes for a cell.

Nothing here imports ipinn.  The weights reader, the tanh MLP, the
reconstruction maps (README "Benchmark problems" table) and the exact
solutions are written again from their documented definitions, so a fault in
the program cannot hide behind the same fault in its checker.  The oscillator
reference is scipy's DOP853 at a tight tolerance rather than the program's
fixed-step RK4.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

GRID_POINTS = 500
PLOT_ERROR_CAP = 1e6
SCHWARZ_MASK_HALF_WIDTH = 0.05
PROBLEMS = ("schwarz", "logistic", "oscillator", "exponential", "system")
FORMULATIONS = ("invariant", "vanilla")
PAIRS = tuple((p, f) for p in PROBLEMS for f in FORMULATIONS)
EXPONENTIAL_SHIFT = math.exp(-5.0)
EXPONENTIAL_H_FINAL = math.log(1.0 + 2.0 * math.exp(5.0))

# network outputs per formulation and the evaluation interval of each
OUTPUT_DIM = {("schwarz", "invariant"): 4, ("schwarz", "vanilla"): 1,
              ("logistic", "invariant"): 1, ("logistic", "vanilla"): 1,
              ("oscillator", "invariant"): 2, ("oscillator", "vanilla"): 1,
              ("exponential", "invariant"): 2, ("exponential", "vanilla"): 1,
              ("system", "invariant"): 2, ("system", "vanilla"): 2}
INTERVAL = {"schwarz": (0.0, math.pi), "logistic": (0.0, math.pi),
            "oscillator": (0.0, 10.0), "exponential": (0.0, 2.0),
            "system": (0.0, 2.0)}

# Largest pointwise error of the exact values the program compares against:
# its oscillator reference is RK4 at h = 1e-4 read through linear
# interpolation (h^2/8 |u''|, 4.3e-9 seen); everything else is closed form up
# to rounding (5e-15 seen).  The relative part covers rounding amplified by
# the reconstruction, e.g. b/d where the Schwarz frame entry d is near 0
# (1.2e-11 seen).
REFERENCE_ERROR = {"oscillator": 5e-8}
CLOSED_FORM_ERROR = 1e-11
RELATIVE_TOLERANCE = 1e-7


class CheckFailed(Exception):
    """An artifact disagrees with the independent recomputation."""


def cell_name(problem: str, formulation: str, seed: int) -> str:
    """The directory ipinn writes a cell's artifacts to."""
    return f"{problem}_{formulation}_seed{seed}"


def interval(problem: str, formulation: str) -> tuple[float, float]:
    if (problem, formulation) == ("exponential", "invariant"):
        return (0.0, EXPONENTIAL_H_FINAL)
    return INTERVAL[problem]


# ---------------------------------------------------------------------------
# weights.bin and the network
# ---------------------------------------------------------------------------

def read_weights(path) -> tuple[dict, np.ndarray]:
    """weights.bin: one JSON header line, then little-endian float64 values."""
    data = Path(path).read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline].decode("utf-8"))
    body = data[newline + 1:]
    if len(body) % 8:
        raise CheckFailed(f"{path}: body of {len(body)} bytes is not float64")
    return header, np.frombuffer(body, dtype="<f8").astype(float)


def layer_dims(layout: dict) -> list[int]:
    return ([layout["input_dim"]] + [layout["hidden_width"]] * layout["hidden_layers"]
            + [layout["output_dim"]])


def mlp(layout: dict, flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-major tanh MLP: (n,) inputs to (n, output_dim) outputs.

    Layer i stores W_i (out, in) row-major and then b_i.
    """
    dims = layer_dims(layout)
    h = np.asarray(x, dtype=float)[:, None]
    pos = 0
    for i in range(len(dims) - 1):
        n_in, n_out = dims[i], dims[i + 1]
        w = flat[pos:pos + n_out * n_in].reshape(n_out, n_in)
        pos += n_out * n_in
        b = flat[pos:pos + n_out]
        pos += n_out
        h = np.einsum("nk,ok->no", h, w) + b
        if i < len(dims) - 2:
            h = np.tanh(h)
    if pos != flat.size:
        raise CheckFailed(f"{flat.size} weights for a layout needing {pos}")
    return h


# ---------------------------------------------------------------------------
# reconstruction and exact solutions
# ---------------------------------------------------------------------------

def reconstruct(problem: str, formulation: str, x: np.ndarray, out: np.ndarray):
    """(abscissa, solution components) from the network outputs."""
    if formulation == "vanilla":
        return x, out
    if problem == "schwarz":  # frame matrix (a, b, c, d): u = b/d
        return x, (out[:, 1] / out[:, 3])[:, None]
    if problem == "logistic":  # u = 1/(1 + eps e^-t)
        return x, (1.0 / (1.0 + out[:, 0] * np.exp(-x)))[:, None]
    if problem == "oscillator":  # u = al sin t + be cos t
        return x, (out[:, 0] * np.sin(x) + out[:, 1] * np.cos(x))[:, None]
    if problem == "exponential":  # parametric in H: I and eps
        grow = np.exp(out[:, 1])
        spread = 1.0 - np.exp(-x)
        return grow * spread, (grow * (out[:, 0] + out[:, 1] * spread))[:, None]
    if problem == "system":  # u = al + t be, v = be
        return x, np.stack([out[:, 0] + x * out[:, 1], out[:, 1]], axis=1)
    raise CheckFailed(f"unknown problem {problem!r}")


@functools.lru_cache(maxsize=1)
def _oscillator_solution():
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], -y[0] + math.sin(t ** 0.99)]

    sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-13, dense_output=True)
    if not sol.success:
        raise CheckFailed(f"oscillator oracle failed: {sol.message}")
    return sol.sol


def exact(problem: str, t: np.ndarray):
    """Exact solution components, (n, k); None where the solution is undefined."""
    if problem == "schwarz":  # tan t, unbounded at pi/2
        if np.any(np.abs(t - 0.5 * math.pi) < 1e-9):
            return None
        return np.tan(t)[:, None]
    if problem == "logistic":
        return (1.0 / (1.0 + np.exp(-t)))[:, None]
    if problem == "oscillator":
        if np.any(t < -1e-9) or np.any(t > 10.0 + 1e-9):
            return None
        return _oscillator_solution()(t)[0][:, None]
    if problem == "exponential":  # u = (t + c) ln(t + c) - t, c = e^-5
        base = t + EXPONENTIAL_SHIFT
        if np.any(base <= 0.0):
            return None
        return (base * np.log(base) - t)[:, None]
    if problem == "system":
        # v = C erf((t+1)/sqrt2) + K, u = v' + t v with C, K from u(0) = v(0) = 1
        scale = 1.0 / (math.sqrt(2.0 / math.pi) * math.exp(-0.5))
        drift = 1.0 - scale * math.erf(1.0 / math.sqrt(2.0))
        erf = np.array([math.erf((ti + 1.0) / math.sqrt(2.0)) for ti in t])
        v = scale * erf + drift
        u = scale * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (t + 1.0) ** 2) + t * v
        return np.stack([u, v], axis=1)
    raise CheckFailed(f"unknown problem {problem!r}")


def squared_error(problem: str, formulation: str, layout: dict,
                  flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(grid, per-point squared error, reference defined) of a weight vector.

    Where the reconstructed abscissa leaves the exact solution's domain the
    whole error series is infinite, as the program reports it.
    """
    lo, hi = interval(problem, formulation)
    grid = np.linspace(lo, hi, GRID_POINTS)
    with np.errstate(all="ignore"):
        x, recon = reconstruct(problem, formulation, grid, mlp(layout, flat, grid))
        ref = exact(problem, x)
        if ref is None:
            return grid, np.full(GRID_POINTS, np.inf), False
        return grid, np.sum((recon - ref) ** 2, axis=1), True


def summary_mask(problem: str, grid: np.ndarray) -> np.ndarray:
    if problem != "schwarz":
        return np.ones(grid.shape, dtype=bool)
    c = math.pi / 2.0
    return ~((grid > c - SCHWARZ_MASK_HALF_WIDTH) & (grid < c + SCHWARZ_MASK_HALF_WIDTH))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def tolerance(problem: str, reported) -> np.ndarray:
    """Allowed |oracle - reported| for a squared error or its mean.

    With the exact values off by at most d, a squared error e^2 moves by at
    most 2 d |e| + d^2, on top of rounding relative to e^2 itself.
    """
    d = REFERENCE_ERROR.get(problem, CLOSED_FORM_ERROR)
    r = np.abs(np.asarray(reported, dtype=float))
    return RELATIVE_TOLERANCE * r + 2.0 * d * np.sqrt(r) + d * d


def agrees(problem: str, oracle, reported) -> bool:
    oracle = np.asarray(oracle, dtype=float)
    reported = np.asarray(reported, dtype=float)
    if oracle.shape != reported.shape:
        return False
    finite = np.isfinite(oracle) & np.isfinite(reported)
    with np.errstate(invalid="ignore"):
        same_nonfinite = ((np.isnan(oracle) & np.isnan(reported))
                          | (oracle == reported))
    ok_finite = np.abs(oracle - reported) <= tolerance(problem, reported)
    return bool(np.all(np.where(finite, ok_finite, same_nonfinite)))


def canonical_digest(report: dict) -> str:
    """SHA-256 of the report without its wall clock, keys sorted."""
    data = {k: v for k, v in report.items() if k != "wall_time"}
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_series(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(a), float(b)] for a, b in rows[1:]])


def check_series(path, report: dict, cap: float | None = None) -> None:
    header, values = read_series(path)
    x_name = "H" if (report["problem"], report["formulation"]) == (
        "exponential", "invariant") else "t"
    if header != [x_name, "squared_error"]:
        raise CheckFailed(f"{path}: header {header}")
    err = np.asarray(report["squared_error"], dtype=float)
    if cap is not None:
        err = np.minimum(err, cap)
    if values.shape != (GRID_POINTS, 2):
        raise CheckFailed(f"{path}: {values.shape[0]} rows")
    if not (np.array_equal(values[:, 0], np.asarray(report["grid"]))
            and np.array_equal(values[:, 1], err, equal_nan=True)):
        raise CheckFailed(f"{path}: values differ from report.json")


def check_cell(cell_dir, descent: bool = False) -> dict:
    """Recompute one cell from its weights and check every artifact.

    Returns the oracle's mse, the report's status, the epochs trained, the
    canonical digest and the artifact bytes; raises CheckFailed on the first
    disagreement.
    """
    cell_dir = Path(cell_dir)
    with open(cell_dir / "report.json") as fh:
        report = json.load(fh)
    problem, formulation, seed = report["problem"], report["formulation"], report["seed"]
    if cell_dir.name != cell_name(problem, formulation, seed):
        raise CheckFailed(f"{cell_dir.name}: holds {problem}/{formulation}/{seed}")
    if report["status"] not in ("ok", "diverged", "failed-eval"):
        raise CheckFailed(f"{cell_dir.name}: status {report['status']!r}")

    header, flat = read_weights(cell_dir / "weights.bin")
    layout = header["layout"]
    expected_layout = {"input_dim": 1, "hidden_layers": 5, "hidden_width": 40,
                       "output_dim": OUTPUT_DIM[(problem, formulation)]}
    if layout != expected_layout or header["seed"] != seed:
        raise CheckFailed(f"{cell_dir.name}: weights header {header}")

    grid, sq, defined = squared_error(problem, formulation, layout, flat)
    if not np.allclose(report["grid"], grid, rtol=0.0, atol=1e-12):
        raise CheckFailed(f"{cell_dir.name}: evaluation grid differs")
    reported_sq = np.asarray(report["squared_error"], dtype=float)
    if not agrees(problem, sq, reported_sq):
        raise CheckFailed(f"{cell_dir.name}: squared error differs from the oracle")
    mse = float(np.mean(sq))
    mse_summary = float(np.mean(sq[summary_mask(problem, grid)]))
    if not agrees(problem, mse, report["mse"]):
        raise CheckFailed(f"{cell_dir.name}: mse {report['mse']!r}, oracle {mse!r}")
    if not agrees(problem, mse_summary, report["mse_summary"]):
        raise CheckFailed(f"{cell_dir.name}: mse_summary {report['mse_summary']!r}, "
                          f"oracle {mse_summary!r}")
    if report["status"] == "ok" and not defined:
        raise CheckFailed(f"{cell_dir.name}: status ok outside the solution's domain")

    check_series(cell_dir / "error_series.csv", report)
    check_series(cell_dir / "error_series_plot.csv", report, cap=PLOT_ERROR_CAP)

    history = np.asarray(report["loss_history"], dtype=float).reshape(-1, 3)
    config = report["config"]
    if report["status"] == "ok" and len(history) != config["epochs"]:
        raise CheckFailed(f"{cell_dir.name}: {len(history)} of {config['epochs']} epochs")
    total = history[:, 0] + config["alpha_ic"] * history[:, 1]
    if not np.allclose(history[:, 2], total, rtol=1e-13, atol=0.0):
        raise CheckFailed(f"{cell_dir.name}: total != eq + alpha * ic")
    if descent and not (len(history) > 1 and history[-1, 2] < history[0, 2]):
        raise CheckFailed(f"{cell_dir.name}: final loss is not below the first")

    return {"cell": cell_dir.name, "problem": problem, "formulation": formulation,
            "seed": seed, "status": report["status"], "mse": mse,
            "epochs": len(history), "wall_time": report["wall_time"],
            "digest": canonical_digest(report),
            "bytes": sum(p.stat().st_size for p in cell_dir.iterdir() if p.is_file())}


def check_summary(path, cells: list[dict]) -> None:
    """summary.csv against the oracle's per-cell mse, in registry order."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = sorted({c["seed"] for c in cells})
    if [(r["problem"], r["formulation"]) for r in rows] != list(PAIRS):
        raise CheckFailed(f"{path}: rows {[(r['problem'], r['formulation']) for r in rows]}")
    for row in rows:
        group = [c for c in cells
                 if (c["problem"], c["formulation"]) == (row["problem"], row["formulation"])]
        if int(row["n_seeds"]) != len(seeds) or len(group) != len(seeds):
            raise CheckFailed(f"{path}: {row['problem']}/{row['formulation']} "
                              f"has {row['n_seeds']} seeds")
        if [int(s) for s in row["seeds"].split()] != seeds:
            raise CheckFailed(f"{path}: seeds {row['seeds']!r}")
        mean = float(np.mean([c["mse"] for c in group]))
        if not agrees(row["problem"], mean, float(row["mean_mse"])):
            raise CheckFailed(f"{path}: {row['problem']}/{row['formulation']} mean_mse "
                              f"{row['mean_mse']}, oracle {mean!r}")
        if int(row["n_failed"]) != sum(c["status"] != "ok" for c in group):
            raise CheckFailed(f"{path}: n_failed {row['n_failed']}")


# ---------------------------------------------------------------------------
# the oracle must reject corrupted artifacts
# ---------------------------------------------------------------------------

def _sensitive_output(problem: str, formulation: str) -> int:
    """An output the reconstruction reads (the Schwarz frame's a is unused)."""
    return 1 if (problem, formulation) == ("schwarz", "invariant") else 0


def self_test(cell_dir, work_dir) -> list[str]:
    """Corrupt copies of a good cell; return the corruptions the oracle missed."""
    cell_dir, work_dir = Path(cell_dir), Path(work_dir)
    missed = []
    for fault in ("weight", "mse"):
        copy = work_dir / fault / cell_dir.name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(cell_dir, copy)
        with open(copy / "report.json") as fh:
            report = json.load(fh)
        if fault == "weight":
            header, flat = read_weights(copy / "weights.bin")
            # output-layer bias of an output the reconstruction reads
            out_dim = header["layout"]["output_dim"]
            flat[flat.size - out_dim
                 + _sensitive_output(report["problem"], report["formulation"])] += 1e-3
            raw = (copy / "weights.bin").read_bytes()
            head = raw[:raw.index(b"\n") + 1]
            (copy / "weights.bin").write_bytes(head + flat.astype("<f8").tobytes())
        else:
            report["mse"] = report["mse"] * (1.0 + 1e-3)
            with open(copy / "report.json", "w") as fh:
                json.dump(report, fh)
        try:
            check_cell(copy)
        except CheckFailed:
            continue
        missed.append(fault)
    return missed
