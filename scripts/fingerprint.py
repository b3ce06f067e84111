"""Print SHA-256 fingerprints of the reference and training numbers, to compare
two trees bit for bit.

The first line, `reference`, holds the digest of the oscillator's exact
solution on the evaluation grid: `exact_eval("oscillator", t)` at 500
equally spaced times on [0, 10].

The second line, `tape`, holds one digest per (problem, formulation) pair,
in `REGISTRY` order: the op names and `needs_grad` flags of the nodes that
the residual records, on the tape leaves that `_output_leaves` reads from the
seed-0 initial network at 50 collocation points.

The third line, `jets`, holds one digest per public `MlpJets` pass at orders
0..3, on cases the trained cells never reach: a 3-layer width-5 net with two
outputs, its initial weights scaled by 1, 50 and 1e3, then at scale 1 with
one hidden bias set to inf and another to nan, at points that include +0.0
and -0.0.  Each digest covers the output jets of a forward-only pass and of
a pass with gradients, and the `param_grad` of a fixed random adjoint.

The fourth line, `problems`, holds one digest per (problem, formulation)
pair, in `REGISTRY` order: its `ics` triples and then its `interval`, with
every float written as `float.hex`, so a move in the last bit or in the sign
of a zero shows here and not only through the training digests; then its
`output_dim`, `order` and `x_name`.  A pass is truncation-exact, so an order
worked out too high would move no training digest, only slow every epoch;
this line is the one that sees it.

The fifth line, `reports`, holds one digest per report file: the bytes that
`write_report` writes, with wall_time 0.0, for three reports built by
`build_report`.  `nan` is a Schwarz invariant net whose last layer is zero,
so b/d = 0/0 makes every error nan and the status "failed-eval"; `inf` is
that net with the last bias (1, 1, 0, 1e-200), so b/d = 1e200 makes the mse
inf with status "ok"; `diverged` is the seed-0 vanilla Schwarz run of the
`diverge` digest at learning rate 1e80, which stops at epoch 1.

Then, for every (problem, formulation) pair and seeds 0-2, it prints one line
with six digests:

- `grad`: the `loss_and_grad` breakdown (equation, initial-condition and
  total loss, alpha) and gradient bytes at 200 and then 50 collocation
  points, from the seed's initial network;
- `loss`: the same breakdowns from `vanilla_loss` or `invariant_loss`, the
  forward-only pass;
- `train`: the loss history and the final weights of a 150-epoch cell at
  200 points, as `run_cell` trains it;
- `eval`: the squared error of that trained network on the report's
  evaluation grid, which `mlp_values` computes;
- `artifacts`: the bytes of the `weights.bin`, `error_series.csv` and
  `error_series_plot.csv` that `run_cell` writes for that cell, then its
  `report.json` without the `wall_time` key, as `json.dumps(...,
  sort_keys=True)` of the parsed file;
- `diverge`: the stop message that `train` returns (`None` when it ran every
  epoch), the loss history and the final weights of a 6-epoch `train` at 50
  points with learning rate 1e80, where some pairs blow up in the loss, and
  then the same of the run at 1e308, where the first update overflows, so the
  non-finite paths of the loss and of the update are compared too.  The
  report built from such a run is the `reports` line's `diverged` digest.

Run it on this tree, or compare this tree with another source tree:

    python3 scripts/fingerprint.py                        # print the lines
    python3 scripts/fingerprint.py --against TREE         # print `same`, or the diff
    python3 scripts/fingerprint.py --against TREE --time  # the same, then the timing

`--against` runs this script in two fresh processes, one importing this
tree's `src` and one importing TREE's `src` (`--src DIR` picks the package
directory to fingerprint).  It prints `same` and exits 0 when every line
matches, else the differing lines as a unified diff and exits 1.  A tree the
script cannot import or run is an error naming the tree and the fault (exit 2).

`--time` then times an epoch on both trees.  It runs `TIME_PROCS` fresh
processes per tree, one at a time, alternating between the trees.  Each
imports `ipinn` from its tree's `src` and runs `train` `TIME_REPEATS` times
on each `TIME_PAIRS` pair (orders 1, 2 and 3), with seed 0, `TIME_EPOCHS`
epochs and `TIME_POINTS` points, keeping the fastest.  A run's ms per epoch
is its wall time over the epochs it ran.  For each pair it prints min /
median / max ms per epoch on TREE and on this tree, then the ratio of the
medians (this tree over TREE) with the range of the ratios of the
`TIME_PROCS` process pairs.  The exit status stays the comparison's: a
timing that cannot run is reported on stderr and fails nothing.  Without
`--against`, `--time` prints one process's JSON line of
[problem, formulation, order, ms per epoch] per pair, the line each timing
process prints.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIME_PAIRS = (("logistic", "invariant"), ("oscillator", "vanilla"), ("schwarz", "vanilla"))
TIME_PROCS = 6
TIME_REPEATS = 3
TIME_EPOCHS = 400
TIME_POINTS = 200


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="SHA-256 fingerprints of the "
                                     "reference and training numbers")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="TREE", type=Path,
                      help="compare with the source tree TREE")
    mode.add_argument("--src", metavar="DIR", type=Path, default=ROOT / "src",
                      help="the directory holding the ipinn package (default: this tree's)")
    parser.add_argument("--time", action="store_true",
                        help="with --against, then time an epoch on both trees; "
                        "alone, print one process's ms per epoch as JSON")
    return parser.parse_args()


def _run_on(tree: Path, *options: str) -> list[str]:
    """This script's lines on `tree`'s src with `options`, from a fresh
    process; RuntimeError naming the tree and the fault if the script cannot
    import or run there."""
    src = tree / "src"
    if not (src / "ipinn" / "__init__.py").is_file():
        raise RuntimeError(f"{tree}: no ipinn package in {src}")
    done = subprocess.run([sys.executable, __file__, "--src", str(src), *options],
                          capture_output=True, text=True)
    if done.returncode != 0:
        fault = (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]
        raise RuntimeError(f"{tree}: the fingerprint cannot run on this tree: {fault}")
    return done.stdout.splitlines()


def compare(tree: Path) -> int:
    """Print `same` (0) or the lines that differ from TREE's (1); a tree the
    script cannot run on is an error (2)."""
    try:
        with ThreadPoolExecutor(2) as pool:
            theirs, ours = pool.map(_run_on, (tree.resolve(), ROOT))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if theirs == ours:
        print("same")
        return 0
    print("\n".join(difflib.unified_diff(theirs, ours, str(tree), str(ROOT),
                                         n=0, lineterm="")))
    return 1


def _spread(values: list[float]) -> str:
    return " / ".join(f"{v:.2f}" for v in (min(values), statistics.median(values), max(values)))


def time_trees(tree: Path) -> None:
    """Print the `--time` table of TREE against this tree, or on stderr why a
    timing process could not run."""
    trees = (tree.resolve(), ROOT)
    runs = ([], [])  # per tree, one `time_line` per process
    try:
        for proc in range(TIME_PROCS):
            for side in ((0, 1) if proc % 2 == 0 else (1, 0)):
                runs[side].append(json.loads(_run_on(trees[side], "--time")[-1]))
    except (RuntimeError, ValueError, IndexError) as err:
        print(f"error: the timing cannot run: {err}", file=sys.stderr)
        return
    print(f"ms per epoch, min / median / max over {TIME_PROCS} processes per tree "
          f"(train, seed 0, {TIME_EPOCHS} epochs, {TIME_POINTS} points, fastest of "
          f"{TIME_REPEATS}); ratio of medians, this tree over TREE, and its range "
          "over the process pairs")
    print(f"{'pair':<30} {'TREE':<20} {'this tree':<20} ratio")
    for k, (name, kind, order, _) in enumerate(runs[1][0]):
        theirs, ours = ([run[k][3] for run in side] for side in runs)
        ratios = [b / a for a, b in zip(theirs, ours)]
        print(f"{f'{name} {kind} (order {order})':<30} {_spread(theirs):<20} "
              f"{_spread(ours):<20} {statistics.median(ours) / statistics.median(theirs):.3f} "
              f"({min(ratios):.3f} to {max(ratios):.3f})")


if __name__ == "__main__":
    args = _args()
    if args.against is not None:
        status = compare(args.against)
        if args.time:
            time_trees(args.against)
        sys.exit(status)
    sys.path.insert(0, str(args.src))

# ipinn before numpy: importing ipinn pins BLAS to one thread, which numpy
# reads as it loads, so the lines and timings come from the CLI's setting
from ipinn import (REGISTRY, MlpLayout, TrainConfig, exact_eval, get_problem,  # noqa: E402
                   init_mlp, invariant_loss, load_weights, loss_and_grad,
                   run_cell, sample_collocation, train, vanilla_loss)
from ipinn.autodiff import AdjointGraph  # noqa: E402
from ipinn.harness import build_report, write_report  # noqa: E402
from ipinn.network import JET_ORDER, MlpJets, ParamSet  # noqa: E402
from ipinn.training import _output_leaves  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1, 2)
POINTS = (200, 50)
EPOCHS = 150
ARTIFACTS = ("weights.bin", "error_series.csv", "error_series_plot.csv")
DIVERGE = dict(epochs=6, n_collocation=50)
DIVERGE_RATES = (1e80, 1e308)
REFERENCE_GRID = (0.0, 10.0, 500)
TAPE_POINTS = 50
JET_LAYOUT = MlpLayout(hidden_layers=3, hidden_width=5, output_dim=2)
JET_SCALES = (1.0, 50.0, 1e3)
JET_POINTS = (-2.5, -1.0, -0.0, 0.0, 1e-300, 0.375, 1.0, 4.0)
KINDS = ("invariant", "vanilla")
REPORT_INF_BIAS = (1.0, 1.0, 0.0, 1e-200)


def _breakdown_bytes(bd) -> bytes:
    return np.array([bd.equation_loss, bd.ic_loss, bd.alpha_ic, bd.total]).tobytes()


def initial_digests(problem, kind: str, seed: int) -> tuple[str, str]:
    """The `grad` and `loss` digests of the seed's initial network."""
    spec = problem.formulation(kind)
    loss = vanilla_loss if kind == "vanilla" else invariant_loss
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), seed)
    grad_digest, loss_digest = hashlib.sha256(), hashlib.sha256()
    for n in POINTS:
        points = sample_collocation(spec.interval, n, seed)
        bd, gvec = loss_and_grad(params, spec, points, problem.alpha_ic)
        grad_digest.update(_breakdown_bytes(bd))
        grad_digest.update(gvec.tobytes())
        loss_digest.update(_breakdown_bytes(loss(params, problem, points,
                                                 problem.alpha_ic)))
    return grad_digest.hexdigest(), loss_digest.hexdigest()


def train_digests(problem, kind: str, seed: int) -> tuple[str, str, str]:
    """The `train`, `eval` and `artifacts` digests of a 150-epoch cell."""
    config = TrainConfig(epochs=EPOCHS, seed=seed, alpha_ic=problem.alpha_ic)
    with tempfile.TemporaryDirectory() as out:
        report = run_cell(problem.name, kind, config, out)
        cell = next(Path(out).iterdir())
        trained, _ = load_weights(cell / "weights.bin")
        digest = hashlib.sha256(report.loss_history.tobytes())
        digest.update(trained.to_flat().tobytes())
        artifacts = hashlib.sha256()
        for name in ARTIFACTS:
            artifacts.update((cell / name).read_bytes())
        report_json = json.loads((cell / "report.json").read_text())
        del report_json["wall_time"]
        artifacts.update(json.dumps(report_json, sort_keys=True).encode("utf-8"))
    return (digest.hexdigest(), hashlib.sha256(report.squared_error.tobytes()).hexdigest(),
            artifacts.hexdigest())


def diverge_digest(problem, kind: str, seed: int) -> str:
    """The `diverge` digest of short runs at learning rates that blow up."""
    digest = hashlib.sha256()
    for learning_rate in DIVERGE_RATES:
        config = TrainConfig(seed=seed, formulation=kind, alpha_ic=problem.alpha_ic,
                             learning_rate=learning_rate, **DIVERGE)
        params, history, stop = train(problem, config)
        digest.update(f"{stop}\n".encode("utf-8"))
        digest.update(history.tobytes())
        digest.update(params.to_flat().tobytes())
    return digest.hexdigest()


def reference_line() -> str:
    """The `reference` line: a digest of the oscillator's exact solution."""
    values = exact_eval("oscillator", np.linspace(*REFERENCE_GRID))
    return f"reference oscillator={hashlib.sha256(values.tobytes()).hexdigest()}"


def tape_line() -> str:
    """The `tape` line: a digest of the ops each pair's residual records."""
    digests = []
    for name in REGISTRY:
        for kind in KINDS:
            spec = get_problem(name).formulation(kind)
            params = init_mlp(MlpLayout(output_dim=spec.output_dim), 0)
            points = sample_collocation(spec.interval, TAPE_POINTS, 0)
            net = MlpJets(params.layout, points, spec.order, with_grad=False)
            graph = AdjointGraph()
            with np.errstate(all="ignore"):
                spec.residual(points, _output_leaves(graph, net.forward(params)))
            digest = hashlib.sha256()
            for node in graph.nodes:
                digest.update(f"{node.op} {node.needs_grad}\n".encode("utf-8"))
            digests.append(f"{name}-{kind}={digest.hexdigest()}")
    return "tape " + " ".join(digests)


def _jet_cases():
    """(name, params) of the `jets` line: scaled nets, then an inf and a nan bias."""
    flat = init_mlp(JET_LAYOUT, 0).flat
    for scale in JET_SCALES:
        yield f"x{scale:g}", ParamSet.from_flat(JET_LAYOUT, scale * flat)
    for name, layer, row, value in (("inf", 0, 1, np.inf), ("nan", 1, 3, np.nan)):
        params = ParamSet.from_flat(JET_LAYOUT, flat)
        params.biases[layer][row] = value
        yield name, params


def jets_line() -> str:
    """The `jets` line: a digest of the forward jets and gradient of each pass."""
    rng = np.random.default_rng(0)
    digests = []
    for name, params in _jet_cases():
        for order in range(JET_ORDER + 1):
            net = MlpJets(JET_LAYOUT, JET_POINTS, order)
            with np.errstate(all="ignore"):
                digest = hashlib.sha256(
                    MlpJets(JET_LAYOUT, JET_POINTS, order, with_grad=False)
                    .forward(params).tobytes())
                digest.update(net.forward(params).tobytes())
                digest.update(net.param_grad(rng.standard_normal(net.value.shape))
                              .tobytes())
            digests.append(f"{name}-{order}={digest.hexdigest()}")
    return "jets " + " ".join(digests)


def problems_line() -> str:
    """The `problems` line: a digest of each pair's ICs and interval, in float.hex,
    then its output_dim, order and x_name."""
    digests = []
    for name in REGISTRY:
        for kind in KINDS:
            spec = get_problem(name).formulation(kind)
            text = "".join(f"{row} {k} {float(value).hex()}\n" for row, k, value in spec.ics)
            text += " ".join(float(x).hex() for x in spec.interval)
            text += f"\n{spec.output_dim} {spec.order} {spec.x_name}"
            digest = hashlib.sha256(text.encode("utf-8"))
            digests.append(f"{name}-{kind}={digest.hexdigest()}")
    return "problems " + " ".join(digests)


def _schwarz_invariant_report(last_bias):
    """The report of a Schwarz invariant net whose outputs are its last bias."""
    params = init_mlp(MlpLayout(output_dim=4), 0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = last_bias
    config = TrainConfig(epochs=0, formulation="invariant")
    return build_report(get_problem("schwarz"), config, params, np.zeros((0, 3)), 0.0)


def reports_line() -> str:
    """The `reports` line: a digest of the report file of each non-finite case."""
    problem = get_problem("schwarz")
    config = TrainConfig(seed=0, formulation="vanilla", alpha_ic=problem.alpha_ic,
                         learning_rate=DIVERGE_RATES[0], **DIVERGE)
    params, history, stop = train(problem, config)
    reports = {"nan": _schwarz_invariant_report(0.0),
               "inf": _schwarz_invariant_report(REPORT_INF_BIAS),
               "diverged": build_report(problem, config, params, history, 0.0, stop)}
    digests = []
    with tempfile.TemporaryDirectory() as out:
        for key, report in reports.items():
            path = Path(out) / "report.json"
            write_report(report, path)
            digests.append(f"{key}={hashlib.sha256(path.read_bytes()).hexdigest()}")
    return "reports " + " ".join(digests)


def time_line() -> str:
    """The `--time` line: JSON [problem, formulation, order, ms per epoch] per
    `TIME_PAIRS` pair, the fastest of `TIME_REPEATS` `train` runs."""
    rows = []
    for name, kind in TIME_PAIRS:
        problem = get_problem(name)
        config = TrainConfig(epochs=TIME_EPOCHS, n_collocation=TIME_POINTS, seed=0,
                             formulation=kind, alpha_ic=problem.alpha_ic)
        fastest = math.inf
        for _ in range(TIME_REPEATS):
            start = time.perf_counter()
            _, history, _ = train(problem, config)
            fastest = min(fastest, 1e3 * (time.perf_counter() - start) / len(history))
        rows.append([name, kind, problem.formulation(kind).order, fastest])
    return json.dumps(rows)


def main() -> None:
    print(reference_line(), flush=True)
    print(tape_line(), flush=True)
    print(jets_line(), flush=True)
    print(problems_line(), flush=True)
    print(reports_line(), flush=True)
    for name in REGISTRY:
        problem = get_problem(name)
        for kind in KINDS:
            for seed in SEEDS:
                grad, loss = initial_digests(problem, kind, seed)
                trained, evaluated, artifacts = train_digests(problem, kind, seed)
                diverge = diverge_digest(problem, kind, seed)
                print(f"{name}-{kind} seed={seed} grad={grad} loss={loss} "
                      f"train={trained} eval={evaluated} artifacts={artifacts} "
                      f"diverge={diverge}", flush=True)


if __name__ == "__main__":
    if args.time:
        print(time_line())
    else:
        main()
