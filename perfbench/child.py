"""Runs ipinn in a fresh process, so the benchmark can time it from outside.

    child.py setup PROBLEM FORMULATION SEED   import ipinn, build a cell's inputs
    child.py cells SPEC_JSON [SPANS_JSON]     run_cell for each cell in SPEC_JSON
    child.py probe OUT_DIR SEED SPANS_JSON    call each layer's public functions
    child.py cli SPANS_JSON ARGS...           ipinn's CLI with spans recorded

With a SPANS_JSON argument the public functions are wrapped by spans.py and
the spans are written there when the process ends.  The last line printed is
a JSON object for run.py.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402

# loss calls per (problem, formulation) in the probe; median taken
PROBE_REPEATS = 15
# epochs of each probe cell: enough for train and Adam spans, little else
PROBE_EPOCHS = 3
COLLOCATION = 200


def traced(spans_path):
    if spans_path is None:
        return None
    recorder = Recorder()
    recorder.install()
    return recorder


def setup(problem_name: str, formulation: str, seed: int) -> dict:
    start = time.perf_counter()
    import ipinn.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import_s = time.perf_counter() - start
    from ipinn import MlpLayout, get_problem, init_mlp, sample_collocation
    spec = get_problem(problem_name).formulation(formulation)
    init_mlp(MlpLayout(output_dim=spec.output_dim), seed)
    sample_collocation(spec.interval, COLLOCATION, seed)
    return {"import_s": import_s}


def cells(spec_path: str, spans_path: str | None = None) -> dict:
    recorder = traced(spans_path)
    import ipinn
    spec = json.loads(Path(spec_path).read_text())
    cell_s = []
    for c in spec["cells"]:
        config = ipinn.TrainConfig(
            epochs=c["epochs"], n_collocation=c["collocation"], seed=c["seed"],
            formulation=c["formulation"],
            alpha_ic=ipinn.get_problem(c["problem"]).alpha_ic)
        start = time.perf_counter()
        ipinn.run_cell(c["problem"], c["formulation"], config, spec["out"])
        cell_s.append(time.perf_counter() - start)
    if recorder is not None:
        recorder.dump(spans_path)
    return {"cell_s": cell_s}


def probe(out_dir: str, seed: int, spans_path: str) -> dict:
    """One call path per layer, for the per-layer table of every workload."""
    recorder = traced(spans_path)
    import numpy as np
    import ipinn
    pairs = [(p, f) for p in ipinn.REGISTRY for f in ("invariant", "vanilla")]
    inputs = {}
    for name, form in pairs:
        problem = ipinn.get_problem(name)
        spec = problem.formulation(form)
        inputs[(name, form)] = (
            problem, spec,
            ipinn.init_mlp(ipinn.MlpLayout(output_dim=spec.output_dim), seed),
            ipinn.sample_collocation(spec.interval, COLLOCATION, seed))
    # interleaved, so every pair sees the same machine conditions
    for _ in range(PROBE_REPEATS):
        for name, form in pairs:
            problem, spec, params, points = inputs[(name, form)]
            ipinn.loss_and_grad(params, spec, points, problem.alpha_ic)
            loss = ipinn.invariant_loss if form == "invariant" else ipinn.vanilla_loss
            loss(params, problem, points, problem.alpha_ic)
    cold = recorder.originals.get("reference.oscillator_reference")
    if cold is not None and hasattr(cold, "cache_clear"):
        cold.cache_clear()
    ipinn.reference.exact_eval("oscillator", np.linspace(0.0, 10.0, 500))
    for name, form in pairs:
        config = ipinn.TrainConfig(epochs=PROBE_EPOCHS, n_collocation=COLLOCATION,
                                   seed=seed, formulation=form,
                                   alpha_ic=ipinn.get_problem(name).alpha_ic)
        ipinn.run_cell(name, form, config, out_dir)
    ipinn.summarize(out_dir)
    recorder.dump(spans_path)
    return {}


def cli(spans_path: str, argv: list[str]) -> int:
    recorder = traced(spans_path)
    import ipinn.cli
    try:
        return ipinn.cli.main(argv)
    finally:
        recorder.dump(spans_path)


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "cli":
        return cli(args[0], args[1:])
    if command == "setup":
        result = setup(args[0], args[1], int(args[2]))
    elif command == "cells":
        result = cells(*args)
    elif command == "probe":
        result = probe(args[0], int(args[1]), args[2])
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
