"""Print SHA-256 fingerprints of the training numbers, to compare two trees bit for bit.

For every (problem, formulation) pair and seeds 0-2 it prints one line with
two digests:

- `grad`: the `loss_and_grad` breakdown (equation, initial-condition and
  total loss, alpha) and gradient bytes at 200 and then 50 collocation
  points, from the seed's initial network;
- `train`: the loss history and the final weights of a 150-epoch `train`
  at 200 points.

Run it from the root of a source tree, once per tree, and diff the outputs:

    python3 scripts/fingerprint.py > a.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ipinn import (REGISTRY, MlpLayout, TrainConfig, get_problem, init_mlp,  # noqa: E402
                   loss_and_grad, sample_collocation, train)

SEEDS = (0, 1, 2)
POINTS = (200, 50)
EPOCHS = 150


def grad_digest(problem, kind: str, seed: int) -> str:
    spec = problem.formulation(kind)
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), seed)
    digest = hashlib.sha256()
    for n in POINTS:
        points = sample_collocation(spec.interval, n, seed)
        bd, gvec = loss_and_grad(params, spec, points, problem.alpha_ic)
        digest.update(np.array([bd.equation_loss, bd.ic_loss, bd.alpha_ic,
                                bd.total]).tobytes())
        digest.update(gvec.tobytes())
    return digest.hexdigest()


def train_digest(problem, kind: str, seed: int) -> str:
    config = TrainConfig(epochs=EPOCHS, seed=seed, formulation=kind,
                         alpha_ic=problem.alpha_ic)
    trained, history, _ = train(problem, config)
    digest = hashlib.sha256(history.tobytes())
    digest.update(trained.to_flat().tobytes())
    return digest.hexdigest()


def main() -> None:
    for name in REGISTRY:
        problem = get_problem(name)
        for kind in ("invariant", "vanilla"):
            for seed in SEEDS:
                print(f"{name}-{kind} seed={seed} "
                      f"grad={grad_digest(problem, kind, seed)} "
                      f"train={train_digest(problem, kind, seed)}", flush=True)


if __name__ == "__main__":
    main()
