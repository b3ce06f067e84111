"""Golden fingerprints: every (problem, formulation) cell at a short budget.

tests/golden.json holds the status, mse, mse_summary and final training loss
of all ten cells at seed 0, 100 epochs and 50 collocation points.  A change
to the numerics of the jets, the tape, the residuals, Adam or the evaluation
moves at least one of these numbers; a pure refactor moves none.

Regenerate the file (and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py

A recorded cell whose status matches and whose numbers pass `_close` is kept
as it is, so only the cells that moved are rewritten, and regenerating on an
unchanged tree leaves the file byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from ipinn.harness import run_cell
from ipinn.problems import REGISTRY, get_problem
from ipinn.training import TrainConfig

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_EPOCHS = 100
GOLDEN_COLLOCATION = 50
GOLDEN_SEED = 0
RELATIVE_TOLERANCE = 1e-9

PAIRS = [(p, f) for p in REGISTRY for f in ("invariant", "vanilla")]


def fingerprint(problem: str, formulation: str) -> dict:
    config = TrainConfig(epochs=GOLDEN_EPOCHS, n_collocation=GOLDEN_COLLOCATION,
                         seed=GOLDEN_SEED,
                         alpha_ic=get_problem(problem).alpha_ic)
    report = run_cell(problem, formulation, config)
    return {
        "status": report.status,
        "mse": report.mse,
        "mse_summary": report.mse_summary,
        "final_loss": float(report.loss_history[-1, 2]),
    }


def _close(got: float, want: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= RELATIVE_TOLERANCE * abs(want)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_every_pair(golden):
    assert golden["config"] == {"epochs": GOLDEN_EPOCHS,
                                "n_collocation": GOLDEN_COLLOCATION,
                                "seed": GOLDEN_SEED}
    assert sorted(golden["cells"]) == sorted(f"{p}-{f}" for p, f in PAIRS)


@pytest.mark.parametrize("problem,formulation", PAIRS)
def test_cell_matches_golden_fingerprint(golden, problem, formulation):
    want = golden["cells"][f"{problem}-{formulation}"]
    got = fingerprint(problem, formulation)
    assert got["status"] == want["status"]
    for key in ("mse", "mse_summary", "final_loss"):
        assert _close(got[key], want[key]), (key, got[key], want[key])


def _matches(got: dict, want: dict) -> bool:
    return got["status"] == want["status"] and all(
        _close(got[key], want[key]) for key in ("mse", "mse_summary", "final_loss"))


if __name__ == "__main__":
    recorded = json.loads(GOLDEN_PATH.read_text())["cells"] if GOLDEN_PATH.exists() else {}
    cells = {}
    for p, f in PAIRS:
        name, got = f"{p}-{f}", fingerprint(p, f)
        want = recorded.get(name)
        cells[name] = want if want and _matches(got, want) else got
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"config": {"epochs": GOLDEN_EPOCHS,
                              "n_collocation": GOLDEN_COLLOCATION,
                              "seed": GOLDEN_SEED},
                   "cells": cells}, fh, indent=2, sort_keys=True)
        fh.write("\n")
