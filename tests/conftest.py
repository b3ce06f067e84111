"""Shared fixtures: the trained benchmark matrix behind the acceptance gate."""

from __future__ import annotations

import pytest

from ipinn.cli import _run_cells
from ipinn.problems import get_problem
from ipinn.training import TrainConfig

SEEDS = (0, 1, 2, 3, 4)
WORKERS = 2

# every cell an acceptance criterion reads; other cells are not trained here
BENCHMARK_CELLS = (
    ("logistic", "invariant"),
    ("logistic", "vanilla"),
    ("schwarz", "invariant"),
    ("schwarz", "vanilla"),
    ("oscillator", "invariant"),
    ("exponential", "invariant"),
    ("exponential", "vanilla"),
    ("system", "invariant"),
)


def benchmark_config(problem_name: str, seed: int) -> TrainConfig:
    """Full training budget with the problem's benchmark ic weight."""
    return TrainConfig(seed=seed, alpha_ic=get_problem(problem_name).alpha_ic)


@pytest.fixture(scope="session")
def benchmark_matrix():
    """Reports for all benchmark cells, keyed by (problem, formulation, seed).

    Trains 40 full-budget cells on the worker pool of `ipinn run --jobs`,
    WORKERS at a time; a cell's report does not depend on the process it
    ran in.  Takes a few minutes and runs once.
    """
    cells = [(problem, formulation, benchmark_config(problem, seed))
             for problem, formulation in BENCHMARK_CELLS for seed in SEEDS]
    matrix = {}
    for (problem, formulation, config), outcome in _run_cells(cells, None, WORKERS):
        if isinstance(outcome, Exception):
            raise outcome
        matrix[(problem, formulation, config.seed)] = outcome
    return matrix


CRITERION_LINES: list[str] = []


def pytest_collection_modifyitems(config, items):
    # surface the fast module tests before the slow trained-matrix gate
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("benchmark acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
