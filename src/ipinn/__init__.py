"""Physics-informed ODE solvers trained on symmetry-reduced equations.

The package pairs a fused tanh-MLP Taylor-jet kernel, which carries only the
derivative orders a formulation reads, and a small plain-array reverse-mode
tape with five benchmark problems, each solvable two ways: directly on the
original residual, or on the invariantized equation plus the first-order
moving-frame reconstruction system.
"""

import os

# One BLAS thread per process unless the caller chose otherwise; numpy reads
# this when it loads, so it must be set before anything below imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import (AdjointGraph, DomainError, Jet3, jet_add, jet_elem,
                       jet_mul)
from .network import (MlpJets, MlpLayout, ParamSet, init_mlp, load_weights,
                      mlp_forward, mlp_values, save_weights)
from .problems import (REGISTRY, FormulationSpec, GroupElementSL2, Jet3Point,
                       ProblemSpec, get_problem, schwarzian, sl2_moving_frame,
                       sl2_prolong)
from .reference import Trajectory, erf, exact_eval, rk4_solve
from .training import (AdamState, LossBreakdown, TrainConfig, adam_step,
                       invariant_loss, loss_and_grad, sample_collocation,
                       train, vanilla_loss)
from .harness import (RunReport, SummaryTable, emit_error_series,
                      evaluate_params, load_report, run_cell, summarize,
                      write_summary_csv)

__version__ = "0.1.0"

__all__ = [
    "AdjointGraph", "DomainError", "Jet3", "jet_add", "jet_elem", "jet_mul",
    "MlpJets", "MlpLayout", "ParamSet", "init_mlp", "load_weights", "mlp_forward",
    "mlp_values", "save_weights",
    "REGISTRY", "FormulationSpec", "GroupElementSL2", "Jet3Point",
    "ProblemSpec", "get_problem", "schwarzian", "sl2_moving_frame",
    "sl2_prolong",
    "Trajectory", "erf", "exact_eval", "rk4_solve",
    "AdamState", "LossBreakdown", "TrainConfig", "adam_step",
    "invariant_loss", "loss_and_grad", "sample_collocation", "train",
    "vanilla_loss",
    "RunReport", "SummaryTable", "emit_error_series", "evaluate_params",
    "load_report", "run_cell", "summarize", "write_summary_csv",
]
