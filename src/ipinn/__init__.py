"""Physics-informed ODE solvers trained on symmetry-reduced equations.

The package pairs a fused tanh-MLP Taylor-jet kernel, which carries only the
derivative orders a formulation reads and computes every jet that training
and evaluation use, and a small plain-array reverse-mode tape with five
benchmark problems, each solvable two ways: directly on the original
residual, or on the invariantized equation plus the first-order moving-frame
reconstruction system.  Each problem's moving frame derives its invariant
initial conditions from its one initial state (the Schwarzian's is SL(2, R)).
"""

import os

# One BLAS thread per process unless the caller chose otherwise; numpy reads
# this when it loads, so it must be set before anything below imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import AdjointGraph
from .network import (MlpJets, MlpLayout, ParamSet, init_mlp, load_weights,
                      mlp_values, save_weights)
from .problems import (REGISTRY, DomainError, FormulationSpec, GroupElementSL2,
                       ProblemSpec, get_problem, sl2_moving_frame)
from .reference import erf, exact_eval
from .training import (AdamState, LossBreakdown, TrainConfig, adam_step,
                       invariant_loss, loss_and_grad, sample_collocation,
                       train, vanilla_loss)
from .harness import (RunReport, SummaryRow, emit_error_series, evaluate_params,
                      load_report, run_cell, summarize, write_summary_csv)

__version__ = "0.1.0"

__all__ = [
    "AdjointGraph", "DomainError",
    "MlpJets", "MlpLayout", "ParamSet", "init_mlp", "load_weights", "mlp_values",
    "save_weights",
    "REGISTRY", "FormulationSpec", "GroupElementSL2", "ProblemSpec",
    "get_problem", "sl2_moving_frame",
    "erf", "exact_eval",
    "AdamState", "LossBreakdown", "TrainConfig", "adam_step",
    "invariant_loss", "loss_and_grad", "sample_collocation", "train",
    "vanilla_loss",
    "RunReport", "SummaryRow", "emit_error_series", "evaluate_params",
    "load_report", "run_cell", "summarize", "write_summary_csv",
]
