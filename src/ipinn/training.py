"""Loss assembly and full-batch Adam training for both formulations."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import AdjointGraph, DomainError, Node
from .network import MlpJets, MlpLayout, ParamSet, init_mlp
from .problems import FormulationSpec, ProblemSpec

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """One experiment cell: optimizer, sampling, and weighting knobs.

    interval None means the formulation's own interval.  mean_reduction
    switches the equation term from a sum over collocation points to a mean;
    off by default.
    """

    epochs: int = 3000
    learning_rate: float = 1e-3
    alpha_ic: float = 1.0
    n_collocation: int = 200
    interval: tuple[float, float] | None = None
    seed: int = 0
    formulation: str = "invariant"
    mean_reduction: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.n_collocation < 2:
            raise ValueError("need at least the two endpoint collocation points")
        if self.alpha_ic < 0.0:
            raise ValueError("alpha_ic must be non-negative")
        if self.interval is not None and not self.interval[0] < self.interval[1]:
            raise ValueError("interval must satisfy lo < hi")
        if self.formulation not in ("vanilla", "invariant"):
            raise ValueError(f"unknown formulation {self.formulation!r}")

    def snapshot(self) -> dict:
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "alpha_ic": self.alpha_ic,
            "n_collocation": self.n_collocation,
            "interval": None if self.interval is None else list(self.interval),
            "seed": self.seed,
            "formulation": self.formulation,
            "mean_reduction": self.mean_reduction,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "TrainConfig":
        interval = data.get("interval")
        return cls(
            epochs=int(data["epochs"]),
            learning_rate=float(data["learning_rate"]),
            alpha_ic=float(data["alpha_ic"]),
            n_collocation=int(data["n_collocation"]),
            interval=None if interval is None else (float(interval[0]), float(interval[1])),
            seed=int(data["seed"]),
            formulation=str(data["formulation"]),
            mean_reduction=bool(data.get("mean_reduction", False)),
        )


@dataclass(frozen=True)
class LossBreakdown:
    equation_loss: float
    ic_loss: float
    alpha_ic: float
    total: float


def _breakdown(equation_loss: float, ic_loss: float, alpha_ic: float) -> LossBreakdown:
    return LossBreakdown(equation_loss, ic_loss, alpha_ic,
                         equation_loss + alpha_ic * ic_loss)


def sample_collocation(interval: tuple[float, float], n: int, seed: int) -> np.ndarray:
    """n points with both endpoints pinned and the interior i.i.d. uniform.

    Sorted ascending and redrawn until strictly increasing, so the grid is a
    proper partition of the interval.  Deterministic per seed.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if n < 2:
        raise ValueError("need at least the two endpoint collocation points")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        interior = np.sort(rng.uniform(lo, hi, size=n - 2))
        points = np.concatenate([[lo], interior, [hi]])
        if np.all(np.diff(points) > 0.0):
            return points
    raise RuntimeError("failed to draw strictly increasing collocation points")


def _loss_nodes(graph: AdjointGraph, points: np.ndarray, outs,
                spec: FormulationSpec, alpha_ic: float,
                mean_reduction: bool):
    residuals = spec.residual(graph, points, outs)
    eq = None
    for r in residuals:
        term = graph.sum(r * r)
        eq = term if eq is None else eq + term
    if mean_reduction:
        eq = graph.scale_shift(eq, 1.0 / points.size, 0.0)
    ic = None
    for row, order, target in spec.ics:
        diff = outs[row].d(order).pick(0) - target
        term = diff * diff
        ic = term if ic is None else ic + term
    total = eq + graph.scale_shift(ic, alpha_ic, 0.0)
    return total, eq, ic, residuals


def _require_finite(total_value: float, residuals: list[Node], ic_value: float,
                    points: np.ndarray) -> None:
    if np.isfinite(total_value):
        return
    for r in residuals:
        bad = ~np.isfinite(np.asarray(r.value))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError("non-finite equation residual at collocation "
                              f"point {points[i]:.6g}")
    if not np.isfinite(ic_value):
        raise DomainError("non-finite initial-condition residual at "
                          f"{points[0]:.6g}")
    raise DomainError("non-finite training loss")


def _evaluate(params: ParamSet, spec: FormulationSpec, points: np.ndarray,
              alpha_ic: float, mean_reduction: bool, with_grad: bool):
    graph = AdjointGraph()
    with np.errstate(all="ignore"):
        net = MlpJets(graph, params, points, spec.order)
        total, eq, ic, residuals = _loss_nodes(graph, points, net.outputs, spec,
                                               alpha_ic, mean_reduction)
        gvec = None
        if with_grad:
            graph.backward(total)
            gvec = net.param_grad()
    total_value = float(total.value)
    _require_finite(total_value, residuals, float(ic.value), points)
    if gvec is not None and not np.all(np.isfinite(gvec)):
        raise DomainError("non-finite loss gradient")
    return _breakdown(float(eq.value), float(ic.value), alpha_ic), gvec


def loss_and_grad(params: ParamSet, spec: FormulationSpec, points: np.ndarray,
                  alpha_ic: float = 1.0, mean_reduction: bool = False,
                  ) -> tuple[LossBreakdown, np.ndarray]:
    return _evaluate(params, spec, points, alpha_ic, mean_reduction, True)


def vanilla_loss(params: ParamSet, problem: ProblemSpec, points: np.ndarray,
                 alpha_ic: float = 1.0, mean_reduction: bool = False,
                 ) -> LossBreakdown:
    """Loss of the original-equation formulation at fixed parameters."""
    breakdown, _ = _evaluate(params, problem.vanilla, points, alpha_ic,
                             mean_reduction, False)
    return breakdown


def invariant_loss(params: ParamSet, problem: ProblemSpec, points: np.ndarray,
                   alpha_ic: float = 1.0, mean_reduction: bool = False,
                   ) -> LossBreakdown:
    """Loss of the invariantized-plus-reconstruction formulation."""
    breakdown, _ = _evaluate(params, problem.invariant, points, alpha_ic,
                             mean_reduction, False)
    return breakdown


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params_flat: np.ndarray, grad_vector: np.ndarray,
              state: AdamState, lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new vector and state."""
    step = state.step + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad_vector
    v = (ADAM_BETA2 * state.second_moment
         + (1.0 - ADAM_BETA2) * grad_vector * grad_vector)
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    updated = params_flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return updated, AdamState(m, v, step)


def train(problem: ProblemSpec, config: TrainConfig):
    """Full-batch Adam on the configured formulation.

    Returns the trained ParamSet, the (epochs_run, 3) per-epoch array of
    (equation_loss, ic_loss, total), and the evaluated RunReport.  A run
    whose loss or update turns non-finite stops early; the report records
    the abort and keeps the last finite parameters.
    """
    from .harness import build_report

    spec = problem.formulation(config.formulation)
    interval = config.interval if config.interval is not None else spec.interval
    layout = MlpLayout(output_dim=spec.output_dim)
    start = time.perf_counter()
    params = init_mlp(layout, config.seed)
    points = sample_collocation(interval, config.n_collocation, config.seed)
    flat = params.to_flat()
    state = AdamState.zeros(flat.size)
    history = np.zeros((config.epochs, 3))
    status, message = "ok", ""
    epochs_run = 0
    for epoch in range(config.epochs):
        current = ParamSet.from_flat(layout, flat)
        try:
            breakdown, gvec = loss_and_grad(current, spec, points,
                                            config.alpha_ic,
                                            config.mean_reduction)
        except DomainError as err:
            status, message = "diverged", f"epoch {epoch}: {err}"
            break
        history[epoch] = (breakdown.equation_loss, breakdown.ic_loss,
                          breakdown.total)
        epochs_run = epoch + 1
        updated, state = adam_step(flat, gvec, state, config.learning_rate)
        if not np.all(np.isfinite(updated)):
            status, message = "diverged", f"epoch {epoch}: non-finite parameter update"
            break
        flat = updated
    trained = ParamSet.from_flat(layout, flat)
    report = build_report(problem, config, trained, history[:epochs_run],
                          wall_time=time.perf_counter() - start,
                          status=status, message=message)
    return trained, history[:epochs_run], report
