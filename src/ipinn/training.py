"""Loss assembly and full-batch Adam training for both formulations.

The loss is the sum over collocation points of every squared residual
component, plus alpha_ic times the squared initial-condition misfits at
the first point, which must be the start of the formulation's interval.  The
residuals read the network's output coefficients as plain tape leaves and
see no tape; `_evaluate` is the one place that makes those leaves from the
jets a `network.MlpJets` pass returns and hands their adjoints back to it.
Only the residuals are recorded: the loss is reduced in numpy, and its
closed-form adjoint seeds the tape's backward sweep.
`train` builds one pass and one `ParamSet` per cell; each epoch overwrites
the pass's jets, adjoints and gradient, so no epoch allocates a jet-sized
buffer and a cell's memory does not grow with its epochs, and copies the
fresh vector `adam_step` returns into the parameters' flat vector.
`loss_and_grad` builds a pass per call, so the gradient it returns is never
overwritten; the loss functions, which return no gradient, build a
forward-only one.  Both run the same numpy operations in the same order as
`train`, which gives the trajectories of a loop of `loss_and_grad` and
`adam_step` bit for bit.  Each pass carries the jets of its formulation's
order (`FormulationSpec.order`) and gives the loss and gradient of an
order-3 pass bit for bit, at any number of collocation points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import AdjointGraph, Node
from .network import MlpJets, MlpLayout, ParamSet, init_mlp
from .problems import FORMULATIONS, DomainError, FormulationSpec, ProblemSpec

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """One experiment cell: optimizer, sampling, and weighting knobs.

    Training samples its collocation points on the formulation's own
    interval, which is also where `run_cell` evaluates the trained network.
    The equation term of the loss is a sum over those points.  A run report
    stores the config as `dataclasses.asdict`, its keys in field order.
    """

    epochs: int = 3000
    learning_rate: float = 1e-3
    alpha_ic: float = 1.0
    n_collocation: int = 200
    seed: int = 0
    formulation: str = FORMULATIONS[0]

    def __post_init__(self):
        for name in ("epochs", "n_collocation", "seed"):  # the report stores them as JSON ints
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {type(value).__name__} "
                                 f"{value!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.n_collocation < 2:
            raise ValueError("need at least the two endpoint collocation points")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("learning_rate", "alpha_ic"):  # and these as JSON numbers
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be an int or a float, got "
                                 f"{type(value).__name__} {value!r}")
        # compared, not converted, so an int past the float range is not finite either
        if not 0.0 < self.learning_rate <= sys.float_info.max:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.alpha_ic <= sys.float_info.max:
            raise ValueError("alpha_ic must be finite and non-negative")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass(frozen=True)
class LossBreakdown:
    equation_loss: float
    ic_loss: float
    alpha_ic: float
    total: float


def sample_collocation(interval: tuple[float, float], n: int, seed: int) -> np.ndarray:
    """n points with both endpoints pinned and the interior i.i.d. uniform.

    Sorted ascending and redrawn until strictly increasing, so the grid is a
    proper partition of the interval.  Deterministic per seed.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    big = sys.float_info.max  # compared, not converted, like TrainConfig's numbers
    if not (-big <= lo and hi <= big and hi - lo <= big):
        raise ValueError("interval and its width must be finite")
    if n < 2:
        raise ValueError("need at least the two endpoint collocation points")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        interior = np.sort(rng.uniform(lo, hi, size=n - 2))
        points = np.concatenate([[lo], interior, [hi]])
        if np.all(np.diff(points) > 0.0):
            return points
    raise RuntimeError("failed to draw strictly increasing collocation points")


def _require_finite(total: float, residuals: list[np.ndarray], ic: float,
                    points: np.ndarray) -> None:
    if np.isfinite(total):
        return
    for r in residuals:
        bad = ~np.isfinite(r)
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError("non-finite equation residual at collocation "
                              f"point {points[i]:.6g}")
    if not np.isfinite(ic):
        raise DomainError("non-finite initial-condition residual at "
                          f"{points[0]:.6g}")
    raise DomainError("non-finite training loss")


def _output_leaves(graph: AdjointGraph, value: np.ndarray) -> list[list[Node]]:
    """One tape leaf per output coefficient: leaves[row][k] holds value[k, row]."""
    return [[graph.param(value[k, row]) for k in range(len(value))]
            for row in range(value.shape[1])]


def _gather_adjoints(leaves: list[list[Node]], value_bar: np.ndarray) -> np.ndarray:
    """The leaf adjoints of a backward sweep, written into `value_bar` as the
    adjoint of the output jets; a leaf that nothing read adds nothing."""
    value_bar.fill(0.0)
    for row, jet in enumerate(leaves):
        for k, leaf in enumerate(jet):
            if leaf.adjoint is not None:
                value_bar[k, row] += leaf.adjoint
    return value_bar


def _evaluate(net: MlpJets, params: ParamSet, spec: FormulationSpec,
              alpha_ic: float):
    """Loss breakdown of one pass at the points of `net` and, if `net` was
    built with_grad, the flat gradient, which is its buffer `net.grad.flat`.
    The initial-condition misfits are read at the first point, so points
    that are empty or do not start at the interval's start raise ValueError.

    This is where the tape meets the network: the residuals read the output
    jets through `_output_leaves`, and only they are recorded.  The loss is
    reduced here in numpy, and its adjoint, 2 r on each residual r and
    2 alpha_ic d on each initial-condition misfit d, seeds the backward
    sweep; `param_grad` then pulls back the leaf adjoints, gathered in
    `net.value_bar`.  The seeds go in the order in which a sweep over the
    recorded loss would reach them, ICs last to first and then residuals
    last to first, so each leaf sums its terms in that order.
    """
    points = net.points
    if not len(points) or points[0] != spec.interval[0]:
        first = f"is {points[0]:.6g}" if len(points) else "is missing"
        raise ValueError(f"the initial conditions hold at {spec.x_name} = {spec.interval[0]:.6g}, "
                         f"but the first collocation point {first}")
    graph = AdjointGraph()
    with np.errstate(all="ignore"):
        value = net.forward(params)
        leaves = _output_leaves(graph, value)
        residuals = spec.residual(points, leaves)
        eq = 0.0
        for r in residuals:
            eq = eq + np.add.reduce(r.value * r.value, axis=None)
        misfits = [value[k, row, 0] - target for row, k, target in spec.ics]
        ic = 0.0
        for d in misfits:
            ic = ic + d * d
        gvec = None
        if net.with_grad:
            seeds = []
            for (row, k, _), d in zip(reversed(spec.ics), reversed(misfits)):
                seed = np.zeros(len(points))
                seed[0] = alpha_ic * d + alpha_ic * d
                seeds.append((leaves[row][k], seed))
            seeds += [(r, r.value + r.value) for r in reversed(residuals)]
            graph.backward(seeds)
            gvec = net.param_grad(_gather_adjoints(leaves, net.value_bar))
        total = eq + alpha_ic * ic
    _require_finite(total, [r.value for r in residuals], ic, points)
    if gvec is not None and not np.all(np.isfinite(gvec)):
        raise DomainError("non-finite loss gradient")
    return LossBreakdown(float(eq), float(ic), alpha_ic, float(total)), gvec


def loss_and_grad(params: ParamSet, spec: FormulationSpec, points: np.ndarray,
                  alpha_ic: float = 1.0) -> tuple[LossBreakdown, np.ndarray]:
    return _evaluate(MlpJets(params.layout, points, spec.order), params, spec, alpha_ic)


def _loss(params: ParamSet, spec: FormulationSpec, points: np.ndarray,
          alpha_ic: float) -> LossBreakdown:
    net = MlpJets(params.layout, points, spec.order, with_grad=False)
    return _evaluate(net, params, spec, alpha_ic)[0]


def vanilla_loss(params: ParamSet, problem: ProblemSpec, points: np.ndarray,
                 alpha_ic: float = 1.0) -> LossBreakdown:
    """Loss of the original-equation formulation at fixed parameters."""
    return _loss(params, problem.vanilla, points, alpha_ic)


def invariant_loss(params: ParamSet, problem: ProblemSpec, points: np.ndarray,
                   alpha_ic: float = 1.0) -> LossBreakdown:
    """Loss of the invariantized-plus-reconstruction formulation."""
    return _loss(params, problem.invariant, points, alpha_ic)


@dataclass
class AdamState:
    """Adam's moments and step count, which `adam_step` advances."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(params_flat: np.ndarray, grad_vector: np.ndarray,
              state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update (Kingma & Ba, Algorithm 1); returns the
    new vector as a fresh array.

    `state` gets the new moments and step count, and `params_flat` is only
    read, so the vector before a non-finite update survives it.
    """
    g = grad_vector
    state.step += 1
    state.first_moment = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * g
    state.second_moment = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.first_moment / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2 ** state.step)
    return params_flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def train(problem: ProblemSpec, config: TrainConfig):
    """Full-batch Adam on the configured formulation; only the training loop.

    Returns the trained ParamSet, the per-epoch (equation_loss, ic_loss,
    total) rows of the epochs that computed a loss, and where the run
    stopped: None after the last epoch, else an "epoch N: ..." message for
    the epoch whose loss or update turned non-finite, the last finite
    parameters kept.  `run_cell` times this call, then evaluates and reports
    its result.  An epoch computes the same bits as `loss_and_grad` followed
    by `adam_step`, on one `MlpJets` pass and one `ParamSet` per cell: the
    pass's jets are overwritten in place, and each finite update is copied
    into the parameters' flat vector.
    """
    spec = problem.formulation(config.formulation)
    layout = MlpLayout(output_dim=spec.output_dim)
    params = init_mlp(layout, config.seed)
    net = MlpJets(layout, sample_collocation(spec.interval, config.n_collocation, config.seed),
                  spec.order)
    state = AdamState.zeros(layout.flat_size())
    history = np.zeros((config.epochs, 3))
    for epoch in range(config.epochs):
        try:
            breakdown, gvec = _evaluate(net, params, spec, config.alpha_ic)
        except DomainError as err:
            return params, history[:epoch], f"epoch {epoch}: {err}"
        history[epoch] = (breakdown.equation_loss, breakdown.ic_loss,
                          breakdown.total)
        with np.errstate(all="ignore"):  # a non-finite update stops the run
            updated = adam_step(params.flat, gvec, state, config.learning_rate)
        if not np.all(np.isfinite(updated)):
            return params, history[:epoch + 1], f"epoch {epoch}: non-finite parameter update"
        params.flat[:] = updated
    return params, history, None
