"""Collocation sampling, loss assembly, Adam, and training-loop tests."""

from __future__ import annotations

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import oracles
from ipinn import harness, training
from ipinn.harness import run_cell
from ipinn.network import MlpJets, MlpLayout, ParamSet, init_mlp
from ipinn.problems import REGISTRY, DomainError, get_problem
from ipinn.training import (
    ADAM_EPSILON,
    AdamState,
    TrainConfig,
    adam_step,
    invariant_loss,
    loss_and_grad,
    sample_collocation,
    train,
    vanilla_loss,
)

# ---------------------------------------------------------------------------
# collocation sampling
# ---------------------------------------------------------------------------


def test_two_points_are_the_endpoints():
    assert np.array_equal(sample_collocation((0.0, 1.0), 2, seed=0), [0.0, 1.0])


def test_collocation_grid_contract():
    points = sample_collocation((0.0, math.pi), 200, seed=3)
    assert points.shape == (200,)
    assert points[0] == 0.0 and points[-1] == math.pi
    assert np.all(np.diff(points) > 0.0)


def test_collocation_is_deterministic_per_seed():
    a = sample_collocation((0.0, 2.0), 50, seed=7)
    b = sample_collocation((0.0, 2.0), 50, seed=7)
    c = sample_collocation((0.0, 2.0), 50, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_collocation_interior_is_uniform():
    lo, hi = 0.0, math.pi
    interior = sample_collocation((lo, hi), 200, seed=0)[1:-1]
    se = (hi - lo) / math.sqrt(12.0) / math.sqrt(interior.size)
    assert abs(interior.mean() - 0.5 * (lo + hi)) < 3.0 * se


def test_collocation_input_validation():
    with pytest.raises(ValueError):
        sample_collocation((1.0, 0.0), 10, seed=0)
    with pytest.raises(ValueError):
        sample_collocation((0.0, 1.0), 1, seed=0)
    for interval in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),
                     (10**400, 10**400 + 1)):
        with pytest.raises(ValueError, match="must be finite"):
            sample_collocation(interval, 5, seed=0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(n_collocation=1)
    with pytest.raises(ValueError):
        TrainConfig(alpha_ic=-0.5)
    for alpha_ic in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="alpha_ic"):
            TrainConfig(alpha_ic=alpha_ic)
    for learning_rate in (math.nan, math.inf, -math.inf, 0.0, -1e-3, 10**400):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)
    with pytest.raises(ValueError):
        TrainConfig(formulation="hybrid")
    for seed in (-1, -2**40):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            TrainConfig(seed=seed)
    for name, value in (("epochs", 2.5), ("epochs", 3.0), ("epochs", "3"),
                        ("n_collocation", 200.0), ("n_collocation", True),
                        ("seed", 0.5), ("seed", None), ("seed", False),
                        ("seed", np.int64(2))):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            TrainConfig(**{name: value})
    for name, value in (("learning_rate", True), ("alpha_ic", False),
                        ("learning_rate", np.float32(1e-3)), ("learning_rate", "0.001"),
                        ("alpha_ic", None), ("alpha_ic", np.float32(1.0))):
        with pytest.raises(ValueError, match=f"{name} must be an int or a float"):
            TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# loss values at hand-constructed parameters
# ---------------------------------------------------------------------------


def _constant_net(output_dim: int, values) -> ParamSet:
    """An affine-only network computing w t + b per row."""
    layout = MlpLayout(hidden_layers=0, output_dim=output_dim)
    return ParamSet(layout, np.concatenate([np.zeros(output_dim), values]))


def _linear_net(w: float, b: float) -> ParamSet:
    return ParamSet(MlpLayout(hidden_layers=0, output_dim=1), [w, b])


def test_zero_network_logistic_vanilla_loss():
    problem = get_problem("logistic")
    points = sample_collocation(problem.vanilla.interval, 20, seed=0)
    bd = vanilla_loss(_constant_net(1, [0.0]), problem, points)
    assert bd.equation_loss == 0.0
    assert bd.ic_loss == 0.25
    assert bd.total == 0.25


def test_zero_network_schwarz_invariant_loss():
    problem = get_problem("schwarz")
    points = sample_collocation(problem.invariant.interval, 20, seed=0)
    bd = invariant_loss(_constant_net(4, [0.0, 0.0, 0.0, 0.0]),
                        problem, points)
    assert bd.equation_loss == 0.0
    assert bd.ic_loss == 2.0
    assert bd.total == 2.0


def test_identity_curve_schwarz_vanilla_loss():
    """u = t has zero curvature, so each residual is exactly -2."""
    problem = get_problem("schwarz")
    points = sample_collocation(problem.vanilla.interval, 10, seed=1)
    bd = vanilla_loss(_linear_net(1.0, 0.0), problem, points)
    assert bd.equation_loss == 4.0 * points.size
    assert bd.ic_loss == 0.0


def test_constant_solution_logistic_invariant_loss():
    problem = get_problem("logistic")
    points = sample_collocation(problem.invariant.interval, 20, seed=0)
    bd = invariant_loss(_constant_net(1, [1.0]), problem, points)
    assert bd.total == 0.0


def test_breakdown_total_identity():
    problem = get_problem("oscillator")
    points = sample_collocation(problem.invariant.interval, 30, seed=2)
    params = init_mlp(MlpLayout(output_dim=2), seed=2)
    bd = invariant_loss(params, problem, points, alpha_ic=3.7)
    assert bd.alpha_ic == 3.7
    assert bd.total == bd.equation_loss + 3.7 * bd.ic_loss


def test_schwarz_vanilla_rejects_critical_curve():
    """A constant curve has u_t = 0, outside the residual's domain."""
    problem = get_problem("schwarz")
    points = sample_collocation(problem.vanilla.interval, 10, seed=0)
    with pytest.raises(DomainError):
        vanilla_loss(_constant_net(1, [0.0]), problem, points)


def test_non_finite_residual_names_a_collocation_point():
    """A steep descending line overflows exp(-u_t) in the residual."""
    problem = get_problem("exponential")
    points = sample_collocation(problem.vanilla.interval, 10, seed=0)
    with pytest.raises(DomainError, match="collocation point"):
        vanilla_loss(_linear_net(-800.0, 0.0), problem, points)


def test_non_finite_initial_condition_names_the_first_point():
    """u = inf everywhere: the logistic invariant residual u_t = 0 stays finite
    and the misfit u(0) - 1 does not."""
    problem = get_problem("logistic")
    points = sample_collocation(problem.invariant.interval, 10, seed=0)
    with pytest.raises(DomainError) as err:
        invariant_loss(_constant_net(1, [math.inf]), problem, points)
    assert str(err.value) == "non-finite initial-condition residual at 0"


@pytest.mark.parametrize("points", [np.linspace(3.0, 0.0, 50), np.linspace(0.5, 3.0, 50),
                                    np.array([])],
                         ids=["reversed", "shifted", "empty"])
def test_losses_refuse_points_that_do_not_start_at_the_initial_time(points):
    """The initial conditions are read at points[0]; at t = 3 they would be
    imposed at the wrong time without a word."""
    problem = get_problem("logistic")
    params = init_mlp(MlpLayout(), 0)
    for loss in (lambda: loss_and_grad(params, problem.vanilla, points),
                 lambda: vanilla_loss(params, problem, points),
                 lambda: invariant_loss(params, problem, points)):
        with pytest.raises(ValueError, match="initial conditions hold at t = 0") as err:
            loss()
        assert type(err.value) is ValueError  # not a DomainError, which reads as divergence


def test_a_leaf_sums_its_adjoint_terms_in_tape_order():
    """Logistic vanilla, r = u_t - u (1 - u): the u leaf gets the IC term, then
    the two terms of the product, then the one of 1 - u, as a sweep over the
    recorded loss would add them.  At this u = w t + b, adding the IC term
    last rounds differently at point 0, so the order is pinned bit for bit."""
    problem = get_problem("logistic")
    spec, alpha = problem.vanilla, 1.0
    params = _linear_net(0.047286498801026866, 1.8018547853037412)
    points = sample_collocation(spec.interval, 20, seed=0)
    net = MlpJets(params.layout, points, spec.order)
    training._evaluate(net, params, spec, alpha)

    u, u_t = net.value[0, 0], net.value[1, 0]
    r = u_t - u * (1.0 - u)
    r_bar = r + r
    d = u[0] - spec.ics[0][2]
    ic_seed = np.zeros(points.size)
    ic_seed[0] = alpha * d + alpha * d
    tape_order = (ic_seed + (-r_bar) * (1.0 - u)) + (-((-r_bar) * u))
    ic_last = ((-r_bar) * (1.0 - u) + (-((-r_bar) * u))) + ic_seed
    assert tape_order[0] != ic_last[0]
    assert np.array_equal(net.value_bar[0, 0].view(np.uint64), tape_order.view(np.uint64))
    assert np.array_equal(net.value_bar[1, 0].view(np.uint64), r_bar.view(np.uint64))


@pytest.mark.parametrize("kind", ["invariant", "vanilla"])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_forward_only_loss_is_bitwise_the_loss_and_grad_loss(name, kind):
    """The forward-only pass of vanilla_loss/invariant_loss moves no bit."""
    problem = get_problem(name)
    spec = problem.formulation(kind)
    loss = vanilla_loss if kind == "vanilla" else invariant_loss
    for seed in (0, 1):
        params = init_mlp(MlpLayout(output_dim=spec.output_dim), seed)
        points = sample_collocation(spec.interval, 200, seed)
        want, _ = loss_and_grad(params, spec, points, problem.alpha_ic)
        got = loss(params, problem, points, problem.alpha_ic)
        assert np.array([*vars(got).values()]).tobytes() == \
            np.array([*vars(want).values()]).tobytes()


def test_loss_and_grad_matches_loss_value():
    problem = get_problem("logistic")
    points = sample_collocation(problem.vanilla.interval, 25, seed=1)
    params = init_mlp(MlpLayout(output_dim=1), seed=1)
    bd, gvec = loss_and_grad(params, problem.vanilla, points)
    assert gvec.shape == (params.layout.flat_size(),)
    assert np.all(np.isfinite(gvec))
    assert bd.total == vanilla_loss(params, problem, points).total


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_a_fixed_point():
    flat = np.array([1.0, -2.0, 0.5])
    state = AdamState.zeros(3)
    updated = adam_step(flat, np.zeros(3), state, lr=1e-3)
    assert np.array_equal(updated, flat)
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    flat = np.zeros(3)
    g = np.array([2.5, -0.3, 1e-3])
    updated = adam_step(flat, g, AdamState.zeros(3), lr=1e-3)
    want = -1e-3 * g / (np.abs(g) + ADAM_EPSILON)
    assert np.abs(updated - want).max() < 1e-12


def test_adam_step_is_bitwise_the_oracle_adam():
    """The package's update gives the bits of `oracles.adam_step_fresh`."""
    rng = np.random.default_rng(1)
    n = 6681
    flat = rng.standard_normal(n)
    m, v = np.zeros(n), np.zeros(n)
    state = AdamState.zeros(n)
    for step in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
        want, m, v = oracles.adam_step_fresh(flat, g, m, v, step, 1e-2)
        updated = adam_step(flat, g, state, 1e-2)
        assert state.step == step
        assert updated.tobytes() == want.tobytes()
        assert state.first_moment.tobytes() == m.tobytes()
        assert state.second_moment.tobytes() == v.tobytes()
        flat = updated


def test_adam_step_never_writes_params_flat():
    """The vector a step reads survives it, also when the update is non-finite."""
    rng = np.random.default_rng(2)
    flat = rng.standard_normal(6)
    kept = flat.copy()
    flat.flags.writeable = False
    state = AdamState.zeros(6)
    for g in (rng.standard_normal(6), np.full(6, np.inf)):
        with np.errstate(all="ignore"):
            updated = adam_step(flat, g, state, 1e-2)
        assert np.array_equal(flat, kept)
    assert not np.all(np.isfinite(updated))


def test_adam_is_deterministic():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(4) for _ in range(5)]

    def run():
        flat, state = np.zeros(4), AdamState.zeros(4)
        for g in grads:
            flat = adam_step(flat, g, state, lr=1e-2)
        return flat, state

    f1, s1 = run()
    f2, s2 = run()
    assert np.array_equal(f1, f2)
    assert s1.step == s2.step == 5
    assert np.array_equal(s1.first_moment, s2.first_moment)
    assert np.array_equal(s1.second_moment, s2.second_moment)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initial_parameters():
    problem = get_problem("logistic")
    config = TrainConfig(epochs=0, seed=5)
    params, history, stop = train(problem, config)
    layout = MlpLayout(output_dim=problem.invariant.output_dim)
    assert np.array_equal(params.to_flat(), init_mlp(layout, 5).to_flat())
    assert history.shape == (0, 3)
    assert stop is None
    assert run_cell("logistic", "invariant", config).status == "ok"


def test_training_reduces_the_loss():
    problem = get_problem("logistic")
    config = TrainConfig(epochs=150, n_collocation=40, seed=0)
    _, history, stop = train(problem, config)
    assert history.shape == (150, 3)
    assert history[-1, 2] < history[0, 2]
    assert stop is None
    report = run_cell("logistic", "invariant", config)
    assert report.status == "ok"
    assert report.mse < 1e-2


def test_history_columns_satisfy_total_identity():
    problem = get_problem("system")
    config = TrainConfig(epochs=20, n_collocation=30, seed=1, alpha_ic=2.5,
                         formulation="vanilla")
    _, history, _ = train(problem, config)
    assert np.array_equal(history[:, 2], history[:, 0] + 2.5 * history[:, 1])


def test_training_is_deterministic():
    problem = get_problem("oscillator")
    config = TrainConfig(epochs=40, n_collocation=30, seed=2)
    p1, h1, s1 = train(problem, config)
    p2, h2, s2 = train(problem, config)
    assert np.array_equal(p1.to_flat(), p2.to_flat())
    assert np.array_equal(h1, h2)
    assert s1 is None and s2 is None
    r1, r2 = (run_cell("oscillator", "invariant", config) for _ in range(2))
    assert r1.mse == r2.mse


def test_seeds_change_the_run():
    problem = get_problem("logistic")
    a, _, _ = train(problem, TrainConfig(epochs=5, n_collocation=20, seed=0))
    b, _, _ = train(problem, TrainConfig(epochs=5, n_collocation=20, seed=1))
    assert not np.array_equal(a.to_flat(), b.to_flat())


def test_exploding_run_is_reported_not_raised():
    problem = get_problem("logistic")
    config = TrainConfig(epochs=5, learning_rate=1e80, n_collocation=20,
                         seed=0, formulation="vanilla")
    params, history, stop = train(problem, config)
    assert "epoch" in stop
    assert history.shape[0] < config.epochs
    assert np.all(np.isfinite(params.to_flat()))
    report = run_cell("logistic", "vanilla", config)
    assert report.status == "diverged"
    assert report.message == stop


@pytest.mark.parametrize("name,kind", [("logistic", "invariant"), ("system", "vanilla")])
def test_non_finite_update_is_reported_silently_and_keeps_the_parameters(name, kind):
    """At lr 1e308 the first loss is finite but the first update overflows."""
    problem = get_problem(name)
    config = TrainConfig(epochs=3, learning_rate=1e308, seed=0, formulation=kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params, history, stop = train(problem, config)
        report = run_cell(name, kind, config)
    assert caught == []
    assert stop == "epoch 0: non-finite parameter update"
    assert report.status == "diverged"
    assert report.message == "epoch 0: non-finite parameter update"
    assert history.shape == (1, 3)
    initial = init_mlp(MlpLayout(output_dim=problem.formulation(kind).output_dim), 0)
    assert np.array_equal(params.to_flat(), initial.to_flat())


# ---------------------------------------------------------------------------
# one jet pass per cell
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["invariant", "vanilla"])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_train_is_bitwise_a_loop_of_loss_and_grad(name, kind):
    """train, on one reused pass and parameter vector, against fresh ones every epoch."""
    problem = get_problem(name)
    spec = problem.formulation(kind)
    layout = MlpLayout(output_dim=spec.output_dim)
    for n in (50, 200):
        config = TrainConfig(epochs=20, n_collocation=n, seed=0, formulation=kind,
                             alpha_ic=problem.alpha_ic)
        trained, history, _ = train(problem, config)
        points = sample_collocation(spec.interval, n, config.seed)
        flat = init_mlp(layout, config.seed).to_flat()
        state = AdamState.zeros(flat.size)
        want = []
        for _ in range(config.epochs):
            breakdown, gvec = loss_and_grad(ParamSet.from_flat(layout, flat), spec,
                                            points, problem.alpha_ic)
            want.append((breakdown.equation_loss, breakdown.ic_loss, breakdown.total))
            flat = adam_step(flat, gvec, state, config.learning_rate)
        assert np.array_equal(history, np.array(want))
        assert np.array_equal(trained.to_flat(), flat)


def test_loss_and_grad_leaves_no_cycle_behind(monkeypatch):
    """Without the cyclic collector, the pass's MlpJets dies with the call."""
    made = []

    class Recorded(MlpJets):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(training, "MlpJets", Recorded)
    problem = get_problem("schwarz")
    spec = problem.vanilla
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), 0)
    points = sample_collocation(spec.interval, 20, 0)
    gc.disable()
    try:
        _, gvec = loss_and_grad(params, spec, points)
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()
    assert np.all(np.isfinite(gvec))


@pytest.mark.parametrize("learning_rate", [1e-3, 1e80], ids=["ok", "diverged"])
def test_run_cell_evaluates_after_the_training_pass_is_freed(monkeypatch, learning_rate):
    """Without the cyclic collector, the pass that `train` built is gone by the
    time `run_cell` evaluates, also when the loss turned non-finite."""
    made, alive = [], []

    class Recorded(MlpJets):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    evaluate = harness.evaluate_params

    def spy(*args):
        alive.append([ref() is not None for ref in made])
        return evaluate(*args)

    monkeypatch.setattr(training, "MlpJets", Recorded)
    monkeypatch.setattr(harness, "evaluate_params", spy)
    config = TrainConfig(epochs=5, learning_rate=learning_rate, n_collocation=20)
    gc.disable()
    try:
        report = run_cell("logistic", "vanilla", config)
    finally:
        gc.enable()
    assert report.status == ("ok" if learning_rate < 1.0 else "diverged")
    assert alive == [[False]]


def test_returned_gradients_are_never_overwritten():
    problem = get_problem("logistic")
    spec = problem.invariant
    points = sample_collocation(spec.interval, 30, 0)
    layout = MlpLayout(output_dim=spec.output_dim)
    _, first = loss_and_grad(init_mlp(layout, 0), spec, points)
    kept = first.copy()
    _, second = loss_and_grad(init_mlp(layout, 1), spec, points)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_forward_rejects_parameters_of_another_layout():
    layout = MlpLayout(hidden_layers=1, hidden_width=4)
    x = np.linspace(0.0, 1.0, 5)
    net = MlpJets(layout, x, 1)
    net.forward(init_mlp(layout, 0))
    for other in (MlpLayout(hidden_layers=2, hidden_width=4),
                  MlpLayout(hidden_layers=1, hidden_width=5),
                  MlpLayout(hidden_layers=1, hidden_width=4, output_dim=2)):
        with pytest.raises(ValueError, match="layout"):
            net.forward(init_mlp(other, 0))


def test_forward_only_pass_refuses_param_grad():
    """Neither a pass without with_grad nor one before its first forward has
    layer jets to pull an adjoint back through."""
    layout = MlpLayout(hidden_layers=1, hidden_width=4)
    x = np.linspace(0.0, 1.0, 5)
    forward_only = MlpJets(layout, x, 1, with_grad=False)
    forward_only.forward(init_mlp(layout, 0))
    for net, fault in ((forward_only, "with_grad"),
                       (MlpJets(layout, x, 1), "no forward pass has run")):
        with pytest.raises(ValueError, match=fault):
            net.param_grad(np.ones(net.value.shape))


def _allocated(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order,limit,forward_limit", [(1, 2.2e6, 0.6e6),
                                                       (3, 3.9e6, 1.0e6)])
def test_workspace_footprint(order, limit, forward_limit):
    """A pass keeps two jets per hidden layer, plus what all layers share.

    The default layout at 200 points: the whole pass with its reverse
    arrays, and the forward-only pass of the loss functions.
    """
    layout = MlpLayout()
    points = np.linspace(0.0, 1.0, 200)
    assert _allocated(lambda: MlpJets(layout, points, order)) <= limit
    forward_only = _allocated(lambda: MlpJets(layout, points, order, with_grad=False))
    assert forward_only <= forward_limit


def test_forward_only_loss_builds_no_reverse_arrays():
    problem = get_problem("schwarz")
    spec = problem.vanilla
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), 0)
    points = sample_collocation(spec.interval, 200, 0)
    with_grad = _allocated(lambda: loss_and_grad(params, spec, points))
    assert _allocated(lambda: vanilla_loss(params, problem, points)) < 0.5 * with_grad


@pytest.mark.parametrize("name,kind", [("logistic", "invariant"), ("schwarz", "vanilla")])
def test_training_memory_does_not_grow_with_epochs(name, kind):
    """A 300-epoch cell stays far below the ~100 MB that per-epoch buffers reached."""
    problem = get_problem(name)
    config = TrainConfig(epochs=300, seed=0, formulation=kind, alpha_ic=problem.alpha_ic)
    tracemalloc.start()
    try:
        train(problem, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
