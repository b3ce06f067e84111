"""Network construction, evaluation, and weight IO tests."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import oracles
from ipinn.autodiff import AdjointGraph
from ipinn.network import (
    JET_ORDER,
    MlpJets,
    MlpLayout,
    ParamSet,
    init_mlp,
    load_weights,
    mlp_values,
    save_weights,
)
from ipinn.problems import REGISTRY, get_problem
from ipinn.training import (_evaluate, _gather_adjoints, _output_leaves, loss_and_grad,
                            sample_collocation)


def test_default_layout_flat_size():
    assert MlpLayout().flat_size() == 6681
    assert MlpLayout(output_dim=4).flat_size() == 6804


def test_layout_dims():
    assert MlpLayout(output_dim=2).dims() == [1, 40, 40, 40, 40, 40, 2]
    assert MlpLayout(hidden_layers=0, output_dim=3).dims() == [1, 3]


@pytest.mark.parametrize("sizes, fault", [
    (dict(input_dim=2), "input_dim must be 1"),
    (dict(hidden_layers=-1), "hidden_layers must be at least 0"),
    (dict(hidden_width=0), "hidden_width must be at least 1"),
    (dict(hidden_layers=0, hidden_width=0), "hidden_width must be at least 1"),
    (dict(output_dim=0), "output_dim must be at least 1"),
    (dict(hidden_layers=True), "hidden_layers must be an int, got bool"),
    (dict(hidden_width=2.5), "hidden_width must be an int, got float"),
    (dict(output_dim=1.0), "output_dim must be an int, got float"),
])
def test_layout_refuses_sizes_that_build_no_usable_network(sizes, fault):
    with pytest.raises(ValueError, match=fault):
        MlpLayout(**sizes)


def test_init_is_deterministic_per_seed():
    layout = MlpLayout(output_dim=2)
    a = init_mlp(layout, seed=42).to_flat()
    b = init_mlp(layout, seed=42).to_flat()
    c = init_mlp(layout, seed=43).to_flat()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_bounds_and_zero_biases():
    """init_mlp's vector is, layer by layer, the seed's Glorot draws and then
    zero biases, for the default layout and a small one."""
    small = MlpLayout(hidden_layers=2, hidden_width=7, output_dim=3)
    for layout, seed in ((MlpLayout(), 0), (small, 5)):
        rng = np.random.default_rng(seed)
        expected = []
        for (out_d, in_d), (b_d,) in layout.layer_shapes():
            bound = np.sqrt(6.0 / (in_d + out_d))
            w = rng.uniform(-bound, bound, size=(out_d, in_d))
            assert np.abs(w).max() <= bound
            expected += [w.ravel(), np.zeros(b_d)]
        assert init_mlp(layout, seed).flat.tobytes() == np.concatenate(expected).tobytes()


def test_flat_roundtrip():
    layout = MlpLayout(hidden_layers=2, hidden_width=6, output_dim=2)
    params = init_mlp(layout, seed=1)
    again = ParamSet.from_flat(layout, params.to_flat())
    for w1, w2 in zip(params.weights, again.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(params.biases, again.biases):
        assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        ParamSet.from_flat(layout, np.zeros(layout.flat_size() + 1))


def _point_jets(params: ParamSet, t0: float) -> np.ndarray:
    """(output_dim, 4) order-3 jets of the kernel at the single point t0."""
    return MlpJets(params.layout, [t0], JET_ORDER).forward(params)[:, :, 0].T


def test_network_jets_match_finite_differences():
    layout = MlpLayout(hidden_layers=3, hidden_width=10, output_dim=2)
    params = init_mlp(layout, seed=2)
    for t0 in (-8.0, -1.3, 0.0, 0.4, 7.5):
        jets = _point_jets(params, t0)
        for row, jet in enumerate(jets):
            want = oracles.fd_derivatives(
                lambda s: float(mlp_values(params, [s])[row, 0]), t0)
            rel = np.abs(jet - want) / np.maximum(1.0, np.abs(want))
            assert rel.max() < 1e-5


def test_forward_routes_agree():
    """Batched kernel, single-point kernel, order-0 values and plain numpy all match."""
    layout = MlpLayout(hidden_layers=2, hidden_width=8, output_dim=3)
    params = init_mlp(layout, seed=3)
    x = np.linspace(-2.0, 2.0, 9)

    jets = MlpJets(layout, x, JET_ORDER).forward(params)
    values = mlp_values(params, x)
    assert values.shape == (3, 9)
    assert jets.shape == (JET_ORDER + 1, 3, 9)
    for i, t0 in enumerate(x):
        single = _point_jets(params, float(t0))
        plain = oracles.tanh_mlp(params.weights, params.biases, float(t0))
        assert np.abs(jets[:, :, i].T - single).max() < 1e-12
        assert np.abs(jets[0, :, i] - values[:, i]).max() < 1e-14
        assert np.abs(values[:, i] - plain).max() < 1e-14


@pytest.mark.parametrize("hidden_layers,hidden_width,output_dim",
                         [(0, 1, 1), (1, 4, 2), (3, 6, 1), (2, 9, 4)])
def test_kernel_jets_match_scalar_jet_network(hidden_layers, hidden_width,
                                              output_dim):
    """All four coefficients of the batched kernel against the scalar tanh-jet oracle."""
    layout = MlpLayout(hidden_layers=hidden_layers, hidden_width=hidden_width,
                       output_dim=output_dim)
    params = init_mlp(layout, seed=hidden_layers + 10 * hidden_width)
    for b in params.biases:
        b[:] = np.linspace(-0.3, 0.4, b.size)
    x = np.linspace(-2.5, 2.5, 7)
    value = MlpJets(layout, x, JET_ORDER).forward(params)
    for i, t0 in enumerate(x):
        scalar = oracles.tanh_mlp_jets(params.weights, params.biases, float(t0))
        for row in range(output_dim):
            want = np.array(scalar[row])
            got = value[:, row, i]
            scale = np.maximum(1.0, np.abs(want))
            assert (np.abs(got - want) / scale).max() < 1e-12


def _jets_and_grad(params: ParamSet, x: np.ndarray, order: int, reads: int):
    """Kernel coefficients and the gradient of sum u^2 over coefficients 0..reads."""
    graph = AdjointGraph()
    net = MlpJets(params.layout, x, order)
    leaves = _output_leaves(graph, net.forward(params))
    graph.backward([(u, u.value + u.value) for jet in leaves for u in jet[:reads + 1]])
    return net.value, net.param_grad(_gather_adjoints(leaves, net.value_bar))


@pytest.mark.parametrize("output_dim", [1, 2, 4])
def test_truncated_kernel_matches_order3_kernel(output_dim):
    """Each order gives bitwise the leading coefficients and the gradient of order 3.

    A formulation therefore trains on the same numbers at its own order.
    """
    params = init_mlp(MlpLayout(output_dim=output_dim), seed=output_dim)
    x = np.sort(np.random.default_rng(output_dim).uniform(-1.0, 4.0, 200))
    for order in range(JET_ORDER + 1):
        full, full_grad = _jets_and_grad(params, x, JET_ORDER, order)
        value, grad = _jets_and_grad(params, x, order, order)
        assert value.shape == (order + 1, output_dim, x.size)
        assert np.array_equal(value, full[:order + 1])
        assert np.array_equal(grad, full_grad)
    assert np.array_equal(mlp_values(params, x), full[0])


def _formulation_pass(spec, alpha_ic: float, params: ParamSet, points: np.ndarray,
                      order: int):
    """The training loss breakdown and gradient of one formulation, on jets of `order`."""
    return _evaluate(MlpJets(params.layout, points, order), params, spec, alpha_ic)


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name, problem in REGISTRY.items()
    for kind in ("invariant", "vanilla")
    if problem.formulation(kind).order < JET_ORDER])
def test_formulation_loss_is_order_independent(name, kind):
    """Every pair below order 3 trains on the bits of an order-3 pass, at any batch."""
    problem = get_problem(name)
    spec = problem.formulation(kind)
    for n in (2, 7, 50, 200, 501):
        for seed in (0, 1):
            params = init_mlp(MlpLayout(output_dim=spec.output_dim), seed)
            points = sample_collocation(spec.interval, n, seed)
            loss, grad = _formulation_pass(spec, problem.alpha_ic, params, points,
                                           spec.order)
            full_loss, full_grad = _formulation_pass(spec, problem.alpha_ic, params,
                                                     points, JET_ORDER)
            assert loss == full_loss, (n, seed)
            assert np.array_equal(grad, full_grad), (n, seed)


def test_evaluate_hands_the_network_the_adjoint_of_its_outputs():
    """Logistic invariant: loss = sum u_t^2 + alpha (u(t0) - 1)^2, so the adjoint
    of the output jets is 2 u_t on coefficient 1 and 2 alpha (u(t0) - 1) at
    (0, t0); the tape's gradient is param_grad of exactly that."""
    spec = get_problem("logistic").invariant
    params = init_mlp(MlpLayout(output_dim=1), seed=4)
    points = sample_collocation(spec.interval, 30, seed=4)
    alpha = 1.0
    _, gvec = loss_and_grad(params, spec, points, alpha)
    net = MlpJets(params.layout, points, spec.order)
    value = net.forward(params)
    value_bar = np.zeros(value.shape)
    value_bar[1, 0] = 2.0 * value[1, 0]
    value_bar[0, 0, 0] = 2.0 * alpha * (value[0, 0, 0] - spec.ics[0][2])
    assert np.array_equal(net.param_grad(value_bar), gvec)


def test_param_grad_is_the_transpose_of_forward():
    """Without the tape: at each order, param_grad(value_bar) @ v against a
    central difference of sum(value_bar * forward(params + h v)), and
    value_bar is only read."""
    layout = MlpLayout(hidden_layers=2, hidden_width=6, output_dim=3)
    rng = np.random.default_rng(7)
    params = init_mlp(layout, seed=7)
    for b in params.biases:
        b[:] = rng.uniform(-1.0, 1.0, b.size)
    x = np.sort(rng.uniform(-1.0, 1.0, 5))
    for order in range(JET_ORDER + 1):
        net = MlpJets(layout, x, order)
        value_bar = rng.standard_normal(net.value.shape)
        kept = value_bar.copy()
        net.forward(params)
        grad = net.param_grad(value_bar).copy()
        assert np.array_equal(value_bar, kept)

        def f(flat, net=net, value_bar=value_bar):
            return float(np.sum(value_bar * net.forward(ParamSet.from_flat(layout, flat))))

        for _ in range(3):
            v = rng.standard_normal(layout.flat_size())
            v /= np.linalg.norm(v)
            want = oracles.directional_derivative(f, params.flat, v)
            assert abs(float(grad @ v) - want) < 1e-6 * max(1.0, abs(want)), order
        with pytest.raises(ValueError, match="shape"):
            net.param_grad(value_bar[:, :1])


def test_weight_io_roundtrip(tmp_path):
    layout = MlpLayout(hidden_layers=2, hidden_width=6, output_dim=2)
    params = init_mlp(layout, seed=17)
    path = tmp_path / "weights.bin"
    save_weights(path, params, seed=17)
    loaded, seed = load_weights(path)
    assert seed == 17
    assert loaded.layout == layout
    assert np.array_equal(loaded.to_flat(), params.to_flat())


def test_weight_io_preserves_unknown_seed(tmp_path):
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=3), seed=0)
    path = tmp_path / "weights.bin"
    save_weights(path, params)
    _, seed = load_weights(path)
    assert seed is None


def test_weight_header_bytes(tmp_path):
    """The header line, byte for byte: the layout fields with sorted keys, then the seed."""
    params = init_mlp(MlpLayout(output_dim=2), seed=7)
    path = tmp_path / "w.bin"
    for seed, spelled in ((7, "7"), (None, "null")):
        save_weights(path, params, seed=seed)
        header, body = path.read_bytes().split(b"\n", 1)
        assert header == ('{"layout": {"hidden_layers": 5, "hidden_width": 40, '
                          '"input_dim": 1, "output_dim": 2}, "seed": ' + spelled + '}').encode()
        assert len(body) == 8 * params.layout.flat_size()


@pytest.mark.parametrize("seed", [-1, True, 2.5, np.int64(3), "0"])
def test_save_weights_refuses_a_seed_it_could_not_load(tmp_path, seed):
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=3), seed=0)
    path = tmp_path / "weights.bin"
    fault = (f"at least 0, got {seed!r}" if type(seed) is int
             else f"an int, got {type(seed).__name__} {seed!r}")
    with pytest.raises(ValueError, match=re.escape(f"seed must be {fault}")):
        save_weights(path, params, seed=seed)
    assert not path.exists()
    save_weights(path, params, seed=0)
    with pytest.raises(ValueError):
        save_weights(path, params, seed=seed)
    assert load_weights(path)[1] == 0


def _weight_file_parts(tmp_path):
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=3), seed=0)
    path = tmp_path / "weights.bin"
    save_weights(path, params, seed=0)
    header, body = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), body


def _with_layout(header, **changes):
    layout = {k: v for k, v in header["layout"].items() if k not in changes}
    layout.update({k: v for k, v in changes.items() if v is not None})
    return {**header, "layout": layout}


def _encode(header):
    return json.dumps(header).encode("utf-8") + b"\n"


@pytest.mark.parametrize("corrupt, fault", [
    (lambda h, b: _encode(h) + b[:-3], "body holds"),
    (lambda h, b: _encode(h) + b[:-8], "body holds"),
    (lambda h, b: _encode(h) + b + b[:8], "body holds"),
    (lambda h, b: b, "no JSON header line"),
    (lambda h, b: _encode({"seed": 0}) + b, "'layout' and 'seed'"),
    (lambda h, b: _encode(_with_layout(h, output_dim=None)) + b, "layout needs"),
    (lambda h, b: _encode(_with_layout(h, depth=3)) + b, "layout needs"),
    (lambda h, b: _encode(_with_layout(h, hidden_width="3")) + b,
     "hidden_width must be an int, got str '3'"),
    (lambda h, b: _encode(_with_layout(h, hidden_layers=-1)) + b,
     "hidden_layers must be at least 0, got -1"),
    (lambda h, b: _encode(_with_layout(h, hidden_layers=True)) + b,
     "hidden_layers must be an int, got bool True"),
    (lambda h, b: _encode(_with_layout(h, hidden_layers=2.5)) + b,
     "hidden_layers must be an int, got float 2.5"),
    (lambda h, b: _encode(_with_layout(h, input_dim=2)) + b, "input_dim must be 1"),
    (lambda h, b: _encode(_with_layout(h, hidden_width=0)) + b, "hidden_width must be at least 1"),
    (lambda h, b: _encode(_with_layout(h, output_dim=0)) + b, "output_dim must be at least 1"),
    (lambda h, b: _encode({**h, "seed": "abc"}) + b, "seed must be an int, got str 'abc'"),
    (lambda h, b: _encode({**h, "seed": -1}) + b, "seed must be at least 0, got -1"),
    (lambda h, b: b"", "empty weights file"),
], ids=["truncated-body", "one-value-short", "one-value-extra", "no-header-line",
        "no-layout", "missing-layout-key", "unknown-layout-key", "non-integer-size",
        "negative-depth", "boolean-depth", "fractional-depth", "two-inputs", "zero-width",
        "no-outputs", "string-seed", "negative-seed", "empty-file"])
def test_load_weights_names_file_and_fault(tmp_path, corrupt, fault):
    path, header, body = _weight_file_parts(tmp_path)
    path.write_bytes(corrupt(header, body))
    with pytest.raises(ValueError) as info:
        load_weights(path)
    assert str(path) in str(info.value)
    assert fault in str(info.value)


def test_paramset_is_one_flat_vector():
    """weights and biases are views of flat; none of the three can be rebound."""
    layout = MlpLayout(hidden_layers=1, hidden_width=3, output_dim=2)
    params = init_mlp(layout, seed=0)
    params.weights[1][1, 2] = 5.0
    params.biases[1][:] = [6.0, 7.0]
    assert params.flat[6 + 5] == 5.0  # after layer 0's 3 weights and 3 biases
    assert params.flat[-2:].tolist() == [6.0, 7.0]
    for name in ("flat", "weights", "biases"):
        with pytest.raises(AttributeError):
            setattr(params, name, getattr(params, name))
    again, copy = ParamSet.from_flat(layout, params.flat), params.to_flat()
    params.flat[0] = 9.0
    assert again.flat[0] == copy[0] != 9.0


def test_paramset_validates_shapes():
    """The one constructor takes a flat vector of exactly flat_size() floats."""
    layout = MlpLayout(hidden_layers=1, hidden_width=3)  # 3 + 3 + 3 + 1 values
    for flat in (np.zeros(9), np.zeros(11), np.zeros((2, 5)), [np.zeros(10)]):
        with pytest.raises(ValueError, match=r"does not fit layout \(10 values expected\)"):
            ParamSet(layout, flat)
