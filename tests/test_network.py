"""Network construction, evaluation, and weight IO tests."""

from __future__ import annotations

import json

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
from ipinn.training import _loss_nodes, sample_collocation


def test_default_layout_flat_size():
    assert MlpLayout().flat_size() == 6681
    assert MlpLayout(output_dim=4).flat_size() == 6804


def test_layout_dims():
    assert MlpLayout(output_dim=2).dims() == [1, 40, 40, 40, 40, 40, 2]
    assert MlpLayout(hidden_layers=0, output_dim=3).dims() == [1, 3]


def test_init_is_deterministic_per_seed():
    layout = MlpLayout(output_dim=2)
    a = init_mlp(layout, seed=42).to_flat()
    b = init_mlp(layout, seed=42).to_flat()
    c = init_mlp(layout, seed=43).to_flat()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_bounds_and_zero_biases():
    layout = MlpLayout(hidden_layers=2, hidden_width=7, output_dim=3)
    params = init_mlp(layout, seed=0)
    for (out_d, in_d), w in zip((s[0] for s in layout.layer_shapes()),
                                params.weights):
        bound = np.sqrt(6.0 / (in_d + out_d))
        assert np.abs(w).max() <= bound
    for b in params.biases:
        assert np.array_equal(b, np.zeros_like(b))


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
    params.biases = [np.linspace(-0.3, 0.4, b.size) for b in params.biases]
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
    """Kernel coefficients and the gradient of a loss on d(0)..d(reads)."""
    graph = AdjointGraph()
    net = MlpJets(params.layout, x, order)
    net.forward(params, graph)
    total = None
    for out in net.outputs:
        for k in range(reads + 1):
            term = graph.sum(out.d(k) * out.d(k))
            total = term if total is None else total + term
    graph.backward(total)
    return net.value, net.param_grad()


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
    """The training loss and gradient of one formulation, on jets of `order`."""
    graph = AdjointGraph()
    with np.errstate(all="ignore"):
        net = MlpJets(params.layout, points, order)
        net.forward(params, graph)
        total, *_ = _loss_nodes(graph, points, net.outputs, spec, alpha_ic, False)
        graph.backward(total)
        return float(total.value), net.param_grad()


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


def test_output_jet_caches_extraction_nodes():
    layout = MlpLayout(hidden_layers=1, hidden_width=4)
    graph = AdjointGraph()
    net = MlpJets(layout, np.array([0.0, 1.0]), 1)
    net.forward(init_mlp(layout, seed=0), graph)
    out = net.outputs[0]
    assert out.d(1) is out.d(1)
    n_nodes = len(graph.nodes)
    out.d(1)
    assert len(graph.nodes) == n_nodes
    assert np.array_equal(out.d(1).value, net.value[1, 0])


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
    (lambda h, b: _encode(_with_layout(h, hidden_width="3")) + b, "non-negative"),
    (lambda h, b: b"", "empty weights file"),
], ids=["truncated-body", "one-value-short", "one-value-extra", "no-header-line",
        "no-layout", "missing-layout-key", "unknown-layout-key", "non-integer-size",
        "empty-file"])
def test_load_weights_names_file_and_fault(tmp_path, corrupt, fault):
    path, header, body = _weight_file_parts(tmp_path)
    path.write_bytes(corrupt(header, body))
    with pytest.raises(ValueError) as info:
        load_weights(path)
    assert str(path) in str(info.value)
    assert fault in str(info.value)


def test_paramset_validates_shapes():
    layout = MlpLayout(hidden_layers=1, hidden_width=3)
    with pytest.raises(ValueError):
        ParamSet(layout, [np.zeros((3, 1))], [np.zeros(3)])
    with pytest.raises(ValueError):
        ParamSet(layout, [np.zeros((3, 2)), np.zeros((1, 3))],
                 [np.zeros(3), np.zeros(1)])
