"""Network construction, evaluation, and weight IO tests."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from ipinn.autodiff import (JET_ORDER, N_COEFFS, AdjointGraph, Jet3, jet_add, jet_elem,
                            jet_mul)
from ipinn.network import (
    MlpJets,
    MlpLayout,
    ParamSet,
    init_mlp,
    load_weights,
    mlp_forward,
    mlp_values,
    save_weights,
)


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


def test_network_jets_match_finite_differences():
    layout = MlpLayout(hidden_layers=3, hidden_width=10, output_dim=2)
    params = init_mlp(layout, seed=2)
    for t0 in (-8.0, -1.3, 0.0, 0.4, 7.5):
        jets = mlp_forward(params, Jet3.variable(t0))
        for row, jet in enumerate(jets):
            want = oracles.fd_derivatives(
                lambda s: float(mlp_values(params, [s])[row, 0]), t0)
            rel = np.abs(jet.as_array() - want) / np.maximum(1.0, np.abs(want))
            assert rel.max() < 1e-5


def test_forward_routes_agree():
    """Batched kernel, single-jet evaluation, and plain numpy all match."""
    layout = MlpLayout(hidden_layers=2, hidden_width=8, output_dim=3)
    params = init_mlp(layout, seed=3)
    x = np.linspace(-2.0, 2.0, 9)

    net = MlpJets(AdjointGraph(), params, x, JET_ORDER)
    values = mlp_values(params, x)
    assert values.shape == (3, 9)
    assert net.value.shape == (3, 9, N_COEFFS)
    for row in range(layout.output_dim):
        batched = net.value[row]
        assert np.abs(batched[:, 0] - values[row]).max() < 1e-14
        for i, t0 in enumerate(x):
            single = mlp_forward(params, Jet3.variable(float(t0)))[row]
            assert np.abs(batched[i] - single.as_array()).max() < 1e-12


def _scalar_jet_mlp(params: ParamSet, t0: float) -> list[Jet3]:
    """The same network built neuron by neuron from scalar jet arithmetic."""
    h = [Jet3.variable(t0)]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer = []
        for j in range(w.shape[0]):
            z = Jet3.constant(b[j])
            for k, hk in enumerate(h):
                z = jet_add(z, jet_mul(Jet3.constant(w[j, k]), hk))
            layer.append(jet_elem("tanh", z) if i < last else z)
        h = layer
    return h


@pytest.mark.parametrize("hidden_layers,hidden_width,output_dim",
                         [(0, 1, 1), (1, 4, 2), (3, 6, 1), (2, 9, 4)])
def test_kernel_jets_match_scalar_jet_network(hidden_layers, hidden_width,
                                              output_dim):
    """All four coefficients of the batched kernel against scalar Jet3 sums."""
    layout = MlpLayout(hidden_layers=hidden_layers, hidden_width=hidden_width,
                       output_dim=output_dim)
    params = init_mlp(layout, seed=hidden_layers + 10 * hidden_width)
    params.biases = [np.linspace(-0.3, 0.4, b.size) for b in params.biases]
    x = np.linspace(-2.5, 2.5, 7)
    net = MlpJets(AdjointGraph(), params, x, JET_ORDER)
    for i, t0 in enumerate(x):
        scalar = _scalar_jet_mlp(params, float(t0))
        for row in range(output_dim):
            want = scalar[row].as_array()
            got = net.value[row, i]
            scale = np.maximum(1.0, np.abs(want))
            assert (np.abs(got - want) / scale).max() < 1e-12


def _jets_and_grad(params: ParamSet, x: np.ndarray, order: int, reads: int):
    """Kernel coefficients and the gradient of a loss on d(0)..d(reads)."""
    graph = AdjointGraph()
    net = MlpJets(graph, params, x, order)
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

    Taken at the training shape (the default layout at 200 collocation
    points), so a formulation trains on the same numbers at its own order.
    """
    params = init_mlp(MlpLayout(output_dim=output_dim), seed=output_dim)
    x = np.sort(np.random.default_rng(output_dim).uniform(-1.0, 4.0, 200))
    for order in range(JET_ORDER + 1):
        full, full_grad = _jets_and_grad(params, x, JET_ORDER, order)
        value, grad = _jets_and_grad(params, x, order, order)
        assert value.shape == (output_dim, x.size, order + 1)
        assert np.array_equal(value, full[..., :order + 1])
        assert np.array_equal(grad, full_grad)
    assert np.array_equal(mlp_values(params, x), full[..., 0])


def test_output_jet_caches_extraction_nodes():
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=4), seed=0)
    graph = AdjointGraph()
    net = MlpJets(graph, params, np.array([0.0, 1.0]), 1)
    out = net.outputs[0]
    assert out.d(1) is out.d(1)
    n_nodes = len(graph.nodes)
    out.d(1)
    assert len(graph.nodes) == n_nodes
    assert np.array_equal(out.d(1).value, net.value[0, :, 1])


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


def test_paramset_validates_shapes():
    layout = MlpLayout(hidden_layers=1, hidden_width=3)
    with pytest.raises(ValueError):
        ParamSet(layout, [np.zeros((3, 1))], [np.zeros(3)])
    with pytest.raises(ValueError):
        ParamSet(layout, [np.zeros((3, 2)), np.zeros((1, 3))],
                 [np.zeros(3), np.zeros(1)])
