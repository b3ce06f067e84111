"""Jet kernel values and plain-tape reverse-mode tests."""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest

import checks
import oracles
from ipinn.autodiff import AdjointGraph, Node
from ipinn.network import (JET_ORDER, MlpJets, MlpLayout, ParamSet, _kcompose, _kmul_t,
                           _tanh_table, init_mlp)
from ipinn.training import _gather_adjoints, _output_leaves

# ---------------------------------------------------------------------------
# frozen jet values
# ---------------------------------------------------------------------------


def test_tanh_jet_at_zero():
    """The jet kernel on the one-neuron network u = tanh(t), at t = 0."""
    layout = MlpLayout(hidden_layers=1, hidden_width=1)
    params = ParamSet(layout, [1.0, 0.0, 1.0, 0.0])  # w0, b0, w1, b1
    got = MlpJets(layout, [0.0], JET_ORDER).forward(params)[:, 0, 0]
    assert got.tolist() == [0.0, 1.0, 0.0, -2.0]


_TANH_ARGS = [v for a in (0.0, 1e-300, 0.5, 20.0, 400.0, math.inf)
              for v in (a, -a)] + [math.nan]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_tanh_table_is_bitwise_the_sign_form(count):
    """copysign(1 - s, x) gives the bits of sign(x) * (1 - s), but at x = -0.0.

    There the sign form loses the sign of zero (sign(-0.0) is +0.0) and
    copysign keeps it, so rows 0 and 2 become -0.0 and +0.0, the IEEE
    tanh(-0.0) and its second derivative; the values are still equal.
    """
    x = np.array(_TANH_ARGS)
    got = np.empty((count, x.size))
    _tanh_table(x, got)
    want = oracles.tanh_table_by_sign(x, count)
    negative_zero = (x == 0.0) & np.signbit(x)
    assert np.array_equal(got[:, ~negative_zero].view(np.uint64),
                          want[:, ~negative_zero].view(np.uint64))
    assert np.array_equal(got[:, negative_zero], want[:, negative_zero])
    assert np.signbit(got[0, negative_zero]).all()


_KERNEL_SPECIALS = (0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200,
                    math.inf, -math.inf, math.nan)


def _kernel_rows(rng, n: int) -> np.ndarray:
    """n random (3, 40) rows, with each special value at a few random entries."""
    rows = rng.standard_normal((n, 3, 40))
    flat = rows.reshape(-1)
    for value in _KERNEL_SPECIALS:
        flat[rng.choice(flat.size, size=4, replace=False)] = value
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jet_kernels_are_bitwise_the_stepwise_form(n):
    """`_kcompose` and `_kmul_t` do the floating-point operations of the
    step-by-step oracles, in the same order, so every bit agrees, even on
    signed zeros, subnormal products, overflow, infinities and nans."""
    rng = np.random.default_rng(n)
    f, a, ybar, b = (_kernel_rows(rng, n) for _ in range(4))
    with np.errstate(all="ignore"):
        for kernel, oracle, args in ((_kcompose, oracles.kcompose_stepwise, (f, a)),
                                     (_kmul_t, oracles.kmul_t_stepwise, (ybar, b))):
            got, want = np.full((2, n, 3, 40), 7.0)
            kernel(*args, got)
            oracle(*args, want)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# jets against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_jets_match_finite_differences():
    assert checks.jet_fd_worst(n_cases=1000, seed=0) < 1e-5


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------


def _everything_graph(layout: MlpLayout, flat: np.ndarray, x: np.ndarray):
    """Residuals on all four output orders touching every tape operation,
    and their loss sum r^2, reduced off the tape."""
    graph = AdjointGraph()
    net = MlpJets(layout, x, JET_ORDER)
    leaves = _output_leaves(graph, net.forward(ParamSet.from_flat(layout, flat)))
    residuals = []
    for u0, u1, u2, u3 in leaves:
        r = u3 / (2.5 + u1 * u1) - 1.5 * u2 ** 2 + (-u0).exp()
        r = r + (1.0 - u0) * 0.5 + 1.0 / (u0 * u0 + 2.0) + u1 ** 3
        residuals.append(r - graph.const(np.cos(x)) * u1)
    loss = sum(float(np.sum(r.value * r.value)) for r in residuals)
    return graph, net, leaves, residuals, loss


_NUMPY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a: -a,
    "exp": np.exp,
}


def test_everything_graph_uses_every_tape_operation():
    """Every op appears, and each op node holds the bits of the plain numpy
    expression of its args' values."""
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    graph, *_ = _everything_graph(layout, init_mlp(layout, seed=3).to_flat(),
                                  np.linspace(-1.0, 1.0, 5))
    ops = {node.op for node in graph.nodes}
    assert ops == {"const", "param", "add", "sub", "mul", "div", "neg", "exp"}
    for node in graph.nodes:
        if node.args:
            want = np.asarray(_NUMPY_OPS[node.op](*[a.value for a in node.args]))
            assert node.value.shape == want.shape
            assert np.array_equal(node.value.view(np.uint64), want.view(np.uint64))


def test_gradient_of_everything_graph_matches_fd():
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    flat = init_mlp(layout, seed=3).to_flat()
    x = np.linspace(-1.0, 1.0, 5)

    graph, net, leaves, residuals, loss = _everything_graph(layout, flat, x)
    graph.backward([(r, 2.0 * r.value) for r in residuals])
    gvec = net.param_grad(_gather_adjoints(leaves, net.value_bar))
    assert math.isfinite(loss)

    def f(v):
        return _everything_graph(layout, v, x)[4]

    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(flat.size)
        v /= np.linalg.norm(v)
        want = oracles.directional_derivative(f, flat, v)
        assert abs(float(gvec @ v) - want) < 1e-6 * max(1.0, abs(want))


def test_parameter_gradients_match_finite_differences():
    assert checks.param_grad_worst(n_networks=100, seed=0) < 1e-4


def test_affine_gradient_is_exact_for_polynomial_loss():
    """loss = sum (w t + b)^2 has the closed-form gradient 2 [sum r t, sum r],
    which the tape and the pull-back reproduce bit for bit."""
    layout = MlpLayout(hidden_layers=0, output_dim=1)
    t = np.array([-1.0, 0.5, 2.0])
    w0, b0 = 0.7, -0.3
    params = ParamSet(layout, [w0, b0])

    graph = AdjointGraph()
    net = MlpJets(layout, t, 0)
    leaves = _output_leaves(graph, net.forward(params))
    u0 = leaves[0][0]
    graph.backward([(u0, 2.0 * u0.value)])
    gvec = net.param_grad(_gather_adjoints(leaves, net.value_bar))

    r = w0 * t + b0
    assert abs(float(np.sum(u0.value * u0.value)) - (r * r).sum()) < 1e-14
    want = np.array([2.0 * (r * t).sum(), 2.0 * r.sum()])
    assert np.array_equal(gvec.view(np.uint64), want.view(np.uint64))


def test_gradient_skips_unused_parameters():
    graph = AdjointGraph()
    used = graph.param(np.array(2.0))
    unused = graph.param(np.array(5.0))
    loss = used * used
    graph.backward([(loss, np.ones(()))])
    assert float(loss.value) == 4.0
    assert float(used.adjoint) == 4.0
    assert unused.adjoint is None

    layout = MlpLayout(hidden_layers=1, hidden_width=3)
    net = MlpJets(layout, np.array([0.0, 1.0]), 2)
    leaves = _output_leaves(graph, net.forward(init_mlp(layout, seed=0)))
    graph.backward([(loss, np.ones(()))])
    assert all(leaf.adjoint is None for leaf in leaves[0])
    value_bar = _gather_adjoints(leaves, net.value_bar)
    assert np.array_equal(net.param_grad(value_bar), np.zeros(layout.flat_size()))


def test_forward_pass_is_deterministic():
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    flat = init_mlp(layout, seed=9).to_flat()
    x = np.linspace(-1.0, 1.0, 5)
    *_, l1 = _everything_graph(layout, flat, x)
    *_, l2 = _everything_graph(layout, flat, x)
    assert l1 == l2


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_nodes_cannot_cross_graphs():
    g1, g2 = AdjointGraph(), AdjointGraph()
    a = g1.const(np.array([1.0]))
    b = g2.const(np.array([1.0]))
    with pytest.raises(ValueError, match="different graphs"):
        a + b
    with pytest.raises(ValueError, match="different graphs"):
        b * a
    with pytest.raises(ValueError):
        g2.backward([(g1.param(np.array([1.0])), np.ones(1))])


def test_seed_of_another_shape_than_its_node_raises():
    graph = AdjointGraph()
    vec = graph.param(np.array([1.0, 2.0]))
    out = vec * vec
    for seed in (np.ones(()), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="adjoint of shape"):
            graph.backward([(out, seed)])


def test_extract_coefficient_range_checked():
    """A pass of order 0..3 carries, and the tape reads, coefficients 0..order only."""
    layout = MlpLayout(hidden_layers=1, hidden_width=4)
    for order in range(JET_ORDER + 1):
        net = MlpJets(layout, np.array([1.0]), order)
        value = net.forward(init_mlp(layout, seed=0))
        assert value.shape == (order + 1, 1, 1)
        assert len(_output_leaves(AdjointGraph(), value)[0]) == order + 1
    for order in (-1, JET_ORDER + 1):
        with pytest.raises(ValueError):
            MlpJets(layout, np.array([1.0]), order)


def test_broadcast_adjoint_is_an_error():
    """A gradient node meets only its own shape: a () param times a (3,) param fails."""
    graph = AdjointGraph()
    scalar = graph.param(np.array(2.0))
    vector = graph.param(np.array([1.0, 2.0, 3.0]))
    out = scalar * vector
    with pytest.raises(ValueError, match=r"shape \(3,\) for a node of shape \(\)"):
        graph.backward([(out, np.ones(3))])


def test_integer_powers_via_operator():
    graph = AdjointGraph()
    t = graph.const(np.array([1.7, -0.5]))
    assert np.array_equal((t ** 3).value, t.value * t.value * t.value)
    with pytest.raises(ValueError):
        t ** 0.5
    with pytest.raises(ValueError):
        t ** 5


@pytest.mark.parametrize("left, op", [
    (np.array([1.0, 2.0, 3.0]), "mul"),
    (np.array([1.0, 2.0, 3.0]), "add"),
    (np.array([1.0, 2.0, 3.0]), "sub"),
    (np.array([1.0, 2.0, 3.0]), "div"),
    (np.float64(2.0), "mul"),
], ids=["array*node", "array+node", "array-node", "array/node", "float64*node"])
def test_numpy_on_the_left_of_a_node_is_a_constant_leaf(left, op):
    """numpy defers to the node, which records `left` as a const leaf and then
    the op: the same tape, value and leaf adjoint as `graph.const(left) op node`."""
    apply = {"mul": operator.mul, "add": operator.add, "sub": operator.sub,
             "div": operator.truediv}[op]
    tapes = []
    for lift in (lambda graph, v: v, lambda graph, v: graph.const(v)):
        graph = AdjointGraph()
        node = graph.param(np.array([0.5, -1.5, 4.0]))
        out = apply(lift(graph, left), node)
        assert isinstance(out, Node)
        graph.backward([(out, out.value + out.value)])
        tapes.append(([n.op for n in graph.nodes], out.value, node.adjoint))
    (ops, value, adjoint), (want_ops, want_value, want_adjoint) = tapes
    assert ops[:3] == ["param", "const", op]
    assert ops == want_ops
    assert np.array_equal(value.view(np.uint64), want_value.view(np.uint64))
    assert np.array_equal(adjoint.view(np.uint64), want_adjoint.view(np.uint64))
