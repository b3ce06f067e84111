"""Scalar jet arithmetic and plain-tape reverse-mode tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks
import oracles
from ipinn.autodiff import (
    AdjointGraph,
    DomainError,
    Jet3,
    N_COEFFS,
    jet_add,
    jet_elem,
    jet_mul,
)
from ipinn.network import MlpJets, MlpLayout, ParamSet, init_mlp

# ---------------------------------------------------------------------------
# frozen scalar-jet values
# ---------------------------------------------------------------------------


def test_square_jet_at_two():
    t = Jet3.variable(2.0)
    assert jet_mul(t, t) == Jet3(4.0, 4.0, 2.0, 0.0)


def test_exp_jet_at_zero():
    got = jet_elem("exp", Jet3.variable(0.0))
    assert got == Jet3(1.0, 1.0, 1.0, 1.0)


def test_tanh_jet_at_zero():
    got = jet_elem("tanh", Jet3.variable(0.0))
    assert got == Jet3(0.0, 1.0, 0.0, -2.0)


def test_sin_jet_at_half_pi():
    got = jet_elem("sin", Jet3.variable(math.pi / 2.0)).as_array()
    assert np.abs(got - [1.0, 0.0, -1.0, 0.0]).max() < 1e-15


def test_product_rule_sin_cos():
    t0 = 0.7
    got = jet_mul(jet_elem("sin", Jet3.variable(t0)),
                  jet_elem("cos", Jet3.variable(t0)))
    s, c = math.sin(2.0 * t0), math.cos(2.0 * t0)
    want = np.array([0.5 * s, c, -2.0 * s, -4.0 * c])
    assert np.abs(got.as_array() - want).max() < 1e-14


def test_constant_jet_has_no_derivatives():
    assert Jet3.constant(3.0) == Jet3(3.0, 0.0, 0.0, 0.0)


def test_power_matches_repeated_multiplication():
    t = Jet3.variable(1.3)
    cubed = jet_elem("power", t, power=3.0)
    assert np.abs(cubed.as_array()
                  - jet_mul(jet_mul(t, t), t).as_array()).max() < 1e-12


def test_from_array_roundtrip_and_shape_guard():
    j = Jet3.from_array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(j.as_array(), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        Jet3.from_array([1.0, 2.0])


# ---------------------------------------------------------------------------
# jets against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_jets_match_finite_differences():
    assert checks.jet_fd_worst(n_cases=1000, seed=0) < 1e-5


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

coeffs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
jets = st.builds(Jet3, coeffs, coeffs, coeffs, coeffs)


@settings(deadline=None)
@given(jets, jets)
def test_jet_multiplication_commutes(a, b):
    left = jet_mul(a, b).as_array()
    right = jet_mul(b, a).as_array()
    scale = 1.0 + np.abs(left).max()
    assert np.abs(left - right).max() < 1e-14 * scale


@settings(deadline=None)
@given(jets, jets, jets)
def test_jet_multiplication_associates(a, b, c):
    left = jet_mul(jet_mul(a, b), c).as_array()
    right = jet_mul(a, jet_mul(b, c)).as_array()
    scale = 1.0 + np.abs(left).max()
    assert np.abs(left - right).max() < 1e-10 * scale


@settings(deadline=None)
@given(jets, jets, jets)
def test_jet_multiplication_distributes(a, b, c):
    left = jet_mul(a, jet_add(b, c)).as_array()
    right = jet_add(jet_mul(a, b), jet_mul(a, c)).as_array()
    scale = 1.0 + np.abs(left).max()
    assert np.abs(left - right).max() < 1e-10 * scale


@settings(deadline=None)
@given(st.builds(Jet3, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                 st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       st.builds(Jet3, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                 st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_exp_turns_sums_into_products(a, b):
    left = jet_elem("exp", jet_add(a, b)).as_array()
    right = jet_mul(jet_elem("exp", a), jet_elem("exp", b)).as_array()
    scale = 1.0 + np.abs(left).max()
    assert np.abs(left - right).max() < 1e-10 * scale


@settings(deadline=None)
@given(jets)
def test_sin_cos_identity(a):
    s = jet_elem("sin", a)
    c = jet_elem("cos", a)
    got = jet_add(jet_mul(s, s), jet_mul(c, c)).as_array()
    assert np.abs(got - [1.0, 0.0, 0.0, 0.0]).max() < 1e-10


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------


def _everything_graph(layout: MlpLayout, flat: np.ndarray, x: np.ndarray):
    """A loss on all four output orders touching every tape operation."""
    graph = AdjointGraph()
    net = MlpJets(graph, ParamSet.from_flat(layout, flat), x)
    total = None
    for out in net.outputs:
        u0, u1, u2, u3 = (out.d(k) for k in range(N_COEFFS))
        r = u3 / (2.5 + u1 * u1) - 1.5 * u2 ** 2 + (-u0).exp()
        r = r + (1.0 - u0) * 0.5 + 1.0 / (u0 * u0 + 2.0) + u1 ** 3
        r = r - graph.const(np.cos(x)) * u1
        term = graph.sum(r * r)
        total = term if total is None else total + term
    p0 = net.outputs[0].d(1).pick(0)
    total = total + p0 * p0 + graph.exp(graph.scale_shift(p0, 0.25, -0.5))
    return graph, net, total


def test_everything_graph_uses_every_tape_operation():
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    graph, _, _ = _everything_graph(layout, init_mlp(layout, seed=3).to_flat(),
                                    np.linspace(-1.0, 1.0, 5))
    ops = {node.op for node in graph.nodes}
    assert ops == {"const", "param", "add", "sub", "mul", "div", "scale_shift",
                   "exp", "pick", "sum"}
    shifts = [node.aux[1] for node in graph.nodes if node.op == "scale_shift"]
    assert -0.5 in shifts


def test_gradient_of_everything_graph_matches_fd():
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    flat = init_mlp(layout, seed=3).to_flat()
    x = np.linspace(-1.0, 1.0, 5)

    graph, net, loss = _everything_graph(layout, flat, x)
    graph.backward(loss)
    gvec = net.param_grad()
    assert math.isfinite(float(loss.value))

    def f(v):
        return float(_everything_graph(layout, v, x)[2].value)

    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(flat.size)
        v /= np.linalg.norm(v)
        want = oracles.directional_derivative(f, flat, v)
        assert abs(float(gvec @ v) - want) < 1e-6 * max(1.0, abs(want))


def test_parameter_gradients_match_finite_differences():
    assert checks.param_grad_worst(n_networks=100, seed=0) < 1e-4


def test_affine_gradient_is_exact_for_polynomial_loss():
    """loss = sum (w t + b)^2 has a closed-form gradient; match to roundoff."""
    layout = MlpLayout(hidden_layers=0, output_dim=1)
    t = np.array([-1.0, 0.5, 2.0])
    w0, b0 = 0.7, -0.3
    params = ParamSet(layout, [np.array([[w0]])], [np.array([b0])])

    graph = AdjointGraph()
    net = MlpJets(graph, params, t)
    u = net.outputs[0]
    loss = graph.sum(u.d(0) * u.d(0))
    graph.backward(loss)
    gvec = net.param_grad()

    r = w0 * t + b0
    assert abs(float(loss.value) - (r * r).sum()) < 1e-14
    want = np.array([2.0 * (r * t).sum(), 2.0 * r.sum()])
    assert np.abs(gvec - want).max() < 1e-13


def test_gradient_skips_unused_parameters():
    graph = AdjointGraph()
    used = graph.param(np.array(2.0))
    unused = graph.param(np.array(5.0))
    loss = used * used
    graph.backward(loss)
    assert float(loss.value) == 4.0
    assert float(used.adjoint) == 4.0
    assert unused.adjoint is None

    layout = MlpLayout(hidden_layers=1, hidden_width=3)
    net = MlpJets(graph, init_mlp(layout, seed=0), np.array([0.0, 1.0]))
    net.outputs[0].d(2)
    graph.backward(loss)
    assert np.array_equal(net.param_grad(), np.zeros(layout.flat_size()))


def test_forward_pass_is_deterministic():
    layout = MlpLayout(hidden_layers=2, hidden_width=5, output_dim=2)
    flat = init_mlp(layout, seed=9).to_flat()
    x = np.linspace(-1.0, 1.0, 5)
    _, _, l1 = _everything_graph(layout, flat, x)
    _, _, l2 = _everything_graph(layout, flat, x)
    assert float(l1.value) == float(l2.value)


# ---------------------------------------------------------------------------
# domain and usage errors
# ---------------------------------------------------------------------------


def test_ln_rejects_nonpositive_values():
    with pytest.raises(DomainError):
        jet_elem("ln", Jet3.variable(0.0))
    with pytest.raises(DomainError):
        jet_elem("ln", Jet3.variable(-1.0))


def test_reciprocal_rejects_zero():
    with pytest.raises(DomainError):
        jet_elem("reciprocal", Jet3.variable(0.0))


def test_power_domain_errors():
    with pytest.raises(DomainError):
        jet_elem("power", Jet3.variable(-1.0), power=0.5)
    with pytest.raises(DomainError):
        jet_elem("power", Jet3.variable(0.0), power=-2.0)


def test_unknown_elementary_function_rejected():
    with pytest.raises(ValueError):
        jet_elem("sinh", Jet3.variable(1.0))


def test_nodes_cannot_cross_graphs():
    g1, g2 = AdjointGraph(), AdjointGraph()
    a = g1.const(np.array([1.0]))
    b = g2.const(np.array([1.0]))
    with pytest.raises(ValueError):
        g1.add(a, b)
    with pytest.raises(ValueError):
        g2.backward(g1.sum(a))


def test_backward_requires_scalar_plain_loss():
    graph = AdjointGraph()
    vec = graph.param(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        graph.backward(vec * vec)


def test_extract_coefficient_range_checked():
    """An output's d(k) exists for k = 0..3 only."""
    params = init_mlp(MlpLayout(hidden_layers=1, hidden_width=4), seed=0)
    net = MlpJets(AdjointGraph(), params, np.array([1.0]))
    with pytest.raises(ValueError):
        net.outputs[0].d(N_COEFFS)
    with pytest.raises(ValueError):
        net.outputs[0].d(-1)


def test_integer_powers_via_operator():
    graph = AdjointGraph()
    t = graph.const(np.array([1.7, -0.5]))
    assert np.array_equal((t ** 3).value, t.value * t.value * t.value)
    with pytest.raises(ValueError):
        t ** 0.5
    with pytest.raises(ValueError):
        t ** 5
