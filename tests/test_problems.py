"""Group action, moving frame, and problem-specification tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

import checks
import oracles
from ipinn.autodiff import JET_ORDER, AdjointGraph, DomainError, Jet3
from ipinn.network import MlpJets, MlpLayout, init_mlp
from ipinn.problems import (
    REGISTRY,
    GroupElementSL2,
    Jet3Point,
    get_problem,
    schwarzian,
    sl2_moving_frame,
    sl2_prolong,
)
from ipinn.training import _loss_nodes

# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def test_group_element_validates_determinant():
    GroupElementSL2(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GroupElementSL2(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        GroupElementSL2(1.0, 0.0, 0.0, 1.0 + 1e-6)


def test_group_inverse_and_compose():
    g = GroupElementSL2(2.0, 3.0, 1.0, 2.0)
    ginv = g.inverse()
    eye = g.compose(ginv).as_matrix()
    assert np.abs(eye - np.eye(2)).max() < 1e-12
    h = GroupElementSL2(1.0, -0.5, 0.0, 1.0)
    assert np.abs(g.compose(h).as_matrix()
                  - g.as_matrix() @ h.as_matrix()).max() < 1e-12
    assert GroupElementSL2.identity().as_matrix().tolist() == [[1.0, 0.0],
                                                               [0.0, 1.0]]


# ---------------------------------------------------------------------------
# prolonged action
# ---------------------------------------------------------------------------


def test_identity_fixes_jets():
    z = Jet3Point(0.3, Jet3(1.1, -0.7, 0.2, 0.9))
    moved = sl2_prolong(GroupElementSL2.identity(), z)
    assert moved == z


def test_prolongation_matches_transformed_function():
    """Prolonged jets equal derivatives of the pointwise-transformed curve."""
    # the transformed curve has a pole near t = 1.18; stay clear of it and
    # of the tangent's own asymptote so the stencil sees a smooth function
    g = GroupElementSL2(1.2, 0.4, -0.3, (1.0 + 0.4 * -0.3) / 1.2)
    for t0 in (0.3, 0.7, 2.0):
        z = Jet3Point(t0, Jet3.from_array(oracles.tan_jets(np.array(t0))))
        moved = sl2_prolong(g, z)

        def transformed(s):
            u = math.tan(s)
            return (g.a * u + g.b) / (g.c * u + g.d)

        want = oracles.fd_derivatives(transformed, t0, h=0.002)
        rel = np.abs(moved.u.as_array() - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() < 1e-7


def test_prolongation_is_a_group_action():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g1 = checks.random_sl2(rng)
        g2 = checks.random_sl2(rng)
        z = Jet3Point(0.0, checks.random_jet(rng))
        if not (checks._admissible(g1, z.u.c0)
                and checks._admissible(g2, sl2_prolong(g1, z).u.c0)
                and checks._admissible(g2.compose(g1), z.u.c0)):
            continue
        twice = sl2_prolong(g2, sl2_prolong(g1, z)).u.as_array()
        once = sl2_prolong(g2.compose(g1), z).u.as_array()
        scale = 1.0 + np.abs(once).max()
        assert np.abs(twice - once).max() < 1e-9 * scale


def test_prolongation_rejects_singular_points():
    g = GroupElementSL2(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        sl2_prolong(g, Jet3Point(0.0, Jet3(-1.0, 1.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------


def test_schwarzian_of_tangent_is_two():
    for t0 in (0.2, 0.8, 1.2, 2.5):
        jets = Jet3.from_array(oracles.tan_jets(np.array(t0)))
        assert abs(schwarzian(jets) - 2.0) < 1e-11


def test_schwarzian_of_mobius_curve_vanishes():
    def mobius(s):
        return (2.0 * s + 1.0) / (s + 3.0)

    for t0 in (0.0, 0.7, 2.0):
        jets = Jet3.from_array(oracles.fd_derivatives(mobius, t0, h=0.005))
        assert abs(schwarzian(jets)) < 1e-6


def test_schwarzian_is_group_invariant():
    assert checks.schwarzian_invariance_worst(n=100, seed=0) < 1e-8


def test_schwarzian_rejects_critical_points():
    with pytest.raises(DomainError):
        schwarzian(Jet3(1.0, 0.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# moving frame
# ---------------------------------------------------------------------------


def test_frame_sends_jets_to_cross_section():
    worst_norm, worst_det = checks.frame_normalization_worst(n=100, seed=1)
    assert worst_norm < 1e-10
    assert worst_det < 1e-12


def test_frame_is_equivariant():
    assert checks.frame_equivariance_worst(n=100, seed=2) < 1e-8


def test_frame_of_cross_section_point_is_identity():
    rho = sl2_moving_frame(0.0, 1.0, 0.0)
    assert np.array_equal(rho.as_matrix(), np.eye(2))


def test_frame_rejects_critical_points():
    with pytest.raises(DomainError):
        sl2_moving_frame(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# residual annihilation on closed-form solutions
#
# An OracleOutput stands in for a trained network row, exposing hand-derived
# jet coefficients; every residual must vanish on its own exact solution.
# ---------------------------------------------------------------------------


class OracleOutput:
    def __init__(self, graph: AdjointGraph, table: np.ndarray):
        self.graph = graph
        self.table = np.asarray(table, dtype=float)

    def d(self, k: int):
        return self.graph.const(self.table[:, k])


def _residual_max(spec, t: np.ndarray, tables: list[np.ndarray]) -> float:
    graph = AdjointGraph()
    outs = [OracleOutput(graph, table) for table in tables]
    residuals = spec.residual(graph, t, outs)
    assert len(residuals) == len(spec.ics) or spec.kind == "vanilla"
    return max(float(np.abs(r.value).max()) for r in residuals)


def _pad(columns: list[np.ndarray]) -> np.ndarray:
    """Stack jet columns, filling unused orders with nan to fail loudly."""
    n = columns[0].size
    table = np.full((n, 4), np.nan)
    for k, col in enumerate(columns):
        table[:, k] = col
    return table


def test_logistic_residuals_vanish_on_solution():
    prob = get_problem("logistic")
    t = np.linspace(0.0, math.pi, 40)
    jets = oracles.logistic_jets(t)
    assert _residual_max(prob.vanilla, t, [jets]) < 1e-12
    ones = _pad([np.ones_like(t), np.zeros_like(t)])
    assert _residual_max(prob.invariant, t, [ones]) == 0.0


def test_schwarz_residuals_vanish_on_solution():
    prob = get_problem("schwarz")
    t = np.linspace(0.1, math.pi - 0.1, 50)
    t = t[np.abs(t - math.pi / 2.0) > 0.2]
    assert _residual_max(prob.vanilla, t, [oracles.tan_jets(t)]) < 1e-9

    frame = [
        _pad([np.cos(t), -np.sin(t)]),
        _pad([np.sin(t), np.cos(t)]),
        _pad([-np.sin(t), -np.cos(t)]),
        _pad([np.cos(t), -np.sin(t)]),
    ]
    assert _residual_max(prob.invariant, t, frame) < 1e-15


def test_oscillator_residuals_vanish_on_solution():
    prob = get_problem("oscillator")
    t = np.linspace(0.0, 10.0, 60)
    f = np.sin(t ** prob.constants["forcing_exponent"])
    coeffs = [
        _pad([np.zeros_like(t), f * np.cos(t)]),
        _pad([np.zeros_like(t), -f * np.sin(t)]),
    ]
    assert _residual_max(prob.invariant, t, coeffs) == 0.0


def test_exponential_residuals_vanish_on_solution():
    prob = get_problem("exponential")
    t = np.linspace(0.0, 2.0, 40)
    assert _residual_max(prob.vanilla, t,
                         [oracles.exponential_solution_jets(t)]) < 1e-12

    h = np.linspace(0.0, prob.constants["h_final"], 40)
    decay = np.exp(-h)
    inv = _pad([(h - 4.0) * decay - 1.0, (5.0 - h) * decay])
    eps = _pad([h - 5.0, np.ones_like(h)])
    assert _residual_max(prob.invariant, h, [inv, eps]) < 1e-14


def test_system_residuals_vanish_on_solution():
    prob = get_problem("system")
    t = np.linspace(0.0, 2.0, 40)
    al = np.exp(-t - 0.5 * t * t)
    al1 = -(1.0 + t) * al
    be = (prob.constants["gauss_scale"]
          * scipy.special.erf((t + 1.0) / math.sqrt(2.0))
          + prob.constants["drift"])

    u = al + t * be
    u1 = al1 + be + t * al
    v, v1 = be, al
    assert _residual_max(prob.vanilla, t,
                         [_pad([u, u1]), _pad([v, v1])]) < 1e-13
    assert _residual_max(prob.invariant, t,
                         [_pad([al, al1]), _pad([be, al])]) < 1e-13


# ---------------------------------------------------------------------------
# integrated reconstruction
# ---------------------------------------------------------------------------


def test_frame_determinant_is_conserved_along_reconstruction():
    assert checks.det_conservation_worst() < 1e-9


def test_reconstructions_reproduce_exact_solutions():
    errors = checks.reconstruction_errors()
    assert set(errors) == set(REGISTRY)
    for name, err in errors.items():
        assert err < 1e-6, f"{name}: {err}"


def test_exponential_horizontal_coordinate_is_monotonic():
    spec = get_problem("exponential").invariant
    h = np.linspace(*spec.interval, 200)
    t, _ = spec.reconstruct(h, spec.exact_outputs(h))
    assert np.all(np.diff(t) > 0.0)
    assert abs(t[0]) < 1e-12
    assert abs(t[-1] - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# specification plumbing
# ---------------------------------------------------------------------------


def test_registry_contents_and_lookup():
    assert list(REGISTRY) == ["schwarz", "logistic", "oscillator",
                              "exponential", "system"]
    for name, prob in REGISTRY.items():
        assert prob.name == name
        assert get_problem(name) is prob
    with pytest.raises(ValueError):
        get_problem("pendulum")


def test_formulation_lookup():
    prob = get_problem("logistic")
    assert prob.formulation("vanilla") is prob.vanilla
    assert prob.formulation("invariant") is prob.invariant
    with pytest.raises(ValueError):
        prob.formulation("hybrid")


def test_intervals_and_initial_conditions():
    logistic = get_problem("logistic")
    assert logistic.vanilla.interval == (0.0, math.pi)
    assert logistic.vanilla.ics == ((0, 0, 0.5),)
    assert logistic.invariant.ics == ((0, 0, 1.0),)

    schwarz = get_problem("schwarz")
    assert schwarz.vanilla.ics == ((0, 0, 0.0), (0, 1, 1.0), (0, 2, 0.0))
    assert schwarz.invariant.output_dim == 4

    oscillator = get_problem("oscillator")
    assert oscillator.vanilla.interval == (0.0, 10.0)
    assert oscillator.vanilla.ics == ((0, 0, 1.0), (0, 1, 1.0))

    exponential = get_problem("exponential")
    assert exponential.vanilla.interval == (0.0, 2.0)
    assert exponential.invariant.x_name == "H"
    assert exponential.invariant.interval[1] == pytest.approx(
        math.log(1.0 + 2.0 * math.exp(5.0)))

    system = get_problem("system")
    assert system.n_components == 2
    assert system.alpha_ic == 10.0
    for name in ("schwarz", "logistic", "oscillator", "exponential"):
        assert get_problem(name).alpha_ic == 1.0


@pytest.mark.parametrize("kind", ["invariant", "vanilla"])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_declared_order_is_the_highest_derivative_read(name, kind):
    """Record the coefficients the loss asks an order-3 kernel for."""
    spec = get_problem(name).formulation(kind)
    points = np.linspace(spec.interval[0], spec.interval[1], 20)
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), 0)
    net = MlpJets(AdjointGraph(), params, points, JET_ORDER)
    requested = []
    leaf = net.leaf
    net.leaf = lambda row, k: requested.append(k) or leaf(row, k)
    with np.errstate(all="ignore"):
        _loss_nodes(net.graph, points, net.outputs, spec, 1.0, False)
    assert spec.order == max(requested)
    if kind == "invariant":
        assert spec.order == 1


def test_vanilla_reconstruct_is_identity():
    t = np.linspace(0.0, 1.0, 5)
    outputs = np.arange(10.0).reshape(5, 2)
    x, u = get_problem("system").vanilla.reconstruct(t, outputs)
    assert x is t and u is outputs
