"""Group action, moving frame, and problem-specification tests."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

import checks
import oracles
from ipinn import reference
from ipinn.autodiff import AdjointGraph
from ipinn.network import JET_ORDER, MlpJets, MlpLayout, init_mlp
from ipinn.problems import (REGISTRY, DomainError, FormulationSpec, GroupElementSL2,
                            get_problem, sl2_moving_frame)
from ipinn.training import _output_leaves
from oracles import schwarzian, sl2_compose, sl2_matrix, sl2_prolong

IDENTITY = GroupElementSL2(1.0, 0.0, 0.0, 1.0)

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
    eye = sl2_matrix(sl2_compose(g, ginv))
    assert np.abs(eye - np.eye(2)).max() < 1e-12
    h = GroupElementSL2(1.0, -0.5, 0.0, 1.0)
    assert np.abs(sl2_matrix(sl2_compose(g, h))
                  - sl2_matrix(g) @ sl2_matrix(h)).max() < 1e-12
    assert sl2_matrix(IDENTITY).tolist() == [[1.0, 0.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# prolonged action
# ---------------------------------------------------------------------------


def test_identity_fixes_jets():
    z = (1.1, -0.7, 0.2, 0.9)
    moved = sl2_prolong(IDENTITY, z)
    assert moved == z


def test_prolongation_matches_transformed_function():
    """Prolonged jets equal derivatives of the pointwise-transformed curve."""
    # the transformed curve has a pole near t = 1.18; stay clear of it and
    # of the tangent's own asymptote so the stencil sees a smooth function
    g = GroupElementSL2(1.2, 0.4, -0.3, (1.0 + 0.4 * -0.3) / 1.2)
    for t0 in (0.3, 0.7, 2.0):
        moved = sl2_prolong(g, oracles.tan_jets(np.array(t0)))

        def transformed(s):
            u = math.tan(s)
            return (g.a * u + g.b) / (g.c * u + g.d)

        want = oracles.fd_derivatives(transformed, t0, h=0.002)
        rel = np.abs(np.array(moved) - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() < 1e-7


def test_prolongation_is_a_group_action():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g1 = checks.random_sl2(rng)
        g2 = checks.random_sl2(rng)
        z = checks.random_jet(rng)
        if not (checks._admissible(g1, z[0])
                and checks._admissible(g2, sl2_prolong(g1, z)[0])
                and checks._admissible(sl2_compose(g2, g1), z[0])):
            continue
        twice = np.array(sl2_prolong(g2, sl2_prolong(g1, z)))
        once = np.array(sl2_prolong(sl2_compose(g2, g1), z))
        scale = 1.0 + np.abs(once).max()
        assert np.abs(twice - once).max() < 1e-9 * scale


def test_prolongation_rejects_singular_points():
    g = GroupElementSL2(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        sl2_prolong(g, (-1.0, 1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Schwarzian derivative
# ---------------------------------------------------------------------------


def test_schwarzian_of_tangent_is_two():
    for t0 in (0.2, 0.8, 1.2, 2.5):
        assert abs(schwarzian(oracles.tan_jets(np.array(t0))) - 2.0) < 1e-11


def test_schwarzian_of_mobius_curve_vanishes():
    def mobius(s):
        return (2.0 * s + 1.0) / (s + 3.0)

    for t0 in (0.0, 0.7, 2.0):
        assert abs(schwarzian(oracles.fd_derivatives(mobius, t0, h=0.005))) < 1e-6


def test_schwarzian_is_group_invariant():
    assert checks.schwarzian_invariance_worst(n=100, seed=0) < 1e-8


def test_schwarz_vanilla_residual_is_the_schwarzian_minus_two():
    rng = np.random.default_rng(4)
    jets = [checks.random_jet(rng) for _ in range(100)]
    spec = get_problem("schwarz").vanilla
    got, = checks.residual_values(spec, np.zeros(len(jets)), [np.array(jets).T])
    want = np.array([schwarzian(z) - 2.0 for z in jets])
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_schwarzian_rejects_critical_points():
    with pytest.raises(ZeroDivisionError):
        schwarzian((1.0, 0.0, 1.0, 1.0))


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
    assert np.array_equal(sl2_matrix(rho), np.eye(2))


def _schwarz_frame(t, jets):
    frame = sl2_moving_frame(*jets[0]).inverse()
    return frame.a, frame.b, frame.c, frame.d


# Each problem's frame, the inverse of its `reconstruct`: the invariant
# outputs at time t from the jets (u, u_t, ...) of the vanilla outputs there.
FRAMES = {
    "schwarz": _schwarz_frame,
    "logistic": lambda t, jets: ((1.0 / jets[0][0] - 1.0) * math.exp(t),),
    "oscillator": lambda t, jets: (jets[0][0] * math.sin(t) + jets[0][1] * math.cos(t),
                                   jets[0][0] * math.cos(t) - jets[0][1] * math.sin(t)),
    "exponential": lambda t, jets: (jets[0][0] * math.exp(-jets[0][1]), jets[0][1]),
    "system": lambda t, jets: (jets[0][0] - t * jets[1][0], jets[1][0]),
}


def _initial_jets(spec) -> list[list[float]]:
    """Each output row's initial jet (u, u_t, ...), read from the ICs."""
    jets = [[] for _ in range(spec.output_dim)]
    for row, k, value in spec.ics:
        assert k == len(jets[row])
        jets[row].append(value)
    return jets


@pytest.mark.parametrize("name", list(REGISTRY))
def test_invariant_ics_are_the_frame_of_the_vanilla_initial_state(name):
    prob = get_problem(name)
    start, end = prob.vanilla.interval
    frame = FRAMES[name](start, _initial_jets(prob.vanilla))
    ics = prob.invariant.ics
    assert ics == tuple((row, 0, value) for row, value in enumerate(frame))
    if name == "schwarz":
        assert ics == ((0, 0, 1.0), (1, 0, 0.0), (2, 0, 0.0), (3, 0, 1.0))
        assert all(math.copysign(1.0, value) == 1.0 for _, _, value in ics)
    if name == "exponential":
        # t = e^eps (1 - e^{-H}) with eps = eps(0) + H, solved for H at t = end
        assert prob.invariant.interval == (0.0, math.log(1.0 + end * math.exp(-frame[1])))


def test_frame_rejects_critical_points():
    with pytest.raises(DomainError):
        sl2_moving_frame(1.0, 0.0, 1.0)
    for jet in ((math.nan, 1.0, 0.0), (0.0, math.nan, 0.0), (0.0, 1.0, math.nan),
                (math.inf, 1.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 1.0, math.inf)):
        with pytest.raises(DomainError, match="non-finite"):
            sl2_moving_frame(*jet)


# ---------------------------------------------------------------------------
# residual annihilation on closed-form solutions
#
# Constant leaves of hand-derived jet coefficients stand in for the network
# outputs; every residual must vanish on its own exact solution.
# ---------------------------------------------------------------------------


def _residual_max(spec, t: np.ndarray, tables: list[np.ndarray]) -> float:
    residuals = checks.residual_values(spec, t, [table.T for table in tables])
    assert spec.order > 1 or len(residuals) == len(spec.ics)
    return max(float(np.abs(r).max()) for r in residuals)


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
    f = np.sin(t ** reference.OSCILLATOR_FORCING_EXPONENT)
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

    h = np.linspace(0.0, prob.invariant.interval[1], 40)
    decay = np.exp(-h)
    inv = _pad([(h - 4.0) * decay - 1.0, (5.0 - h) * decay])
    eps = _pad([h - 5.0, np.ones_like(h)])
    assert _residual_max(prob.invariant, h, [inv, eps]) < 1e-14


def test_system_residuals_vanish_on_solution():
    prob = get_problem("system")
    t = np.linspace(0.0, 2.0, 40)
    al = np.exp(-t - 0.5 * t * t)
    al1 = -(1.0 + t) * al
    be = oracles.SYSTEM_C * scipy.special.erf((t + 1.0) / math.sqrt(2.0)) + oracles.SYSTEM_K

    u = al + t * be
    u1 = al1 + be + t * al
    v, v1 = be, al
    assert _residual_max(prob.vanilla, t,
                         [_pad([u, u1]), _pad([v, v1])]) < 1e-13
    assert _residual_max(prob.invariant, t,
                         [_pad([al, al1]), _pad([be, al])]) < 1e-13


# ---------------------------------------------------------------------------
# invariant residuals against the oracle right-hand sides
# ---------------------------------------------------------------------------


def test_invariant_residuals_are_the_oracle_systems():
    worst = checks.residual_oracle_worst(n=100, seed=3)
    assert set(worst) == set(REGISTRY)
    for name, err in worst.items():
        assert err < checks.RESIDUAL_ORACLE_TOLERANCE, f"{name}: {err}"


def _flipped_oscillator_rhs(t, y):
    f = math.sin(t ** reference.OSCILLATOR_FORCING_EXPONENT)
    return np.array([f * math.cos(t), f * math.sin(t)])


# One sign flipped or one term dropped.  Logistic's right-hand side is 0,
# which has neither, so its mutant puts back the term u (1 - u) that the
# invariant form removes.
WRONG_RHS = {
    "schwarz": lambda t, y: np.array([y[1], y[0], -y[3], y[2]]),
    "logistic": lambda t, y: y * (1.0 - y),
    "oscillator": _flipped_oscillator_rhs,
    "exponential": lambda h, y: np.array([math.exp(-h) - 1.0, 1.0]),
    "system": lambda t, y: np.array([-y[0], y[0]]),
}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_residual_oracle_check_catches_a_wrong_rhs(name):
    worst = checks.residual_oracle_worst(n=100, seed=3, rhs={name: WRONG_RHS[name]})
    assert worst[name] > checks.RESIDUAL_ORACLE_TOLERANCE
    assert all(err < checks.RESIDUAL_ORACLE_TOLERANCE
               for other, err in worst.items() if other != name)


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


@pytest.mark.parametrize("name", list(oracles.INVARIANT_EXACT))
def test_reconstruct_maps_exact_invariant_outputs_to_the_exact_solution(name):
    prob = get_problem(name)
    spec = prob.invariant
    x = np.linspace(*spec.interval, 200)
    x = x[np.abs(x - math.pi / 2.0) > 0.05] if name == "schwarz" else x
    t, u = spec.reconstruct(x, oracles.INVARIANT_EXACT[name](x))
    exact = prob.exact(t)
    assert np.abs(u - exact).max() < 1e-14 * max(1.0, np.abs(exact).max())


def test_exponential_horizontal_coordinate_is_monotonic():
    spec = get_problem("exponential").invariant
    h = np.linspace(*spec.interval, 200)
    t, _ = spec.reconstruct(h, oracles.INVARIANT_EXACT["exponential"](h))
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
    assert system.exact(np.linspace(0.0, 2.0, 3)).shape == (3, 2)
    assert system.alpha_ic == 10.0
    for name in ("schwarz", "logistic", "oscillator", "exponential"):
        assert get_problem(name).alpha_ic == 1.0


# The exact solution's jet at t = 0, one row per output.
EXACT_INITIAL_JETS = {
    "schwarz": lambda: [oracles.tan_jets(np.array(0.0))],
    "logistic": lambda: [oracles.logistic_jets(np.array(0.0))],
    "oscillator": lambda: [reference.oscillator_reference(np.zeros(1))[0]],
    "exponential": lambda: [oracles.exponential_solution_jets(np.array(0.0))],
    "system": lambda: get_problem("system").exact(np.array([0.0])).T,
}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_invariant_ics_reconstruct_the_vanilla_initial_values(name):
    """Every vanilla IC, derivatives included, is the exact solution's initial
    jet, and the invariant formulation's value ICs, as outputs at its interval
    start, map back to the vanilla interval start and the vanilla value ICs."""
    prob = get_problem(name)
    assert prob.vanilla.interval[0] == 0.0
    exact_jets = EXACT_INITIAL_JETS[name]()
    for row, k, value in prob.vanilla.ics:
        np.testing.assert_allclose(value, exact_jets[row][k], rtol=1e-14)
    outputs = np.full((1, prob.invariant.output_dim), np.nan)
    for row, order, value in prob.invariant.ics:
        if order == 0:
            outputs[0, row] = value
    assert not np.isnan(outputs).any()
    x, u = prob.invariant.reconstruct(np.array([prob.invariant.interval[0]]), outputs)
    start = prob.vanilla.interval[0]
    assert x.tolist() == [start]
    vanilla = np.full(prob.vanilla.output_dim, np.nan)
    for row, order, value in prob.vanilla.ics:
        if order == 0:
            vanilla[row] = value
    np.testing.assert_allclose(u[0], vanilla, rtol=1e-14)
    np.testing.assert_allclose(u, prob.exact(np.array([start])), rtol=1e-14)


@pytest.mark.parametrize("kind", ["invariant", "vanilla"])
@pytest.mark.parametrize("name", list(REGISTRY))
def test_declared_order_is_the_highest_derivative_read(name, kind):
    """Record the coefficients the residuals and the ICs ask an order-3 kernel for."""
    spec = get_problem(name).formulation(kind)
    points = np.linspace(spec.interval[0], spec.interval[1], 20)
    params = init_mlp(MlpLayout(output_dim=spec.output_dim), 0)
    requested = []

    class Recorded(list):
        def __getitem__(self, k):
            requested.append(k)
            return super().__getitem__(k)

    graph = AdjointGraph()
    value = MlpJets(params.layout, points, JET_ORDER).forward(params)
    leaves = [Recorded(jet) for jet in _output_leaves(graph, value)]
    with np.errstate(all="ignore"):
        spec.residual(points, leaves)
    requested += [k for _, k, _ in spec.ics]
    assert spec.order == max(requested)
    if kind == "invariant":
        assert spec.order == 1


# ---------------------------------------------------------------------------
# output_dim and order, worked out from the residual and the ICs
# ---------------------------------------------------------------------------


def _oscillator_as_system(t, outs):
    """u_tt + u = sin(t^0.99) as the first-order system u_t = v, v_t = sin(t^0.99) - u."""
    u, v = outs
    return [u[1] - v[0], v[1] + u[0] - np.sin(t ** 0.99)]


def test_fields_are_the_stated_ones():
    """Only the interval, the residual and the ICs must be given."""
    init = [f for f in dataclasses.fields(FormulationSpec) if f.init]
    assert [f.name for f in init] == ["interval", "residual", "ics", "reconstruct", "x_name"]
    assert [f.name for f in init if f.default is dataclasses.MISSING] == [
        "interval", "residual", "ics"]
    with pytest.raises(TypeError):
        FormulationSpec(interval=(0.0, 1.0), residual=_oscillator_as_system,
                        ics=((0, 0, 1.0), (1, 0, 1.0)), order=1)


@pytest.mark.parametrize("residual, ics, output_dim, order", [
    (_oscillator_as_system, ((0, 0, 1.0), (1, 0, 1.0)), 2, 1),
    (lambda t, outs: [outs[0][2] + outs[0][0]], ((0, 0, 1.0),), 1, 2),
    (lambda t, outs: [outs[0][1] - outs[0][0]], ((0, 0, 1.0), (0, 3, 0.0)), 1, 3),
    (lambda t, outs: [(-outs[2][0]).exp() / outs[0][1]], ((2, 0, 1.0), (0, 0, 0.5)), 3, 1),
], ids=["first-order-system", "reads-second-derivative", "ics-name-third-derivative",
        "highest-ic-row"])
def test_output_dim_and_order_are_worked_out(residual, ics, output_dim, order):
    spec = FormulationSpec(interval=(0.0, 10.0), residual=residual, ics=ics)
    assert (spec.output_dim, spec.order) == (output_dim, order)
    assert spec.x_name == "t"
    t, outputs = np.linspace(0.0, 1.0, 3), np.ones((3, output_dim))
    x, u = spec.reconstruct(t, outputs)
    assert x is t and u is outputs


def test_replace_works_the_order_out_again():
    first = FormulationSpec(interval=(0.0, 1.0), residual=lambda t, outs: [outs[0][1]],
                            ics=((0, 0, 1.0),))
    third = dataclasses.replace(first, residual=lambda t, outs: [outs[0][3] - t * outs[0][0]])
    assert (first.order, third.order) == (1, 3)
    assert dataclasses.replace(third, ics=((0, 0, 1.0), (1, 0, 2.0))).output_dim == 2


@pytest.mark.parametrize("residual, ics, rows", [
    (lambda t, outs: [outs[0][1] - outs[1][0]], ((0, 0, 1.0),), 1),
    (lambda t, outs: [outs[0][JET_ORDER + 1]], ((0, 0, 1.0),), 1),
    (lambda t, outs: [outs[0][1]], (), 0),
], ids=["row-without-ic", "past-jet-order", "no-ics"])
def test_residual_reading_past_the_leaves_raises_at_construction(residual, ics, rows):
    with pytest.raises(ValueError, match=f"reads past the {rows} output rows"):
        FormulationSpec(interval=(0.0, 1.0), residual=residual, ics=ics)


def test_vanilla_reconstruct_is_identity():
    t = np.linspace(0.0, 1.0, 5)
    outputs = np.arange(10.0).reshape(5, 2)
    x, u = get_problem("system").vanilla.reconstruct(t, outputs)
    assert x is t and u is outputs
