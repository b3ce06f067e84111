"""Integrator, error function, and exact-solution tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import checks
import oracles
from ipinn.problems import REGISTRY, DomainError, get_problem
from ipinn.reference import (
    OSCILLATOR_FORCING_EXPONENT,
    OSCILLATOR_INTERVAL,
    erf,
    exact_eval,
    oscillator_reference,
)
from oracles import oscillator_rhs, rk4_solve

# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


def test_rk4_exponential_growth():
    traj = rk4_solve(lambda t, y: y, [1.0], (0.0, 1.0), 1000)
    assert abs(float(traj.states[-1, 0]) - math.e) < 1e-12


def test_rk4_trajectory_shape_and_endpoints():
    traj = rk4_solve(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0],
                     (0.0, 2.0), 50)
    assert traj.times.shape == (51,)
    assert traj.states.shape == (51, 2)
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
    assert np.array_equal(traj.states[0], [1.0, 0.0])


def test_rk4_convergence_order():
    assert abs(checks.rk4_convergence_order() - 4.0) < 0.2


def test_rk4_input_validation():
    with pytest.raises(ValueError):
        rk4_solve(lambda t, y: y, [1.0], (0.0, 1.0), 0)
    with pytest.raises(ValueError):
        rk4_solve(lambda t, y: y, [1.0], (1.0, 1.0), 10)


# ---------------------------------------------------------------------------
# oscillator reference: the quadrature of the variation-of-parameters solution
# ---------------------------------------------------------------------------

GRID = np.linspace(0.0, 10.0, 500)


def test_oscillator_reference_is_a_value_per_time():
    """A time's value does not depend on which other times are asked."""
    grid = exact_eval("oscillator", GRID)[:, 0]
    for i in (0, 1, 137, 250, 498, 499):
        assert np.array_equal(exact_eval("oscillator", GRID[i]), grid[i])
    perm = np.random.default_rng(0).permutation(GRID.size)
    assert np.array_equal(oscillator_reference(GRID[perm]), oscillator_reference(GRID)[perm])


def test_oscillator_reference_edge_times():
    ends = exact_eval("oscillator", np.array([0.0, 10.0]))
    assert np.array_equal(exact_eval("oscillator", np.array([-5e-10, 10.0 + 5e-10])), ends)
    assert math.isnan(exact_eval("oscillator", math.nan))
    assert exact_eval("oscillator", np.array([])).shape == (0, 1)


def test_oscillator_reference_matches_dop853():
    """Against scipy's DOP853 at rtol = atol = 1e-13, on the grid and at t = 10 alone."""
    sol = scipy.integrate.solve_ivp(oscillator_rhs, OSCILLATOR_INTERVAL, [1.0, 1.0],
                                    method="DOP853", t_eval=GRID, rtol=1e-13, atol=1e-13)
    assert sol.success
    assert np.abs(oscillator_reference(GRID) - sol.y.T).max() < 1e-10
    assert np.abs(oscillator_reference(np.array([10.0]))[0] - sol.y[:, -1]).max() < 1e-10


def test_oscillator_reference_satisfies_its_equation():
    """u_t is the derivative of u, and u'' + u = sin(t^a) with u'' from u_t,
    by central differences away from t = 0, where sin(t^a) is not smooth."""
    a = OSCILLATOR_FORCING_EXPONENT
    for t0 in (0.5, 2.0, 4.7, 7.3, 9.5):
        u, u1, _, _ = oracles.fd_derivatives(lambda s: oscillator_reference([s])[0, 0], t0)
        v, v1, _, _ = oracles.fd_derivatives(lambda s: oscillator_reference([s])[0, 1], t0)
        assert abs(u1 - v) < 1e-8
        assert abs(v1 + u - math.sin(t0 ** a)) < 1e-8


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------


def test_erf_known_value_and_symmetry():
    assert abs(float(erf(1.0)) - 0.8427007929497149) < 1e-15
    x = np.linspace(0.0, 4.0, 17)
    assert np.abs(np.asarray(erf(-x) + erf(x), dtype=float)).max() < 1e-16


def test_erf_matches_scipy():
    x = np.linspace(-6.0, 6.0, 241)
    diff = np.asarray(erf(x), dtype=float) - scipy.special.erf(x)
    assert np.abs(diff).max() < 1e-14


def test_erf_preserves_shape():
    out = np.asarray(erf(np.zeros((3, 2))), dtype=float)
    assert out.shape == (3, 2)
    assert np.array_equal(out, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def test_exact_schwarz_is_tangent():
    t = np.array([0.3, 1.2, 2.8])
    assert np.abs(exact_eval("schwarz", t)[:, 0] - np.tan(t)).max() < 1e-15
    assert isinstance(exact_eval("schwarz", 0.3), float)
    with pytest.raises(DomainError):
        exact_eval("schwarz", math.pi / 2.0)


def test_exact_logistic_satisfies_its_equation():
    assert exact_eval("logistic", 0.0) == 0.5
    for t0 in (0.2, 1.0, 2.9):
        u, u1, _, _ = oracles.fd_derivatives(
            lambda s: exact_eval("logistic", s), t0)
        assert abs(u1 - u * (1.0 - u)) < 1e-10


def test_exact_exponential_value_and_quadrature():
    got = exact_eval("exponential", 2.0)
    assert abs(got - (-0.602285965657908)) < 1e-12
    c1 = math.exp(-5.0)  # u_t = log(t + c1) and u_t(0) = -5
    quad, _ = scipy.integrate.quad(lambda s: math.log(s + c1), 0.0, 2.0)
    assert abs(got - (quad + c1 * math.log(c1))) < 1e-7


def test_exact_oscillator_matches_independent_integrator():
    a = OSCILLATOR_FORCING_EXPONENT

    def rhs(t, y):
        return [y[1], math.sin(t ** a) - y[0]]

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 10.0), [1.0, 1.0],
                                    rtol=1e-11, atol=1e-11, dense_output=True)
    t = np.linspace(0.0, 10.0, 23)
    got = exact_eval("oscillator", t)[:, 0]
    assert np.abs(got - sol.sol(t)[0]).max() < 1e-7


def test_exact_oscillator_domain_guard():
    with pytest.raises(DomainError):
        exact_eval("oscillator", np.array([10.5]))
    with pytest.raises(DomainError):
        exact_eval("oscillator", -0.1)


def test_exact_system_satisfies_its_equations():
    got = exact_eval("system", 0.0)
    assert np.abs(got - [1.0, 1.0]).max() < 1e-14
    for t0 in (0.3, 1.1, 1.9):
        u_jets = oracles.fd_derivatives(
            lambda s: exact_eval("system", s)[0], t0, h=0.002)
        v_jets = oracles.fd_derivatives(
            lambda s: exact_eval("system", s)[1], t0, h=0.002)
        u, u1 = u_jets[0], u_jets[1]
        v, v1 = v_jets[0], v_jets[1]
        assert abs(u1 - (-u + (t0 + 1.0) * v)) < 1e-9
        assert abs(v1 - (u - t0 * v)) < 1e-9


def test_exact_exponential_satisfies_its_equation():
    # near t = 0 the solution's high derivatives blow up like (t + c1)^-k,
    # so the stencil needs a small step to stay converged
    for t0 in (0.1, 0.9, 1.7):
        _, u1, u2, _ = oracles.fd_derivatives(
            lambda s: exact_eval("exponential", s), t0, h=1e-3)
        assert abs(u2 - math.exp(-u1)) < 1e-7


def test_exact_eval_shapes_and_unknown_name():
    out = exact_eval("system", np.linspace(0.0, 2.0, 5))
    assert out.shape == (5, 2)
    single = exact_eval("system", 1.0)
    assert single.shape == (2,)
    with pytest.raises(ValueError):
        exact_eval("pendulum", 0.0)
    grid = np.linspace(0.0, 1.0, 7)
    for name in REGISTRY:
        assert np.array_equal(exact_eval(name, grid), get_problem(name).exact(grid))


@pytest.mark.parametrize("name", list(REGISTRY))
def test_exact_eval_rejects_arrays_of_two_or_more_dimensions(name):
    with pytest.raises(ValueError, match=r"not shape \(2, 3\)"):
        exact_eval(name, np.full((2, 3), 0.5))
