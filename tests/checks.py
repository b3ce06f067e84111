"""Seeded property checks shared by the module tests and the acceptance gate.

Each check returns its worst observed error (or an order estimate) so module
tests can assert a bound and the acceptance gate can print the measured value
next to the same bound.  All randomness comes from seeded generators, so
every function here is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from ipinn.autodiff import AdjointGraph
from ipinn.harness import SCHWARZ_MASK_HALF_WIDTH
from ipinn.network import JET_ORDER, MlpJets, MlpLayout, ParamSet, init_mlp
from ipinn.problems import REGISTRY, GroupElementSL2, get_problem, sl2_moving_frame
from ipinn.training import _gather_adjoints, _output_leaves

# ---------------------------------------------------------------------------
# network jets against finite differences
# ---------------------------------------------------------------------------


def jet_fd_worst(n_cases: int = 1000, seed: int = 0) -> float:
    """Worst relative error of `MlpJets` order-3 coefficients against the FD oracle.

    Each case draws a layout (1-5 hidden layers of width 3-40, 1-4 outputs),
    an init seed, uniform biases in [-1, 1] and a point t0 in [-1.5, 1.5],
    and compares every output's jet at t0 with finite-difference stencils of
    the plain numpy network in `oracles.tanh_mlp`.  The oracle is only trusted
    where it is self-consistent: cases where halving the stencil step moves
    the estimate by more than 1e-7 (relative) have unresolved truncation
    error in the oracle itself, not in the jets, and are resampled.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    attempts = 0
    while done < n_cases:
        attempts += 1
        if attempts > 4 * n_cases:
            raise RuntimeError("finite-difference oracle rejected too many cases")
        layout = MlpLayout(hidden_layers=int(rng.integers(1, 6)),
                           hidden_width=int(rng.integers(3, 41)),
                           output_dim=int(rng.integers(1, 5)))
        params = init_mlp(layout, seed=int(rng.integers(10_000)))
        for b in params.biases:
            b[:] = rng.uniform(-1.0, 1.0, b.size)
        t0 = float(rng.uniform(-1.5, 1.5))

        def f(s, _params=params):
            return oracles.tanh_mlp(_params.weights, _params.biases, s)

        coarse = oracles.fd_derivatives(f, t0, h=oracles.FD_STEP).T
        want = oracles.fd_derivatives(f, t0, h=0.5 * oracles.FD_STEP).T
        scale = np.maximum(1.0, np.abs(want))
        if float((np.abs(want - coarse) / scale).max()) > 1e-7:
            continue
        got = MlpJets(layout, [t0], JET_ORDER).forward(params)[:, :, 0].T
        worst = max(worst, float((np.abs(got - want) / scale).max()))
        done += 1
    return worst


# ---------------------------------------------------------------------------
# parameter gradients against directional finite differences
# ---------------------------------------------------------------------------


def param_grad_worst(n_networks: int = 100, seed: int = 0,
                     directions: int = 3) -> float:
    """Worst relative error of reverse-mode parameter gradients.

    Each random network feeds a loss mixing every output row and derivative
    order; the jet kernel's gradient is checked along random unit directions
    against a fourth-order finite difference of the forward pass.  Every
    network and direction is checked at each jet order 0..3, since training
    runs the kernel at the order its formulation reads.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_networks):
        layout = MlpLayout(hidden_layers=int(rng.integers(1, 4)),
                           hidden_width=int(rng.integers(3, 9)),
                           output_dim=int(rng.integers(1, 4)))
        params = init_mlp(layout, seed=int(rng.integers(10_000)))
        x = np.sort(rng.uniform(-1.0, 1.0, size=4))
        mix = rng.standard_normal((layout.output_dim, JET_ORDER + 1))
        flat = params.to_flat()
        units = []
        for _ in range(directions):
            v = rng.standard_normal(flat.size)
            units.append(v / np.linalg.norm(v))

        for order in range(JET_ORDER + 1):
            def build(flat, order=order):
                graph = AdjointGraph()
                net = MlpJets(layout, x, order)
                value = net.forward(ParamSet.from_flat(layout, flat))
                leaves = _output_leaves(graph, value)
                total = 0.0
                for row, jet in enumerate(leaves):
                    for k, u in enumerate(jet):
                        total = total + np.add.reduce(u.value * u.value) * mix[row, k]
                return graph, net, leaves, float(total)

            graph, net, leaves, _ = build(flat)
            graph.backward([(u, 2.0 * mix[row, k] * u.value)
                            for row, jet in enumerate(leaves) for k, u in enumerate(jet)])
            gvec = net.param_grad(_gather_adjoints(leaves, net.value_bar))

            def value(v, build=build):
                return build(v)[3]

            for v in units:
                want = oracles.directional_derivative(value, flat, v)
                rel = abs(float(gvec @ v) - want) / max(1.0, abs(want))
                worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# group action properties
# ---------------------------------------------------------------------------


def random_sl2(rng: np.random.Generator) -> GroupElementSL2:
    a = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
    b = float(rng.uniform(-0.8, 0.8))
    c = float(rng.uniform(-0.8, 0.8))
    return GroupElementSL2(a, b, c, (1.0 + b * c) / a)


def random_jet(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """A third-order jet (u, u_t, u_tt, u_ttt) with |u_t| >= 0.3."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return (float(rng.uniform(-2.0, 2.0)),
            sign * float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)))


def _admissible(g: GroupElementSL2, u: float) -> bool:
    """Keep the Mobius image well away from its singular locus."""
    return abs(g.c * u + g.d) > 0.2


def residual_values(spec, points: np.ndarray, jets) -> list[np.ndarray]:
    """`spec.residual` at `points`, its outputs read from constant tape leaves.

    jets[row][k] holds coefficient k of output row `row` at every point, as
    the network's output jets would.
    """
    graph = AdjointGraph()
    outs = [[graph.const(np.asarray(c, dtype=float)) for c in row] for row in jets]
    return [np.asarray(r.value) for r in spec.residual(points, outs)]


def schwarzian_invariance_worst(n: int = 100, seed: int = 0) -> float:
    """Worst change of the Schwarz vanilla residual that trains, on random jets
    z and their Mobius images: the residual is the Schwarzian minus a
    constant, so it must not move."""
    rng = np.random.default_rng(seed)
    jets, moved = [], []
    while len(jets) < n:
        g = random_sl2(rng)
        z = random_jet(rng)
        if not _admissible(g, z[0]):
            continue
        jets.append(z)
        moved.append(oracles.sl2_prolong(g, z))
    spec = get_problem("schwarz").vanilla
    points = np.zeros(n)
    before, = residual_values(spec, points, [np.array(jets).T])
    after, = residual_values(spec, points, [np.array(moved).T])
    return float(np.abs(after - before).max())


def frame_normalization_worst(n: int = 100, seed: int = 1) -> tuple[float, float]:
    """(worst cross-section residual, worst |det - 1|) over random jets."""
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_det = 0.0
    for _ in range(n):
        z = random_jet(rng)
        rho = sl2_moving_frame(*z[:3])
        moved = oracles.sl2_prolong(rho, z)
        sigma = math.copysign(1.0, z[1])
        worst_norm = max(worst_norm, abs(moved[0]),
                         abs(moved[1] - sigma), abs(moved[2]))
        worst_det = max(worst_det, abs(rho.det() - 1.0))
    return worst_norm, worst_det


def frame_equivariance_worst(n: int = 100, seed: int = 2) -> float:
    """rho(g.z) vs rho(z) g^{-1}, modulo the two-fold sign ambiguity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < n:
        g = random_sl2(rng)
        z = random_jet(rng)
        if not _admissible(g, z[0]):
            continue
        moved = oracles.sl2_prolong(g, z)
        left = oracles.sl2_matrix(sl2_moving_frame(*moved[:3]))
        base = oracles.sl2_matrix(sl2_moving_frame(*z[:3]))
        right = base @ oracles.sl2_matrix(g.inverse())
        diff = min(float(np.abs(left - right).max()),
                   float(np.abs(left + right).max()))
        worst = max(worst, diff)
        done += 1
    return worst


# ---------------------------------------------------------------------------
# the invariant residuals against the oracle right-hand sides
# ---------------------------------------------------------------------------

RESIDUAL_ORACLE_TOLERANCE = 1e-12


def residual_oracle_worst(n: int = 100, seed: int = 3,
                          rhs: dict | None = None) -> dict[str, float]:
    """Worst relative gap, per problem, between the invariant residual that
    trains and y' - rhs(t, y) of the oracle right-hand side.

    Every invariant formulation is first order, so its residual reads the
    values y and the derivatives y' of its outputs.  Both are drawn at random
    and independently at n random points of the formulation's interval, so
    the residual must equal y' - rhs(t, y) as an identity, not only along a
    solution.  This ties the oracle systems that the reconstruction and
    determinant checks integrate to the residuals that train.  rhs replaces
    entries of `oracles.INVARIANT_RHS` by problem name.
    """
    rhs = {**oracles.INVARIANT_RHS, **(rhs or {})}
    rng = np.random.default_rng(seed)
    out = {}
    for name in REGISTRY:
        spec = get_problem(name).invariant
        points = rng.uniform(*spec.interval, size=n)
        y = rng.uniform(-2.0, 2.0, size=(spec.output_dim, n))
        y_t = rng.uniform(-2.0, 2.0, size=(spec.output_dim, n))
        got = np.array(residual_values(spec, points, list(zip(y, y_t))))
        f = np.array([rhs[name](t, y[:, j]) for j, t in enumerate(points)]).T
        if got.shape != f.shape:
            raise ValueError(f"{name}: {len(got)} residuals for {len(f)} equations")
        scale = np.maximum(1.0, np.maximum(np.abs(y_t), np.abs(f)))
        out[name] = float((np.abs(got - (y_t - f)) / scale).max())
    return out


# ---------------------------------------------------------------------------
# integrated reconstruction properties
# ---------------------------------------------------------------------------


def ics_vector(spec) -> np.ndarray:
    """Initial state for a first-order formulation from its ic tuples."""
    y0 = np.zeros(spec.output_dim)
    for row, order, target in spec.ics:
        if order != 0:
            raise ValueError("first-order formulations pin values only")
        y0[row] = target
    return y0


def det_conservation_worst(n_steps: int = 20_000) -> float:
    """|ad - bc - 1| along the integrated frame-reconstruction system."""
    spec = get_problem("schwarz").invariant
    traj = oracles.rk4_solve(oracles.INVARIANT_RHS["schwarz"], ics_vector(spec),
                             spec.interval, n_steps)
    a, b, c, d = traj.states.T
    return float(np.abs(a * d - b * c - 1.0).max())


def reconstruction_errors(n_steps: int = 20_000) -> dict[str, float]:
    """Max |reconstructed - exact| per problem, integrating each invariant
    oracle system with RK4 and mapping it back through its reconstruction."""
    out = {}
    for name in REGISTRY:
        prob = get_problem(name)
        spec = prob.invariant
        traj = oracles.rk4_solve(oracles.INVARIANT_RHS[name], ics_vector(spec),
                                 spec.interval, n_steps)
        times, states = traj.times, traj.states
        if name == "schwarz":
            keep = np.abs(times - math.pi / 2.0) > SCHWARZ_MASK_HALF_WIDTH
            times, states = times[keep], states[keep]
        x, values = spec.reconstruct(times, states)
        out[name] = float(np.abs(values - prob.exact(x)).max())
    return out


def rk4_convergence_order() -> float:
    """Empirical order from endpoint errors on u' = u cos t, u(0) = 1."""
    exact = math.exp(math.sin(2.0))
    hs, errs = [], []
    for n in (40, 80, 160, 320):
        traj = oracles.rk4_solve(lambda t, y: y * math.cos(t), [1.0], (0.0, 2.0), n)
        hs.append(2.0 / n)
        errs.append(abs(float(traj.states[-1, 0]) - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
