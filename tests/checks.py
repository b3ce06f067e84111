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
from ipinn.autodiff import (JET_ORDER, N_COEFFS, AdjointGraph, Jet3, jet_add, jet_elem,
                            jet_mul)
from ipinn.harness import SCHWARZ_MASK_HALF_WIDTH
from ipinn.network import MlpJets, MlpLayout, ParamSet, init_mlp
from ipinn.problems import (
    REGISTRY,
    GroupElementSL2,
    Jet3Point,
    get_problem,
    schwarzian,
    sl2_moving_frame,
    sl2_prolong,
)
from ipinn.reference import rk4_solve

# ---------------------------------------------------------------------------
# expression trees evaluated with the package's scalar jets
# ---------------------------------------------------------------------------


def eval_tree_jet(tree, t0: float) -> Jet3:
    """Evaluate an oracle expression tree with scalar jet arithmetic."""
    op = tree[0]
    if op == "t":
        return Jet3.variable(t0)
    if op == "const":
        return Jet3.constant(tree[1])
    if op in ("add", "sub", "mul", "divshift"):
        a = eval_tree_jet(tree[1], t0)
        b = eval_tree_jet(tree[2], t0)
        if op == "add":
            return jet_add(a, b)
        if op == "sub":
            return jet_add(a, jet_mul(Jet3.constant(-1.0), b))
        if op == "mul":
            return jet_mul(a, b)
        shifted = jet_add(Jet3.constant(2.5), jet_elem("cos", b))
        return jet_mul(a, jet_elem("reciprocal", shifted))
    if op == "powshift":
        inner = eval_tree_jet(tree[2], t0)
        shifted = jet_add(Jet3.constant(2.5), jet_elem("sin", inner))
        return jet_elem("power", shifted, power=tree[1])
    a = eval_tree_jet(tree[1], t0)
    if op in ("sin", "cos", "tanh"):
        return jet_elem(op, a)
    if op == "expsin":
        return jet_elem("exp", jet_elem("sin", a))
    if op == "lnshift":
        return jet_elem("ln", jet_add(Jet3.constant(2.5), jet_elem("sin", a)))
    if op == "recipshift":
        return jet_elem("reciprocal", jet_add(Jet3.constant(2.5), jet_elem("sin", a)))
    if op == "square":
        return jet_mul(a, a)
    raise ValueError(f"unknown op {op!r}")


def jet_fd_worst(n_cases: int = 1000, seed: int = 0) -> float:
    """Worst relative error of jet coefficients against the FD oracle.

    The oracle is only trusted where it is self-consistent: cases where
    halving the stencil step moves the estimate by more than 1e-7 (relative)
    have unresolved truncation error in the oracle itself, not in the jets,
    and are resampled.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    attempts = 0
    while done < n_cases:
        attempts += 1
        if attempts > 4 * n_cases:
            raise RuntimeError("finite-difference oracle rejected too many cases")
        tree = oracles.random_expression(rng, depth=3)
        t0 = float(rng.uniform(-1.5, 1.5))

        def f(s, _tree=tree):
            return oracles.eval_scalar(_tree, s)

        coarse = oracles.fd_derivatives(f, t0, h=oracles.FD_STEP)
        want = oracles.fd_derivatives(f, t0, h=0.5 * oracles.FD_STEP)
        scale = np.maximum(1.0, np.abs(want))
        if float((np.abs(want - coarse) / scale).max()) > 1e-7:
            continue
        got = eval_tree_jet(tree, t0).as_array()
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
        mix = rng.standard_normal((layout.output_dim, N_COEFFS))
        flat = params.to_flat()
        units = []
        for _ in range(directions):
            v = rng.standard_normal(flat.size)
            units.append(v / np.linalg.norm(v))

        for order in range(JET_ORDER + 1):
            def build(flat, order=order):
                graph = AdjointGraph()
                net = MlpJets(graph, ParamSet.from_flat(layout, flat), x, order)
                total = None
                for row, out in enumerate(net.outputs):
                    for k in range(order + 1):
                        term = graph.sum(out.d(k) * out.d(k))
                        term = graph.scale_shift(term, float(mix[row, k]), 0.0)
                        total = term if total is None else total + term
                return graph, net, total

            graph, net, loss = build(flat)
            graph.backward(loss)
            gvec = net.param_grad()

            def value(v, build=build):
                return float(build(v)[2].value)

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


def random_jet(rng: np.random.Generator) -> Jet3:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return Jet3(float(rng.uniform(-2.0, 2.0)),
                sign * float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(-2.0, 2.0)),
                float(rng.uniform(-2.0, 2.0)))


def _admissible(g: GroupElementSL2, u: float) -> bool:
    """Keep the Mobius image well away from its singular locus."""
    return abs(g.c * u + g.d) > 0.2


def schwarzian_invariance_worst(n: int = 100, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < n:
        g = random_sl2(rng)
        z = random_jet(rng)
        if not _admissible(g, z.c0):
            continue
        moved = sl2_prolong(g, Jet3Point(0.0, z))
        worst = max(worst, abs(schwarzian(moved.u) - schwarzian(z)))
        done += 1
    return worst


def frame_normalization_worst(n: int = 100, seed: int = 1) -> tuple[float, float]:
    """(worst cross-section residual, worst |det - 1|) over random jets."""
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_det = 0.0
    for _ in range(n):
        z = random_jet(rng)
        rho = sl2_moving_frame(z.c0, z.c1, z.c2)
        moved = sl2_prolong(rho, Jet3Point(0.0, z)).u
        sigma = math.copysign(1.0, z.c1)
        worst_norm = max(worst_norm, abs(moved.c0),
                         abs(moved.c1 - sigma), abs(moved.c2))
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
        if not _admissible(g, z.c0):
            continue
        moved = sl2_prolong(g, Jet3Point(0.0, z)).u
        left = sl2_moving_frame(moved.c0, moved.c1, moved.c2).as_matrix()
        base = sl2_moving_frame(z.c0, z.c1, z.c2).as_matrix()
        right = base @ g.inverse().as_matrix()
        diff = min(float(np.abs(left - right).max()),
                   float(np.abs(left + right).max()))
        worst = max(worst, diff)
        done += 1
    return worst


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
    traj = rk4_solve(spec.ode_rhs, ics_vector(spec), spec.interval, n_steps)
    a, b = traj.component(0), traj.component(1)
    c, d = traj.component(2), traj.component(3)
    return float(np.abs(a * d - b * c - 1.0).max())


def reconstruction_errors(n_steps: int = 20_000) -> dict[str, float]:
    """Max |reconstructed - exact| per problem, integrating each invariant
    system with RK4 and mapping it back through its reconstruction."""
    out = {}
    for name in REGISTRY:
        prob = get_problem(name)
        spec = prob.invariant
        traj = rk4_solve(spec.ode_rhs, ics_vector(spec), spec.interval, n_steps)
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
        traj = rk4_solve(lambda t, y: y * math.cos(t), [1.0], (0.0, 2.0), n)
        hs.append(2.0 / n)
        errs.append(abs(float(traj.component(0)[-1]) - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
