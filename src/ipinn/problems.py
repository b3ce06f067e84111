"""Benchmark problems: the SL(2) moving frame, residual builders, reconstructions.

Each problem is stated in one `*_spec` function: its exact solution and two
trainable formulations, named in `FORMULATIONS`.
The vanilla one puts the original equation residual on the network outputs.
The invariant one trains the invariantized equation together with the
first-order reconstruction system for the left moving frame, and maps frame
trajectories back to the original unknowns through `reconstruct`.  A
formulation states only its residual, its ICs and its map back; its output
count and derivative order are worked out from them.  Each problem names its
initial state once; its invariant ICs are that state's frame, the inverse of
`reconstruct`; its exact solution reads that same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import reference
from .autodiff import AdjointGraph, Node
from .network import JET_ORDER

FORMULATIONS = ("invariant", "vanilla")


class DomainError(ValueError):
    """A residual, exact solution or group action was evaluated outside its domain."""


# ---------------------------------------------------------------------------
# SL(2, R) acting on the dependent variable by Mobius maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElementSL2:
    """Unimodular 2x2 matrix acting as u -> (a u + b) / (c u + d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # det's rounding error scales with the terms it cancels, |ad| + |bc| >= 1
        if not abs(self.det() - 1.0) <= 1e-9 * (abs(self.a * self.d) + abs(self.b * self.c)):
            raise ValueError(f"matrix is not unimodular: det = {self.det()!r}")

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "GroupElementSL2":
        return GroupElementSL2(self.d, -self.b, -self.c, self.a)


def sl2_moving_frame(u: float, ut: float, utt: float) -> GroupElementSL2:
    """Right frame sending the order-2 jet to the cross-section (0, sign(u_t), 0).

    Positive branch of the two-fold normalization ambiguity.
    """
    if not (math.isfinite(u) and math.isfinite(ut) and math.isfinite(utt)):
        raise DomainError("moving frame undefined at a non-finite jet")
    if ut == 0.0:
        raise DomainError("moving frame undefined where u_t = 0")
    s = abs(ut)
    r = math.sqrt(s)
    return GroupElementSL2(
        1.0 / r,
        -u / r,
        utt / (2.0 * s * r),
        (2.0 * ut * ut - u * utt) / (2.0 * s * r),
    )


# ---------------------------------------------------------------------------
# problem specifications
# ---------------------------------------------------------------------------

ResidualFn = Callable[[np.ndarray, list], list[Node]]


def _identity_reconstruct(x: np.ndarray, outputs: np.ndarray):
    return x, outputs


@dataclass(frozen=True)
class FormulationSpec:
    """Everything the trainer and harness need for one formulation.

    residual(points, outs) reads coefficient k of output row r, the k-th
    derivative at every point, as the tape leaf outs[r][k], and returns the
    residual components as tape nodes.  It is a plain expression: arrays of
    the points' shape and floats may stand on either side of a leaf, and the
    leaf's operators record them as constants.  Each IC (row, k, value) pins
    coefficient k of output row r at the interval start.  reconstruct maps
    the independent variable, named x_name, and the outputs back to t and the
    original unknowns.

    The rest is worked out once, on construction: output_dim is one more than
    the highest IC row, and order is the highest k that the ICs name or that
    the residual reads.  The residual is traced once at the interval start
    and swept back from unit seeds; a leaf it reads receives an adjoint.  The
    trainer propagates jets of exactly that order.  A residual that reads a
    row no IC names, or a k past `JET_ORDER`, raises ValueError here.
    """

    interval: tuple[float, float]
    residual: ResidualFn
    ics: tuple[tuple[int, int, float], ...]
    reconstruct: Callable[[np.ndarray, np.ndarray],
                          tuple[np.ndarray, np.ndarray]] = _identity_reconstruct
    x_name: str = "t"
    output_dim: int = field(init=False)
    order: int = field(init=False)

    def __post_init__(self):
        output_dim = 1 + max((row for row, _, _ in self.ics), default=-1)
        graph = AdjointGraph()
        leaves = [[graph.param(np.ones(1)) for _ in range(JET_ORDER + 1)]
                  for _ in range(output_dim)]
        try:
            with np.errstate(all="ignore"):
                residuals = self.residual(np.array(self.interval[:1], dtype=float), leaves)
        except IndexError:
            raise ValueError(f"the residual reads past the {output_dim} output rows that the "
                             f"ICs name or past coefficient {JET_ORDER}") from None
        graph.backward([(r, np.ones(1)) for r in residuals])
        read = [k for jet in leaves for k, leaf in enumerate(jet) if leaf.adjoint is not None]
        object.__setattr__(self, "output_dim", output_dim)
        object.__setattr__(self, "order", max(read + [k for _, k, _ in self.ics]))


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark equation with its two trainable formulations.

    exact(t) is the solution at the 1-D array t, one column per component; it
    raises DomainError where that is undefined.  alpha_ic is the initial-condition
    weight the benchmark protocol uses for this problem's cells; it stays
    overridable per run.
    """

    name: str
    vanilla: FormulationSpec
    invariant: FormulationSpec
    exact: Callable[[np.ndarray], np.ndarray]
    alpha_ic: float = 1.0

    def formulation(self, kind: str) -> FormulationSpec:
        if kind not in FORMULATIONS:
            raise ValueError(f"unknown formulation {kind!r}")
        return getattr(self, kind)


def schwarz_spec() -> ProblemSpec:
    """u_ttt/u_t - 1.5 (u_tt/u_t)^2 = 2 on [0, pi]; solution tan(t).

    Invariantization by the Mobius moving frame leaves nothing of the equation
    (it fixes the curvature to the forcing value), so the trained system is
    the four-dimensional rotation ODE for the left frame matrix, and the
    solution returns as the ratio u = b/d of frame entries.
    """
    curvature = 2.0

    def vanilla_residual(t, outs):
        u = outs[0]
        ut, utt, uttt = u[1], u[2], u[3]
        return [uttt / ut - 1.5 * (utt / ut) ** 2 - curvature]

    def invariant_residual(t, outs):
        a, b, c, d = outs
        return [a[1] + b[0],
                b[1] - a[0],
                c[1] + d[0],
                d[1] - c[0]]

    def reconstruct(x, outputs):
        return x, (outputs[:, 1] / outputs[:, 3])[:, None]

    def exact(t):
        if np.any(np.abs(t - 0.5 * np.pi) < 1e-9):
            raise DomainError("solution is unbounded at pi/2")
        return np.tan(t)[:, None]

    # The invariant ICs are the left frame (a, b, c, d) at the initial jet
    # (u, u_t, u_tt)(0); "+ 0.0" turns the frame's -0.0 entries into 0.0.
    u0, ut0, utt0 = 0.0, 1.0, 0.0
    frame = sl2_moving_frame(u0, ut0, utt0).inverse()
    frame_ics = tuple((row, 0, entry + 0.0)
                      for row, entry in enumerate((frame.a, frame.b, frame.c, frame.d)))
    interval = (0.0, math.pi)
    return ProblemSpec(
        name="schwarz",
        vanilla=FormulationSpec(interval=interval, residual=vanilla_residual,
                                ics=((0, 0, u0), (0, 1, ut0), (0, 2, utt0))),
        invariant=FormulationSpec(interval=interval, residual=invariant_residual,
                                  ics=frame_ics, reconstruct=reconstruct),
        exact=exact,
    )


def logistic_spec() -> ProblemSpec:
    """u_t = u(1 - u), u(0) = 1/2 on [0, pi].

    Scaling the deviation from the carrying capacity trivializes the flow:
    the transformed unknown must merely stay constant, and the solution
    returns as u = 1/(1 + eps e^{-t}).
    """

    def vanilla_residual(t, outs):
        u = outs[0]
        return [u[1] - u[0] * (1.0 - u[0])]

    def invariant_residual(t, outs):
        return [outs[0][1]]

    def reconstruct(x, outputs):
        return x, (1.0 / (1.0 + outputs[:, 0] * np.exp(-x)))[:, None]

    interval = (0.0, math.pi)
    t0, u0 = interval[0], 0.5

    def exact(t):
        with np.errstate(over="ignore"):  # exp overflows to inf far before t0, where u -> 0
            return (1.0 / (1.0 + (1.0 - u0) / u0 * np.exp(t0 - t)))[:, None]

    return ProblemSpec(
        name="logistic",
        vanilla=FormulationSpec(interval=interval, residual=vanilla_residual,
                                ics=((0, 0, u0),)),
        invariant=FormulationSpec(interval=interval, residual=invariant_residual,
                                  ics=((0, 0, (1.0 / u0 - 1.0) * math.exp(t0)),),
                                  reconstruct=reconstruct),
        exact=exact,
    )


def oscillator_spec() -> ProblemSpec:
    """u_tt + u = sin(t^a), a = 0.99, u(0) = u_t(0) = 1 on [0, 10].

    The phase-rotation frame absorbs the homogeneous dynamics; the trained
    unknowns are the slowly varying coefficients of sin t and cos t, driven
    directly by the forcing, `reference.oscillator_forcing`.  Both sets of ICs read
    `reference.OSCILLATOR_INITIAL_STATE`, the invariant ones through the frame
    at t = 0, and so does the exact solution, `reference.oscillator_reference`.
    """
    def vanilla_residual(t, outs):
        u = outs[0]
        return [u[2] + u[0] - reference.oscillator_forcing(t)]

    def invariant_residual(t, outs):
        al, be = outs
        f = reference.oscillator_forcing(t)
        return [al[1] - f * np.cos(t),
                be[1] + f * np.sin(t)]

    def reconstruct(x, outputs):
        u = outputs[:, 0] * np.sin(x) + outputs[:, 1] * np.cos(x)
        return x, u[:, None]

    interval = reference.OSCILLATOR_INTERVAL
    t0 = interval[0]
    u0, ut0 = reference.OSCILLATOR_INITIAL_STATE

    def exact(t):
        if np.any(t < interval[0] - 1e-9) or np.any(t > interval[1] + 1e-9):
            raise DomainError("oscillator reference covers [0, 10] only")
        return reference.oscillator_reference(t)[:, :1]

    return ProblemSpec(
        name="oscillator",
        vanilla=FormulationSpec(interval=interval, residual=vanilla_residual,
                                ics=((0, 0, u0), (0, 1, ut0))),
        invariant=FormulationSpec(interval=interval, residual=invariant_residual,
                                  ics=((0, 0, u0 * math.sin(t0) + ut0 * math.cos(t0)),
                                       (1, 0, u0 * math.cos(t0) - ut0 * math.sin(t0))),
                                  reconstruct=reconstruct),
        exact=exact,
    )


def exponential_spec() -> ProblemSpec:
    """u_tt = exp(-u_t), u(0) = -5 e^{-5}, u_t(0) = -5 on [0, 2].

    The scaling symmetry turns the equation into a linear first-order one for
    the invariant I over the invariant horizontal coordinate H, with the
    group parameter eps satisfying eps_H = 1.  The original curve returns
    parametrically: t = e^eps (1 - e^{-H}), u = e^eps (I + eps (1 - e^{-H})).
    At t = H = 0 the frame is eps = u_t, I = u e^{-eps}; as eps = eps(0) + H,
    the interval end t_end maps to H = log(1 + t_end e^{-eps(0)}).
    """
    interval = (0.0, 2.0)
    ut0 = -5.0
    shift = math.exp(ut0)  # the solution (t + shift) log(t + shift) - t has u_t(0) = ut0
    u0 = ut0 * shift
    eps0, inv0 = ut0, u0 * math.exp(-ut0)
    h_final = math.log(1.0 + interval[1] * math.exp(-eps0))

    def vanilla_residual(t, outs):
        u = outs[0]
        return [u[2] - (-u[1]).exp()]

    def invariant_residual(h, outs):
        inv, eps = outs
        return [inv[1] + inv[0] - (np.exp(-h) - 1.0),
                eps[1] - 1.0]

    def reconstruct(h, outputs):
        growth = np.exp(outputs[:, 1])
        spread = 1.0 - np.exp(-np.asarray(h, dtype=float))
        t = growth * spread
        u = growth * (outputs[:, 0] + outputs[:, 1] * spread)
        return t, u[:, None]

    def exact(t):
        base = t + shift
        if np.any(base <= 0.0):
            raise DomainError("logarithm argument must stay positive")
        return (base * np.log(base) - t)[:, None]

    return ProblemSpec(
        name="exponential",
        vanilla=FormulationSpec(interval=interval, residual=vanilla_residual,
                                ics=((0, 0, u0), (0, 1, ut0))),
        invariant=FormulationSpec(interval=(0.0, h_final), residual=invariant_residual,
                                  ics=((0, 0, inv0), (1, 0, eps0)),
                                  reconstruct=reconstruct, x_name="H"),
        exact=exact,
    )


def system_spec() -> ProblemSpec:
    """u_t = -u + (t+1) v, v_t = u - t v, u(0) = v(0) = 1 on [0, 2].

    The two-parameter affine symmetry reduces the pair to a cascade for the
    frame coefficients: al_t = -al (1 + t), be_t = al.  The original unknowns
    return as u = al + t be, v = be.

    Both residual systems admit a one-parameter solution family, and with the
    summed equation loss a unit initial-condition weight leaves a flat valley
    that Adam drifts along for far more than the budgeted epochs; the
    benchmark weight of 10 pins the endpoint and restores convergence without
    touching any other problem.
    """

    def vanilla_residual(t, outs):
        u, v = outs
        return [u[1] + u[0] - (t + 1.0) * v[0],
                v[1] - u[0] + t * v[0]]

    def invariant_residual(t, outs):
        al, be = outs
        return [al[1] + (t + 1.0) * al[0],
                be[1] - al[0]]

    def reconstruct(x, outputs):
        u = outputs[:, 0] + x * outputs[:, 1]
        return x, np.stack([u, outputs[:, 1]], axis=-1)

    interval = (0.0, 2.0)
    t0, u0, v0 = interval[0], 1.0, 1.0
    # the exact solution's weights, fitted to u(0) and v(0)
    c = u0 / (math.sqrt(2.0 / math.pi) * math.exp(-0.5))
    k = v0 - c * math.erf(1.0 / math.sqrt(2.0))

    def exact(t):
        bump = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * (t + 1.0) ** 2)
        ramp = reference.erf((t + 1.0) / np.sqrt(2.0))
        u = c * bump + c * t * ramp + k * t
        v = c * ramp + k
        return np.stack([u, v], axis=-1)

    return ProblemSpec(
        name="system",
        vanilla=FormulationSpec(interval=interval, residual=vanilla_residual,
                                ics=((0, 0, u0), (1, 0, v0))),
        invariant=FormulationSpec(interval=interval, residual=invariant_residual,
                                  ics=((0, 0, u0 - t0 * v0), (1, 0, v0)),
                                  reconstruct=reconstruct),
        exact=exact,
        alpha_ic=10.0,
    )


REGISTRY: dict[str, ProblemSpec] = {spec.name: spec for spec in (
    schwarz_spec(), logistic_spec(), oscillator_spec(), exponential_spec(), system_spec())}


def get_problem(name: str) -> ProblemSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; choose from {', '.join(REGISTRY)}"
        ) from None
