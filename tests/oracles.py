"""Independent numerical oracles shared across the test suite.

Nothing here calls the package's jet kernel or tape; derivative values come
from finite-difference stencils and hand-written scalar math so the two
routes stay independent.  The invariant right-hand sides, the prolonged
Mobius action and the Schwarzian are the same physics written a second
time, by hand and on scalars; the checks compare them with the residuals
that train.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ipinn.reference import OSCILLATOR_FORCING_EXPONENT

FD_STEP = 0.01

# The system's solution is v = C erf((t + 1)/sqrt 2) + K and u = v' + t v;
# u(0) = C sqrt(2/pi) e^(-1/2) = 1 and v(0) = C erf(1/sqrt 2) + K = 1 fix C and K.
SYSTEM_C = 1.0 / (math.sqrt(2.0 / math.pi) * math.exp(-0.5))
SYSTEM_K = 1.0 - SYSTEM_C * math.erf(1.0 / math.sqrt(2.0))


def fd_derivatives(f, x: float, h: float = FD_STEP) -> np.ndarray:
    """(f, f', f'', f''') at x from fourth-order central stencils."""
    fm3, fm2, fm1 = f(x - 3 * h), f(x - 2 * h), f(x - h)
    f0 = f(x)
    fp1, fp2, fp3 = f(x + h), f(x + 2 * h), f(x + 3 * h)
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    d3 = (-fp3 + 8 * fp2 - 13 * fp1 + 13 * fm1 - 8 * fm2 + fm3) / (8 * h ** 3)
    return np.array([f0, d1, d2, d3])


def directional_derivative(f, x: np.ndarray, v: np.ndarray,
                           h: float = 1e-6) -> float:
    """d/de f(x + e v) at e = 0, fourth-order."""
    fp2, fp1 = f(x + 2 * h * v), f(x + h * v)
    fm1, fm2 = f(x - h * v), f(x - 2 * h * v)
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


# ---------------------------------------------------------------------------
# the tanh network, written out independently of the package's kernels
#
# `weights` and `biases` are per-layer lists as in `ParamSet`: tanh on every
# layer but the last, which is linear.
# ---------------------------------------------------------------------------


def tanh_mlp(weights, biases, t: float) -> np.ndarray:
    """Network outputs at the scalar input t, by plain numpy matrix-vector products."""
    h = np.array([t])
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(w @ h + b)
    return weights[-1] @ h + biases[-1]


def _tanh_jet(z: list[float]) -> tuple[float, float, float, float]:
    """tanh composed with the order-3 jet z, by Faa di Bruno from math.tanh."""
    z0, z1, z2, z3 = z
    f = math.tanh(z0)
    f1 = 1.0 - f * f
    f2 = -2.0 * f * f1
    f3 = f1 * (6.0 * f * f - 2.0)
    return (f, f1 * z1, f2 * z1 * z1 + f1 * z2,
            f3 * z1 ** 3 + 3.0 * f2 * z1 * z2 + f1 * z3)


def tanh_mlp_jets(weights, biases, t0: float) -> list[tuple[float, ...]]:
    """Order-3 jets (u, du, d2u, d3u) of every output at t0, neuron by neuron."""
    h = [(float(t0), 1.0, 0.0, 0.0)]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        layer = []
        for j in range(w.shape[0]):
            z = [float(b[j]), 0.0, 0.0, 0.0]
            for k, hk in enumerate(h):
                for m in range(4):
                    z[m] += float(w[j, k]) * hk[m]
            layer.append(_tanh_jet(z) if i < last else tuple(z))
        h = layer
    return h


def tanh_table_by_sign(x: np.ndarray, count: int) -> np.ndarray:
    """The first `count` (1..5) derivatives of tanh at x, in the sign(x) * (1 - s) form.

    The half-domain form the package's tanh table used before it switched
    to copysign, step for step: s = exp(-2|x|), t = sign(x) * (1 - s) /
    (1 + s), and the derivative chain from t through 1 - t^2.
    """
    s = np.exp(-2.0 * np.abs(x))
    t = np.sign(x) * (1.0 - s) / (1.0 + s)
    tt = t * t
    p = 1.0 - tt
    rows = [t, p,
            -2.0 * t * p,
            p * (6.0 * tt - 2.0),
            p * (16.0 * t - 24.0 * tt * t)]
    return np.stack(rows[:count])


def kcompose_stepwise(f, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The chain-rule kernel step by step, one ufunc call per operation.

    Writes coefficients 1..K-1 of f composed with the jet a (K = len(a),
    1..4) into `out`, through three (rows, batch) buffers, with the
    floating-point operations of `network._kcompose` in the same order.
    """
    n = len(a)
    a1sq, lead, mid = (np.empty(a.shape[1:]) for _ in range(3))
    if n > 1:
        np.multiply(f[1], a[1], out=out[1])
    if n > 2:
        np.multiply(a[1], a[1], out=a1sq)
        np.multiply(f[2], a1sq, out=lead)
        np.multiply(f[1], a[2], out=out[2])
        np.add(lead, out[2], out=out[2])
    if n > 3:
        np.multiply(f[3], a1sq, out=lead)
        np.multiply(lead, a[1], out=lead)
        np.multiply(3.0, f[2], out=mid)
        np.multiply(mid, a[1], out=mid)
        np.multiply(mid, a[2], out=mid)
        np.add(lead, mid, out=lead)
        np.multiply(f[1], a[3], out=out[3])
        np.add(lead, out[3], out=out[3])
    return out


def kmul_t_stepwise(ybar: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The transposed jet product step by step, one ufunc call per operation.

    out[j] = sum_k binom(k, j) b[k - j] ybar[k], accumulated from k = j
    upward through one (rows, batch) buffer, with the floating-point
    operations of `network._kmul_t` in the same order.
    """
    n = len(ybar)
    term = np.empty(ybar.shape[1:])
    for j in range(n):
        acc = out[j]
        np.multiply(ybar[j], b[0], out=acc)
        for k in range(j + 1, n):
            c = math.comb(k, j)
            if c == 1:
                np.multiply(ybar[k], b[k - j], out=term)
            else:
                np.multiply(float(c), ybar[k], out=term)
                np.multiply(term, b[k - j], out=term)
            acc += term
    return out


def adam_step_fresh(flat: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                    step: int, lr: float):
    """One bias-corrected Adam step on fresh arrays: (new flat, new m, new v).

    The expression form of the package's update, with beta1 = 0.9, beta2 =
    0.999 and eps = 1e-8, written with the same operations in the same
    order (step is the count after this update).
    """
    m = 0.9 * m + (1.0 - 0.9) * grad
    v = 0.999 * v + (1.0 - 0.999) * grad * grad
    update = lr * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
    return flat - update, m, v


# ---------------------------------------------------------------------------
# hand-derived jet tables of the closed-form solutions
#
# Rows are collocation points; columns are (value, d1, d2, d3).  Derivatives
# were worked out by hand from the closed forms, not generated by the
# package.  Unavailable orders are filled with nan so accidental use fails
# loudly.
# ---------------------------------------------------------------------------


def logistic_jets(t: np.ndarray) -> np.ndarray:
    s = np.exp(-t)
    d = 1.0 + s
    u = 1.0 / d
    u1 = s / d ** 2
    u2 = s * (s - 1.0) / d ** 3
    u3 = s * (s * s - 4.0 * s + 1.0) / d ** 4
    return np.stack([u, u1, u2, u3], axis=-1)


def tan_jets(t: np.ndarray) -> np.ndarray:
    u = np.tan(t)
    sec2 = 1.0 + u * u
    u1 = sec2
    u2 = 2.0 * sec2 * u
    u3 = 4.0 * sec2 * u * u + 2.0 * sec2 * sec2
    return np.stack([u, u1, u2, u3], axis=-1)


def exponential_solution_jets(t: np.ndarray) -> np.ndarray:
    c1 = math.exp(-5.0)
    base = t + c1
    u = base * np.log(base) - t
    u1 = np.log(base)
    u2 = 1.0 / base
    u3 = -1.0 / (base * base)
    return np.stack([u, u1, u2, u3], axis=-1)


# ---------------------------------------------------------------------------
# the generic fixed-step integrator
# ---------------------------------------------------------------------------


class Trajectory(NamedTuple):
    """Times and states of a fixed-step integration, endpoints included."""

    times: np.ndarray
    states: np.ndarray


def rk4_solve(f, y0, interval, n_steps: int) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step, on arrays."""
    lo, hi = float(interval[0]), float(interval[1])
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if not hi > lo:
        raise ValueError("interval must have positive length")
    y = np.asarray(y0, dtype=float).ravel().copy()
    times = np.linspace(lo, hi, n_steps + 1)
    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    h = (hi - lo) / n_steps
    for i in range(n_steps):
        t = times[i]
        k1 = np.asarray(f(t, y))
        k2 = np.asarray(f(t + 0.5 * h, y + (0.5 * h) * k1))
        k3 = np.asarray(f(t + 0.5 * h, y + (0.5 * h) * k2))
        k4 = np.asarray(f(t + h, y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
    return Trajectory(times, states)


def oscillator_rhs(t: float, y: np.ndarray) -> np.ndarray:
    """u'' + u = sin(t^a) as the first-order system for (u, u')."""
    return np.array([y[1], -y[0] + math.sin(t ** OSCILLATOR_FORCING_EXPONENT)])


# ---------------------------------------------------------------------------
# the invariant formulations as first-order systems y' = rhs(t, y)
#
# Each invariant residual is y' - rhs(t, y) for one of these; the exact
# invariant outputs are the closed-form solutions of four of them.
# ---------------------------------------------------------------------------


def _schwarz_rhs(t, y):
    return np.array([-y[1], y[0], -y[3], y[2]])


def _logistic_rhs(t, y):
    return np.zeros(1)


def _oscillator_invariant_rhs(t, y):
    f = math.sin(t ** OSCILLATOR_FORCING_EXPONENT)
    return np.array([f * math.cos(t), -f * math.sin(t)])


def _exponential_rhs(h, y):
    return np.array([math.exp(-h) - 1.0 - y[0], 1.0])


def _system_rhs(t, y):
    return np.array([-(1.0 + t) * y[0], y[0]])


INVARIANT_RHS = {
    "schwarz": _schwarz_rhs,
    "logistic": _logistic_rhs,
    "oscillator": _oscillator_invariant_rhs,
    "exponential": _exponential_rhs,
    "system": _system_rhs,
}


def _schwarz_exact(x):
    return np.stack([np.cos(x), np.sin(x), -np.sin(x), np.cos(x)], axis=-1)


def _logistic_exact(x):
    return np.ones((np.asarray(x).size, 1))


def _exponential_exact(h):
    h = np.asarray(h, dtype=float)
    return np.stack([(h - 4.0) * np.exp(-h) - 1.0, h - 5.0], axis=-1)


def _system_exact(t):
    t = np.asarray(t, dtype=float)
    al = np.exp(-t - 0.5 * t * t)
    be = SYSTEM_C * np.vectorize(math.erf)((t + 1.0) / np.sqrt(2.0)) + SYSTEM_K
    return np.stack([al, np.broadcast_to(be, t.shape)], axis=-1)


INVARIANT_EXACT = {
    "schwarz": _schwarz_exact,
    "logistic": _logistic_exact,
    "exponential": _exponential_exact,
    "system": _system_exact,
}


# ---------------------------------------------------------------------------
# SL(2, R) on scalar jets
#
# A group element is anything with the entries a, b, c, d of its matrix.
# ---------------------------------------------------------------------------


def sl2_matrix(g) -> np.ndarray:
    return np.array([[g.a, g.b], [g.c, g.d]])


def sl2_compose(g, h):
    """The element of the matrix product g @ h, of g's type."""
    return type(g)(g.a * h.a + g.b * h.c,
                   g.a * h.b + g.b * h.d,
                   g.c * h.a + g.d * h.c,
                   g.c * h.b + g.d * h.d)


def sl2_prolong(g, jet) -> tuple[float, float, float, float]:
    """Prolonged Mobius action on a third-order jet (u, u_t, u_tt, u_ttt).

    Undefined where c u + d = 0, which raises ZeroDivisionError.
    """
    u, u1, u2, u3 = (float(c) for c in jet)
    w = g.c * u + g.d
    U = (g.a * u + g.b) / w
    U1 = u1 / w ** 2
    U2 = u2 / w ** 2 - 2.0 * g.c * u1 ** 2 / w ** 3
    U3 = (u3 / w ** 2
          - 6.0 * g.c * u1 * u2 / w ** 3
          + 6.0 * g.c ** 2 * u1 ** 3 / w ** 4)
    return U, U1, U2, U3


def schwarzian(jet) -> float:
    """u_ttt/u_t - 1.5 (u_tt/u_t)^2 of the jet (u, u_t, u_tt, u_ttt): the Mobius
    invariant.  Undefined where u_t = 0, which raises ZeroDivisionError."""
    _, u1, u2, u3 = (float(c) for c in jet)
    r = u2 / u1
    return u3 / u1 - 1.5 * r * r
