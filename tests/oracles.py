"""Independent numerical oracles shared across the test suite.

Nothing here imports the package's autodiff kernels; derivative values come
from finite-difference stencils and hand-written scalar math so the two
routes stay independent.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 0.01


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
    """The first `count` (2..5) derivatives of tanh at x, in the sign(x) * (1 - s) form.

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
