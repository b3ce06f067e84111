"""Reference machinery: the error function, the oscillator's quadrature, and
`exact_eval`, which reaches the exact solution a problem's `*_spec` states.

The driven oscillator's exact solution is two quadratures, which
`oscillator_reference` sums by fixed-panel Gauss-Legendre.
"""

from __future__ import annotations

import math

import numpy as np

# constants shared with the oscillator's problem definition (single source of truth)
OSCILLATOR_FORCING_EXPONENT = 0.99
OSCILLATOR_INTERVAL = (0.0, 10.0)
OSCILLATOR_INITIAL_STATE = (1.0, 1.0)  # (u, u_t) at t = 0
GAUSS_NODES = 32  # per panel of the oscillator reference's quadrature
GAUSS_PANELS = 500


_erf_scalar = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """Error function, elementwise, as a float array of x's shape (0-d for a scalar), by libm."""
    return np.asarray(_erf_scalar(np.asarray(x, dtype=float)), dtype=float)


def oscillator_forcing(t):
    """sin(t^a), a = `OSCILLATOR_FORCING_EXPONENT`: the oscillator's forcing,
    which both its residuals and its exact solution's quadrature read."""
    return np.sin(np.asarray(t, dtype=float) ** OSCILLATOR_FORCING_EXPONENT)


def oscillator_reference(t: np.ndarray) -> np.ndarray:
    """Exact state (u, u_t) of u'' + u = f(t), f = `oscillator_forcing`, from
    `OSCILLATOR_INITIAL_STATE`, one row per time of the 1-D t, by variation of
    parameters: u = u0 cos t + v0 sin t + sin t C - cos t S, where C, S =
    int_0^t (cos s, sin s) f(s) ds are the invariant formulation's own unknowns.

    C and S sum `GAUSS_NODES`-point Gauss-Legendre over the `GAUSS_PANELS`
    fixed panels below t and one partial panel up to t, so a time's value does
    not depend on the other times asked.  Times are clipped into the interval
    (s^a is nan for s < 0); a nan time sorts into the last panel and gives nan.
    """
    lo, hi = OSCILLATOR_INTERVAL
    u0, v0 = OSCILLATOR_INITIAL_STATE
    t = np.clip(np.asarray(t, dtype=float), lo, hi)
    # numpy loads np.polynomial on first use, so `import ipinn` does not pay for it
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)

    def quadrature(a, b):
        """(C, S) over [a, b] for each pair of panel ends."""
        half = 0.5 * (b - a)[:, None]
        s = 0.5 * (a + b)[:, None] + half * nodes
        f = half * weights * oscillator_forcing(s)
        return (np.cos(s) * f).sum(axis=1), (np.sin(s) * f).sum(axis=1)

    edges = np.linspace(lo, hi, GAUSS_PANELS + 1)
    to_edge = np.zeros((2, GAUSS_PANELS))  # (C, S) at each panel's left edge
    np.cumsum(quadrature(edges[:-2], edges[1:-1]), axis=1, out=to_edge[:, 1:])
    panel = np.minimum(np.searchsorted(edges, t, side="right") - 1, GAUSS_PANELS - 1)
    big_c, big_s = to_edge[:, panel] + quadrature(edges[panel], t)
    cos, sin = np.cos(t), np.sin(t)
    return np.stack([u0 * cos + v0 * sin + sin * big_c - cos * big_s,
                     -u0 * sin + v0 * cos + cos * big_c + sin * big_s], axis=-1)


def exact_eval(problem_name: str, t):
    """`get_problem(problem_name).exact` at a scalar or 1-D array t.

    Array input yields shape (n, n_components); scalar input yields a float
    for single-component problems and a (n_components,) array otherwise.
    Input of two or more dimensions raises ValueError.
    """
    from .problems import get_problem  # problems imports this module

    problem = get_problem(problem_name)
    arr = np.asarray(t, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"exact_eval takes a scalar or a 1-D array of times, "
                         f"not shape {arr.shape}")
    out = problem.exact(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0, 0]) if out.shape[1] == 1 else out[0]
    return out
