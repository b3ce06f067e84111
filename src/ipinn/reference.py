"""Reference machinery: the oscillator's RK4 trajectory, the error function,
exact solutions.

The driven-oscillator reference is classical fixed-step RK4, computed on
Python floats by `_oscillator_rk4`; the tests check it bit for bit against a
generic array integrator applied to the same right-hand side.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import DomainError

# constants shared with the problem definitions (single source of truth)
OSCILLATOR_FORCING_EXPONENT = 0.99
OSCILLATOR_INTERVAL = (0.0, 10.0)
OSCILLATOR_INITIAL_STATE = (1.0, 1.0)  # (u, u_t) at t = 0
OSCILLATOR_REFERENCE_STEPS = 100_000
EXPONENTIAL_SHIFT = math.exp(-5.0)
SYSTEM_GAUSS_SCALE = 1.0 / (math.sqrt(2.0 / math.pi) * math.exp(-0.5))
SYSTEM_DRIFT = 1.0 - SYSTEM_GAUSS_SCALE * math.erf(1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Trajectory:
    """Times and states of a fixed-step integration, endpoints included."""

    times: np.ndarray
    states: np.ndarray


_erf_scalar = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """Error function, elementwise; delegates to the libm implementation."""
    arr = np.asarray(x, dtype=float)
    out = np.asarray(_erf_scalar(arr), dtype=float)
    if arr.ndim == 0:
        return float(out)
    return out


def _oscillator_rk4(n_steps: int) -> Trajectory:
    """Classical RK4 for u'' + u = sin(t^a) from `OSCILLATOR_INITIAL_STATE`
    on `OSCILLATOR_INTERVAL` with `n_steps` fixed steps.

    Each step does the float operations of a generic RK4 on the state vector
    (u, u'), in its order, on Python floats instead of 2-element arrays, so
    the result is the same bit for bit.  The forcing uses float `**` and
    `math.sin` (libm): numpy's vectorized power and sine round differently
    at some points.  The times are read through a memoryview and the states
    appended to one `array("d")` buffer, so no Python object per step
    outlives its step.  Both arrays are read-only, so no caller can change
    the cached `oscillator_reference()` for the rest of the process.
    """
    lo, hi = OSCILLATOR_INTERVAL
    a = OSCILLATOR_FORCING_EXPONENT
    sin = math.sin
    times = np.linspace(lo, hi, n_steps + 1)
    h = (hi - lo) / n_steps
    hh = 0.5 * h
    h6 = h / 6.0
    y0, y1 = OSCILLATOR_INITIAL_STATE
    states = array("d", (y0, y1))
    for t in memoryview(times)[:-1]:
        k1a = y1
        k1b = -y0 + sin(t ** a)
        s = sin((t + hh) ** a)
        k2a = y1 + hh * k1b
        k2b = -(y0 + hh * k1a) + s
        k3a = y1 + hh * k2b
        k3b = -(y0 + hh * k2a) + s
        k4a = y1 + h * k3b
        k4b = -(y0 + h * k3a) + sin((t + h) ** a)
        y0 = y0 + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y1 = y1 + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        states.append(y0)
        states.append(y1)
    states = np.frombuffer(states).reshape(-1, 2)
    times.flags.writeable = False
    states.flags.writeable = False
    return Trajectory(times, states)


@functools.lru_cache(maxsize=1)
def oscillator_reference() -> Trajectory:
    """Dense RK4 trajectory used as the reference for the driven oscillator.

    `_oscillator_rk4` with `OSCILLATOR_REFERENCE_STEPS` steps.
    """
    return _oscillator_rk4(OSCILLATOR_REFERENCE_STEPS)


def _exact_schwarz(t: np.ndarray) -> np.ndarray:
    if np.any(np.abs(t - 0.5 * np.pi) < 1e-9):
        raise DomainError("solution is unbounded at pi/2")
    return np.tan(t)[:, None]


def _exact_logistic(t: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-t)))[:, None]


def _exact_oscillator(t: np.ndarray) -> np.ndarray:
    lo, hi = OSCILLATOR_INTERVAL
    if np.any(t < lo - 1e-9) or np.any(t > hi + 1e-9):
        raise DomainError("oscillator reference covers [0, 10] only")
    traj = oscillator_reference()
    return np.interp(t, traj.times, traj.states[:, 0])[:, None]


def _exact_exponential(t: np.ndarray) -> np.ndarray:
    base = t + EXPONENTIAL_SHIFT
    if np.any(base <= 0.0):
        raise DomainError("logarithm argument must stay positive")
    return (base * np.log(base) - t)[:, None]


def _exact_system(t: np.ndarray) -> np.ndarray:
    c = SYSTEM_GAUSS_SCALE
    k = SYSTEM_DRIFT
    bump = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * (t + 1.0) ** 2)
    ramp = erf((t + 1.0) / np.sqrt(2.0))
    u = c * bump + c * t * ramp + k * t
    v = c * ramp + k
    return np.stack([np.asarray(u), np.asarray(v)], axis=-1)


_EXACT: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "schwarz": _exact_schwarz,
    "logistic": _exact_logistic,
    "oscillator": _exact_oscillator,
    "exponential": _exact_exponential,
    "system": _exact_system,
}


def exact_eval(problem_name: str, t):
    """Exact (or dense-reference) solution components at the given times.

    Array input yields shape (n, n_components); scalar input yields a float
    for single-component problems and a (n_components,) array otherwise.
    """
    if problem_name not in _EXACT:
        raise ValueError(f"unknown problem {problem_name!r}")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    out = _EXACT[problem_name](np.atleast_1d(arr))
    if scalar:
        return float(out[0, 0]) if out.shape[1] == 1 else out[0]
    return out
