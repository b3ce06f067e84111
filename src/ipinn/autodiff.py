"""Third-order Taylor jets and a reverse-mode tape over plain arrays.

A jet carries a value and its first three derivatives with respect to the
scalar input variable.  Scalar `Jet3` arithmetic covers the elementary
functions; the coefficient kernels below also serve the batched tanh-MLP
jet kernel in `network`, which works on (rows, batch, 4) arrays with the
coefficient axis last.

The tape (`AdjointGraph`) records plain arithmetic on ndarrays of shape
(batch,) or ().  Residuals read network output coefficients as plain leaves
and combine them with add, sub, mul, div, exp, pick, sum and scale_shift;
one backward sweep then leaves an adjoint on every leaf that needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

JET_ORDER = 3
N_COEFFS = JET_ORDER + 1

ELEMENTARY = ("tanh", "exp", "ln", "sin", "cos", "reciprocal", "power")


class DomainError(ValueError):
    """An elementary function or a residual was evaluated outside its domain."""


# ---------------------------------------------------------------------------
# raw kernels on coefficient arrays (shape (..., 4))
# ---------------------------------------------------------------------------

def _kmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product of derivative-coefficient jets, truncated at order 3."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out[..., 0] = a0 * b0
    out[..., 1] = a1 * b0 + a0 * b1
    out[..., 2] = a2 * b0 + 2.0 * a1 * b1 + a0 * b2
    out[..., 3] = a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3
    return out


def _kmul_t(ybar: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transpose of jet multiplication by b, applied to an adjoint jet.

    If y = mul(a, b) then abar[j] = sum_k binom(k, j) * b[k - j] * ybar[k];
    this is the exact coefficient-space transpose of the Leibniz product.
    """
    out = np.empty(np.broadcast_shapes(ybar.shape, b.shape))
    y0, y1, y2, y3 = ybar[..., 0], ybar[..., 1], ybar[..., 2], ybar[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out[..., 0] = y0 * b0 + y1 * b1 + y2 * b2 + y3 * b3
    out[..., 1] = y1 * b0 + 2.0 * y2 * b1 + 3.0 * y3 * b2
    out[..., 2] = y2 * b0 + 3.0 * y3 * b1
    out[..., 3] = y3 * b0
    return out


def _derivative_table(fname: str, x: np.ndarray, power: float | None = None):
    """Derivatives f, f', f'', f''', f'''' of an elementary function at x.

    The fourth derivative is needed because the adjoint of an order-3
    composition perturbs the base point of the order-3 chain.
    """
    if fname == "tanh":
        # value via exp in the overflow-safe half-domain form; the derivative
        # chain is generated from the value itself through 1 - tanh^2
        s = np.exp(-2.0 * np.abs(x))
        t = np.sign(x) * (1.0 - s) / (1.0 + s)
        p = 1.0 - t * t
        tt = t * t
        return t, p, -2.0 * t * p, p * (6.0 * tt - 2.0), p * (16.0 * t - 24.0 * tt * t)
    if fname == "exp":
        e = np.exp(x)
        return e, e, e, e, e
    if fname == "ln":
        if np.any(x <= 0.0):
            raise DomainError("ln requires a positive argument")
        i = 1.0 / x
        ii = i * i
        return np.log(x), i, -ii, 2.0 * ii * i, -6.0 * ii * ii
    if fname == "sin":
        s, c = np.sin(x), np.cos(x)
        return s, c, -s, -c, s
    if fname == "cos":
        s, c = np.sin(x), np.cos(x)
        return c, -s, -c, s, c
    if fname == "reciprocal":
        if np.any(x == 0.0):
            raise DomainError("reciprocal of zero")
        i = 1.0 / x
        ii = i * i
        return i, -ii, 2.0 * ii * i, -6.0 * ii * ii, 24.0 * ii * ii * i
    if fname == "power":
        if power is None:
            raise ValueError("power requires an exponent")
        p = float(power)
        if p != round(p) and np.any(x <= 0.0):
            raise DomainError("non-integer power requires a positive base")
        tables = []
        coeff = 1.0
        for k in range(5):
            if k > 0:
                coeff *= p - (k - 1)
            if coeff == 0.0:
                tables.append(np.zeros_like(np.asarray(x, dtype=float)))
                continue
            e = p - k
            if e < 0 and np.any(x == 0.0):
                raise DomainError("negative power of zero")
            tables.append(coeff * x ** e)
        return tuple(tables)
    raise ValueError(f"unknown elementary function {fname!r}")


def _kcompose(f0, f1, f2, f3, a: np.ndarray) -> np.ndarray:
    """Order-3 chain rule: compose derivative tables with the inner jet a."""
    out = np.empty(a.shape)
    a1, a2, a3 = a[..., 1], a[..., 2], a[..., 3]
    out[..., 0] = f0
    out[..., 1] = f1 * a1
    a1sq = a1 * a1
    out[..., 2] = f2 * a1sq + f1 * a2
    out[..., 3] = f3 * a1sq * a1 + 3.0 * f2 * a1 * a2 + f1 * a3
    return out


def _kelem(fname: str, a: np.ndarray, power: float | None = None):
    tables = _derivative_table(fname, a[..., 0], power)
    return _kcompose(tables[0], tables[1], tables[2], tables[3], a), tables


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives with respect to the input variable."""

    c0: float
    c1: float
    c2: float
    c3: float

    @classmethod
    def variable(cls, t0: float) -> "Jet3":
        """Jet of the input variable itself, evaluated at t0."""
        return cls(float(t0), 1.0, 0.0, 0.0)

    @classmethod
    def constant(cls, value: float) -> "Jet3":
        return cls(float(value), 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, coeffs) -> "Jet3":
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (N_COEFFS,):
            raise ValueError(f"expected {N_COEFFS} coefficients, got shape {c.shape}")
        return cls(float(c[0]), float(c[1]), float(c[2]), float(c[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2, self.c3])


def jet_add(a: Jet3, b: Jet3) -> Jet3:
    return Jet3(a.c0 + b.c0, a.c1 + b.c1, a.c2 + b.c2, a.c3 + b.c3)


def jet_mul(a: Jet3, b: Jet3) -> Jet3:
    return Jet3.from_array(_kmul(a.as_array(), b.as_array()))


def jet_elem(fname: str, a: Jet3, power: float | None = None) -> Jet3:
    if fname not in ELEMENTARY:
        raise ValueError(f"unknown elementary function {fname!r}")
    value, _ = _kelem(fname, a.as_array(), power)
    return Jet3.from_array(value)


# ---------------------------------------------------------------------------
# plain-array tape
# ---------------------------------------------------------------------------


class Node:
    """One recorded plain array in an AdjointGraph; its value is computed on record."""

    __slots__ = ("graph", "op", "args", "aux", "value", "needs_grad", "adjoint")

    def __init__(self, graph, op, args, aux, value, needs_grad):
        self.graph = graph
        self.op = op
        self.args = args
        self.aux = aux
        self.value = value
        self.needs_grad = needs_grad
        self.adjoint = None

    # arithmetic sugar so residual builders read like the equations they encode
    def __add__(self, other):
        return self.graph.add(self, self.graph.lift(other))

    def __radd__(self, other):
        return self.graph.add(self.graph.lift(other), self)

    def __sub__(self, other):
        return self.graph.sub(self, self.graph.lift(other))

    def __rsub__(self, other):
        return self.graph.sub(self.graph.lift(other), self)

    def __mul__(self, other):
        return self.graph.mul(self, self.graph.lift(other))

    def __rmul__(self, other):
        return self.graph.mul(self.graph.lift(other), self)

    def __truediv__(self, other):
        return self.graph.div(self, self.graph.lift(other))

    def __rtruediv__(self, other):
        return self.graph.div(self.graph.lift(other), self)

    def __neg__(self):
        return self.graph.scale_shift(self, -1.0, 0.0)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1 or n > 4:
            raise ValueError("only small positive integer powers are supported on nodes")
        out = self
        for _ in range(n - 1):
            out = self.graph.mul(out, self)
        return out

    def exp(self):
        return self.graph.exp(self)

    def pick(self, i: int):
        return self.graph.pick(self, i)


def _acc(arg: Node, contrib: np.ndarray, owned: bool = True) -> None:
    """Accumulate an adjoint contribution, reducing over broadcast axes."""
    if not arg.needs_grad:
        return
    target = arg.value.shape
    c = np.asarray(contrib)
    if c.shape != target:
        extra = c.ndim - len(target)
        if extra > 0:
            c = c.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, n in enumerate(target) if n == 1 and c.shape[i] != 1)
        if axes:
            c = c.sum(axis=axes, keepdims=True)
        owned = True
    if arg.adjoint is None:
        arg.adjoint = c if owned else c.copy()
    else:
        arg.adjoint += c


def _vjp_add(node):
    a, b = node.args
    _acc(a, node.adjoint, owned=False)
    _acc(b, node.adjoint, owned=False)


def _vjp_sub(node):
    a, b = node.args
    _acc(a, node.adjoint, owned=False)
    _acc(b, -node.adjoint)


def _vjp_mul(node):
    a, b = node.args
    _acc(a, node.adjoint * b.value)
    _acc(b, node.adjoint * a.value)


def _vjp_div(node):
    a, b = node.args
    _acc(a, node.adjoint / b.value)
    _acc(b, -node.adjoint * node.value / b.value)


def _vjp_scale_shift(node):
    _acc(node.args[0], node.adjoint * node.aux[0])


def _vjp_exp(node):
    _acc(node.args[0], node.adjoint * node.value)


def _vjp_pick(node):
    a = node.args[0]
    if not a.needs_grad:
        return
    z = np.zeros(a.value.shape)
    z[node.aux] = node.adjoint
    _acc(a, z)


def _vjp_sum(node):
    a = node.args[0]
    if not a.needs_grad:
        return
    _acc(a, np.full(a.value.shape, float(node.adjoint)))


_VJPS: dict[str, Callable[[Node], None]] = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "scale_shift": _vjp_scale_shift,
    "exp": _vjp_exp,
    "pick": _vjp_pick,
    "sum": _vjp_sum,
}


class AdjointGraph:
    """Append-only record of plain array operations for reverse accumulation.

    Construction order is topological by definition, so the reverse pass is a
    single backward sweep that visits each node exactly once.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, op, args, aux, value, needs_grad=None) -> Node:
        for a in args:
            if a.graph is not self:
                raise ValueError("nodes belong to different graphs")
        if needs_grad is None:
            needs_grad = any(a.needs_grad for a in args)
        node = Node(self, op, tuple(args), aux, np.asarray(value, dtype=float),
                    needs_grad)
        self.nodes.append(node)
        return node

    # ---- leaves ----

    def const(self, values) -> Node:
        return self._record("const", (), None, values, needs_grad=False)

    def param(self, values) -> Node:
        """Leaf tracked for gradients; caller must not mutate `values`."""
        return self._record("param", (), None, values, needs_grad=True)

    def lift(self, other) -> Node:
        """A node as is; a number or array as a constant leaf."""
        return other if isinstance(other, Node) else self.const(other)

    # ---- operations ----

    def add(self, a: Node, b: Node) -> Node:
        return self._record("add", (a, b), None, a.value + b.value)

    def sub(self, a: Node, b: Node) -> Node:
        return self._record("sub", (a, b), None, a.value - b.value)

    def mul(self, a: Node, b: Node) -> Node:
        return self._record("mul", (a, b), None, a.value * b.value)

    def div(self, a: Node, b: Node) -> Node:
        return self._record("div", (a, b), None, a.value / b.value)

    def scale_shift(self, a: Node, scale: float, shift: float) -> Node:
        scale, shift = float(scale), float(shift)
        value = a.value * scale
        if shift != 0.0:
            value = value + shift
        return self._record("scale_shift", (a,), (scale, shift), value)

    def exp(self, a: Node) -> Node:
        return self._record("exp", (a,), None, np.exp(a.value))

    def pick(self, a: Node, i: int) -> Node:
        return self._record("pick", (a,), i, a.value[i])

    def sum(self, a: Node) -> Node:
        return self._record("sum", (a,), None, np.add.reduce(a.value, axis=None))

    # ---- reverse accumulation ----

    def backward(self, loss: Node) -> None:
        if loss.graph is not self:
            raise ValueError("loss node belongs to a different graph")
        if loss.value.shape != ():
            raise ValueError("backward expects a scalar loss node")
        for node in self.nodes:
            node.adjoint = None
        loss.adjoint = np.ones(())
        for node in reversed(self.nodes):
            if node.adjoint is not None and node.op in _VJPS:
                _VJPS[node.op](node)

