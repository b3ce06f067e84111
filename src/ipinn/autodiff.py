"""Truncated Taylor-jet kernels and a reverse-mode tape over plain arrays.

A jet carries a value and its first derivatives with respect to the scalar
input variable.  The three coefficient kernels below are the pieces of the
batched tanh-MLP jet kernel in `network`, which works on (K, rows, batch)
arrays, coefficient index first as in Taylor-mode AD, and carries only the
K = order + 1 coefficients that a formulation reads: the tanh derivative
rows f, f', ..., the chain rule that composes such rows with a jet, and the
transpose of jet multiplication for the reverse pass.  Coefficient k of a
jet is the contiguous slice a[k], shaped like one derivative row.  Each
kernel writes into caller-supplied buffers, so training reuses one set of
arrays per cell; the rows need not be one array, so the network writes them
straight into the jets that keep them.

The tape (`AdjointGraph`) records plain arithmetic on ndarrays of shape
(batch,) or ().  Residuals read network output coefficients as plain leaves
and combine them with add, sub, mul, div, exp, pick, sum and scale_shift;
one backward sweep then leaves an adjoint on every leaf that needs one.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

JET_ORDER = 3
N_COEFFS = JET_ORDER + 1


class DomainError(ValueError):
    """A residual, reference or group action was evaluated outside its domain."""


# ---------------------------------------------------------------------------
# raw kernels on coefficient arrays (shape (K, ...), K <= 4)
# ---------------------------------------------------------------------------

def _kmul_t(ybar: np.ndarray, b: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """Transpose of jet multiplication by b, applied to an adjoint jet.

    If y = b * a (the Leibniz product of jets) then
    abar[j] = sum_k binom(k, j) * b[k - j] * ybar[k]; this is the exact
    coefficient-space transpose of that product, truncated at the
    K = len(ybar) coefficients carried.  The result goes to `out` and the
    one temporary to `scratch[0]`.
    """
    n = len(ybar)
    term = scratch[0]
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


def _tanh_table(x: np.ndarray, count: int, out, scratch):
    """The first `count` (2..5) derivatives f, f', ... of tanh at x, row by row.

    The value is computed by exp in the overflow-safe half-domain form; the
    derivative chain is generated from the value itself through 1 - tanh^2.
    Row k of `out` (a sequence of at least `count` arrays of x.shape; the
    rows need not be one array) receives f^(k).  The temporaries go to
    `scratch[0]` and `scratch[1]` (each x.shape and contiguous, so exp sees
    the same operand layout).
    """
    s, u = scratch[:2]
    f = out[:count]
    t, p = f[0], f[1]
    np.abs(x, out=u)
    np.multiply(-2.0, u, out=u)
    np.exp(u, out=s)                   # s = exp(-2|x|)
    np.subtract(1.0, s, out=u)
    np.copysign(u, x, out=t)
    np.add(1.0, s, out=u)
    np.divide(t, u, out=t)             # t = copysign(1 - s, x) / (1 + s)
    tt = u
    np.multiply(t, t, out=tt)
    np.subtract(1.0, tt, out=p)        # p = 1 - t^2
    if count > 2:
        np.multiply(-2.0, t, out=f[2])
        np.multiply(f[2], p, out=f[2])
    if count > 3:
        np.multiply(6.0, tt, out=f[3])
        np.subtract(f[3], 2.0, out=f[3])
        np.multiply(p, f[3], out=f[3])
    if count > 4:
        np.multiply(24.0, tt, out=s)
        np.multiply(s, t, out=s)
        np.multiply(16.0, t, out=f[4])
        np.subtract(f[4], s, out=f[4])
        np.multiply(p, f[4], out=f[4])
    return out


def _kcompose(f, a: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """Chain rule: compose the derivative rows f[0], f[1], ... with the inner jet a.

    Computes into `out` the K = len(a) (1..4) coefficients that a carries
    and reads the rows f[1] .. f[K-1] only.  Coefficient 0 of the result is
    f[0] itself, which the caller has already placed in `out[0]` (the tanh
    table writes its row 0 there), so it is not copied.  The temporaries go
    to `scratch[0..2]` (each a.shape[1:]).
    """
    n = len(a)
    if n > 1:
        np.multiply(f[1], a[1], out=out[1])
    if n > 2:
        a1sq, lead, mid = scratch[:3]
        np.multiply(a[1], a[1], out=a1sq)
        np.multiply(f[2], a1sq, out=lead)
        np.multiply(f[1], a[2], out=out[2])
        np.add(lead, out[2], out=out[2])                # f2 a1^2 + f1 a2
    if n > 3:
        np.multiply(f[3], a1sq, out=lead)
        np.multiply(lead, a[1], out=lead)
        np.multiply(3.0, f[2], out=mid)
        np.multiply(mid, a[1], out=mid)
        np.multiply(mid, a[2], out=mid)
        np.add(lead, mid, out=lead)
        np.multiply(f[1], a[3], out=out[3])
        np.add(lead, out[3], out=out[3])                # f3 a1^3 + 3 f2 a1 a2 + f1 a3
    return out


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

