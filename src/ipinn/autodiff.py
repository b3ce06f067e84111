"""A reverse-mode tape over plain arrays, and the domain error of the residuals.

The tape (`AdjointGraph`) records plain arithmetic on ndarrays of shape
(batch,) or ().  Residuals read network output coefficients as plain leaves
(see `network.MlpJets`) and combine them with add, sub, mul, div, neg and
exp.  `backward(seeds)` starts from (node, adjoint) pairs, which the loss
supplies in closed form, and one backward sweep then leaves an adjoint on
every leaf that needs one.  A node that needs a gradient meets only nodes of
its own shape or constants, so an adjoint always has the shape of its node.

A number or an array may stand on either side of a `Node`: the node's
operators lift it to a `const` leaf.  `Node.__array_ufunc__ = None` makes
numpy arrays and scalars on the left return NotImplemented, so Python calls
the node's reflected operator; without it, `array * node` would broadcast
into an object array of one node per element.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class DomainError(ValueError):
    """A residual, reference or group action was evaluated outside its domain."""


class Node:
    """One recorded plain array in an AdjointGraph; its value is computed on record."""

    __slots__ = ("graph", "op", "args", "value", "needs_grad", "adjoint")
    __array_ufunc__ = None

    def __init__(self, graph, op, args, value, needs_grad):
        self.graph = graph
        self.op = op
        self.args = args
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
        return self.graph.neg(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1 or n > 4:
            raise ValueError("only small positive integer powers are supported on nodes")
        out = self
        for _ in range(n - 1):
            out = self.graph.mul(out, self)
        return out

    def exp(self):
        return self.graph.exp(self)


def _acc(arg: Node, contrib: np.ndarray, owned: bool = True) -> None:
    """Accumulate an adjoint contribution, which has the shape of `arg`."""
    if not arg.needs_grad:
        return
    c = np.asarray(contrib)
    if c.shape != arg.value.shape:
        raise ValueError(f"adjoint of shape {c.shape} for a node of shape "
                         f"{arg.value.shape}: the tape does not reduce over "
                         "broadcast axes")
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


def _vjp_neg(node):
    _acc(node.args[0], -node.adjoint)


def _vjp_exp(node):
    _acc(node.args[0], node.adjoint * node.value)


_VJPS: dict[str, Callable[[Node], None]] = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "neg": _vjp_neg,
    "exp": _vjp_exp,
}


class AdjointGraph:
    """Append-only record of plain array operations for reverse accumulation.

    Construction order is topological by definition, so the reverse pass is a
    single backward sweep that visits each node exactly once.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, op, args, value, needs_grad=None) -> Node:
        for a in args:
            if a.graph is not self:
                raise ValueError("nodes belong to different graphs")
        if needs_grad is None:
            needs_grad = any(a.needs_grad for a in args)
        node = Node(self, op, tuple(args), np.asarray(value, dtype=float), needs_grad)
        self.nodes.append(node)
        return node

    # ---- leaves ----

    def const(self, values) -> Node:
        return self._record("const", (), values, needs_grad=False)

    def param(self, values) -> Node:
        """Leaf tracked for gradients; caller must not mutate `values`."""
        return self._record("param", (), values, needs_grad=True)

    def lift(self, other) -> Node:
        """A node as is; a number or array as a constant leaf."""
        return other if isinstance(other, Node) else self.const(other)

    # ---- operations ----

    def add(self, a: Node, b: Node) -> Node:
        return self._record("add", (a, b), a.value + b.value)

    def sub(self, a: Node, b: Node) -> Node:
        return self._record("sub", (a, b), a.value - b.value)

    def mul(self, a: Node, b: Node) -> Node:
        return self._record("mul", (a, b), a.value * b.value)

    def div(self, a: Node, b: Node) -> Node:
        return self._record("div", (a, b), a.value / b.value)

    def neg(self, a: Node) -> Node:
        return self._record("neg", (a,), -a.value)

    def exp(self, a: Node) -> Node:
        return self._record("exp", (a,), np.exp(a.value))

    # ---- reverse accumulation ----

    def backward(self, seeds) -> None:
        """Sweep back from (node, adjoint) pairs, each adjoint of its node's shape.

        The seeds accumulate in the order given, before the sweep, so a node
        seeded twice, or seeded and then reached, sums its terms in that order.
        """
        for node in self.nodes:
            node.adjoint = None
        for node, adjoint in seeds:
            if node.graph is not self:
                raise ValueError("seed node belongs to a different graph")
            _acc(node, adjoint, owned=False)
        for node in reversed(self.nodes):
            if node.adjoint is not None and node.op in _VJPS:
                _VJPS[node.op](node)

