"""A reverse-mode tape over plain arrays.

The tape (`AdjointGraph`) records plain arithmetic on ndarrays of shape
(batch,) or ().  Residuals read network output coefficients as plain leaves
(see `network.MlpJets`) and combine them with the six ops of one table,
`_OPS`, which names each op once with the ufunc that computes its value and
its vector-Jacobian product: add, sub, mul, div, neg and exp.  Every op is
recorded by `AdjointGraph.apply`, which the `Node` operators call.
`backward(seeds)` starts from (node, adjoint) pairs, which the loss
supplies in closed form, and one backward sweep then leaves an adjoint on
every leaf that needs one.  A node that needs a gradient meets only nodes of
its own shape or constants, so an adjoint always has the shape of its node.

A number or an array may stand on either side of a `Node`: `apply` lifts it
to a `const` leaf.  `Node.__array_ufunc__ = None` makes numpy arrays and
scalars on the left return NotImplemented, so Python calls the node's
reflected operator; without it, `array * node` would broadcast into an
object array of one node per element.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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
        return self.graph.apply("add", self, other)

    def __radd__(self, other):
        return self.graph.apply("add", other, self)

    def __sub__(self, other):
        return self.graph.apply("sub", self, other)

    def __rsub__(self, other):
        return self.graph.apply("sub", other, self)

    def __mul__(self, other):
        return self.graph.apply("mul", self, other)

    def __rmul__(self, other):
        return self.graph.apply("mul", other, self)

    def __truediv__(self, other):
        return self.graph.apply("div", self, other)

    def __rtruediv__(self, other):
        return self.graph.apply("div", other, self)

    def __neg__(self):
        return self.graph.apply("neg", self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1 or n > 4:
            raise ValueError("only small positive integer powers are supported on nodes")
        out = self
        for _ in range(n - 1):
            out = self.graph.apply("mul", out, self)
        return out

    def exp(self):
        return self.graph.apply("exp", self)


def _acc(arg: Node, contrib: np.ndarray) -> None:
    """Accumulate an adjoint contribution, which has the shape of `arg`.

    An adjoint is never written in place, so a contribution is stored as it
    is, even one that is also another node's adjoint or a caller's seed.
    """
    if not arg.needs_grad:
        return
    c = np.asarray(contrib)
    if c.shape != arg.value.shape:
        raise ValueError(f"adjoint of shape {c.shape} for a node of shape "
                         f"{arg.value.shape}: the tape does not reduce over "
                         "broadcast axes")
    arg.adjoint = c if arg.adjoint is None else arg.adjoint + c


def _vjp_add(node, a, b):
    _acc(a, node.adjoint)
    _acc(b, node.adjoint)


def _vjp_sub(node, a, b):
    _acc(a, node.adjoint)
    _acc(b, -node.adjoint)


def _vjp_mul(node, a, b):
    _acc(a, node.adjoint * b.value)
    _acc(b, node.adjoint * a.value)


def _vjp_div(node, a, b):
    _acc(a, node.adjoint / b.value)
    _acc(b, -node.adjoint * node.value / b.value)


def _vjp_neg(node, a):
    _acc(a, -node.adjoint)


def _vjp_exp(node, a):
    _acc(a, node.adjoint * node.value)


_OPS: dict[str, tuple[np.ufunc, Callable[..., None]]] = {
    "add": (np.add, _vjp_add),
    "sub": (np.subtract, _vjp_sub),
    "mul": (np.multiply, _vjp_mul),
    "div": (np.divide, _vjp_div),
    "neg": (np.negative, _vjp_neg),
    "exp": (np.exp, _vjp_exp),
}


class AdjointGraph:
    """Append-only record of plain array operations for reverse accumulation.

    Construction order is topological by definition, so the reverse pass is a
    single backward sweep that visits each node exactly once.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, op, args, value, needs_grad) -> Node:
        node = Node(self, op, args, np.asarray(value, dtype=float), needs_grad)
        self.nodes.append(node)
        return node

    def const(self, values) -> Node:
        return self._record("const", (), values, False)

    def param(self, values) -> Node:
        """Leaf tracked for gradients; caller must not mutate `values`."""
        return self._record("param", (), values, True)

    def apply(self, op: str, *operands) -> Node:
        """Record `op` of `_OPS` on `operands`, each a node of this graph or a
        number or array, which becomes a `const` leaf first, in operand order."""
        args, values, needs_grad = [], [], False
        for a in operands:
            if not isinstance(a, Node):
                a = self.const(a)
            elif a.graph is not self:
                raise ValueError("nodes belong to different graphs")
            args.append(a)
            values.append(a.value)
            needs_grad = needs_grad or a.needs_grad
        return self._record(op, tuple(args), _OPS[op][0](*values), needs_grad)

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
            _acc(node, adjoint)
        for node in reversed(self.nodes):
            if node.adjoint is not None and node.args:
                _OPS[node.op][1](node, *node.args)
