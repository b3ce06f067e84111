"""Fully connected tanh networks: a fused order-K jet kernel and flat parameter IO.

`MlpJets` is the only place the network meets the tape.  It propagates the
jets of all outputs through the layers as (K, rows, batch) arrays, K = order
+ 1 for the highest derivative the caller reads, hands the residuals plain
leaves for the coefficients they read, and differentiates the whole network
by one hand-written reverse pass over the layers.  The same layer loop, at
order 0, evaluates the network (`mlp_values`).

Coefficient k of a jet is its contiguous slice [k], and every product runs
once per coefficient, so the operations on coefficient k do not depend on K:
an order-K pass gives the bits of an order-3 pass.

Every array of a pass lives in a `JetWorkspace`.  Training keeps one per
cell and each epoch overwrites it; every other caller gets a fresh one.  The
kernels write into the workspace with the same numpy operations, in the same
order, as they would into fresh arrays, so the two give the same bits.  Of
each hidden layer the workspace keeps only the two jets the reverse pass
reads: the activation and the tanh derivative composed with the
pre-activation, which the forward pass computes while the layer's tanh rows
are at hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .atomic import atomic_write
from .autodiff import JET_ORDER, AdjointGraph, Node, _kcompose, _kmul_t, _tanh_table


@dataclass(frozen=True)
class MlpLayout:
    """Shape of a scalar-input multilayer perceptron.

    hidden_layers counts the tanh layers; the output layer is linear.
    """

    input_dim: int = 1
    hidden_layers: int = 5
    hidden_width: int = 40
    output_dim: int = 1

    def dims(self) -> list[int]:
        return ([self.input_dim]
                + [self.hidden_width] * self.hidden_layers
                + [self.output_dim])

    def layer_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        d = self.dims()
        return [((d[i + 1], d[i]), (d[i + 1],)) for i in range(len(d) - 1)]

    def flat_size(self) -> int:
        return sum(w[0] * w[1] + b[0] for w, b in self.layer_shapes())


class ParamSet:
    """Structured layer parameters with a lossless flat-vector view."""

    def __init__(self, layout: MlpLayout, weights, biases):
        expected = layout.layer_shapes()
        if len(weights) != len(expected) or len(biases) != len(expected):
            raise ValueError("wrong number of layers for layout")
        self.layout = layout
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for (wsh, bsh), w, b in zip(expected, self.weights, self.biases):
            if w.shape != wsh or b.shape != bsh:
                raise ValueError(f"layer shape mismatch: {w.shape} vs {wsh}")

    def to_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, layout: MlpLayout, flat) -> "ParamSet":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (layout.flat_size(),):
            raise ValueError(f"flat vector of length {flat.shape} does not fit layout "
                             f"({layout.flat_size()} expected)")
        weights, biases = _layer_views(layout, flat)
        return cls(layout, [w.copy() for w in weights], [b.copy() for b in biases])


def _layer_views(layout: MlpLayout, flat: np.ndarray):
    """Per-layer weight and bias views into a flat parameter-shaped vector."""
    weights, biases = [], []
    pos = 0
    for wsh, bsh in layout.layer_shapes():
        n = wsh[0] * wsh[1]
        weights.append(flat[pos:pos + n].reshape(wsh))
        pos += n
        biases.append(flat[pos:pos + bsh[0]])
        pos += bsh[0]
    return weights, biases


def init_mlp(layout: MlpLayout, seed: int) -> ParamSet:
    """Glorot-uniform weights, zero biases; bit-identical for identical seeds."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for (out_d, in_d), (b_d,) in layout.layer_shapes():
        bound = np.sqrt(6.0 / (in_d + out_d))
        weights.append(rng.uniform(-bound, bound, size=(out_d, in_d)))
        biases.append(np.zeros(b_d))
    return ParamSet(layout, weights, biases)


class JetWorkspace:
    """Every array of one network's jet forward and reverse pass, allocated once.

    A workspace belongs to one (layout, collocation points, order): `train`
    builds one per cell and every epoch writes into the same buffers, with
    the same numpy operations in the same order as a pass on fresh arrays, so
    reusing it moves no bit of any trajectory.  Jets are (K, rows, batch).
    Per hidden layer it keeps only what the reverse pass reads: the
    activation jet `act[i]` and, with `with_grad`, `dcomp[i]`, the tanh
    derivative composed with the pre-activation jet.  The pre-activation jet
    (`pre`), the tanh rows above f1 (`higher`) and the (width, batch)
    scratch arrays are shared by all layers; the tanh table writes f0 into
    `act[i][0]` and f1 into `dcomp[i][0]`.  The input jet is built here,
    once.  The reverse buffers are allocated on the first `param_grad`, and
    the reverse pass reuses `pre` for an activation's adjoint.
    Without `with_grad` there is no `dcomp`, f1 goes to `higher[0]`, and
    every hidden layer writes its activation into the same buffer,
    overwriting the one before it; such a workspace evaluates the network but
    cannot differentiate it.
    """

    def __init__(self, layout: MlpLayout, x_values, order: int, with_grad: bool = True):
        if not 0 <= order <= JET_ORDER:
            raise ValueError(f"jet order {order} out of range 0..{JET_ORDER}")
        self.layout = layout
        self.order = order
        self.with_grad = with_grad
        self.points = np.asarray(x_values, dtype=float).ravel()
        n, batch = order + 1, self.points.size
        self.input = np.zeros((n, 1, batch))
        self.input[0, 0] = self.points
        if order > 0:
            self.input[1, 0] = 1.0
        width, depth = layout.hidden_width, layout.hidden_layers
        jet = (n, width, batch)
        self.pre = np.empty(jet)
        # table_rows[i]: where hidden layer i's tanh rows f0..fK go
        if with_grad:
            self.act = [np.empty(jet) for _ in range(depth)]
            self.dcomp = [np.empty(jet) for _ in range(depth)]
            self.higher = np.empty((n - 1, width, batch))
            self.table_rows = [[a[0], d[0], *self.higher]
                               for a, d in zip(self.act, self.dcomp)]
        else:
            self.act = [np.empty(jet)] * depth
            self.dcomp = None
            self.higher = np.empty(jet)
            self.table_rows = [[a[0], *self.higher] for a in self.act]
        self.value = np.empty((n, layout.output_dim, batch))
        self.scratch = [np.empty((width, batch)) for _ in range(3)]

    def fits(self, layout: MlpLayout, x_values, order: int) -> bool:
        return (layout == self.layout and order == self.order
                and np.array_equal(np.ravel(x_values), self.points))

    @cached_property
    def reverse(self) -> "_ReverseBuffers":
        if not self.with_grad:
            raise ValueError("a workspace built without with_grad keeps no "
                             "layer jets to differentiate")
        return _ReverseBuffers(self)


class _ReverseBuffers:
    """The reverse pass's arrays: adjoint jets, the flat gradient and its views.

    `xbar` takes the adjoint of a hidden activation; it is the workspace's
    `pre`, which only the forward pass reads.  `g_out` and `g_hidden` hold
    the adjoint of the output and of a hidden pre-activation.  `term_w[i]`
    holds one coefficient's term of layer i's weight gradient.
    """

    def __init__(self, ws: JetWorkspace):
        layout = ws.layout
        self.xbar = ws.pre
        self.g_out = np.empty(ws.value.shape)
        self.g_hidden = np.empty(ws.pre.shape)
        self.grad = np.empty(layout.flat_size())
        self.grad_w, self.grad_b = _layer_views(layout, self.grad)
        self.term_w = [np.empty(w.shape) for w in self.grad_w]


class MlpJets:
    """Truncated Taylor jets of every network output at a batch of points.

    `order` is the highest derivative the caller reads; the jets carry its
    K = order + 1 coefficients (order 0..3) and nothing above.  The forward
    pass runs once, on construction: each layer applies its affine map to all
    K coefficients at once and composes tanh with the chain rule truncated at
    `order`.  Output coefficient (row, k) enters the tape as a plain leaf the
    first time a residual asks for it.  After `graph.backward(loss)`,
    `param_grad` pulls the leaf adjoints back through the layers by the
    hand-derived transpose of that forward pass.  Values, loss and gradient
    equal, bit for bit, those of an order-3 pass whose loss reads the same
    coefficients: above the order the loss reads, the adjoint coefficients
    of that pass are exactly zero, so truncation moves no trajectory.

    All arrays live in `workspace`; without one a fresh workspace is built,
    so the values and the gradient of this pass are never overwritten.  A
    shared workspace (one per training cell) is overwritten by the next pass.
    """

    def __init__(self, graph: AdjointGraph, params: ParamSet, x_values, order: int,
                 workspace: JetWorkspace | None = None):
        if workspace is None:
            workspace = JetWorkspace(params.layout, x_values, order)
        elif not workspace.fits(params.layout, x_values, order):
            raise ValueError("workspace was built for another layout, points or order")
        self.graph = graph
        self.params = params
        self.order = order
        self.workspace = workspace
        self.value = _jet_layers(params, workspace)
        self._leaves: dict[tuple[int, int], Node] = {}

    @property
    def outputs(self) -> list["OutputJet"]:
        return [OutputJet(self, row) for row in range(self.params.layout.output_dim)]

    def leaf(self, row: int, k: int) -> Node:
        """Plain tape leaf holding coefficient k of output row at every point."""
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient index {k} out of range for a jet "
                             f"of order {self.order}")
        key = (row, k)
        if key not in self._leaves:
            self._leaves[key] = self.graph.param(self.value[k, row])
        return self._leaves[key]

    def param_grad(self) -> np.ndarray:
        """d loss / d parameters as one flat vector, read after graph.backward."""
        ws = self.workspace
        rb = ws.reverse
        g = rb.g_out
        g.fill(0.0)
        for (row, k), node in self._leaves.items():
            if node.adjoint is not None:
                g[k, row] += node.adjoint
        inputs = [ws.input] + ws.act
        for i in reversed(range(len(self.params.weights))):
            x = inputs[i]
            np.add.reduce(g[0], axis=1, out=rb.grad_b[i])
            np.matmul(g[0], x[0].T, out=rb.grad_w[i])
            for k in range(1, len(x)):  # an order-3 pass adds only zeros after these
                np.matmul(g[k], x[k].T, out=rb.term_w[i])
                rb.grad_w[i] += rb.term_w[i]
            if i > 0:
                np.matmul(self.params.weights[i].T, g, out=rb.xbar)
                g = _kmul_t(rb.xbar, ws.dcomp[i - 1], rb.g_hidden, ws.scratch)
        return rb.grad


class OutputJet:
    """One network output row; d(k) is its k-th derivative per point."""

    def __init__(self, jets: MlpJets, row: int):
        self.jets = jets
        self.row = row

    def d(self, k: int) -> Node:
        return self.jets.leaf(self.row, k)


def _jet_layers(params: ParamSet, ws: JetWorkspace) -> np.ndarray:
    """Forward pass on (K, rows, batch) jets, into the buffers of `ws`.

    Fills each hidden layer's activation jets and, if `ws` keeps them, the
    tanh derivative composed with its pre-activation jets (the chain rule
    applied to the rows f1..fK, which is all the reverse pass reads of the
    layer), and returns the output jets.
    """
    h = ws.input
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = ws.pre if i < last else ws.value
        np.matmul(w, h, out=z)
        z[0] += b[:, None]
        if i < last:
            rows = ws.table_rows[i]
            _tanh_table(z[0], len(z) + 1, rows, ws.scratch)
            h = _kcompose(rows, z, ws.act[i], ws.scratch)
            if ws.with_grad:
                _kcompose(rows[1:], z, ws.dcomp[i], ws.scratch)
    return ws.value


def mlp_values(params: ParamSet, x_values) -> np.ndarray:
    """Network output values only, as an (output_dim, n) array: the jet kernel at order 0."""
    ws = JetWorkspace(params.layout, x_values, 0, with_grad=False)
    return _jet_layers(params, ws)[0]


def save_weights(path, params: ParamSet, seed: int | None = None) -> None:
    """JSON header line (layout and seed) then the flat vector, little-endian f8.

    The file is replaced atomically: a failed write leaves any earlier file.
    """
    layout = params.layout
    header = {
        "layout": {
            "input_dim": layout.input_dim,
            "hidden_layers": layout.hidden_layers,
            "hidden_width": layout.hidden_width,
            "output_dim": layout.output_dim,
        },
        "seed": seed,
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.to_flat().astype("<f8").tobytes())


def load_weights(path) -> tuple[ParamSet, int | None]:
    """Parameters and seed from a file written by `save_weights`.

    A file whose header or length does not fit raises ValueError naming the
    file and the fault.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    if not line:
        raise ValueError(f"{path}: empty weights file")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(f"{path}: no JSON header line") from None
    if not isinstance(header, dict) or "layout" not in header or "seed" not in header:
        raise ValueError(f"{path}: the header needs the keys 'layout' and 'seed'")
    sizes = header["layout"]
    keys = {f.name for f in fields(MlpLayout)}
    if not isinstance(sizes, dict) or set(sizes) != keys:
        raise ValueError(f"{path}: the layout needs exactly the keys {sorted(keys)}")
    if not all(type(v) is int and v >= 0 for v in sizes.values()):
        raise ValueError(f"{path}: layout sizes must be non-negative integers")
    layout = MlpLayout(**sizes)
    size = layout.flat_size()
    if len(body) != 8 * size:
        raise ValueError(f"{path}: body holds {len(body)} bytes; the layout needs "
                         f"{size} float64 values ({8 * size} bytes)")
    return ParamSet.from_flat(layout, np.frombuffer(body, dtype="<f8")), header["seed"]
