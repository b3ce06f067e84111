"""Fully connected tanh networks: a fused order-K jet kernel and flat parameter IO.

`MlpJets` is the only place the network meets the tape.  It propagates the
jets of all outputs through the layers as (rows, batch, K) arrays, K = order
+ 1 for the highest derivative the caller reads, hands the residuals plain
leaves for the coefficients they read, and differentiates the whole network
by one hand-written reverse pass over the layers.  The same layer loop, at
order 0, evaluates the network (`mlp_values`), and at order 3 on a single
point gives its scalar jets (`mlp_forward`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import (JET_ORDER, N_COEFFS, AdjointGraph, Jet3, Node, _kcompose,
                       _kmul_t, _tanh_table)


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
        weights, biases = [], []
        pos = 0
        for wsh, bsh in layout.layer_shapes():
            n = wsh[0] * wsh[1]
            weights.append(flat[pos:pos + n].reshape(wsh).copy())
            pos += n
            biases.append(flat[pos:pos + bsh[0]].copy())
            pos += bsh[0]
        return cls(layout, weights, biases)

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout,
                        [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])


def init_mlp(layout: MlpLayout, seed: int) -> ParamSet:
    """Glorot-uniform weights, zero biases; bit-identical for identical seeds."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for (out_d, in_d), (b_d,) in layout.layer_shapes():
        bound = np.sqrt(6.0 / (in_d + out_d))
        weights.append(rng.uniform(-bound, bound, size=(out_d, in_d)))
        biases.append(np.zeros(b_d))
    return ParamSet(layout, weights, biases)


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
    equal, bit for bit at the training shape, those of an order-3 pass whose
    loss reads the same coefficients, so truncation moves no trajectory.
    """

    def __init__(self, graph: AdjointGraph, params: ParamSet, x_values, order: int):
        if not 0 <= order <= JET_ORDER:
            raise ValueError(f"jet order {order} out of range 0..{JET_ORDER}")
        self.graph = graph
        self.params = params
        self.order = order
        self._inputs, self._pre, self._tables, self.value = _jet_layers(
            params, _input_jet(x_values, order))
        self.outputs = [OutputJet(self, row) for row in range(params.layout.output_dim)]
        self._leaves: dict[tuple[int, int], Node] = {}

    def leaf(self, row: int, k: int) -> Node:
        """Plain tape leaf holding coefficient k of output row at every point."""
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient index {k} out of range for a jet "
                             f"of order {self.order}")
        key = (row, k)
        if key not in self._leaves:
            self._leaves[key] = self.graph.param(self.value[row, :, k])
        return self._leaves[key]

    def param_grad(self) -> np.ndarray:
        """d loss / d parameters as one flat vector, read after graph.backward."""
        g = np.zeros(self.value.shape)
        for (row, k), node in self._leaves.items():
            if node.adjoint is not None:
                g[row, :, k] += node.adjoint
        parts = []
        for i in reversed(range(len(self.params.weights))):
            x = self._inputs[i]
            rows, batch, n = x.shape
            gm = g.reshape(g.shape[0], batch * n)
            parts.append(g[..., 0].sum(axis=1))
            parts.append((_full_width(g) @ _full_width(x).T).ravel())
            if i > 0:
                xbar = (self.params.weights[i].T @ gm).reshape(x.shape)
                g = _kmul_t(xbar, _kcompose(self._tables[i - 1][1:], self._pre[i - 1]))
        return np.concatenate(parts[::-1])


class OutputJet:
    """One network output row; d(k) is its k-th derivative per point."""

    def __init__(self, jets: MlpJets, row: int):
        self.jets = jets
        self.row = row

    def d(self, k: int) -> Node:
        return self.jets.leaf(self.row, k)


def _full_width(a: np.ndarray) -> np.ndarray:
    """(rows, batch * 4) matrix of (rows, batch, K) jets, zero beyond coefficient K-1.

    The weight gradient sums over batch and coefficients in one product.  At
    the full order-3 width that product adds the same nonzero terms in the
    same order whatever K is, so the gradient, and with it every training
    trajectory, does not depend on the order the jets were truncated at.
    """
    rows, batch, n = a.shape
    if n < N_COEFFS:
        full = np.zeros((rows, batch, N_COEFFS))
        for k in range(n):  # one long strided copy per coefficient: ~4x faster
            full[..., k] = a[..., k]
        a = full
    return a.reshape(rows, batch * N_COEFFS)


def _input_jet(x_values, order: int) -> np.ndarray:
    """The (1, batch, order + 1) jet of the input variable itself."""
    t = np.asarray(x_values, dtype=float).ravel()
    h = np.zeros((1, t.size, order + 1))
    h[0, :, 0] = t
    if order > 0:
        h[0, :, 1] = 1.0
    return h


def _jet_layers(params: ParamSet, h: np.ndarray):
    """Forward pass on (rows, batch, K) jets.

    Returns each layer's input jets, each hidden layer's pre-activation jets
    and its tanh derivative tables f0..fK (the reverse pass reads f1..fK),
    and the output jets.
    """
    inputs, pre, tables = [], [], []
    last = len(params.weights) - 1
    n = h.shape[-1]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        rows, batch, _ = h.shape
        h = (w @ h.reshape(rows, batch * n)).reshape(w.shape[0], batch, n)
        h[..., 0] += b[:, None]
        if i < last:
            pre.append(h)
            table = _tanh_table(h[..., 0], n + 1)
            h = _kcompose(table, h)
            tables.append(table)
    return inputs, pre, tables, h


def mlp_forward(params: ParamSet, x: Jet3) -> list[Jet3]:
    """Evaluate the network on a single jet; pure, no gradient bookkeeping."""
    *_, out = _jet_layers(params, x.as_array().reshape(1, 1, N_COEFFS))
    return [Jet3.from_array(out[j, 0]) for j in range(params.layout.output_dim)]


def mlp_values(params: ParamSet, x_values) -> np.ndarray:
    """Network output values only, as an (output_dim, n) array: the jet kernel at order 0."""
    *_, out = _jet_layers(params, _input_jet(x_values, 0))
    return out[..., 0]


def save_weights(path, params: ParamSet, seed: int | None = None) -> None:
    """JSON header line (layout and seed) then the flat vector, little-endian f8."""
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
    with open(path, "wb") as fh:
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
