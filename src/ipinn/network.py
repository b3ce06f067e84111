"""Fully connected tanh networks: a fused order-K jet kernel and flat parameter IO.

This module owns the jet format.  A jet is a (K, rows, batch) array, K =
order + 1 for the highest derivative the caller reads, coefficient index
first as in Taylor-mode AD: coefficient k is the contiguous slice [k], shaped
like one derivative row.  The three kernels below build the tanh derivative
rows f, f', ..., compose such rows with a jet (the chain rule), and apply
the transpose of jet multiplication for the reverse pass.  Each kernel is
numpy expressions over whole (rows, batch) coefficient slices: it writes
only its result rows into caller-supplied jets, and a row-sized
intermediate is a temporary of its expression.  Every product runs once
per coefficient, so the operations on coefficient k do not depend on K: an
order-K pass gives the bits of an order-3 pass.

`MlpJets` owns every array of one pass.  It propagates the jets of all
outputs through the layers, and given the adjoint of those output jets it
differentiates the whole network by one hand-written reverse pass over the
layers.  It takes and returns plain arrays: which coefficients a loss reads
is the caller's business.  The same layer loop, at order 0 and without the
reverse arrays, evaluates the network (`mlp_values`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .atomic import atomic_write

JET_ORDER = 3


# ---------------------------------------------------------------------------
# jet kernels on coefficient arrays (shape (K, ...), K <= 4)
# ---------------------------------------------------------------------------

def _kmul_t(ybar: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Transpose of jet multiplication by b, applied to an adjoint jet.

    If y = b * a (the Leibniz product of jets) then
    abar[j] = sum_k binom(k, j) * b[k - j] * ybar[k]; this is the exact
    coefficient-space transpose of that product, truncated at the
    K = len(ybar) coefficients carried.  The result goes to `out`.
    """
    n = len(ybar)
    for j in range(n):
        np.multiply(ybar[j], b[0], out=out[j])
        for k in range(j + 1, n):
            c = math.comb(k, j)
            out[j] += ybar[k] * b[k - j] if c == 1 else float(c) * ybar[k] * b[k - j]
    return out


def _tanh_table(x: np.ndarray, out):
    """The first len(out) (1..5) derivatives f, f', ... of tanh at x, row by row.

    The value is computed by exp in the overflow-safe half-domain form; the
    derivative chain is generated from the value itself through 1 - tanh^2.
    Row k of `out` (a sequence of arrays of x.shape; the rows need not be
    one array) receives f^(k), and no row past the last is computed.
    """
    s = np.exp(-2.0 * np.abs(x))
    t = np.divide(np.copysign(1.0 - s, x), 1.0 + s, out=out[0])
    if len(out) > 1:
        tt = t * t
        p = np.subtract(1.0, tt, out=out[1])
    if len(out) > 2:
        np.multiply(-2.0 * t, p, out=out[2])
    if len(out) > 3:
        np.multiply(p, 6.0 * tt - 2.0, out=out[3])
    if len(out) > 4:
        np.multiply(p, 16.0 * t - 24.0 * tt * t, out=out[4])
    return out


def _kcompose(f, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Chain rule: compose the derivative rows f[0], f[1], ... with the inner jet a.

    Computes into `out` the K = len(a) (1..4) coefficients that a carries
    and reads the rows f[1] .. f[K-1] only.  Coefficient 0 of the result is
    f[0] itself, which the caller has already placed in `out[0]` (the tanh
    table writes its row 0 there), so it is not copied.
    """
    n = len(a)
    if n > 1:
        np.multiply(f[1], a[1], out=out[1])
    if n > 2:
        a1sq = a[1] * a[1]
        np.add(f[2] * a1sq, f[1] * a[2], out=out[2])
    if n > 3:
        np.add(f[3] * a1sq * a[1] + 3.0 * f[2] * a[1] * a[2], f[1] * a[3], out=out[3])
    return out


@dataclass(frozen=True)
class MlpLayout:
    """Shape of a scalar-input multilayer perceptron.

    hidden_layers counts the tanh layers; the output layer is linear.  The
    input is the scalar t, so input_dim is always 1.  A size that is not an
    int (a bool is not), negative hidden_layers, or a hidden_width or
    output_dim below 1 raises ValueError.
    """

    input_dim: int = 1
    hidden_layers: int = 5
    hidden_width: int = 40
    output_dim: int = 1

    def __post_init__(self):
        for name in ("input_dim", "hidden_layers", "hidden_width", "output_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {type(value).__name__} {value!r}")
        if self.input_dim != 1:
            raise ValueError(f"input_dim must be 1 (a scalar input), got {self.input_dim!r}")
        for name, least in (("hidden_layers", 0), ("hidden_width", 1), ("output_dim", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")

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
    """Layer parameters stored in one flat vector, which is what a set is made from.

    `ParamSet(layout, flat)` copies a vector of `layout.flat_size()` floats:
    every layer's weights (row-major) then bias, layer after layer.  `weights`
    and `biases` are per-layer views into that copy, so writing into a view
    writes the vector.  None of the three can be rebound.  `to_flat` copies.
    """

    def __init__(self, layout: MlpLayout, flat):
        flat = np.array(flat, dtype=float)
        if flat.shape != (layout.flat_size(),):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit layout "
                             f"({layout.flat_size()} values expected)")
        self.layout = layout
        self._flat = flat
        weights, biases, pos = [], [], 0
        for (out_d, in_d), _ in layout.layer_shapes():
            weights.append(flat[pos:pos + out_d * in_d].reshape(out_d, in_d))
            pos += out_d * in_d
            biases.append(flat[pos:pos + out_d])
            pos += out_d
        self._weights, self._biases = tuple(weights), tuple(biases)

    # read-only, so that rebinding cannot part a view from the vector
    flat = property(lambda self: self._flat)
    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)

    def to_flat(self) -> np.ndarray:
        return self._flat.copy()

    @classmethod
    def from_flat(cls, layout: MlpLayout, flat) -> "ParamSet":
        """The constructor under the name that scripts call it by."""
        return cls(layout, flat)


def init_mlp(layout: MlpLayout, seed: int) -> ParamSet:
    """Glorot-uniform weights and zero biases: each layer's weights are drawn
    into its view of a zero flat vector.  Bit-identical for identical seeds."""
    rng = np.random.default_rng(seed)
    params = ParamSet(layout, np.zeros(layout.flat_size()))
    for w in params.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


class MlpJets:
    """One tanh-MLP jet pass at a fixed batch of points, with every array it needs.

    `order` is the highest derivative the caller reads; the jets carry its
    K = order + 1 coefficients (order 0..3) and nothing above.  The arrays
    are allocated on construction and every `forward` overwrites them:
    `train` builds one pass per cell, every other caller one per call.

    `forward(params)` applies each layer's affine map to all K coefficients
    at once, composes tanh with the chain rule truncated at `order`, and
    returns the output jets, shaped (K, output_dim, batch).  Given
    `value_bar`, the adjoint of the loss with respect to those jets,
    `param_grad` pulls it back through the layers by the hand-derived
    transpose of the forward pass.  Values and gradient equal, bit for bit,
    those of an order-3 pass whose loss reads the same coefficients: above
    the order the loss reads, the adjoint coefficients of that pass are
    exactly zero, so truncation moves no trajectory.

    Of each hidden layer the pass keeps only what the reverse pass reads:
    the activation jet `act[i]` and `dcomp[i]`, the tanh derivative composed
    with the pre-activation jet.  The pre-activation jet (`pre`) and
    `higher`, `order` rows of the tanh table, are shared by all layers; the
    table writes f0 into `act[i][0]`, f1 into `dcomp[i][0]` and f2..fK into
    `higher`, and the reverse pass reuses `pre` for an activation's adjoint.
    So every jet is allocated once per pass, and the kernels' (width, batch)
    intermediates are only the temporaries of their expressions.  `value_bar`
    is a buffer of the output shape for the caller to gather its adjoint in,
    and `grad` the `ParamSet` that receives the gradient.
    Without `with_grad` the pass lacks its reverse half (`dcomp`,
    `value_bar`, `g_hidden`, `grad`), all hidden layers share one `act`
    buffer, and the table fills f0 and f1..f(K-1), the rows `_kcompose`
    reads: such a pass evaluates the network but cannot differentiate it.
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
        self.value = np.empty((n, layout.output_dim, batch))
        self.higher = np.empty((order, width, batch))
        # table_rows[i]: where hidden layer i's tanh rows go
        if with_grad:
            self.act = [np.empty(jet) for _ in range(depth)]
            self.dcomp = [np.empty(jet) for _ in range(depth)]
            self.table_rows = [[a[0], d[0], *self.higher]
                               for a, d in zip(self.act, self.dcomp)]
            # g_hidden: the adjoint of a hidden pre-activation
            self.value_bar = np.empty(self.value.shape)
            self.g_hidden = np.empty(jet)
            self.grad = ParamSet(layout, np.zeros(layout.flat_size()))
        else:
            self.act = [np.empty(jet)] * depth
            self.table_rows = [[a[0], *self.higher] for a in self.act]
        self.params = None

    def forward(self, params: ParamSet) -> np.ndarray:
        """The output jets of `params`, shaped (K, output_dim, batch).

        The array is this pass's own buffer, overwritten by its next pass.
        """
        if params.layout != self.layout:
            raise ValueError(f"parameters of layout {params.layout} do not fit a pass "
                             f"built for {self.layout}")
        self.params = params
        h = self.input
        last = len(params.weights) - 1
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = self.pre if i < last else self.value
            np.matmul(w, h, out=z)
            z[0] += b[:, None]
            if i < last:
                rows = self.table_rows[i]
                _tanh_table(z[0], rows)
                h = _kcompose(rows, z, self.act[i])
                if self.with_grad:
                    _kcompose(rows[1:], z, self.dcomp[i])
        return self.value

    def param_grad(self, value_bar: np.ndarray) -> np.ndarray:
        """d loss / d parameters as one flat vector, from value_bar = d loss / d jets.

        `value_bar` has the shape of the output jets of the last `forward`
        and is only read.  The vector is `grad.flat`, this pass's own
        buffer, overwritten by its next pass.
        """
        if not self.with_grad:
            raise ValueError("a pass built without with_grad keeps no layer jets "
                             "to differentiate")
        if self.params is None:
            raise ValueError("no forward pass has run, so there are no layer jets "
                             "to differentiate")
        if value_bar.shape != self.value.shape:
            raise ValueError(f"adjoint of shape {value_bar.shape} for output jets "
                             f"of shape {self.value.shape}")
        g = value_bar
        grad_w, grad_b = self.grad.weights, self.grad.biases
        inputs = [self.input] + self.act
        for i in reversed(range(len(self.params.weights))):
            x, gw = inputs[i], grad_w[i]
            np.add.reduce(g[0], axis=1, out=grad_b[i])
            np.matmul(g[0], x[0].T, out=gw)
            for k in range(1, len(x)):  # an order-3 pass adds only zeros after these
                gw += g[k] @ x[k].T
            if i > 0:
                np.matmul(self.params.weights[i].T, g, out=self.pre)
                g = _kmul_t(self.pre, self.dcomp[i - 1], self.g_hidden)
        return self.grad.flat


def mlp_values(params: ParamSet, x_values) -> np.ndarray:
    """Network output values only, as an (output_dim, n) array: the jet kernel at order 0."""
    return MlpJets(params.layout, x_values, 0, with_grad=False).forward(params)[0]


def _check_seed(seed, where: str = "") -> None:
    if seed is not None and not (type(seed) is int and seed >= 0):
        raise ValueError(f"{where}the seed must be null or a non-negative integer, "
                         f"got {seed!r}")


def save_weights(path, params: ParamSet, seed: int | None = None) -> None:
    """JSON header line (layout and seed) then the flat vector, little-endian f8.

    The header holds the `MlpLayout` fields under "layout", keys sorted, which
    `load_weights` checks against the same fields.  A seed that `load_weights`
    would refuse raises ValueError and writes nothing.  The file is replaced
    atomically: a failed write leaves any earlier file.
    """
    _check_seed(seed)
    header = {"layout": asdict(params.layout), "seed": seed}
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
    try:
        layout = MlpLayout(**sizes)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    seed = header["seed"]
    _check_seed(seed, f"{path}: ")
    size = layout.flat_size()
    if len(body) != 8 * size:
        raise ValueError(f"{path}: body holds {len(body)} bytes; the layout needs "
                         f"{size} float64 values ({8 * size} bytes)")
    return ParamSet(layout, np.frombuffer(body, dtype="<f8")), seed
