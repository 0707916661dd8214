"""ReLU feed-forward networks as immutable (weight, bias) layer sequences.

A network is a tuple of H+1 layer pairs ((W_1, B_1), ..., (W_{H+1}, B_{H+1})),
H >= 1.  Evaluation applies the componentwise ReLU after every layer except
the last one, which stays affine.  Networks are values: all arrays are
read-only, and every operation that "modifies" a network builds a new one.
A read-only float64 array that owns its data is taken as it is, so networks
share such layers; any other array (a caller's writeable array, a view, another
dtype) is copied once at construction, and must be finite.

A weight is a dense matrix or a calculus-built ``_Triplet`` (entries and a
shape, taken unchecked); ``np.asarray(W)`` is the dense view of either.

``realize`` runs a batch, for every caller, in the equal row blocks of
``_blocks``, the one row-blocking rule, which the noise queries use too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Working-set cap, in float64 values, of a row block's widest array: malloc
# reuses 128 KiB arrays without fresh pages, and a block's input, output and
# 256 x 256 weight fit in a 2 MiB L2 cache.
_BLOCK = 1 << 14


def _blocks(n: int, size: int) -> list:
    """Slices that cut range(n) into equal blocks of at most size; one empty
    slice if n is 0."""
    parts = -(-n // size) or 1
    cuts = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _check_count(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless value is an integer >= low;
    a bool is not a count."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def relu(x: np.ndarray) -> np.ndarray:
    """Componentwise max(x, 0)."""
    return np.maximum(x, 0.0)


class DimVector(tuple):
    """Layer-width vector (k_0, k_1, ..., k_{H+1}), length >= 3: a tuple
    whose entries are checked at construction."""

    __slots__ = ()

    def __new__(cls, widths):
        self = super().__new__(cls, widths)
        if len(self) < 3:
            raise ValueError(f"need at least 3 widths, got {self}")
        if any(w < 1 for w in self):
            raise ValueError(f"widths must be positive, got {self}")
        return self


def dim_supnorm(v: DimVector) -> int:
    """Largest entry of a width vector."""
    return max(v)


class _Triplet:
    """A weight matrix of ``shape`` stored as read-only 1-D ``rows``, ``cols``
    and ``vals``, every other entry +0.0; only the calculus builds one.
    Scaling and negation keep the indices, and negation maps a stored +-0.0
    to +0.0, as it does an absent entry.  ``np.asarray`` gives the dense
    view, and ``csr``, built on first use, is the form products use."""

    __array_ufunc__ = None  # so h * W defers to __rmul__, not to a dense W
    ndim = 2

    def __init__(self, rows, cols, vals, shape):
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape
        self.size = shape[0] * shape[1]
        self.nbytes = rows.nbytes + cols.nbytes + vals.nbytes

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype)
        out[self.rows, self.cols] = self.vals
        return out

    @cached_property
    def csr(self):
        from scipy.sparse import csr_array  # 1.8 MB RSS: only if a triplet runs
        keep = self.vals != 0  # a -0.0 adds nothing to a sum of finite terms
        return csr_array((self.vals[keep], (self.rows[keep], self.cols[keep])),
                         shape=self.shape)

    def __mul__(self, h):
        return _Triplet(self.rows, self.cols, h * self.vals, self.shape)

    __rmul__ = __mul__

    def __neg__(self):
        return _Triplet(self.rows, self.cols, 0.0 - self.vals, self.shape)


def _frozen(a: np.ndarray) -> np.ndarray:
    if isinstance(a, _Triplet) or (isinstance(a, np.ndarray) and a.dtype == np.float64
                                   and not a.flags.writeable and a.flags.owndata):
        return a
    a = np.array(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("weights and biases must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NeuralNetwork:
    """Immutable ReLU network; ``layers[n] == (W_{n+1}, B_{n+1})``."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("a network needs at least 2 layer pairs")
        frozen = []
        prev_rows = None
        for W, B in self.layers:
            W = _frozen(W)
            B = _frozen(B)
            if W.ndim != 2 or B.ndim != 1:
                raise ValueError("weights must be matrices, biases vectors")
            if B.shape[0] != W.shape[0]:
                raise ValueError(
                    f"bias length {B.shape[0]} != weight rows {W.shape[0]}")
            if prev_rows is not None and W.shape[1] != prev_rows:
                raise ValueError(
                    f"layer input width {W.shape[1]} != previous output {prev_rows}")
            prev_rows = W.shape[0]
            frozen.append((W, B))
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_width(self) -> int:
        return self.layers[-1][0].shape[0]


def dims(net: NeuralNetwork) -> DimVector:
    """Width vector (k_0, ..., k_{H+1}) read off the layer shapes."""
    widths = [net.input_width]
    widths.extend(W.shape[0] for W, _ in net.layers)
    return DimVector(widths)


def param_count(net: NeuralNetwork) -> int:
    """Number of scalar parameters: sum of k_n (k_{n-1} + 1)."""
    return sum(W.shape[0] * (W.shape[1] + 1) for W, _ in net.layers)


def _product(W, h: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """W times the features of h: ``h @ W.T`` on the rows of h if rowwise,
    else ``W @ h`` on its first axis (h is 1-D or 2-D).  A triplet's product
    by its ``csr`` needs the memory of the dense input and output only."""
    if isinstance(W, np.ndarray):
        return h @ W.T if rowwise else W @ h
    return (W.csr @ h.T).T if rowwise else W.csr @ h


def _forward(net: NeuralNetwork, h: np.ndarray, rowwise: bool) -> np.ndarray:
    """The layers of net on the features of h (``_product``): each adds its
    bias and applies the ReLU in place on its product, a fresh array."""
    last = len(net.layers) - 1
    for n, (W, B) in enumerate(net.layers):
        h = _product(W, h, rowwise)
        h += B if rowwise else B.reshape((-1,) + (1,) * (h.ndim - 1))
        if n != last:
            np.maximum(h, 0.0, out=h)
    return h


def realize(net: NeuralNetwork, x: np.ndarray) -> np.ndarray:
    """Forward pass.

    ``x`` may be a single input vector of length k_0 or a batch of shape
    (batch, k_0); the output has matching shape with k_{H+1} columns.
    ``x`` is never written.  A batch runs in the fewest equal row blocks
    whose widest activation holds at most ``_BLOCK`` values.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 and net.input_width == 1:
        x = x.reshape(1)
    if not 1 <= x.ndim <= 2 or x.shape[-1] != net.input_width:
        raise ValueError(f"input of shape {x.shape} is not (k_0,) or "
                         f"(batch, k_0) with k_0={net.input_width}")
    if x.ndim == 1:
        return _forward(net, x, False)
    widest = max(W.shape[0] for W, _ in net.layers)
    return np.concatenate([_forward(net, x[b], True)
                           for b in _blocks(len(x), max(1, _BLOCK // widest))])


def network_to_text(net: NeuralNetwork) -> str:
    """Plain-text form: dims line, then per layer the rows of W then B."""
    lines = [" ".join(str(w) for w in dims(net))]
    for W, B in net.layers:
        for row in np.asarray(W):
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in B))
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> NeuralNetwork:
    """Inverse of :func:`network_to_text`; non-finite values are rejected."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    widths = [int(tok) for tok in lines[0].split()] if lines else []
    if len(widths) < 3:
        raise ValueError("dims line must have at least 3 entries")
    expected = 1 + sum(w + 1 for w in widths[1:])
    if len(lines) != expected:
        raise ValueError(f"dims {widths} need {expected} nonblank lines, "
                         f"got {len(lines)}")
    pos = 1
    layers = []
    for n in range(1, len(widths)):
        rows, cols = widths[n], widths[n - 1]
        W = np.array([[float(t) for t in lines[pos + i].split()] for i in range(rows)])
        if W.shape != (rows, cols):
            raise ValueError(f"layer {n}: expected shape {(rows, cols)}")
        pos += rows
        B = np.array([float(t) for t in lines[pos].split()])
        pos += 1
        layers.append((W, B))
    return NeuralNetwork(tuple(layers))
