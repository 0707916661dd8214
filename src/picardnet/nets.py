"""ReLU feed-forward networks as immutable (weight, bias) layer sequences.

A network is a tuple of H+1 layer pairs ((W_1, B_1), ..., (W_{H+1}, B_{H+1})),
H >= 1.  Evaluation applies the componentwise ReLU after every layer except
the last one, which stays affine.  Networks are values: all arrays are
read-only, and every operation that "modifies" a network builds a new one.
A read-only float64 array that owns its data is taken as it is, so networks
share such layers; any other array (a caller's writeable array, a view, another
dtype) is copied once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_count(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless value is an integer >= low."""
    if not isinstance(value, (int, np.integer)) or value < low:
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


def _frozen(a: np.ndarray) -> np.ndarray:
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and not a.flags.writeable and a.flags.owndata):
        return a
    a = np.array(a, dtype=np.float64)
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


def realize(net: NeuralNetwork, x: np.ndarray) -> np.ndarray:
    """Forward pass.

    ``x`` may be a single input vector of length k_0 or a batch of shape
    (batch, k_0); the output has matching shape with k_{H+1} columns.
    Each layer adds its bias and applies the ReLU in place on its product,
    a fresh array, so ``x`` is never written.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 and net.input_width == 1:
        x = x.reshape(1)
    if not 1 <= x.ndim <= 2 or x.shape[-1] != net.input_width:
        raise ValueError(f"input of shape {x.shape} is not (k_0,) or "
                         f"(batch, k_0) with k_0={net.input_width}")
    batched = x.ndim == 2
    h = x
    last = len(net.layers) - 1
    for n, (W, B) in enumerate(net.layers):
        h = h @ W.T if batched else W @ h
        h += B
        if n != last:
            np.maximum(h, 0.0, out=h)
    return h


def network_to_text(net: NeuralNetwork) -> str:
    """Plain-text form: dims line, then per layer the rows of W then B."""
    lines = [" ".join(str(w) for w in dims(net))]
    for W, B in net.layers:
        for row in W:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in B))
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> NeuralNetwork:
    """Inverse of :func:`network_to_text`."""
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
        if not (np.isfinite(W).all() and np.isfinite(B).all()):
            raise ValueError(f"layer {n}: weights and biases must be finite")
        layers.append((W, B))
    return NeuralNetwork(tuple(layers))
