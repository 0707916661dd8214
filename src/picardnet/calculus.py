"""Constructive algebra on ReLU networks and their width vectors.

Three width-vector operators mirror three network constructions:

* ``dim_compose`` / ``compose``     -- function composition,
* ``dim_sum`` / ``scaled_sum``      -- coefficient-weighted sums of same-depth
                                       networks with common input/output widths,
* ``dim_merge`` / ``merge``         -- stacking outputs of same-depth networks
                                       over a common input.

``affine_network`` builds the exact network of x -> W x + c; the identity
network is its case W = I.  Each network operation is exact in real
arithmetic: the realization of the constructed network equals the
corresponding combination of the inputs' realizations, and its width vector
is exactly the operator applied to the inputs' width vectors.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .nets import DimVector, NeuralNetwork, _check_count, dims


# ---------------------------------------------------------------------------
# width-vector operators
# ---------------------------------------------------------------------------

def dim_compose(alpha: DimVector, beta: DimVector) -> DimVector:
    """Width vector of a composition: beta's entries, the fused interface
    entry ``beta[-1] + alpha[0]``, then alpha's remaining entries."""
    return DimVector(tuple(beta)[:-1] + (beta[-1] + alpha[0],) + tuple(alpha)[1:])


def dim_sum(alpha: DimVector, beta: DimVector) -> DimVector:
    """Entrywise interior sum; endpoints must agree and are preserved."""
    if len(alpha) != len(beta):
        raise ValueError("dim_sum needs equal lengths")
    if alpha[0] != beta[0] or alpha[-1] != beta[-1]:
        raise ValueError("dim_sum needs matching endpoint widths")
    mid = tuple(a + b for a, b in zip(tuple(alpha)[1:-1], tuple(beta)[1:-1]))
    return DimVector((alpha[0],) + mid + (beta[-1],))


def dim_merge(alpha: DimVector, beta: DimVector) -> DimVector:
    """Interior and last entries summed; shared first entry preserved."""
    if len(alpha) != len(beta):
        raise ValueError("dim_merge needs equal lengths")
    if alpha[0] != beta[0]:
        raise ValueError("dim_merge needs matching input widths")
    rest = tuple(a + b for a, b in zip(tuple(alpha)[1:], tuple(beta)[1:]))
    return DimVector((alpha[0],) + rest)


def identity_dims(d: int, length: int) -> DimVector:
    """The vector (d, 2d, ..., 2d, d) of a given length >= 3."""
    _check_count("d", d, 1)
    _check_count("length", length, 3)
    return DimVector((d,) + (2 * d,) * (length - 2) + (d,))


# ---------------------------------------------------------------------------
# network constructions
# ---------------------------------------------------------------------------

def _readonly(layers) -> tuple:
    """Mark every array of ``layers`` read-only, in place, and return them as
    a tuple.  Each array is either fresh or taken from an input network, so
    ``NeuralNetwork`` can share all of them without copying."""
    for W, B in layers:
        W.flags.writeable = False
        B.flags.writeable = False
    return tuple(layers)


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal matrix with the 2-D ``blocks`` along its diagonal."""
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _unsplit_tail(q: int, c: np.ndarray, hidden_layers: int) -> list:
    """The layers after u in R^q is split into (relu(u), relu(-u)): identity
    layers up to ``hidden_layers`` hidden layers, then [I | -I] (u+, u-) + c."""
    return ([(np.eye(2 * q), np.zeros(2 * q)) for _ in range(hidden_layers - 1)]
            + [(np.hstack([np.eye(q), -np.eye(q)]), c)])


def affine_network(W: np.ndarray, c: np.ndarray,
                   hidden_layers: int = 1) -> NeuralNetwork:
    """Network computing x -> W x + c, width vector (k, 2q, ..., 2q, q) for W
    of shape (q, k).  Uses the split u = relu(u) - relu(-u) on u = W x; the
    pair (u+, u-) is nonnegative, so identity layers pass it through ReLU."""
    W = np.asarray(W, dtype=np.float64)
    c = np.array(c, dtype=np.float64)  # a copy: _readonly freezes in place
    if W.ndim != 2 or W.size == 0:
        raise ValueError(f"W must be a nonempty matrix, got shape {W.shape}")
    q = W.shape[0]
    if c.shape != (q,):
        raise ValueError(f"offset c must have shape {(q,)}, got {c.shape}")
    _check_count("hidden_layers", hidden_layers, 1)
    layers = [(np.vstack([W, -W]), np.zeros(2 * q))]
    return NeuralNetwork(_readonly(layers + _unsplit_tail(q, c, hidden_layers)))


def identity_network(d: int, hidden_layers: int) -> NeuralNetwork:
    """Network computing the identity on R^d with the given hidden depth."""
    _check_count("d", d, 1)
    return affine_network(np.eye(d), np.zeros(d), hidden_layers)


def zero_network(d_in: int, d_out: int, length: int = 3) -> NeuralNetwork:
    """Network of the given dims-length realizing the zero map R^in -> R^out."""
    _check_count("d_in", d_in, 1)
    _check_count("d_out", d_out, 1)
    _check_count("length", length, 3)
    layers = [(np.zeros((1, d_in)), np.zeros(1))]
    for _ in range(length - 3):
        layers.append((np.zeros((1, 1)), np.zeros(1)))
    layers.append((np.zeros((d_out, 1)), np.zeros(d_out)))
    return NeuralNetwork(_readonly(layers))


def compose(f_net: NeuralNetwork, g_net: NeuralNetwork) -> NeuralNetwork:
    """Network realizing x -> f(g(x)).

    g's affine output u is re-expressed through one spliced hidden layer
    carrying (relu(u), relu(-u)); f's first weight is pre-multiplied by
    [I | -I] to recover u.  Width law: ``dim_compose(dims(f), dims(g))``.
    """
    d2 = g_net.output_width
    if f_net.input_width != d2:
        raise ValueError(
            f"compose: f input width {f_net.input_width} != g output width {d2}")
    Wg, Bg = g_net.layers[-1]
    bridge_W = np.vstack([Wg, -Wg])
    bridge_B = np.concatenate([Bg, -Bg])
    Wf, Bf = f_net.layers[0]
    head_W = np.hstack([Wf, -Wf])
    layers = (g_net.layers[:-1]
              + ((bridge_W, bridge_B), (head_W, Bf))
              + f_net.layers[1:])
    return NeuralNetwork(_readonly(layers))


def scaled_sum(nets: Sequence[NeuralNetwork],
               coeffs: Sequence[float]) -> NeuralNetwork:
    """Network realizing sum_i coeffs[i] * nets[i], all same shape contract.

    First layers are stacked vertically, interior layers block-diagonally,
    and the coefficients are folded into the concatenated output layer.
    Width law: the ``dim_sum`` fold of the inputs' width vectors.
    """
    if len(nets) == 0:
        raise ValueError("scaled_sum of an empty sequence")
    if len(nets) != len(coeffs):
        raise ValueError("one coefficient per network")
    depth = len(nets[0].layers)
    p, q = nets[0].input_width, nets[0].output_width
    for net in nets:
        if len(net.layers) != depth or net.input_width != p or net.output_width != q:
            raise ValueError("scaled_sum needs same depth and end widths")
    layers = []
    layers.append((np.vstack([n.layers[0][0] for n in nets]),
                   np.concatenate([n.layers[0][1] for n in nets])))
    for i in range(1, depth - 1):
        layers.append((_block_diag([n.layers[i][0] for n in nets]),
                       np.concatenate([n.layers[i][1] for n in nets])))
    layers.append((np.hstack([h * n.layers[-1][0] for h, n in zip(coeffs, nets)]),
                   sum(h * n.layers[-1][1] for h, n in zip(coeffs, nets))))
    return NeuralNetwork(_readonly(layers))


def merge(nets: Sequence[NeuralNetwork]) -> NeuralNetwork:
    """Network realizing x -> (f_1(x), ..., f_M(x)) stacked vertically.

    Width law: the ``dim_merge`` fold of the inputs' width vectors.
    """
    if len(nets) == 0:
        raise ValueError("merge of an empty sequence")
    depth = len(nets[0].layers)
    p = nets[0].input_width
    for net in nets:
        if len(net.layers) != depth or net.input_width != p:
            raise ValueError("merge needs same depth and input width")
    layers = [(np.vstack([n.layers[0][0] for n in nets]),
               np.concatenate([n.layers[0][1] for n in nets]))]
    for i in range(1, depth):
        layers.append((_block_diag([n.layers[i][0] for n in nets]),
                       np.concatenate([n.layers[i][1] for n in nets])))
    return NeuralNetwork(_readonly(layers))


def affine_wrap(net: NeuralNetwork, lam: float,
                b: np.ndarray, a: np.ndarray) -> NeuralNetwork:
    """Network realizing x -> lam * (f(x + b) + a), same width vector as f."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if b.shape != (net.input_width,):
        raise ValueError(f"shift b must have length {net.input_width}")
    if a.shape != (net.output_width,):
        raise ValueError(f"offset a must have length {net.output_width}")
    W1, B1 = net.layers[0]
    WL, BL = net.layers[-1]
    layers = ((W1, W1 @ b + B1),) + net.layers[1:-1] + ((lam * WL, lam * (BL + a)),)
    return NeuralNetwork(_readonly(layers))


def extend_depth(net: NeuralNetwork, extra_hidden: int) -> NeuralNetwork:
    """Same realization, dims-length grown by exactly ``extra_hidden``: the
    output u is split into (relu(u), relu(-u)), which the tail of an identity
    network passes through and recombines."""
    _check_count("extra_hidden", extra_hidden, 0)
    if extra_hidden == 0:
        return NeuralNetwork(net.layers)
    q = net.output_width
    WL, BL = net.layers[-1]
    layers = [(np.vstack([WL, -WL]), np.concatenate([BL, -BL]))]
    layers += _unsplit_tail(q, np.zeros(q), extra_hidden)
    return NeuralNetwork(net.layers[:-1] + _readonly(layers))
