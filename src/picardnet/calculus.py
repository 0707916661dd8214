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
    return DimVector(beta[:-1] + (beta[-1] + alpha[0],) + alpha[1:])


def dim_sum(alpha: DimVector, beta: DimVector) -> DimVector:
    """Entrywise interior sum; endpoints must agree and are preserved."""
    if len(alpha) != len(beta):
        raise ValueError("dim_sum needs equal lengths")
    if alpha[0] != beta[0] or alpha[-1] != beta[-1]:
        raise ValueError("dim_sum needs matching endpoint widths")
    mid = tuple(a + b for a, b in zip(alpha[1:-1], beta[1:-1]))
    return DimVector((alpha[0],) + mid + (beta[-1],))


def dim_merge(alpha: DimVector, beta: DimVector) -> DimVector:
    """Interior and last entries summed; shared first entry preserved."""
    if len(alpha) != len(beta):
        raise ValueError("dim_merge needs equal lengths")
    if alpha[0] != beta[0]:
        raise ValueError("dim_merge needs matching input widths")
    rest = tuple(a + b for a, b in zip(alpha[1:], beta[1:]))
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


def _side_by_side(name: str, layer_lists: Sequence, stacked: bool = True) -> list:
    """Layer i of every list side by side, biases concatenated: first layers
    stacked over a common input if ``stacked``, all others block-diagonal."""
    if len(layer_lists) == 0:
        raise ValueError(f"{name} of an empty sequence")
    if stacked and len({(len(ls), ls[0][0].shape[1]) for ls in layer_lists}) > 1:
        raise ValueError(f"{name} needs same depth and input width")
    return [((np.vstack if i == 0 and stacked else _block_diag)(
                [ls[i][0] for ls in layer_lists]),
             np.concatenate([ls[i][1] for ls in layer_lists]))
            for i in range(len(layer_lists[0]))]


def _sums_side_by_side(sums: Sequence[tuple], stacked: bool = True) -> tuple:
    """Scaled sums, as (layer lists, coeffs) pairs, side by side straight from
    their summands: the layers before the output, over every summand of every
    sum (``_side_by_side``), and each sum's coefficient-folded output layer."""
    for lists, coeffs in sums:
        if len(lists) != len(coeffs):
            raise ValueError("scaled_sum needs one coefficient per network")
        if len({ls[-1][0].shape[0] for ls in lists}) > 1:
            raise ValueError("scaled_sum needs same output width")
        if not np.isfinite(coeffs).all():
            raise ValueError(f"scaled_sum coefficients must be finite, got {coeffs!r}")
    return (_side_by_side("scaled_sum", [ls[:-1] for lists, _ in sums for ls in lists],
                          stacked),
            [(np.hstack([h * ls[-1][0] for h, ls in zip(cs, lists)]),
              sum(h * ls[-1][1] for h, ls in zip(cs, lists))) for lists, cs in sums])


def _split(W: np.ndarray, B: np.ndarray) -> tuple:
    """The layer (W; -W), (B; -B): its ReLU outputs (relu(u), relu(-u))
    carry u = W x + B."""
    return np.vstack([W, -W]), np.concatenate([B, -B])


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


def _then(f_net: NeuralNetwork, W: np.ndarray, B: np.ndarray) -> tuple:
    """The layers of f after an affine output u = W y + B: u split into
    (relu(u), relu(-u)), then f's first weight times [I | -I] recovers u."""
    if f_net.input_width != W.shape[0]:
        raise ValueError(f"compose: f input width {f_net.input_width} != "
                         f"g output width {W.shape[0]}")
    Wf, Bf = f_net.layers[0]
    return (_split(W, B), (np.hstack([Wf, -Wf]), Bf)) + f_net.layers[1:]


def compose(f_net: NeuralNetwork, g_net: NeuralNetwork) -> NeuralNetwork:
    """Network realizing x -> f(g(x)): g's layers, then f after g's output
    (``_then``).  Width law: ``dim_compose(dims(f), dims(g))``."""
    return NeuralNetwork(_readonly(g_net.layers[:-1]
                                   + _then(f_net, *g_net.layers[-1])))


def scaled_sum(nets: Sequence[NeuralNetwork],
               coeffs: Sequence[float]) -> NeuralNetwork:
    """Network realizing sum_i coeffs[i] * nets[i]: first layers stacked,
    interior layers block-diagonal, coefficients folded into the output layer.
    Width law: the ``dim_sum`` fold of the inputs' width vectors."""
    layers, out = _sums_side_by_side([([n.layers for n in nets], coeffs)])
    return NeuralNetwork(_readonly(layers + out))


def _composed_sums(f_net: NeuralNetwork, sums: Sequence[tuple],
                   coeffs: Sequence[float]) -> NeuralNetwork:
    """Network realizing x -> sum_i coeffs[i] f(s_i(x)) for the scaled sums
    s_i of ``sums`` ((nets, coeffs) pairs), with the bytes of
    ``scaled_sum([compose(f_net, scaled_sum(*s)) for s in sums], coeffs)``;
    no s_i is built on its own, so every layer is written once."""
    layers, outs = _sums_side_by_side([([n.layers for n in ns], cs) for ns, cs in sums])
    tail, out = _sums_side_by_side([([_then(f_net, *o) for o in outs], coeffs)],
                                   stacked=False)
    return NeuralNetwork(_readonly(layers + tail + out))


def merge(nets: Sequence[NeuralNetwork]) -> NeuralNetwork:
    """Network realizing x -> (f_1(x), ..., f_M(x)) stacked vertically.
    Width law: the ``dim_merge`` fold of the inputs' width vectors."""
    return NeuralNetwork(_readonly(_side_by_side("merge", [n.layers for n in nets])))


def affine_wrap(net: NeuralNetwork, lam: float,
                b: np.ndarray, a: np.ndarray) -> NeuralNetwork:
    """Network realizing x -> lam * (f(x + b) + a), same width vector as f."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if b.shape != (net.input_width,):
        raise ValueError(f"shift b must have length {net.input_width}")
    if a.shape != (net.output_width,):
        raise ValueError(f"offset a must have length {net.output_width}")
    for name, v in (("lam", lam), ("shift b", b), ("offset a", a)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v!r}")
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
        return net
    q = net.output_width
    layers = [_split(*net.layers[-1])] + _unsplit_tail(q, np.zeros(q), extra_hidden)
    return NeuralNetwork(net.layers[:-1] + _readonly(layers))
