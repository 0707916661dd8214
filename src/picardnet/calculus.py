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
is exactly the operator applied to the inputs' width vectors.  Each runs on
layer lists (``_side_by_side``, ``_scaled_sum``, ``_then``, ``_deepened``),
which synthesis calls directly; only the public functions check inputs and
build networks.

``_layout`` lays weights side by side: dense up to 2^16 entries of dense
blocks, else as a triplet layer (``nets._Triplet``) of the blocks' entries,
so a synthesized network holds its nonzeros, not millions of zeros.

The layer functions build many networks of one shape at once: an array may
carry a leading copy axis (a dense weight (copies, h, w), a bias (copies,
q), a triplet's ``vals`` (copies, e) beside shared ``rows`` and ``cols``),
and a block without one, such as a drift layer, is broadcast across the
copies; ``_copy`` takes copies out.  The public constructions are the case
without a copy axis.  Where the copies of a dense block differ in which
entries are +0.0, its triplet stores the union, so a copy may store +0.0
where it has no entry; triplet negation keeps such an entry at +0.0.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .nets import (DimVector, NeuralNetwork, _Triplet, _check_count, _product,
                   dims)


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

def _network(layers) -> NeuralNetwork:
    """The network of ``layers``, fresh arrays or those of input networks,
    sharing each one marked read-only in place (a triplet's already are)."""
    for W, B in layers:
        for a in (B,) if isinstance(W, _Triplet) else (W, B):
            a.flags.writeable = False
    return NeuralNetwork(tuple(layers))


# The size rule: all-dense layouts of at most this many entries stay dense.
_DENSE_ENTRIES = 2 ** 16


def _entries(W) -> tuple:
    """(rows, cols, vals) of W; a dense W's entries are those not +0.0 in
    some copy, so a copy holds +0.0 at the entries of another."""
    if isinstance(W, _Triplet):
        return W.rows, W.cols, W.vals
    bits = W.view(np.int64)
    rows, cols = np.nonzero(bits if W.ndim == 2 else bits.any(axis=0))
    return rows, cols, W[..., rows, cols]


def _cat(arrays: Sequence) -> np.ndarray:
    """The arrays joined along their last axis, each broadcast across the
    copies of the others."""
    lead = max((a.shape[:-1] for a in arrays), key=len)
    return np.concatenate([a if a.ndim > len(lead) else
                           np.broadcast_to(a, lead + a.shape) for a in arrays], axis=-1)


def _layout(blocks: Sequence, down: bool = True, across: bool = True):
    """The ``blocks`` (matrices per copy) in order, each below the one before
    if ``down`` and right of it if ``across`` (both: block-diagonal).  Dense
    if every block is dense and the result has at most _DENSE_ENTRIES entries
    per copy, else the triplet of the blocks' entries at their offsets."""
    r = list(accumulate((b.shape[-2] * down for b in blocks), initial=0))
    c = list(accumulate((b.shape[-1] * across for b in blocks), initial=0))
    shape = (r[-1] or blocks[0].shape[-2], c[-1] or blocks[0].shape[-1])
    if (shape[0] * shape[1] <= _DENSE_ENTRIES
            and all(isinstance(b, np.ndarray) for b in blocks)):
        out = np.zeros(max((b.shape[:-2] for b in blocks), key=len) + shape)
        for b, i, j in zip(blocks, r, c):
            out[..., i:i + b.shape[-2], j:j + b.shape[-1]] = b
        return out
    found = {id(b): b for b in blocks}  # a shared block may recur
    found = {i: _entries(b) for i, b in found.items()}
    rows, cols, vals = zip(*(found[id(b)] for b in blocks))
    return _Triplet(np.concatenate([a + i for a, i in zip(rows, r)]),
                    np.concatenate([a + j for a, j in zip(cols, c)]),
                    _cat(vals), shape)


def _copy(layers: Sequence, s) -> list:
    """Copies s (an index or a slice) of the layers; an array without a copy
    axis is shared by every copy."""
    def take(a, ndim):
        return a[s] if a.ndim > ndim else a
    return [(_Triplet(W.rows, W.cols, take(W.vals, 1), W.shape)
             if isinstance(W, _Triplet) else take(W, 2), take(B, 1))
            for W, B in layers]


def _side_by_side(name: str, layer_lists: Sequence) -> list:
    """Layer i of every list side by side, biases concatenated: first layers
    stacked over a common input, all others block-diagonal."""
    if len(layer_lists) == 0:
        raise ValueError(f"{name} of an empty sequence")
    if len({(len(ls), ls[0][0].shape[-1]) for ls in layer_lists}) > 1:
        raise ValueError(f"{name} needs same depth and input width")
    return [(_layout([ls[i][0] for ls in layer_lists], across=i > 0),
             _cat([ls[i][1] for ls in layer_lists]))
            for i in range(len(layer_lists[0]))]


def _scaled_sum(layer_lists: Sequence, coeffs: Sequence) -> list:
    """The layers of the scaled sum of the lists: the layers before their
    outputs side by side, then the output layers beside each other, each
    times its coefficient (a number, or a column of one per copy), biases
    summed in order.  ``scaled_sum`` checks coefficients and output widths."""
    hs = [np.asarray(h) for h in coeffs]
    return _side_by_side("scaled_sum", [ls[:-1] for ls in layer_lists]) + [(
        _layout([h * ls[-1][0] if isinstance(ls[-1][0], _Triplet)
                 else h[..., None] * ls[-1][0] for h, ls in zip(hs, layer_lists)],
                down=False),
        sum(h * ls[-1][1] for h, ls in zip(hs, layer_lists)))]


def _split(W: np.ndarray, B: np.ndarray) -> tuple:
    """The layer (W; -W), (B; -B): its ReLU outputs (relu(u), relu(-u))
    carry u = W x + B."""
    return _layout([W, -W], across=False), _cat([B, -B])


def affine_network(W: np.ndarray, c: np.ndarray,
                   hidden_layers: int = 1) -> NeuralNetwork:
    """Network computing x -> W x + c, width vector (k, 2q, ..., 2q, q) for W
    of shape (q, k).  Uses the split u = relu(u) - relu(-u) on u = W x; the
    pair (u+, u-) is nonnegative, so identity layers pass it through ReLU,
    and [I | -I] (u+, u-) + c recombines it."""
    W = np.asarray(W, dtype=np.float64)
    c = np.array(c, dtype=np.float64)  # a copy: _network freezes in place
    if W.ndim != 2 or W.size == 0 or not np.isfinite(W).all():
        raise ValueError(f"W must be a nonempty finite matrix, got {W!r}")
    q = W.shape[0]
    if c.shape != (q,) or not np.isfinite(c).all():
        raise ValueError(f"offset c must be a finite vector of shape {(q,)}, "
                         f"got {c!r}")
    _check_count("hidden_layers", hidden_layers, 1)
    layers = [(np.vstack([W, -W]), np.zeros(2 * q))]
    layers += [(np.eye(2 * q), np.zeros(2 * q)) for _ in range(hidden_layers - 1)]
    return _network(layers + [(np.hstack([np.eye(q), -np.eye(q)]), c)])


def identity_network(d: int, hidden_layers: int) -> NeuralNetwork:
    """Network computing the identity on R^d with the given hidden depth."""
    _check_count("d", d, 1)
    return affine_network(np.eye(d), np.zeros(d), hidden_layers)


def zero_network(d_in: int, d_out: int, length: int = 3) -> NeuralNetwork:
    """Network of the given dims-length realizing the zero map R^in -> R^out."""
    _check_count("d_in", d_in, 1)
    _check_count("d_out", d_out, 1)
    _check_count("length", length, 3)
    return _network([(np.zeros((1, d_in)), np.zeros(1))]
                    + [(np.zeros((1, 1)), np.zeros(1)) for _ in range(length - 3)]
                    + [(np.zeros((d_out, 1)), np.zeros(d_out))])


@lru_cache(maxsize=64)
def _shared(build, *shape) -> tuple:
    """The layers of ``build(*shape)``, built once per shape and shared."""
    return build(*shape).layers


def _then(f_net: NeuralNetwork, W: np.ndarray, B: np.ndarray) -> list:
    """The layers of f after an affine output u = W y + B: u split into
    (relu(u), relu(-u)), then f's first weight times [I | -I] recovers u."""
    if f_net.input_width != W.shape[-2]:
        raise ValueError(f"compose: f input width {f_net.input_width} != "
                         f"g output width {W.shape[-2]}")
    Wf, Bf = f_net.layers[0]
    return [_split(W, B), (_layout([Wf, -Wf], down=False), Bf), *f_net.layers[1:]]


def compose(f_net: NeuralNetwork, g_net: NeuralNetwork) -> NeuralNetwork:
    """Network realizing x -> f(g(x)): g's layers, then f after g's output
    (``_then``).  Width law: ``dim_compose(dims(f), dims(g))``."""
    return _network([*g_net.layers[:-1], *_then(f_net, *g_net.layers[-1])])


def scaled_sum(nets: Sequence[NeuralNetwork],
               coeffs: Sequence[float]) -> NeuralNetwork:
    """Network realizing sum_i coeffs[i] * nets[i]: first layers stacked,
    interior layers block-diagonal, coefficients folded into the output layer.
    Width law: the ``dim_sum`` fold of the inputs' width vectors."""
    if len(nets) != len(coeffs):
        raise ValueError("scaled_sum needs one coefficient per network")
    if len({net.output_width for net in nets}) > 1:
        raise ValueError("scaled_sum needs same output width")
    if {bool, np.bool_} & set(map(type, coeffs)) or not np.isfinite(coeffs).all():
        raise ValueError(f"scaled_sum coefficients must be finite numbers: {coeffs!r}")
    return _network(_scaled_sum([n.layers for n in nets], coeffs))


def _composed_sums(f_net: NeuralNetwork, layers: Sequence,
                   coeffs: Sequence[float]) -> NeuralNetwork:
    """Network realizing x -> sum_i coeffs[i] f(s_i(x)) for the copies s_i
    of ``layers``, with the bytes of ``scaled_sum([compose(f_net, s_i) for
    s_i ...], coeffs)`` on their networks; no s_i is built on its own."""
    composed = [*layers[:-1], *_then(f_net, *layers[-1])]
    return _network(_scaled_sum([_copy(composed, i) for i in range(len(coeffs))],
                                coeffs))


def merge(nets: Sequence[NeuralNetwork]) -> NeuralNetwork:
    """Network realizing x -> (f_1(x), ..., f_M(x)) stacked vertically.
    Width law: the ``dim_merge`` fold of the inputs' width vectors."""
    return _network(_side_by_side("merge", [n.layers for n in nets]))


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
        if isinstance(v, (bool, np.bool_)) or not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite and not a bool, got {v!r}")
    (W1, B1), *mid, (WL, BL) = net.layers
    return _network([(W1, _product(W1, b) + B1), *mid, (lam * WL, lam * (BL + a))])


def _deepened(layers: Sequence, extra_hidden: int) -> Sequence:
    """The layers with ``extra_hidden`` more hidden layers: their output split
    into (relu(u), relu(-u)), then an identity network's tail."""
    if extra_hidden == 0:
        return layers
    tail = _shared(identity_network, layers[-1][0].shape[-2], extra_hidden)[1:]
    return [*layers[:-1], _split(*layers[-1]), *tail]


def extend_depth(net: NeuralNetwork, extra_hidden: int) -> NeuralNetwork:
    """Same realization, dims-length grown by exactly ``extra_hidden``."""
    _check_count("extra_hidden", extra_hidden, 0)
    return net if extra_hidden == 0 else _network(_deepened(net.layers, extra_hidden))
