"""Deterministic, order-independent noise indexed by integer tuples.

A :class:`NoiseTree` plays the role of one fixed random outcome: for every
index tuple theta it provides one uniform variate on [0, 1] and one Brownian
path on the grid {k T / G}, G = m^grid_levels.  Every value is a pure
function of (master_seed, theta, query), so evaluation order is irrelevant
and distinct theta behave like independent streams.

Streams come from a SplitMix64-style finalizer: the tuple is folded into a
64-bit key, and the key plus counter * golden ratio is finalized into each
output word (counter 1: the uniform; 2 + node*d + component: a normal).
No path is stored: W(k) is the Levy-Ciesielski (Brownian-bridge) sum on the
dyadic grid 0..P, P = 2^J >= G, W(k) = (k/P) W(P) + sum_{j<J} tent_j(k) z_j
(Glasserman 2003, Sec. 3.1), so a query draws the J + 1 normals of the
nodes above k: node 0 is W(P), node 2^j + i the midpoint of interval i of
level j.  Batch queries run in cache-sized blocks of keys.  W(0) = 0
exactly, so index-0 rows never enter a block: they are exact zeros and
draw no normal.  A coarse index is a multiple of a power of two, where the
tents of all finer levels are zero, so a block draws normals only for the
nodes live at some index in it and sums exact zeros for the rest.
Python-int scalar and uint64 batch paths give the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .nets import _check_count

ThetaIndex = tuple[int, ...]

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_PHI_U = np.uint64(_PHI)
_MUL1_U = np.uint64(_MUL1)
_MUL2_U = np.uint64(_MUL2)

# Working-set cap, in float64 values, of a Brownian query block and of a drift
# block's widest activation: malloc reuses 128 KiB arrays without fresh pages,
# and a block's input, output and 256 x 256 weight fit in a 2 MiB L2 cache.
_BLOCK = 1 << 14


def _mix(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return x ^ (x >> 31)


def _mix_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MUL1_U
    x ^= x >> np.uint64(27)
    x *= _MUL2_U
    x ^= x >> np.uint64(31)
    return x


def _to_unit(v):
    """Map 64-bit words (a Python int or a uint64 array) to (0, 1)."""
    return ((v >> 11) + 0.5) * 2.0 ** -53


def theta_key(master_seed: int, theta: ThetaIndex) -> int:
    """64-bit stream key for one index tuple."""
    if len(theta) == 0:
        raise ValueError("theta must be a nonempty tuple")
    h = master_seed & _MASK
    for e in theta:
        if e < 0 or e > _MASK:
            raise ValueError(f"theta entries must lie in [0, 2**64): {theta}")
        h = _mix(h ^ _mix((e + _PHI) & _MASK))
    return h


def fold_keys(keys: np.ndarray, element) -> np.ndarray:
    """Extend stream keys by one further tuple element; ``element`` is an
    int or an integer array that broadcasts against ``keys``."""
    # ndmin=1 keeps the arithmetic on arrays, which wrap modulo 2**64
    # silently; NumPy scalars would warn on the same overflow.
    element = np.array(element, dtype=np.uint64, ndmin=1)
    return _mix_array(keys ^ _mix_array(element + _PHI_U))


def base_keys(master_seed: int, bases: np.ndarray) -> np.ndarray:
    """Stream keys for the single-element tuples (b,) for each b in bases."""
    b = np.asarray(bases, dtype=np.uint64)
    return fold_keys(np.full_like(b, master_seed & _MASK), b)


def _values(key_arr: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output words for keys (broadcast) at 1-based value counters."""
    return _mix_array(key_arr + counters * _PHI_U)


@dataclass(frozen=True)
class NoiseTree:
    """One fixed noise realization over the whole index-tuple family.

    grid_levels fixes the finest Brownian grid step T / m**grid_levels; every
    time queried by the estimator at recursion level <= grid_levels lies on
    this grid.  Nothing is cached per tuple; only the bridge constants of
    the grid are computed, once, at construction.
    """

    master_seed: int
    T: float
    d: int
    grid_levels: int
    m: int
    _bridge: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, low in (("d", 1), ("grid_levels", 0), ("m", 1)):
            _check_count(name, getattr(self, name), low)
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T!r}")
        if self.m > 1 and (self.grid_levels > 53 or self.grid_size > 2 ** 53):
            raise ValueError(
                f"grid size m**grid_levels = {self.m}**{self.grid_levels} "
                "exceeds 2**53; grid times and indices would not be exact")
        # One column per node above an index: W(P), given span 2P so that its
        # weight min(r, span - r) is k, then one per level j < J.
        J = int(self.grid_size - 1).bit_length()
        shift, first = np.r_[J + 1, J:0:-1], np.r_[0, 1 << np.arange(J)]
        scale = np.sqrt(self.T / self.grid_size / (1 << np.minimum(shift, J)))
        counter = first * self.d + (2 + np.arange(self.d))[:, None]
        object.__setattr__(self, "_bridge", (
            shift, 1 << shift, np.maximum(first - 1, 0), scale, counter))

    @property
    def grid_size(self) -> int:
        return self.m ** self.grid_levels


def uniform_time(tree: NoiseTree, theta: ThetaIndex) -> float:
    """The uniform variate on (0, 1) attached to one index tuple."""
    h = theta_key(tree.master_seed, tuple(theta))
    return _to_unit(_mix(h + _PHI))


def uniform_time_batch(keys: np.ndarray) -> np.ndarray:
    """Vector of uniforms for a batch of pre-folded stream keys."""
    return _to_unit(_values(keys, np.uint64(1)))


def brownian_path_batch(tree: NoiseTree, keys: np.ndarray,
                        idx: np.ndarray) -> np.ndarray:
    """W at grid index idx[b] for each stream key b, shape (len(keys), d)."""
    keys, G = np.asarray(keys), tree.grid_size
    if keys.ndim != 1 or (keys.size and keys.dtype.kind not in "ui"):
        raise ValueError("keys must be a 1-D array of integer stream keys, "
                         f"got dtype {keys.dtype} and shape {keys.shape}")
    if keys.dtype.kind == "i" and keys.min(initial=0) < 0:
        raise ValueError("keys must be nonnegative stream keys")
    keys = keys.astype(np.uint64, copy=False)
    k = np.asarray(idx)
    if (k.shape != keys.shape or (k.size and k.dtype.kind not in "ui")
            or k.min(initial=0) < 0 or k.max(initial=0) > G):
        raise ValueError(f"idx must hold one integer grid index in [0, {G}] "
                         "per key")
    # W(0) = 0 exactly: index-0 rows stay zero and out of the blocks.
    out, rows = np.zeros((len(keys), tree.d)), np.flatnonzero(k)
    keys, k = keys[rows], k[rows].astype(np.int64, copy=False)
    step = max(1, _BLOCK // tree._bridge[-1].size)
    for lo in range(0, len(rows), step):
        out[rows[lo:lo + step]] = _bridge_sum(tree, keys[lo:lo + step],
                                              k[lo:lo + step])
    return out


def _bridge_sum(tree: NoiseTree, keys: np.ndarray,
                k: np.ndarray) -> np.ndarray:
    """W at grid indices k for one block of keys.

    The tents of column c have span 2^shift[c] and vanish at its
    multiples, so the column is live in the block iff its span exceeds
    o & -o, the largest power of two dividing every index (o is their
    bitwise or).  Spans halve from column to column, so the live columns
    come first.  Only they draw normals; the others add exact zeros to the
    sum over every column, which keeps the order of the additions and so
    every value.  Index-0 rows never enter a block from
    ``brownian_path_batch``: they would draw every live column only to
    weight it by zero.
    """
    shift, span, last, scale, counter = tree._bridge
    o = int(np.bitwise_or.reduce(k, initial=0))
    live = len(shift) + 1 - (o & -o).bit_length() if o else 0
    cell = np.minimum(k[:, None] >> shift[:live], last[:live])
    r = k[:, None] - (cell << shift[:live])
    weight = np.minimum(r, span[:live] - r) * scale[:live]
    counters = (cell * tree.d)[:, None, :] + counter[:, :live]
    z = ndtri(_to_unit(_values(keys[:, None, None],
                               counters.view(np.uint64))))
    terms = z * weight[:, None, :]
    if live < len(span):
        terms = np.concatenate(
            [terms, np.zeros(terms.shape[:2] + (len(span) - live,))], axis=-1)
    return terms.sum(axis=-1)


def grid_index(tree: NoiseTree, t: float) -> int:
    """Index of a finest-grid time, rejecting off-grid queries."""
    G = tree.grid_size
    pos = t / tree.T * G
    k = int(round(pos))
    if k < 0 or k > G or abs(pos - k) > 1e-6:
        raise ValueError(f"time {t} is not on the grid with step T/{G}")
    return k


def brownian_at(tree: NoiseTree, theta: ThetaIndex, t: float) -> np.ndarray:
    """Brownian value W^theta(t) at a finest-grid time, shape (d,)."""
    key = np.array([theta_key(tree.master_seed, tuple(theta))], np.uint64)
    return _bridge_sum(tree, key, np.array([grid_index(tree, t)]))[0]
