"""Multilevel Picard estimation of McKean-Vlasov dynamics.

The state equation has unit additive noise and a drift that enters through
the law of the solution: X(t) = x + int_0^t E[mu(y, X(s))]|_{y=X(s)} ds + W(t).
The estimator replaces the expectation by recursive resampling over a tree of
noise indices.  Level 0 is zero; level n adds the Brownian term, t*mu(0,0),
and telescoping corrections between consecutive lower levels evaluated at
resampled times.

Two implementations share the same noise contract: ``mlp_estimate`` is the
direct scalar recursion, and ``mlp_estimate_batch`` runs many top-level
samples in lockstep.  Its recursion carries one uint64 stream key per row
and caches nothing.  The sub-estimates of a group of resampling indices k
run as one call on stacked rows, so each call folds keys, draws uniforms,
queries Brownian values at their grid points and evaluates the drift once
for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import realize
from .noise import (NoiseTree, ThetaIndex, base_keys, brownian_at,
                    brownian_path_batch, fold_keys, uniform_time,
                    uniform_time_batch)
from .problems import TestProblem

# Caps that keep the working set of the batch recursion in cache: rows of
# one group of sub-estimates (its call stacks twice as many), and numbers
# in the widest activation of one drift evaluation.
_GROUP_ROWS = 2048
_DRIFT_VALUES = 1 << 18


@dataclass(frozen=True)
class MlpParams:
    """Estimator knobs: levels n, branching base m, sample count K, time t."""

    n: int
    m: int
    K: int
    t: float

    def __post_init__(self):
        if self.n < 0 or self.m < 1 or self.K < 1 or self.t < 0:
            raise ValueError(f"invalid estimator parameters {self}")


def floor_to_grid(t: float, m: int, n: int, T: float) -> float:
    """Largest grid point k*T/m^n below t (clamped to [0, T]).

    The small slack absorbs times that are grid points up to rounding, so a
    nominal grid time is never floored to the previous one.
    """
    if t < 0 or t > T * (1 + 1e-12):
        raise ValueError(f"time {t} outside [0, {T}]")
    G = m ** n
    return int(_grid_steps(t, G, T)) * T / G


def _grid_steps(t, G: int, T: float):
    """Steps k of the grid point k*T/G that floor_to_grid picks for t."""
    return np.minimum(np.floor(t * G / T + 1e-9).astype(np.int64), G)


def mlp_estimate(problem: TestProblem, tree: NoiseTree, theta: ThetaIndex,
                 n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimate of the state at time t started from x, scalar path."""
    d = problem.d
    if n > tree.grid_levels:
        raise ValueError(
            f"level {n} exceeds grid resolution {tree.grid_levels}")
    if n == 0:
        return np.zeros(d)
    theta = tuple(theta)
    x = np.asarray(x, dtype=np.float64)
    mu0 = realize(problem.mu_net, np.zeros(2 * d))
    val = x + brownian_at(tree, theta, floor_to_grid(t, m, n, tree.T)) + t * mu0
    for ell in range(1, n):
        M = m ** (n - ell)
        for k in range(1, M + 1):
            child = theta + (n, k, ell)
            s = uniform_time(tree, child) * t
            hi = np.concatenate([
                mlp_estimate(problem, tree, theta, ell, m, s, x),
                mlp_estimate(problem, tree, child, ell, m, s, x)])
            lo = np.concatenate([
                mlp_estimate(problem, tree, theta, ell - 1, m, s, x),
                mlp_estimate(problem, tree, child, ell - 1, m, s, x)])
            val = val + (t / M) * (realize(problem.mu_net, hi)
                                   - realize(problem.mu_net, lo))
    return val


def _mlp_batch(problem: TestProblem, tree: NoiseTree, keys: np.ndarray,
               n: int, m: int, t: np.ndarray, x: np.ndarray,
               mu0: np.ndarray) -> np.ndarray:
    """Level-n estimates for the streams of ``keys`` at times t, (len, d).

    The sub-estimates of a group of k at one level ell run as one call on
    stacked rows: the parent keys once per k, then the child keys.  Rows
    are independent, so a call over too many rows runs in equal parts.
    """
    d, R = problem.d, len(keys)
    if n == 0 or R == 0:
        return np.zeros((R, d))
    if R > _GROUP_ROWS:
        return np.concatenate([
            _mlp_batch(problem, tree, keys[b], n, m, t[b], x, mu0)
            for b in _blocks(R, _GROUP_ROWS)])
    G = m ** n
    fine = _grid_steps(t, G, tree.T) * (tree.grid_size // G)
    val = x + brownian_path_batch(tree, keys, fine) + t[:, None] * mu0
    group = _GROUP_ROWS // R
    for ell in range(1, n):
        M = m ** (n - ell)
        for k0 in range(1, M + 1, group):
            ks = np.arange(k0, min(k0 + group, M + 1))
            child = fold_keys(fold_keys(fold_keys(keys, n), ks[:, None]),
                              ell).ravel()
            s = np.tile(uniform_time_batch(child) * np.tile(t, len(ks)), 2)
            both = np.concatenate([np.tile(keys, len(ks)), child])
            hi = _mlp_batch(problem, tree, both, ell, m, s, x, mu0)
            lo = _mlp_batch(problem, tree, both, ell - 1, m, s, x, mu0)
            rows = len(child)
            mu = _drift(problem.mu_net, np.hstack([
                np.concatenate([hi[:rows], lo[:rows]]),
                np.concatenate([hi[rows:], lo[rows:]])]))
            for c in (mu[:rows] - mu[rows:]).reshape(len(ks), R, d):
                val = val + (t / M)[:, None] * c
    return val


def _drift(mu_net, inputs: np.ndarray) -> np.ndarray:
    """``realize(mu_net, inputs)`` in equal row blocks whose widest
    activation holds at most _DRIFT_VALUES numbers."""
    widest = max(W.shape[0] for W, _ in mu_net.layers)
    return np.concatenate([
        realize(mu_net, inputs[b])
        for b in _blocks(len(inputs), max(1, _DRIFT_VALUES // widest))])


def _blocks(n: int, size: int) -> list:
    """Slices that cut range(n) into equal blocks of at most size."""
    parts = -(-n // size)
    cuts = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def mlp_estimate_batch(problem: TestProblem, tree: NoiseTree, bases,
                       n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimates for the tuples (b,), b in bases, shape (len, d).

    Sample b of the output equals ``mlp_estimate`` with theta = (b,) up to
    floating-point reassociation in the matrix products.
    """
    if n > tree.grid_levels:
        raise ValueError(
            f"level {n} exceeds grid resolution {tree.grid_levels}")
    keys = base_keys(tree.master_seed, np.asarray(list(bases), np.uint64))
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    return _mlp_batch(problem, tree, keys, n, m, np.full(len(keys), float(t)),
                      np.asarray(x, dtype=np.float64), mu0)


def monte_carlo_payoff(problem: TestProblem, tree: NoiseTree, K: int,
                       n: int, m: int, x: np.ndarray) -> float:
    """Average payoff over K level-n terminal-state samples, theta = (i,)."""
    if K < 1:
        raise ValueError("need K >= 1")
    states = mlp_estimate_batch(problem, tree, range(1, K + 1),
                                n, m, tree.T, x)
    return float(np.mean(realize(problem.f_net, states)[:, 0]))
