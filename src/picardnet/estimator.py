"""Multilevel Picard estimation of McKean-Vlasov dynamics.

The state equation has unit additive noise and a drift that enters through
the law of the solution: X(t) = x + int_0^t E[mu(y, X(s))]|_{y=X(s)} ds + W(t).
The estimator replaces the expectation by recursive resampling over a tree of
noise indices.  Level 0 is zero; level n adds the Brownian term, t*mu(0,0),
and telescoping corrections between consecutive lower levels evaluated at
resampled times.

Two implementations share the same noise contract: ``mlp_estimate`` is the
direct scalar recursion, and ``mlp_estimate_batch`` runs many top-level
samples in lockstep through one structural copy of the recursion tree.  It
caches only stream keys and queries each Brownian value at its grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import realize
from .noise import (NoiseTree, ThetaIndex, base_keys, brownian_at,
                    brownian_path_batch, fold_keys, uniform_time,
                    uniform_time_batch)
from .problems import TestProblem


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
    k = int(np.floor(t * G / T + 1e-9))
    return min(k, G) * T / G


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


class _BatchContext:
    """Shared state for one lockstep run: the stream keys per suffix."""

    def __init__(self, problem, tree, bases):
        self.problem = problem
        self.tree = tree
        self.K = len(bases)
        self.keys = {(): base_keys(tree.master_seed, np.asarray(bases))}
        self.mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))

    def keys_for(self, suffix):
        got = self.keys.get(suffix)
        if got is None:
            got = fold_keys(self.keys_for(suffix[:-1]), suffix[-1])
            self.keys[suffix] = got
        return got


def _mlp_batch(ctx: _BatchContext, suffix: tuple, n: int, m: int,
               t: np.ndarray, x: np.ndarray) -> np.ndarray:
    tree = ctx.tree
    d = ctx.problem.d
    if n == 0:
        return np.zeros((ctx.K, d))
    lvl = m ** n
    k_lvl = np.minimum(np.floor(t * lvl / tree.T + 1e-9).astype(int), lvl)
    fine = k_lvl * (tree.grid_size // lvl)
    W = brownian_path_batch(tree, ctx.keys_for(suffix), fine)
    val = x + W + t[:, None] * ctx.mu0
    for ell in range(1, n):
        M = m ** (n - ell)
        for k in range(1, M + 1):
            child = suffix + (n, k, ell)
            s = uniform_time_batch(ctx.keys_for(child)) * t
            hi = np.hstack([_mlp_batch(ctx, suffix, ell, m, s, x),
                            _mlp_batch(ctx, child, ell, m, s, x)])
            lo = np.hstack([_mlp_batch(ctx, suffix, ell - 1, m, s, x),
                            _mlp_batch(ctx, child, ell - 1, m, s, x)])
            val = val + (t / M)[:, None] * (realize(ctx.problem.mu_net, hi)
                                            - realize(ctx.problem.mu_net, lo))
    return val


def mlp_estimate_batch(problem: TestProblem, tree: NoiseTree, bases,
                       n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimates for the tuples (b,), b in bases, shape (len, d).

    Sample b of the output equals ``mlp_estimate`` with theta = (b,) up to
    floating-point reassociation in the matrix products.
    """
    if n > tree.grid_levels:
        raise ValueError(
            f"level {n} exceeds grid resolution {tree.grid_levels}")
    bases = np.asarray(list(bases), dtype=np.uint64)
    ctx = _BatchContext(problem, tree, bases)
    t_vec = np.full(len(bases), float(t))
    x = np.asarray(x, dtype=np.float64)
    return _mlp_batch(ctx, (), n, m, t_vec, x)


def monte_carlo_payoff(problem: TestProblem, tree: NoiseTree, K: int,
                       n: int, m: int, x: np.ndarray) -> float:
    """Average payoff over K level-n terminal-state samples, theta = (i,)."""
    if K < 1:
        raise ValueError("need K >= 1")
    states = mlp_estimate_batch(problem, tree, range(1, K + 1),
                                n, m, tree.T, x)
    return float(np.mean(realize(problem.f_net, states)[:, 0]))
