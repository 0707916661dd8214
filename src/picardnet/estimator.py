"""Multilevel Picard estimation of McKean-Vlasov dynamics.

The state equation has unit additive noise and a drift that enters through
the law of the solution: X(t) = x + int_0^t E[mu(y, X(s))]|_{y=X(s)} ds + W(t).
The estimator replaces the expectation by recursive resampling over a tree of
noise indices.  Level 0 is zero; level n adds the Brownian term, t*mu(0,0),
and telescoping corrections between consecutive lower levels evaluated at
resampled times.  The lower term of a level-1 correction is thus mu(0,0),
which both implementations reuse rather than evaluate the drift at zeros.

Two implementations share the same noise contract: ``mlp_estimate`` is the
direct scalar recursion, and ``mlp_estimate_batch`` runs many top-level
samples in lockstep.  Each entry point, the synthesis ones included, checks
its arguments once and realizes mu(0,0) once; the recursions take both as
given.  The batch recursion carries one uint64 stream key per row and
caches nothing.  The sub-estimates of a group of resampling indices k run
as one call on stacked rows, so each call folds keys, draws uniforms,
queries Brownian values at their grid points and evaluates the drift once
for all of them.
"""

from __future__ import annotations

import numpy as np

from .nets import _check_count, realize
from .noise import (_BLOCK, NoiseTree, ThetaIndex, base_keys, brownian_at,
                    brownian_path_batch, fold_keys, uniform_time,
                    uniform_time_batch)
from .problems import TestProblem

# Rows of one group of sub-estimates (its call stacks twice as many); the
# drift runs in row blocks of the noise kernel's working-set cap _BLOCK.
_GROUP_ROWS = 2048


def floor_to_grid(t: float, m: int, n: int, T: float) -> float:
    """Largest grid point k*T/m^n below t (clamped to [0, T]).

    The small slack absorbs times that are grid points up to rounding, so a
    nominal grid time is never floored to the previous one.
    """
    _check_scalars(n, m, t, T)
    if m > 1 and (n > 53 or m ** n > 2 ** 53):
        raise ValueError(f"grid of m**n = {m}**{n} steps exceeds 2**53")
    G = m ** n
    return int(_grid_steps(t, G, T)) * T / G


def _grid_steps(t, G: int, T: float):
    """Steps k of the grid point k*T/G that floor_to_grid picks for t."""
    return np.minimum(np.floor(t * G / T + 1e-9).astype(np.int64), G)


def _check_scalars(n, m, t, T, K=1):
    """Raise a ValueError naming the first of n, m, K and t out of range."""
    for name, v, low in (("n", n, 0), ("m", m, 1), ("K", K, 1)):
        _check_count(name, v, low)
    if not 0 <= t <= T * (1 + 1e-12):
        raise ValueError(f"time t = {t!r} outside [0, {T}]")


def _check_args(problem: TestProblem, tree: NoiseTree, n, m, t, x=None,
                bases=(), K=1):
    """Raise a ValueError naming the first argument outside the recursion's
    contract (every queried time on the tree's grid); return x as float64."""
    _check_scalars(n, m, t, tree.T, K)
    if n > tree.grid_levels or tree.grid_size % m ** n:
        raise ValueError(f"level n = {n} with m = {m} is off the grid of "
                         f"{tree.m}**{tree.grid_levels} steps")
    if tree.d != problem.d:
        raise ValueError(f"tree.d = {tree.d} != problem.d = {problem.d}")
    for b in bases:
        if not isinstance(b, (int, np.integer)) or not 0 <= b < 2 ** 64:
            raise ValueError(f"base or theta entry {b!r} is not an integer "
                             "in [0, 2**64)")
    if x is not None and np.shape(x) != (problem.d,):
        raise ValueError(f"x has shape {np.shape(x)}, not ({problem.d},)")
    return None if x is None else np.asarray(x, dtype=np.float64)


def mlp_estimate(problem: TestProblem, tree: NoiseTree, theta: ThetaIndex,
                 n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimate of the state at time t started from x, scalar path."""
    theta = tuple(theta)
    x = _check_args(problem, tree, n, m, t, x, theta)
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    return _mlp_scalar(problem, tree, theta, n, m, t, x, mu0)


def _mlp_scalar(problem: TestProblem, tree: NoiseTree, theta: tuple, n: int,
                m: int, t: float, x: np.ndarray, mu0: np.ndarray):
    """The recursion of ``mlp_estimate`` on checked arguments."""
    if n == 0:
        return np.zeros(problem.d)
    val = x + brownian_at(tree, theta, floor_to_grid(t, m, n, tree.T)) + t * mu0
    for ell in range(1, n):
        M = m ** (n - ell)
        for k in range(1, M + 1):
            child = theta + (n, k, ell)
            s = uniform_time(tree, child) * t
            hi = np.concatenate([
                _mlp_scalar(problem, tree, theta, ell, m, s, x, mu0),
                _mlp_scalar(problem, tree, child, ell, m, s, x, mu0)])
            lo = mu0 if ell == 1 else realize(problem.mu_net, np.concatenate([
                _mlp_scalar(problem, tree, theta, ell - 1, m, s, x, mu0),
                _mlp_scalar(problem, tree, child, ell - 1, m, s, x, mu0)]))
            val = val + (t / M) * (realize(problem.mu_net, hi) - lo)
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
            rows = len(child)
            # A level-0 estimate is zero, and the drift there is mu0.
            est = [_mlp_batch(problem, tree, both, lv, m, s, x, mu0)
                   for lv in ((ell, ell - 1) if ell > 1 else (ell,))]
            mu = _drift(problem.mu_net, np.concatenate(
                [np.hstack([e[:rows], e[rows:]]) for e in est]))
            mu_lo = mu[rows:] if ell > 1 else mu0
            for c in (mu[:rows] - mu_lo).reshape(len(ks), R, d):
                val = val + (t / M)[:, None] * c
    return val


def _drift(mu_net, inputs: np.ndarray) -> np.ndarray:
    """``realize(mu_net, inputs)`` in equal row blocks whose widest
    activation holds at most _BLOCK numbers."""
    widest = max(W.shape[0] for W, _ in mu_net.layers)
    return np.concatenate([
        realize(mu_net, inputs[b])
        for b in _blocks(len(inputs), max(1, _BLOCK // widest))])


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
    bases = list(bases)
    x = _check_args(problem, tree, n, m, t, x, bases)
    keys = base_keys(tree.master_seed, np.asarray(bases, np.uint64))
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    return _mlp_batch(problem, tree, keys, n, m, np.full(len(keys), float(t)),
                      x, mu0)


def monte_carlo_payoff(problem: TestProblem, tree: NoiseTree, K: int,
                       n: int, m: int, x: np.ndarray) -> float:
    """Average payoff over K level-n terminal-state samples, theta = (i,)."""
    return _mc_payoffs(problem, [tree], K, n, m, x)[0]


def _mc_payoffs(problem: TestProblem, trees: list, K: int, n: int, m: int,
                x: np.ndarray) -> list:
    """``monte_carlo_payoff`` for each tree, run as one batch on stacked keys;
    the trees may differ only in master_seed, which enters only the keys."""
    if len({(o.T, o.d, o.grid_levels, o.m) for o in trees}) != 1:
        raise ValueError("need one or more trees that share T, d, "
                         "grid_levels and m")
    tree = trees[0]
    x = _check_args(problem, tree, n, m, tree.T, x, K=K)
    bases = np.arange(1, K + 1, dtype=np.uint64)
    keys = np.concatenate([base_keys(o.master_seed, bases) for o in trees])
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    states = _mlp_batch(problem, tree, keys, n, m,
                        np.full(len(keys), float(tree.T)), x, mu0)
    payoffs = realize(problem.f_net, states)[:, 0].reshape(len(trees), K)
    return [float(np.mean(row)) for row in payoffs]
