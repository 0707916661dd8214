"""Multilevel Picard estimation of McKean-Vlasov dynamics.

The state equation has unit additive noise and a drift that enters through
the law of the solution: X(t) = x + int_0^t E[mu(y, X(s))]|_{y=X(s)} ds + W(t).
The estimator replaces the expectation by recursive resampling over a tree of
noise indices.  Level 0 is zero; level n adds the Brownian term, t*mu(0,0),
and telescoping corrections between consecutive lower levels evaluated at
resampled times.  The lower term of a level-1 correction is thus mu(0,0),
which the recursion reuses rather than evaluate the drift at zeros.
A level-n node reads W at the level-n grid floor of its time, and only
``_grid_index`` maps that time to a finest-grid index.

The value recursion exists once, in ``_mlp_batch``, which runs many
top-level samples in lockstep; ``mlp_estimate`` is its one-row case.  Each
entry point, the synthesis ones included, checks its arguments, folds its
index tuples into uint64 stream keys and realizes mu(0,0) once; below it
no tuple exists.  ``_classes`` alone gives the recursion and synthesis a
call's groups of sub-calls (ell, child level, k), with their stacked rows
and times, and each call with n > 0 reads its own W by ``_brownian``.  Rows
carry one key each and nothing is cached; a group runs as one call, so
keys, uniforms, Brownian values and the drift are computed once for it.
"""

from __future__ import annotations

import numpy as np

from .nets import _blocks, _check_count, realize
# brownian_at and uniform_time are bound here only for perfbench's tracer.
from .noise import (NoiseTree, ThetaIndex, base_keys, brownian_at,
                    brownian_path_batch, fold_keys, theta_key, uniform_time,
                    uniform_time_batch)
from .problems import TestProblem

# Child rows of one group of sub-calls (its call stacks twice as many); its
# drift is one ``realize`` call, which runs in row blocks of ``nets._BLOCK``.
_GROUP_ROWS = 2048


def _grid_index(tree: NoiseTree, t, m: int, n: int):
    """Finest-grid index of the level-n grid point k*T/m^n at or below t (a
    time or an array; clamped to T), with 1e-9 slack for rounding."""
    G = m ** n
    k = np.minimum(np.floor(t * G / tree.T + 1e-9).astype(np.int64), G)
    return k * (tree.grid_size // G)


def _brownian(tree: NoiseTree, keys: np.ndarray, t, m: int, n: int):
    """W of the streams of keys at the level-n grid floor of their times t."""
    return brownian_path_batch(tree, keys, _grid_index(tree, t, m, n))


def _classes(keys: np.ndarray, t, n: int, m: int):
    """The groups of sub-calls of a level-n call on keys at times t: (ell, M,
    ks, rows, s) per ell < n and group of k with at most ``_GROUP_ROWS`` (or
    one k) child keys (theta, n, k, ell); rows are the keys once per k, then
    the children, k-major, and s is the children's times U * t, twice."""
    group = max(1, _GROUP_ROWS // len(keys))
    for ell in range(1, n):
        M = m ** (n - ell)
        for k0 in range(1, M + 1, group):
            ks = np.arange(k0, min(k0 + group, M + 1))
            child = fold_keys(fold_keys(fold_keys(keys, n), ks[:, None]), ell).ravel()
            s = np.tile(uniform_time_batch(child) * np.tile(t, len(ks)), 2)
            yield ell, M, ks, np.concatenate([np.tile(keys, len(ks)), child]), s


def _check_args(problem: TestProblem, tree: NoiseTree, n, m, t, x=None,
                bases=(), K=1):
    """Raise a ValueError naming the first argument outside the recursion's
    contract (the level-n grid a subgrid of the tree's); return x as float64."""
    for name, v, low in (("n", n, 0), ("m", m, 1), ("K", K, 1)):
        _check_count(name, v, low)
    if isinstance(t, (bool, np.bool_)) or not 0 <= t <= tree.T * (1 + 1e-12):
        raise ValueError(f"time t = {t!r} is not a number in [0, {tree.T}]")
    if n > tree.grid_levels or tree.grid_size % m ** min(n, 54):  # grid_size <= 2**53
        raise ValueError(f"level n = {n} with m = {m} is off the grid of "
                         f"{tree.m}**{tree.grid_levels} steps")
    if tree.d != problem.d:
        raise ValueError(f"tree.d = {tree.d} != problem.d = {problem.d}")
    for b in bases:
        if (isinstance(b, bool) or not isinstance(b, (int, np.integer))
                or not 0 <= b < 2 ** 64):
            raise ValueError(f"base or theta entry {b!r} is not an integer "
                             "in [0, 2**64)")
    if x is None:
        return None
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.d,) or not np.isfinite(x).all():
        raise ValueError(f"x has shape {x.shape}; need a finite vector of "
                         f"shape ({problem.d},)")
    return x


def mlp_estimate(problem: TestProblem, tree: NoiseTree, theta: ThetaIndex,
                 n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimate of the state at time t started from x for the
    stream of theta: the one-row case of the batch recursion."""
    theta = tuple(theta)
    x = _check_args(problem, tree, n, m, t, x, theta)
    key = np.array([theta_key(tree.master_seed, theta)], np.uint64)
    return _estimates(problem, tree, key, n, m, t, x)[0]


def _mlp_batch(problem: TestProblem, tree: NoiseTree, keys: np.ndarray,
               n: int, m: int, t: np.ndarray, x: np.ndarray,
               mu0: np.ndarray) -> np.ndarray:
    """Level-n estimates for the streams of ``keys`` at times t, (len, d).

    The sub-estimates of each group from ``_classes`` run as one call on
    its stacked rows.  Rows are independent, so a call over too many rows
    runs in equal parts.
    """
    d, R = problem.d, len(keys)
    if n == 0 or R == 0:
        return np.zeros((R, d))
    if R > _GROUP_ROWS:
        return np.concatenate([
            _mlp_batch(problem, tree, keys[b], n, m, t[b], x, mu0)
            for b in _blocks(R, _GROUP_ROWS)])
    val = x + _brownian(tree, keys, t, m, n) + t[:, None] * mu0
    for ell, M, ks, both, s in _classes(keys, t, n, m):
        rows = len(both) // 2
        # A level-0 estimate is zero, and the drift there is mu0.
        est = [_mlp_batch(problem, tree, both, lv, m, s, x, mu0)
               for lv in ((ell, ell - 1) if ell > 1 else (ell,))]
        mu = realize(problem.mu_net, np.concatenate(
            [np.hstack([e[:rows], e[rows:]]) for e in est]))
        mu_lo = mu[rows:] if ell > 1 else mu0
        for c in (mu[:rows] - mu_lo).reshape(len(ks), R, d):
            val = val + (t / M)[:, None] * c
    return val


def _estimates(problem: TestProblem, tree: NoiseTree, keys: np.ndarray,
               n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """``_mlp_batch`` for the streams of keys at the one time t, on checked
    arguments, with mu(0, 0) realized once."""
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    return _mlp_batch(problem, tree, keys, n, m, np.full(len(keys), float(t)),
                      x, mu0)


def mlp_estimate_batch(problem: TestProblem, tree: NoiseTree, bases,
                       n: int, m: int, t: float, x: np.ndarray) -> np.ndarray:
    """Level-n estimates for the tuples (b,), b in bases, one row each,
    shape (len, d).  A row's last bits may depend on how many rows share
    a ``realize`` row block, through the row blocks of its matrix products."""
    bases = list(bases)
    x = _check_args(problem, tree, n, m, t, x, bases)
    keys = base_keys(tree.master_seed, np.asarray(bases, np.uint64))
    return _estimates(problem, tree, keys, n, m, t, x)


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
    states = _estimates(problem, tree, keys, n, m, tree.T, x)
    payoffs = realize(problem.f_net, states)[:, 0].reshape(len(trees), K)
    return [float(np.mean(row)) for row in payoffs]
