"""Networks whose realizations equal the estimator for one fixed noise draw.

For a frozen noise realization the level-n estimate is, as a function of the
start point x, exactly representable by a ReLU network: the Brownian and
t*mu(0,0) contributions become the output bias of an identity network, and
each telescoping correction becomes the drift network composed with a merged
pair of lower-level sums, depth-padded with identity layers.  The level-n
network is the scaled sum of these summands.  The recursion walks the
sub-calls of ``estimator._mlp_batch`` (``estimator._classes``): one call
builds, as copies of one layer list (``calculus._copy``), the networks of one
group of a class (level, ell, child level) from uint64 stream keys that the
entry points fold once, and reads their W in one Brownian query.  A parent's
summands of a group are its copies, side by side.  The level-n network is the
one-copy case, and the K-sample Monte Carlo payoff network lays the K copies
of one call side by side (``calculus._composed_sums``); only the entry points
build a network.  A parameter-selection pipeline wires the pieces into an
end-to-end accuracy/parameter-count experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# affine_wrap, compose, merge, scaled_sum, brownian_at, uniform_time and
# log_param_bound are bound here only for perfbench's tracer, which wraps them.
from .calculus import (_composed_sums, _copy, _deepened, _network,
                       _scaled_sum, _shared, _side_by_side, _then, affine_wrap,
                       compose, identity_network, merge, scaled_sum, zero_network)
from .estimator import _brownian, _check_args, _classes
from .nets import (NeuralNetwork, _check_count, dim_supnorm, dims,
                   param_count, realize)
from .noise import (NoiseTree, ThetaIndex, base_keys, brownian_at, theta_key,
                    uniform_time)
from .problems import TestProblem
from .selection import log_param_bound, select_N, select_epsilon


@dataclass(frozen=True)
class SynthesisReport:
    network: NeuralNetwork
    depth: int
    width_supnorm: int
    param_count: int
    predicted_depth: int
    predicted_width_bound: int


def _mlp_net(problem: TestProblem, tree: NoiseTree, keys: np.ndarray,
             n: int, m: int, t: np.ndarray, mu0: np.ndarray) -> list:
    """The layers of the level-n networks of keys (uint64 stream keys) at
    times t, one copy each (``calculus._copy``), on checked arguments; mu0 =
    mu(0, 0).  Each call reads its own W and builds the children of each
    group of ``_classes`` in one call per child level.  Unlike ``_mlp_batch``
    it splits no call of many keys (layer lists cannot be joined along the
    copy axis) and builds level 0's zero networks, which the depth law needs."""
    d, mu_net, R = problem.d, problem.mu_net, len(keys)
    if n == 0:
        return _shared(zero_network, d, d)
    H = n * len(mu_net.layers) + 1
    *shared, (WL, _) = _shared(identity_network, d, H)
    w = _brownian(tree, keys, t, m, n)
    lists, coeffs = [[*shared, (WL, w + t[:, None] * mu0)]], [1.0]
    for ell, M, ks, nodes, s in _classes(keys, t, n, m):
        C, pairs = len(ks) * R, []
        for lv in (ell, ell - 1):
            net = _mlp_net(problem, tree, nodes, lv, m, s, mu0)
            # Copy k * R + r of the merged pairs: parent r's sum beside its
            # k-th child's.
            pair = _side_by_side("merge", [_copy(net, slice(C)),
                                           _copy(net, slice(C, None))])
            pair = _deepened(pair, H + 1 - len(mu_net.layers) - len(pair))
            pairs.append(pair[:-1] + _then(mu_net, *pair[-1]))
        hs = ((t / M)[:, None], (-t / M)[:, None])
        for k in range(len(ks)):
            for pair, h in zip(pairs, hs):
                lists.append(_copy(pair, slice(k * R, (k + 1) * R)))
                coeffs.append(h)
    return _scaled_sum(lists, coeffs)


def mlp_width_constant(problem: TestProblem) -> int:
    """Smallest integer c with 2c >= max(4d, widest drift layer)."""
    return math.ceil(max(4 * problem.d,
                         dim_supnorm(dims(problem.mu_net))) / 2)


def mc_width_constant(problem: TestProblem) -> int:
    return max(4 * problem.d,
               dim_supnorm(dims(problem.mu_net)),
               dim_supnorm(dims(problem.f_net)))


def _report(net: NeuralNetwork, predicted_depth: int,
            width_bound: int) -> SynthesisReport:
    dv = dims(net)
    return SynthesisReport(network=net, depth=len(dv),
                           width_supnorm=dim_supnorm(dv),
                           param_count=param_count(net),
                           predicted_depth=predicted_depth,
                           predicted_width_bound=width_bound)


def synthesize_mlp_network(problem: TestProblem, tree: NoiseTree,
                           theta: ThetaIndex, n: int, m: int,
                           t: float) -> SynthesisReport:
    """Network equal (in x) to the level-n estimate at time t, with the
    depth law n(depth_mu - 1) + 3 and width bound c (5m)^n."""
    theta = tuple(theta)
    _check_args(problem, tree, n, m, t, bases=theta)
    key = np.array([theta_key(tree.master_seed, theta)], np.uint64)
    mu0, t = realize(problem.mu_net, np.zeros(2 * problem.d)), np.full(1, float(t))
    net = _network(_copy(_mlp_net(problem, tree, key, n, m, t, mu0), 0))
    return _report(net, n * (len(dims(problem.mu_net)) - 1) + 3,
                   mlp_width_constant(problem) * (5 * m) ** n)


def synthesize_mc_network(problem: TestProblem, tree: NoiseTree,
                          K: int, n: int, m: int) -> SynthesisReport:
    """Network equal (in x) to the K-sample Monte Carlo payoff average,
    with depth depth_f + n(depth_mu - 1) + 2 and width bound K c (5m)^n."""
    _check_args(problem, tree, n, m, tree.T, K=K)
    keys, t = base_keys(tree.master_seed, np.arange(1, K + 1)), np.full(K, float(tree.T))
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    net = _composed_sums(problem.f_net, _mlp_net(problem, tree, keys, n, m, t, mu0),
                         [1.0 / K] * K)
    depth_f, depth_mu = len(dims(problem.f_net)), len(dims(problem.mu_net))
    return _report(net, depth_f + n * (depth_mu - 1) + 2,
                   K * mc_width_constant(problem) * (5 * m) ** n)


# Primitive polynomials (both end bits kept) and initial direction numbers
# m_1..m_s of Sobol dimensions 1..31, from Joe and Kuo (2008); dimension 0
# is van der Corput.  Later m_j follow the polynomial's recurrence m_j =
# 2^s m_{j-s} ^ m_{j-s} ^ (xor of 2^k m_{j-k} over its inner bits a_k = 1).
_SOBOL = ((3, 1), (7, 1, 3), (11, 1, 3, 1), (13, 1, 1, 1), (19, 1, 1, 3, 3),
    (25, 1, 3, 5, 13), (37, 1, 1, 5, 5, 17), (41, 1, 1, 5, 5, 5),
    (47, 1, 1, 7, 11, 19), (55, 1, 1, 5, 1, 1), (59, 1, 1, 1, 3, 11),
    (61, 1, 3, 5, 5, 31), (67, 1, 3, 3, 9, 7, 49), (91, 1, 1, 1, 15, 21, 21),
    (97, 1, 3, 1, 13, 27, 49), (103, 1, 1, 1, 15, 7, 5),
    (109, 1, 3, 1, 15, 13, 25), (115, 1, 1, 5, 5, 19, 61),
    (131, 1, 3, 7, 11, 23, 15, 103), (137, 1, 3, 7, 13, 13, 15, 69),
    (143, 1, 1, 3, 13, 7, 35, 63), (145, 1, 3, 5, 9, 1, 25, 53),
    (157, 1, 3, 1, 13, 9, 35, 107), (167, 1, 3, 1, 5, 27, 61, 31),
    (171, 1, 1, 5, 11, 19, 41, 61), (185, 1, 3, 5, 3, 3, 13, 69),
    (191, 1, 1, 7, 13, 1, 19, 1), (193, 1, 3, 7, 5, 13, 19, 59),
    (203, 1, 1, 3, 9, 25, 29, 41), (211, 1, 3, 5, 13, 23, 1, 55),
    (213, 1, 3, 7, 3, 13, 59, 17))
PROBE_MAX_DIM, _BITS = len(_SOBOL) + 1, 30


def probe_points(d: int, count: int = 1024) -> np.ndarray:
    """The first count points of the unscrambled 30-bit Sobol sequence in
    [0, 1)^d, in Gray-code order (scipy's qmc.Sobol points); d <= 32."""
    _check_count("d", d, 1)
    _check_count("count", count, 1)
    if d > PROBE_MAX_DIM:
        raise ValueError(f"d must be <= {PROBE_MAX_DIM}, got {d}")
    v = [[1] * _BITS]
    for poly, *row in _SOBOL[:d - 1]:
        s = len(row)
        for j in range(s, _BITS):
            new = row[j - s] ^ (row[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= row[j - k] << k
            row.append(new)
        v.append(row)
    v = np.array(v, dtype=np.int64) << np.arange(_BITS - 1, -1, -1)
    k = np.arange(count)
    gray, x = k ^ (k >> 1), np.zeros((count, d), dtype=np.int64)
    for j in range(int(count - 1).bit_length()):
        x ^= (gray >> j & 1)[:, None] * v[:, j]
    return x * 2.0 ** -_BITS


@dataclass
class PipelineResult:
    report: SynthesisReport
    l2_error: float
    epsilon_inner: float
    n_selected: int
    n_used: int
    m: int
    K: int
    seed_used: int
    succeeded: bool


def theorem_pipeline(problem: TestProblem, epsilon: float,
                     level_cap: int = 2, seed_budget: int = 50,
                     base_seed: int = 0, points: int = 1024) -> PipelineResult:
    """Select parameters, synthesize the Monte Carlo network, and retry over
    master seeds until the measured L2([0,1]^d) error drops below epsilon.

    The level selection rule gives sample counts N^N that are far beyond desk
    scale, so the level actually synthesized is capped (the selected level is
    still reported).  The seed retry realizes the good-outcome existence
    argument; failure to find one within the budget is reported, not raised.
    """
    _check_count("level_cap", level_cap, 0)
    _check_count("seed_budget", seed_budget, 1)
    d, c, r, T = problem.d, problem.c, problem.r, problem.T
    eps_inner = select_epsilon(d, epsilon, c, r, T)
    n_sel = select_N(d, epsilon, c, r, T)
    n_used = min(n_sel, level_cap)
    m = max(n_used, 1)
    K = max(n_used ** n_used, 1)
    xs = probe_points(d, points)
    if problem.closed_form is None:
        raise ValueError("problem needs a closed form")
    truth = np.array([problem.closed_form(x, T) for x in xs])
    best = None
    for i in range(seed_budget):
        tree = NoiseTree(master_seed=base_seed + i, T=T, d=d,
                         grid_levels=n_used, m=m)
        rep = synthesize_mc_network(problem, tree, K, n_used, m)
        pred = realize(rep.network, xs)[:, 0]
        err = float(np.sqrt(np.mean((pred - truth) ** 2)))
        if best is None or err < best.l2_error:
            best = PipelineResult(report=rep, l2_error=err,
                                  epsilon_inner=eps_inner, n_selected=n_sel,
                                  n_used=n_used, m=m, K=K,
                                  seed_used=base_seed + i,
                                  succeeded=err < epsilon)
        if err < epsilon:
            return best
    return best
