"""Networks whose realizations equal the estimator for one fixed noise draw.

For a frozen noise realization the level-n estimate is, as a function of the
start point x, exactly representable by a ReLU network: the Brownian and
t*mu(0,0) contributions become constants baked into an affine-wrapped
identity network, and each telescoping correction becomes the drift network
composed with a merged pair of lower-level networks, depth-padded with
identity layers (``extend_depth``) so that all summands can be combined by
``scaled_sum``.

The same machinery stacks K payoff-composed copies into a single network
realizing the Monte Carlo average, and a parameter-selection pipeline wires
the pieces into an end-to-end accuracy/parameter-count experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (affine_wrap, compose, extend_depth, identity_network,
                       merge, scaled_sum, zero_network)
from .estimator import _check_args, floor_to_grid
from .nets import NeuralNetwork, dim_supnorm, dims, param_count, realize
from .noise import NoiseTree, ThetaIndex, brownian_at, uniform_time
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


def _mlp_net(problem: TestProblem, tree: NoiseTree, theta: tuple,
             n: int, m: int, t: float, mu0: np.ndarray) -> NeuralNetwork:
    """The level-n network on checked arguments, mu0 = mu(0, 0).  It and
    each of its summands have H = n * len(mu_net.layers) + 1 hidden layers."""
    d, mu_net = problem.d, problem.mu_net
    if n == 0:
        return zero_network(d, d, 3)
    H = n * len(mu_net.layers) + 1
    const = brownian_at(tree, theta, floor_to_grid(t, m, n, tree.T)) + t * mu0
    nets = [affine_wrap(identity_network(d, H), 1.0, np.zeros(d), const)]
    coeffs = [1.0]
    for ell in range(1, n):
        M = m ** (n - ell)
        for k in range(1, M + 1):
            child = theta + (n, k, ell)
            s = uniform_time(tree, child) * t
            for lv, h in ((ell, t / M), (ell - 1, -t / M)):
                pair = merge([_mlp_net(problem, tree, theta, lv, m, s, mu0),
                              _mlp_net(problem, tree, child, lv, m, s, mu0)])
                pad = H + 1 - len(mu_net.layers) - len(pair.layers)
                nets.append(compose(mu_net, extend_depth(pair, pad)))
                coeffs.append(h)
    return scaled_sum(nets, coeffs)


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
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    net = _mlp_net(problem, tree, theta, n, m, t, mu0)
    return _report(net, n * (len(dims(problem.mu_net)) - 1) + 3,
                   mlp_width_constant(problem) * (5 * m) ** n)


def synthesize_mc_network(problem: TestProblem, tree: NoiseTree,
                          K: int, n: int, m: int) -> SynthesisReport:
    """Network equal (in x) to the K-sample Monte Carlo payoff average,
    with depth depth_f + n(depth_mu - 1) + 2 and width bound K c (5m)^n."""
    _check_args(problem, tree, n, m, tree.T, K=K)
    mu0 = realize(problem.mu_net, np.zeros(2 * problem.d))
    parts = [compose(problem.f_net,
                     _mlp_net(problem, tree, (i,), n, m, tree.T, mu0))
             for i in range(1, K + 1)]
    net = scaled_sum(parts, [1.0 / K] * K)
    depth_f, depth_mu = len(dims(problem.f_net)), len(dims(problem.mu_net))
    return _report(net, depth_f + n * (depth_mu - 1) + 2,
                   K * mc_width_constant(problem) * (5 * m) ** n)


def probe_points(d: int, count: int = 1024) -> np.ndarray:
    """Deterministic low-discrepancy point set in [0, 1]^d."""
    from scipy.stats import qmc  # slow to import, and needed only here

    sampler = qmc.Sobol(d=d, scramble=False)
    exponent = max(1, math.ceil(math.log2(count)))
    return sampler.random_base2(exponent)[:count]


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
    attempts: int
    succeeded: bool

    @property
    def network(self) -> NeuralNetwork:
        return self.report.network


def theorem_pipeline(problem: TestProblem, epsilon: float, delta: float,
                     level_cap: int = 2, seed_budget: int = 50,
                     base_seed: int = 0, points: int = 1024) -> PipelineResult:
    """Select parameters, synthesize the Monte Carlo network, and retry over
    master seeds until the measured L2([0,1]^d) error drops below epsilon.

    The level selection rule gives sample counts N^N that are far beyond desk
    scale, so the level actually synthesized is capped (the selected level is
    still reported).  The seed retry realizes the good-outcome existence
    argument; failure to find one within the budget is reported, not raised.
    """
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
                                  seed_used=base_seed + i, attempts=i + 1,
                                  succeeded=err < epsilon)
        if err < epsilon:
            return best
    return best
