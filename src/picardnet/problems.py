"""Benchmark mean-field problems with network drifts and payoffs.

Every problem carries the drift mu: R^2d -> R^d and the payoff f: R^d -> R as
ReLU networks (first argument of mu is the current state, second the law
variable), the Lipschitz/growth constants used by the analytical bounds, and
optionally a closed-form terminal expectation for oracle comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import affine_network, scaled_sum
from .nets import NeuralNetwork, _check_count


@dataclass(frozen=True)
class TestProblem:
    d: int
    T: float
    c: float
    r: int
    mu_net: NeuralNetwork
    f_net: NeuralNetwork
    closed_form: Optional[Callable[[np.ndarray, float], float]] = None
    name: str = "problem"

    def __post_init__(self):
        if self.mu_net.input_width != 2 * self.d or self.mu_net.output_width != self.d:
            raise ValueError("drift net must map R^2d -> R^d")
        if self.f_net.input_width != self.d or self.f_net.output_width != 1:
            raise ValueError("payoff net must map R^d -> R")
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T!r}")
        if not 1 <= self.c < np.inf:
            raise ValueError(f"c must lie in [1, inf), got {self.c!r}")
        _check_count("r", self.r, 0)


def linear_problem(d: int, a: float = 0.0, b: float = -0.5, T: float = 1.0,
                   w: Optional[np.ndarray] = None, c0: float = 0.0) -> TestProblem:
    """Linear mean-field drift a x + b E[X] with linear payoff.

    The mean solves the ODE mean' = (a + b) mean, so the terminal expectation
    of the payoff is <w, x> e^{(a+b)T} + c0 exactly.
    """
    if w is None:
        w = np.zeros(d)
        w[0] = 1.0
    w = np.asarray(w, dtype=np.float64)
    c = max(1.0, 2 * abs(a), 2 * abs(b), float(np.linalg.norm(w)))
    rate = a + b

    def closed(x, horizon):
        return float(w @ np.asarray(x)) * np.exp(rate * horizon) + c0

    return TestProblem(d=d, T=T, c=c, r=1,
                       mu_net=affine_network(
                           np.hstack([a * np.eye(d), b * np.eye(d)]), np.zeros(d)),
                       f_net=affine_network(w[None, :], [c0]),
                       closed_form=closed,
                       name=f"linear(d={d},a={a},b={b})")


def constant_problem(d: int, value: float, T: float = 1.0) -> TestProblem:
    """Zero drift and a constant payoff; terminal expectation is the value."""
    mu = affine_network(np.zeros((d, 2 * d)), np.zeros(d))
    f = NeuralNetwork(((np.zeros((2, d)), np.zeros(2)),
                       (np.zeros((1, 2)), np.array([value]))))
    return TestProblem(d=d, T=T, c=1.0, r=1, mu_net=mu, f_net=f,
                       closed_form=lambda x, horizon: value,
                       name=f"constant(d={d},v={value})")


def perturbed_problem(base: TestProblem, eps: float,
                      v: Optional[np.ndarray] = None):
    """Drift perturbation mu + eps * v * sat(x_1), sat(u) = relu(u+1) - relu(u).

    sat is bounded in [0, 1], so the drift difference is bounded by
    eps * ||v|| everywhere; that norm is returned as the perturbation scale b.
    Only two-layer base drifts are supported (all shipped problems qualify).
    """
    d = base.d
    if len(base.mu_net.layers) != 2:
        raise ValueError("perturbation needs a two-layer base drift")
    if v is None:
        v = np.zeros(d)
        v[0] = 1.0
    v = np.asarray(v, dtype=np.float64)
    # v * sat(x_1): both hidden units read x_1, with biases 1 and 0
    gate = np.zeros((2, 2 * d))
    gate[:, 0] = 1.0
    sat = NeuralNetwork(((gate, np.array([1.0, 0.0])),
                         (np.hstack([v[:, None], -v[:, None]]), np.zeros(d))))
    mu_eps = scaled_sum([base.mu_net, sat], [1.0, eps])
    prob = TestProblem(d=d, T=base.T, c=base.c, r=base.r,
                       mu_net=mu_eps, f_net=base.f_net,
                       closed_form=None,
                       name=base.name + f"+eps{eps}")
    return prob, float(np.linalg.norm(v))
