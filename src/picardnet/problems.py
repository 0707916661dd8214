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

from .nets import NeuralNetwork


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
        if self.c < 1 or self.r < 0:
            raise ValueError("need c >= 1, r >= 0")


def _linear_drift_net(d: int, a: float, b: float) -> NeuralNetwork:
    """mu(x, y) = a x + b y via the split u = relu(u) - relu(-u)."""
    eye = np.eye(d)
    top = np.hstack([a * eye, b * eye])
    W1 = np.vstack([top, -top])
    W2 = np.hstack([eye, -eye])
    return NeuralNetwork(((W1, np.zeros(2 * d)), (W2, np.zeros(d))))


def _linear_payoff_net(d: int, w: np.ndarray, c0: float) -> NeuralNetwork:
    """f(x) = <w, x> + c0 with one hidden layer of width 2."""
    W1 = np.vstack([w, -w])
    W2 = np.array([[1.0, -1.0]])
    return NeuralNetwork(((W1, np.zeros(2)), (W2, np.array([c0]))))


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
                       mu_net=_linear_drift_net(d, a, b),
                       f_net=_linear_payoff_net(d, w, c0),
                       closed_form=closed,
                       name=f"linear(d={d},a={a},b={b})")


def constant_problem(d: int, value: float, T: float = 1.0) -> TestProblem:
    """Zero drift and a constant payoff; terminal expectation is the value."""
    mu = _linear_drift_net(d, 0.0, 0.0)
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
    W1, B1 = base.mu_net.layers[0]
    W2, B2 = base.mu_net.layers[1]
    gate = np.zeros((2, 2 * d))
    gate[0, 0] = 1.0
    gate[1, 0] = 1.0
    W1p = np.vstack([W1, gate])
    B1p = np.concatenate([B1, [1.0, 0.0]])
    W2p = np.hstack([W2, eps * v[:, None], -eps * v[:, None]])
    mu_eps = NeuralNetwork(((W1p, B1p), (W2p, B2)))
    prob = TestProblem(d=d, T=base.T, c=base.c, r=base.r,
                       mu_net=mu_eps, f_net=base.f_net,
                       closed_form=None,
                       name=base.name + f"+eps{eps}")
    return prob, float(np.linalg.norm(v))
