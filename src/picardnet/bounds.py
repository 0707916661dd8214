"""Particle-system reference solver and empirical checks of analytic bounds.

The interacting particle system is the simulable stand-in for the mean-field
dynamics: M particles follow Euler-Maruyama steps in which each particle's
drift is the average of mu(own state, partner state) over a random partner
subsample.  Coupled runs share Brownian increments and partner draws, so a
drift perturbation is measured under common random numbers and vanishes
exactly at perturbation size zero.  The particle checks take the terminal
states of one such run, so a single simulation serves all of them.

The solver runs feature-major: a problem's states are held as (d, M), and
each Euler step fills one (2d, M, J) block of (own, partner) pairs and runs
the drift layers on its (2d, M*J) view as h = W @ h + B (``realize``'s
layer step, feature-major).  On (M*J, 2d) rows, ``realize``'s row-major
``h @ W.T`` leaves numpy's inner loops runs only as long as a layer is wide,
and ``realize`` stays row-major because a feature-major product would move
the bits of the estimator's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import _check_count, _forward, realize
from .problems import TestProblem


@dataclass(frozen=True)
class ParticleConfig:
    particles: int = 10_000
    euler_steps: int = 200
    master_seed: int = 0
    partner_count: int = 64

    def __post_init__(self):
        _check_count("particles", self.particles, 2)
        _check_count("euler_steps", self.euler_steps, 1)
        _check_count("master_seed", self.master_seed, 0)
        _check_count("partner_count", self.partner_count, 1)


@dataclass(frozen=True)
class BoundCheckResult:
    name: str
    empirical: float
    bound: float
    samples: int

    @property
    def satisfied(self) -> bool:
        return self.empirical <= self.bound


def simulate_particles(problems: list[TestProblem], cfg: ParticleConfig,
                       x: np.ndarray) -> list[np.ndarray]:
    """Terminal particle states (M, d) per problem, all problems coupled on
    the same Brownian increments and partner subsamples.

    Each step draws the (M, J) partner indices, J = min(partner_count, M),
    then the (M, d) increments.  The drift of particle i is the mean over
    its J partners j of mu(X_i, X_j), evaluated feature-major on one
    (2d, M*J) pair block per problem (see the module docstring).  The
    states are returned as C-contiguous (M, d).
    """
    if not problems:
        raise ValueError("problems must list at least one problem")
    d = problems[0].d
    T = problems[0].T
    for p in problems:
        if p.d != d or p.T != T:
            raise ValueError("coupled problems must share d and T")
    x = _check_x(x, d)
    M, J = cfg.particles, min(cfg.partner_count, cfg.particles)
    rng = np.random.default_rng(cfg.master_seed)
    states = [np.repeat(x[:, None], M, axis=1) for _ in problems]
    pairs = np.empty((2 * d, M, J))
    dt = T / cfg.euler_steps
    for _ in range(cfg.euler_steps):
        partners = rng.integers(0, M, size=(M, J))
        dW = rng.normal(0.0, math.sqrt(dt), size=(M, d)).T
        for idx, (prob, st) in enumerate(zip(problems, states)):
            pairs[:d] = st[:, :, None]
            np.take(st, partners, axis=1, out=pairs[d:])
            h = _forward(prob.mu_net, pairs.reshape(2 * d, M * J), False)
            drift = h.reshape(d, M, J).mean(axis=2)
            states[idx] = st + dt * drift + dW
    return [np.ascontiguousarray(st.T) for st in states]


def particle_mean_payoff(problem: TestProblem, states: np.ndarray) -> float:
    """Reference terminal expectation (1/M) sum f(particle state) over the
    terminal states (M, d) from `simulate_particles`."""
    return float(np.mean(realize(problem.f_net, states)[:, 0]))


def _mu_at_zero_norm(problem: TestProblem) -> float:
    return float(np.linalg.norm(
        realize(problem.mu_net, np.zeros(2 * problem.d))))


def _check_x(x, d: int) -> np.ndarray:
    """x as float64; a ValueError naming x unless it is a finite (d,) vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,) or not np.isfinite(x).all():
        raise ValueError(f"x must be a finite vector of length d={d}, "
                         f"got shape {x.shape}")
    return x


def _check_states(problem: TestProblem, x, p, *states) -> None:
    """Raise a ValueError naming p, x or states unless p is an integer >= 1,
    x has shape (d,) and the states are nonempty (M, d) arrays of one shape."""
    _check_count("p", p, 1)
    _check_x(x, problem.d)
    M = len(states[0]) if np.ndim(states[0]) == 2 else 0
    if M < 1 or any(np.shape(st) != (M, problem.d) for st in states):
        raise ValueError(f"states must be nonempty (M, {problem.d}) arrays of "
                         f"one shape, got {[np.shape(st) for st in states]}")


def check_moment_bound(problem: TestProblem, states: np.ndarray,
                       x: np.ndarray, p: int) -> BoundCheckResult:
    """Empirical L^{pr} norm of the terminal states started at x against the
    growth bound (||x|| + T ||mu(0,0)|| + sqrt(T (d + 2pr))) e^{cT}."""
    _check_states(problem, x, p, states)
    d, T, c, r = problem.d, problem.T, problem.c, problem.r
    q = p * r
    empirical = np.mean(np.linalg.norm(states, axis=1) ** q) ** (1.0 / q)
    bound = ((np.linalg.norm(x) + T * _mu_at_zero_norm(problem)
              + math.sqrt(T * (d + 2 * p * r))) * math.exp(c * T))
    return BoundCheckResult(f"moment(p={p},{problem.name})", float(empirical),
                            float(bound), len(states))


def check_perturbation_bounds(problem0: TestProblem, problem_eps: TestProblem,
                              eps: float, b: float, st0: np.ndarray,
                              st_eps: np.ndarray, x: np.ndarray, p: int):
    """Coupled-state and payoff-difference checks for a drift perturbation
    of size eps with scale constant b, on the coupled terminal states st0
    and st_eps started at x; returns the pair of results."""
    _check_states(problem0, x, p, st0, st_eps)
    d, T, c, r = problem0.d, problem0.T, problem0.c, problem0.r
    root = math.sqrt(T * (d + 2 * p * r))
    base0 = 1 + np.linalg.norm(x) + T * _mu_at_zero_norm(problem0) + root
    state_emp = np.mean(
        np.linalg.norm(st_eps - st0, axis=1) ** p) ** (1.0 / p)
    state_bound = T * b * eps * base0 ** r * math.exp((r + 1) * c * T)
    pay_eps = realize(problem_eps.f_net, st_eps)[:, 0]
    pay0 = realize(problem0.f_net, st0)[:, 0]
    pay_emp = np.mean(np.abs(pay_eps - pay0) ** p) ** (1.0 / p)
    base = (1 + np.linalg.norm(x)
            + T * max(_mu_at_zero_norm(problem0), _mu_at_zero_norm(problem_eps))
            + root)
    pay_bound = b * eps * base ** r * math.exp((r + 2) * c * T)
    return (BoundCheckResult(f"state-perturbation(eps={eps})",
                             float(state_emp), float(state_bound), len(st0)),
            BoundCheckResult(f"payoff-perturbation(eps={eps})",
                             float(pay_emp), float(pay_bound), len(st0)))


def brownian_moment_check(d: int, p: int, r: int, t: float = 1.0,
                          samples: int = 10 ** 5,
                          seed: int = 0) -> BoundCheckResult:
    """Empirical L^{pr} norm of ||W(t)|| against sqrt(t (d + 2pr))."""
    for name, value, low in (("d", d, 1), ("p", p, 1), ("r", r, 1),
                             ("samples", samples, 1), ("seed", seed, 0)):
        _check_count(name, value, low)
    if isinstance(t, (bool, np.bool_)) or not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(samples, d))
    q = p * r
    empirical = math.sqrt(t) * np.mean(
        np.linalg.norm(z, axis=1) ** q) ** (1.0 / q)
    bound = math.sqrt(t * (d + 2 * p * r))
    return BoundCheckResult(f"brownian(d={d},p={p},r={r})", float(empirical),
                            bound, samples)


def mlp_error_bound(problem: TestProblem, n: int, m: int,
                    x: np.ndarray) -> float:
    """Closed-form level-n error bound c e^{m/2} m^{-n/2}
    (||x|| + c d^c) e^{3cTn}."""
    _check_count("n", n, 0)
    _check_count("m", m, 1)
    _check_x(x, problem.d)
    d, T, c = problem.d, problem.T, problem.c
    return float(c * math.exp(m / 2) / m ** (n / 2)
                 * (np.linalg.norm(x) + c * d ** c)
                 * math.exp(3 * c * T * n))
