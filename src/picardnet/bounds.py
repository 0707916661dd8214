"""Particle-system reference solver and empirical checks of analytic bounds.

The interacting particle system is the simulable stand-in for the mean-field
dynamics: M particles follow Euler-Maruyama steps in which each particle's
drift is the average of mu(own state, partner state) over a random partner
subsample.  Coupled runs share Brownian increments and partner draws, so a
drift perturbation is measured under common random numbers and vanishes
exactly at perturbation size zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import realize
from .problems import TestProblem


@dataclass(frozen=True)
class ParticleConfig:
    particles: int = 10_000
    euler_steps: int = 200
    master_seed: int = 0
    partner_count: int = 64

    def __post_init__(self):
        if self.particles < 2 or self.euler_steps < 1 or self.partner_count < 1:
            raise ValueError(f"invalid particle configuration {self}")


@dataclass(frozen=True)
class BoundCheckResult:
    name: str
    empirical: float
    bound: float
    satisfied: bool
    samples: int


def _check(name, empirical, bound, samples) -> BoundCheckResult:
    return BoundCheckResult(name=name, empirical=float(empirical),
                            bound=float(bound),
                            satisfied=bool(empirical <= bound),
                            samples=samples)


def simulate_particles(problems: list[TestProblem], cfg: ParticleConfig,
                       x: np.ndarray) -> list[np.ndarray]:
    """Terminal particle states (M, d) per problem, all problems coupled on
    the same Brownian increments and partner subsamples."""
    d = problems[0].d
    T = problems[0].T
    for p in problems:
        if p.d != d or p.T != T:
            raise ValueError("coupled problems must share d and T")
    M, J = cfg.particles, min(cfg.partner_count, cfg.particles)
    rng = np.random.default_rng(cfg.master_seed)
    x = np.asarray(x, dtype=np.float64)
    states = [np.tile(x, (M, 1)) for _ in problems]
    dt = T / cfg.euler_steps
    for _ in range(cfg.euler_steps):
        partners = rng.integers(0, M, size=(M, J))
        dW = rng.normal(0.0, math.sqrt(dt), size=(M, d))
        for idx, (prob, st) in enumerate(zip(problems, states)):
            pairs = np.concatenate(
                [np.broadcast_to(st[:, None], (M, J, d)), st[partners]],
                axis=2).reshape(M * J, 2 * d)
            drift = realize(prob.mu_net, pairs).reshape(M, J, d).mean(axis=1)
            states[idx] = st + dt * drift + dW
    return states


def particle_mean_payoff(problem: TestProblem, cfg: ParticleConfig,
                         x: np.ndarray) -> float:
    """Reference terminal expectation (1/M) sum f(particle state)."""
    return _mean_payoff(problem, simulate_particles([problem], cfg, x)[0])


def _mean_payoff(problem, states) -> float:
    return float(np.mean(realize(problem.f_net, states)[:, 0]))


def _mu_at_zero_norm(problem: TestProblem) -> float:
    return float(np.linalg.norm(
        realize(problem.mu_net, np.zeros(2 * problem.d))))


def check_moment_bound(problem: TestProblem, cfg: ParticleConfig,
                       x: np.ndarray, p: int) -> BoundCheckResult:
    """Empirical L^{pr} norm of the terminal state against the growth bound
    (||x|| + T ||mu(0,0)|| + sqrt(T (d + 2pr))) e^{cT}."""
    return _moment(problem, simulate_particles([problem], cfg, x)[0], x, p)


def _moment(problem, states, x, p) -> BoundCheckResult:
    d, T, c, r = problem.d, problem.T, problem.c, problem.r
    q = p * r
    empirical = np.mean(np.linalg.norm(states, axis=1) ** q) ** (1.0 / q)
    bound = ((np.linalg.norm(x) + T * _mu_at_zero_norm(problem)
              + math.sqrt(T * (d + 2 * p * r))) * math.exp(c * T))
    return _check(f"moment(p={p},{problem.name})", empirical, bound,
                  len(states))


def check_perturbation_bounds(problem0: TestProblem, problem_eps: TestProblem,
                              eps: float, b: float, cfg: ParticleConfig,
                              x: np.ndarray, p: int):
    """Coupled-state and payoff-difference checks for a drift perturbation
    of size eps with scale constant b; returns the pair of results."""
    st_eps, st0 = simulate_particles([problem_eps, problem0], cfg, x)
    return _perturbation(problem0, problem_eps, eps, b, st0, st_eps, x, p)


def _perturbation(problem0, problem_eps, eps, b, st0, st_eps, x, p):
    d, T, c, r = problem0.d, problem0.T, problem0.c, problem0.r
    root = math.sqrt(T * (d + 2 * p * r))
    base0 = 1 + np.linalg.norm(x) + T * _mu_at_zero_norm(problem0) + root
    state_emp = np.mean(
        np.linalg.norm(st_eps - st0, axis=1) ** p) ** (1.0 / p)
    state_bound = T * b * eps * base0 ** r * math.exp((r + 1) * c * T)
    state_res = _check(f"state-perturbation(eps={eps})", state_emp,
                       state_bound, len(st0))
    pay_eps = realize(problem_eps.f_net, st_eps)[:, 0]
    pay0 = realize(problem0.f_net, st0)[:, 0]
    pay_emp = np.mean(np.abs(pay_eps - pay0) ** p) ** (1.0 / p)
    base = (1 + np.linalg.norm(x)
            + T * max(_mu_at_zero_norm(problem0), _mu_at_zero_norm(problem_eps))
            + root)
    pay_bound = b * eps * base ** r * math.exp((r + 2) * c * T)
    pay_res = _check(f"payoff-perturbation(eps={eps})", pay_emp, pay_bound,
                     len(st0))
    return state_res, pay_res


def brownian_moment_check(d: int, p: int, r: int, t: float = 1.0,
                          samples: int = 10 ** 5,
                          seed: int = 0) -> BoundCheckResult:
    """Empirical L^{pr} norm of ||W(t)|| against sqrt(t (d + 2pr))."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(samples, d))
    q = p * r
    empirical = math.sqrt(t) * np.mean(
        np.linalg.norm(z, axis=1) ** q) ** (1.0 / q)
    bound = math.sqrt(t * (d + 2 * p * r))
    return _check(f"brownian(d={d},p={p},r={r})", empirical, bound, samples)


def mlp_error_bound(problem: TestProblem, n: int, m: int,
                    x: np.ndarray) -> float:
    """Closed-form level-n error bound c e^{m/2} m^{-n/2}
    (||x|| + c d^c) e^{3cTn}."""
    d, T, c = problem.d, problem.T, problem.c
    return float(c * math.exp(m / 2) / m ** (n / 2)
                 * (np.linalg.norm(x) + c * d ** c)
                 * math.exp(3 * c * T * n))
