import math

import numpy as np
import pytest

from picardnet.bounds import (BoundCheckResult, ParticleConfig,
                              brownian_moment_check, check_moment_bound,
                              check_perturbation_bounds, mlp_error_bound,
                              particle_mean_payoff, simulate_particles)
from picardnet.config import ExperimentConfig
from picardnet.estimator import monte_carlo_payoff
from picardnet.nets import realize
from picardnet.noise import NoiseTree
from picardnet.problems import linear_problem, perturbed_problem
from picardnet.suites import run_bounds_suite
from test_estimator import wide_problem

FAST = ParticleConfig(particles=2000, euler_steps=50, master_seed=7,
                      partner_count=32)


def row_major_particles(problems, cfg, x):
    """Oracle: the Euler-partner loop on (M, d) states, with the drift
    realized on (M*J, 2d) rows of (own, partner) pairs."""
    d, T = problems[0].d, problems[0].T
    M, J = cfg.particles, min(cfg.partner_count, cfg.particles)
    rng = np.random.default_rng(cfg.master_seed)
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


@pytest.mark.parametrize("partner_count", [8, 300], ids=["J<M", "J>M"])
@pytest.mark.parametrize("d, wide", [(1, False), (2, False), (3, False),
                                     (2, True)],
                         ids=["linear-1", "linear-2", "linear-3", "wide-2"])
def test_states_match_row_major_oracle(d, wide, partner_count):
    base = wide_problem(d, width=64) if wide else linear_problem(d, a=0.2)
    problems = [base] if wide else [perturbed_problem(base, eps=0.1)[0], base]
    cfg = ParticleConfig(particles=200, euler_steps=10, master_seed=4,
                         partner_count=partner_count)
    x = np.linspace(0.5, 1.0, d)
    got = simulate_particles(problems, cfg, x)
    want = row_major_particles(problems, cfg, x)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == (200, d) and g.flags.c_contiguous
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


class TestParticleMeanPayoff:
    def test_driftless(self):
        prob = linear_problem(1, a=0.0, b=0.0)
        x = np.array([0.4])
        (states,) = simulate_particles([prob], FAST, x)
        est = particle_mean_payoff(prob, states)
        assert abs(est - 0.4) <= 3.0 / math.sqrt(FAST.particles)

    def test_linear_closed_form(self):
        prob = linear_problem(1, a=0.0, b=-0.5)
        x = np.ones(1)
        (states,) = simulate_particles([prob], FAST, x)
        est = particle_mean_payoff(prob, states)
        assert abs(est - math.exp(-0.5)) <= 0.05

    def test_determinism(self):
        prob = linear_problem(2)
        x = np.ones(2)
        assert particle_mean_payoff(
            prob, simulate_particles([prob], FAST, x)[0]) == (
            particle_mean_payoff(prob, simulate_particles([prob], FAST, x)[0]))


class TestMomentBound:
    def test_pure_brownian(self):
        prob = linear_problem(1, a=0.0, b=0.0)
        x = np.zeros(1)
        res = check_moment_bound(prob, simulate_particles([prob], FAST, x)[0],
                                 x, p=2)
        assert res.satisfied
        # bound reduces to sqrt(T(d+2pr)) e^{cT} = sqrt(5) e
        assert res.bound == pytest.approx(math.sqrt(5.0) * math.e)

    def test_linear_d5(self):
        prob = linear_problem(5)
        cfg = ParticleConfig(particles=1000, euler_steps=40, master_seed=3,
                             partner_count=32)
        x = np.ones(5)
        res = check_moment_bound(prob, simulate_particles([prob], cfg, x)[0],
                                 x, p=2)
        assert res.satisfied

    def test_bound_formula_by_hand(self):
        prob = linear_problem(1, a=0.0, b=-0.5)  # c = 1, r = 1, T = 1
        x = np.array([2.0])
        res = check_moment_bound(prob, simulate_particles([prob], FAST, x)[0],
                                 x, p=1)
        # mu(0,0) = 0, so bound = (2 + sqrt(1*(1+2))) e
        assert res.bound == pytest.approx((2.0 + math.sqrt(3.0)) * math.e)


class TestPerturbationBounds:
    def test_zero_perturbation_exactly_coupled(self):
        base = linear_problem(1)
        pert, b = perturbed_problem(base, eps=0.0)
        x = np.ones(1)
        st_eps, st0 = simulate_particles([pert, base], FAST, x)
        st_res, pay_res = check_perturbation_bounds(base, pert, 0.0, b,
                                                    st0, st_eps, x, p=2)
        assert st_res.empirical == 0.0
        assert pay_res.empirical == 0.0
        assert st_res.satisfied and pay_res.satisfied

    def test_small_perturbation_satisfied(self):
        base = linear_problem(1)
        pert, b = perturbed_problem(base, eps=0.1)
        x = np.ones(1)
        st_eps, st0 = simulate_particles([pert, base], FAST, x)
        st_res, pay_res = check_perturbation_bounds(base, pert, 0.1, b,
                                                    st0, st_eps, x, p=2)
        assert st_res.satisfied and pay_res.satisfied
        assert st_res.empirical > 0

    def test_linear_scaling_in_eps(self):
        base = linear_problem(1)
        x = np.ones(1)
        emps = []
        for eps in (0.05, 0.1, 0.2):
            pert, b = perturbed_problem(base, eps=eps)
            st_eps, st0 = simulate_particles([pert, base], FAST, x)
            st_res, _ = check_perturbation_bounds(base, pert, eps, b,
                                                  st0, st_eps, x, p=2)
            emps.append(st_res.empirical)
        # doubling eps roughly doubles the coupled difference
        assert emps[1] / emps[0] == pytest.approx(2.0, rel=0.2)
        assert emps[2] / emps[1] == pytest.approx(2.0, rel=0.2)


class TestBrownianMomentBound:
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("r", [1, 2])
    def test_grid(self, d, p, r):
        res = brownian_moment_check(d, p, r, t=1.0, samples=20000, seed=11)
        assert res.satisfied

    def test_time_scaling(self):
        res = brownian_moment_check(2, 2, 1, t=0.25, samples=20000, seed=12)
        assert res.satisfied
        assert res.bound == pytest.approx(math.sqrt(0.25 * 6))


class TestMlpErrorBound:
    def test_hand_value(self):
        prob = linear_problem(1, a=0.0, b=-0.5)  # c = 1, T = 1
        val = mlp_error_bound(prob, 2, 2, np.zeros(1))
        assert val == pytest.approx(math.exp(7.0) / 2.0, rel=1e-12)

    def test_eventually_decreasing_in_n(self):
        prob = linear_problem(1, T=0.1)
        vals = [mlp_error_bound(prob, n, n, np.zeros(1))
                for n in range(2, 40)]
        tail = vals[10:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_dominates_empirical_error(self):
        prob = linear_problem(1)
        x = np.ones(1)
        (states,) = simulate_particles([prob], FAST, x)
        ref = particle_mean_payoff(prob, states)
        samples = []
        for seed in range(50):
            tree = NoiseTree(master_seed=seed, T=1.0, d=1, grid_levels=2, m=2)
            samples.append(monte_carlo_payoff(prob, tree, 1, 2, 2, x))
        rms = math.sqrt(np.mean((np.array(samples) - ref) ** 2))
        assert rms <= mlp_error_bound(prob, 2, 2, x)


def test_bound_check_result_consistency():
    res = BoundCheckResult("x", 1.0, 2.0, 10)
    assert res.satisfied == (res.empirical <= res.bound)


def test_coupled_simulation_sharing():
    base = linear_problem(1)
    pert, _ = perturbed_problem(base, eps=0.0)
    a, b = simulate_particles([base, pert],
                              ParticleConfig(particles=200, euler_steps=10,
                                             master_seed=1, partner_count=8),
                              np.zeros(1))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_coupled_base_states_equal_solo_run(d):
    base = linear_problem(d)
    pert, _ = perturbed_problem(base, eps=0.1)
    cfg = ParticleConfig(particles=300, euler_steps=10, master_seed=5,
                         partner_count=8)
    x = np.ones(d)
    st_eps, st0 = simulate_particles([pert, base], cfg, x)
    assert st0.tobytes() == simulate_particles([base], cfg, x)[0].tobytes()
    assert not np.array_equal(st_eps, st0)


def test_bounds_suite_rows_equal_public_checks():
    cfg = ExperimentConfig(dims=[2, 1], particles=300, euler_steps=10,
                           partner_count=8, seed=3)
    pc = ParticleConfig(particles=300, euler_steps=10, master_seed=3,
                        partner_count=8)
    base, x = linear_problem(1), np.ones(1)
    pert, b = perturbed_problem(base, eps=0.1)
    solo = simulate_particles([base], pc, x)[0]
    st_eps, st0 = simulate_particles([pert, base], pc, x)
    ref = particle_mean_payoff(base, solo)
    samples = [monte_carlo_payoff(base, NoiseTree(master_seed=1003 + i, T=1.0,
                                                  d=1, grid_levels=2, m=2),
                                  1, 2, 2, x) for i in range(20)]
    rms = float(np.sqrt(np.mean((np.array(samples) - ref) ** 2)))
    bound = mlp_error_bound(base, 2, 2, x)
    want = [brownian_moment_check(d, p, r, t=1.0, samples=10 ** 5, seed=3)
            for d, p, r in ((1, 1, 1), (3, 2, 1), (5, 2, 2))]
    want += [check_moment_bound(base, solo, x, p=2),
             *check_perturbation_bounds(base, pert, 0.1, b, st0, st_eps, x,
                                        p=2),
             BoundCheckResult("mlp-error-domination", rms, bound, 20)]
    _, rows, ok = run_bounds_suite(cfg)
    assert rows == [[c.name, f"{c.empirical:.6e}", f"{c.bound:.6e}",
                     int(c.satisfied), c.samples] for c in want]
    assert ok == all(c.satisfied for c in want)


@pytest.mark.parametrize("field, value", [
    ("particles", 2000.0), ("particles", 1), ("euler_steps", 2.5),
    ("euler_steps", 0), ("partner_count", 1.5), ("partner_count", 0),
    ("master_seed", 0.5), ("master_seed", -1)])
def test_particle_config_rejects_bad_sizes(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        ParticleConfig(**{field: value})


@pytest.mark.parametrize("problems, x, name", [
    ([], np.ones(2), "problems"),
    ([linear_problem(2)], np.ones(3), "x"),
    ([linear_problem(2)], np.array([1.0, np.nan]), "x")],
    ids=["no-problems", "x-shape", "x-nan"])
def test_simulate_particles_rejects_bad_input(problems, x, name):
    cfg = ParticleConfig(particles=10, euler_steps=2, partner_count=4)
    with pytest.raises(ValueError, match=f"^{name} must "):
        simulate_particles(problems, cfg, x)


@pytest.mark.parametrize("kwargs, name", [
    ({"d": 0}, "d"), ({"p": 0}, "p"), ({"r": 0}, "r"),
    ({"samples": 0}, "samples"),
    ({"t": -1.0}, "t"), ({"t": math.nan}, "t"), ({"t": math.inf}, "t")],
    ids=["d-0", "p-0", "r-0", "samples-0", "t-negative", "t-nan", "t-inf"])
def test_brownian_moment_check_rejects_bad_arguments(kwargs, name):
    args = {"d": 1, "p": 1, "r": 1, "t": 1.0, "samples": 10} | kwargs
    with pytest.raises(ValueError, match=f"^{name} must "):
        brownian_moment_check(**args)


def _moment(states=np.ones((4, 1)), x=np.ones(1), p=2):
    return check_moment_bound(linear_problem(1), states, x, p)


def _perturbation(st0=np.ones((4, 1)), st_eps=np.ones((4, 1)), x=np.ones(1),
                  p=2):
    base = linear_problem(1)
    pert, b = perturbed_problem(base, eps=0.1)
    return check_perturbation_bounds(base, pert, 0.1, b, st0, st_eps, x, p)


def _error(n=2, m=2, x=np.ones(1)):
    return mlp_error_bound(linear_problem(1), n, m, x)


@pytest.mark.parametrize("check, kwargs, name", [
    (_moment, {"p": 0}, "p"),
    (_moment, {"p": 1.5}, "p"),
    (_moment, {"x": np.ones(3)}, "x"),
    (_moment, {"states": np.ones((0, 1))}, "states"),
    (_moment, {"states": np.ones(4)}, "states"),
    (_moment, {"states": np.ones((4, 2))}, "states"),
    (_perturbation, {"p": 0}, "p"),
    (_perturbation, {"x": np.ones(3)}, "x"),
    (_perturbation, {"st_eps": np.ones((5, 1))}, "states"),
    (_perturbation, {"st0": np.ones((0, 1)), "st_eps": np.ones((0, 1))},
     "states"),
    (_error, {"n": -1}, "n"),
    (_error, {"n": 1.5}, "n"),
    (_error, {"m": 0}, "m"),
    (_error, {"m": 2.0}, "m"),
    (_error, {"x": np.ones(3)}, "x"),
], ids=["moment-p0", "moment-p1.5", "moment-x-length-3", "moment-empty",
        "moment-1d-states", "moment-states-d2", "pert-p0",
        "pert-x-length-3", "pert-shape-mismatch", "pert-empty", "error-n-1",
        "error-n1.5", "error-m0", "error-m2.0", "error-x-length-3"])
def test_bound_check_rejects_bad_arguments(check, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        check(**kwargs)
