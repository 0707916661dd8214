import math

import numpy as np
import pytest

from picardnet.bounds import (BoundCheckResult, ParticleConfig,
                              brownian_moment_check, check_moment_bound,
                              check_perturbation_bounds, mlp_error_bound,
                              particle_mean_payoff, simulate_particles)
from picardnet.config import ExperimentConfig
from picardnet.estimator import monte_carlo_payoff
from picardnet.noise import NoiseTree
from picardnet.problems import linear_problem, perturbed_problem
from picardnet.suites import run_bounds_suite

FAST = ParticleConfig(particles=2000, euler_steps=50, master_seed=7,
                      partner_count=32)


class TestParticleMeanPayoff:
    def test_driftless(self):
        prob = linear_problem(1, a=0.0, b=0.0)
        x = np.array([0.4])
        est = particle_mean_payoff(prob, FAST, x)
        assert abs(est - 0.4) <= 3.0 / math.sqrt(FAST.particles)

    def test_linear_closed_form(self):
        prob = linear_problem(1, a=0.0, b=-0.5)
        x = np.ones(1)
        est = particle_mean_payoff(prob, FAST, x)
        assert abs(est - math.exp(-0.5)) <= 0.05

    def test_determinism(self):
        prob = linear_problem(2)
        x = np.ones(2)
        assert particle_mean_payoff(prob, FAST, x) == particle_mean_payoff(
            prob, FAST, x)


class TestMomentBound:
    def test_pure_brownian(self):
        prob = linear_problem(1, a=0.0, b=0.0)
        res = check_moment_bound(prob, FAST, np.zeros(1), p=2)
        assert res.satisfied
        # bound reduces to sqrt(T(d+2pr)) e^{cT} = sqrt(5) e
        assert res.bound == pytest.approx(math.sqrt(5.0) * math.e)

    def test_linear_d5(self):
        prob = linear_problem(5)
        cfg = ParticleConfig(particles=1000, euler_steps=40, master_seed=3,
                             partner_count=32)
        res = check_moment_bound(prob, cfg, np.ones(5), p=2)
        assert res.satisfied

    def test_bound_formula_by_hand(self):
        prob = linear_problem(1, a=0.0, b=-0.5)  # c = 1, r = 1, T = 1
        res = check_moment_bound(prob, FAST, np.array([2.0]), p=1)
        # mu(0,0) = 0, so bound = (2 + sqrt(1*(1+2))) e
        assert res.bound == pytest.approx((2.0 + math.sqrt(3.0)) * math.e)


class TestPerturbationBounds:
    def test_zero_perturbation_exactly_coupled(self):
        base = linear_problem(1)
        pert, b = perturbed_problem(base, eps=0.0)
        st_res, pay_res = check_perturbation_bounds(base, pert, 0.0, b,
                                                    FAST, np.ones(1), p=2)
        assert st_res.empirical == 0.0
        assert pay_res.empirical == 0.0
        assert st_res.satisfied and pay_res.satisfied

    def test_small_perturbation_satisfied(self):
        base = linear_problem(1)
        pert, b = perturbed_problem(base, eps=0.1)
        st_res, pay_res = check_perturbation_bounds(base, pert, 0.1, b,
                                                    FAST, np.ones(1), p=2)
        assert st_res.satisfied and pay_res.satisfied
        assert st_res.empirical > 0

    def test_linear_scaling_in_eps(self):
        base = linear_problem(1)
        emps = []
        for eps in (0.05, 0.1, 0.2):
            pert, b = perturbed_problem(base, eps=eps)
            st_res, _ = check_perturbation_bounds(base, pert, eps, b, FAST,
                                                  np.ones(1), p=2)
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
        ref = particle_mean_payoff(prob, FAST, x)
        samples = []
        for seed in range(50):
            tree = NoiseTree(master_seed=seed, T=1.0, d=1, grid_levels=2, m=2)
            samples.append(monte_carlo_payoff(prob, tree, 1, 2, 2, x))
        rms = math.sqrt(np.mean((np.array(samples) - ref) ** 2))
        assert rms <= mlp_error_bound(prob, 2, 2, x)


def test_bound_check_result_consistency():
    res = BoundCheckResult("x", 1.0, 2.0, True, 10)
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
    ref = particle_mean_payoff(base, pc, x)
    samples = [monte_carlo_payoff(base, NoiseTree(master_seed=1003 + i, T=1.0,
                                                  d=1, grid_levels=2, m=2),
                                  1, 2, 2, x) for i in range(20)]
    rms = float(np.sqrt(np.mean((np.array(samples) - ref) ** 2)))
    bound = mlp_error_bound(base, 2, 2, x)
    want = [brownian_moment_check(d, p, r, t=1.0, samples=10 ** 5, seed=3)
            for d, p, r in ((1, 1, 1), (3, 2, 1), (5, 2, 2))]
    want += [check_moment_bound(base, pc, x, p=2),
             *check_perturbation_bounds(base, pert, 0.1, b, pc, x, p=2),
             BoundCheckResult("mlp-error-domination", rms, bound,
                              rms <= bound, 20)]
    _, rows, ok = run_bounds_suite(cfg)
    assert rows == [[c.name, f"{c.empirical:.6e}", f"{c.bound:.6e}",
                     int(c.satisfied), c.samples] for c in want]
    assert ok == all(c.satisfied for c in want)
