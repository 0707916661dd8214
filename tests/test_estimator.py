import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardnet.estimator import (MlpParams, floor_to_grid, mlp_estimate,
                                 mlp_estimate_batch, monte_carlo_payoff)
from picardnet.nets import realize
from picardnet.noise import NoiseTree, brownian_at, uniform_time
from picardnet.problems import constant_problem, linear_problem


def make_tree(seed=0, T=1.0, d=1, levels=2, m=2):
    return NoiseTree(master_seed=seed, T=T, d=d, grid_levels=levels, m=m)


class TestFloorToGrid:
    def test_examples(self):
        assert floor_to_grid(0.7, 2, 2, 1.0) == pytest.approx(0.5)
        assert floor_to_grid(1.0, 3, 2, 1.0) == pytest.approx(1.0)
        assert floor_to_grid(0.1, 3, 1, 1.0) == 0.0

    def test_grid_points_are_fixed(self):
        for k in range(9):
            t = k / 8
            assert floor_to_grid(t, 2, 3, 1.0) == pytest.approx(t)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            floor_to_grid(-0.1, 2, 2, 1.0)
        with pytest.raises(ValueError):
            floor_to_grid(1.5, 2, 2, 1.0)


def transcription_oracle(problem, tree, theta, n, m, t, x):
    """Second, independent transcription of the level recursion.

    Kept deliberately different in style from the library version: explicit
    floor computation, list-based accumulation, no shared helpers.
    """
    if n == 0:
        return np.zeros(problem.d)
    g = m ** n
    floored = min(int(t * g / tree.T + 1e-9), g) * tree.T / g
    mu = lambda u, v: realize(problem.mu_net, np.concatenate([u, v]))
    total = (np.asarray(x, dtype=float)
             + brownian_at(tree, theta, floored)
             + t * mu(np.zeros(problem.d), np.zeros(problem.d)))
    pieces = []
    for level in range(1, n):
        reps = m ** (n - level)
        for j in range(1, reps + 1):
            sub = tuple(theta) + (n, j, level)
            s = uniform_time(tree, sub) * t
            up = mu(transcription_oracle(problem, tree, theta, level, m, s, x),
                    transcription_oracle(problem, tree, sub, level, m, s, x))
            dn = mu(transcription_oracle(problem, tree, theta, level - 1, m, s, x),
                    transcription_oracle(problem, tree, sub, level - 1, m, s, x))
            pieces.append((t / reps) * (up - dn))
    return total + sum(pieces)


class TestMlpEstimate:
    def test_level_zero(self):
        prob = linear_problem(1)
        tree = make_tree()
        np.testing.assert_array_equal(
            mlp_estimate(prob, tree, (1,), 0, 2, 0.7, np.array([3.0])),
            np.zeros(1))

    def test_level_one_formula(self):
        prob = linear_problem(2)
        tree = make_tree(d=2, levels=1, m=2)
        x = np.array([1.0, -1.0])
        t = 0.8
        mu0 = realize(prob.mu_net, np.zeros(4))
        want = x + brownian_at(tree, (1,), floor_to_grid(t, 2, 1, 1.0)) + t * mu0
        np.testing.assert_allclose(
            mlp_estimate(prob, tree, (1,), 1, 2, t, x), want, rtol=1e-12)

    def test_against_independent_transcription(self):
        prob = linear_problem(1, a=0.3, b=-0.4)
        tree = make_tree(seed=99, levels=2, m=2)
        x = np.array([0.7])
        got = mlp_estimate(prob, tree, (1,), 2, 2, 1.0, x)
        want = transcription_oracle(prob, tree, (1,), 2, 2, 1.0, x)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_transcription_level_three(self):
        prob = linear_problem(2, a=0.1, b=-0.2)
        tree = make_tree(seed=5, d=2, levels=3, m=2)
        x = np.array([0.5, -0.25])
        got = mlp_estimate(prob, tree, (2,), 3, 2, 0.9, x)
        want = transcription_oracle(prob, tree, (2,), 3, 2, 0.9, x)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_level_overflow(self):
        prob = linear_problem(1)
        with pytest.raises(ValueError):
            mlp_estimate(prob, make_tree(levels=1), (1,), 2, 2, 1.0,
                         np.zeros(1))

    def test_determinism(self):
        prob = linear_problem(1)
        a = mlp_estimate(prob, make_tree(seed=3), (1,), 2, 2, 1.0,
                         np.ones(1))
        b = mlp_estimate(prob, make_tree(seed=3), (1,), 2, 2, 1.0,
                         np.ones(1))
        np.testing.assert_array_equal(a, b)


class TestBatch:
    def test_matches_scalar(self):
        prob = linear_problem(2, a=0.2, b=-0.3)
        tree = make_tree(seed=21, d=2, levels=3, m=2)
        x = np.array([1.0, 0.5])
        batch = mlp_estimate_batch(prob, tree, range(1, 9), 3, 2, 1.0, x)
        for i in range(1, 9):
            scalar = mlp_estimate(prob, make_tree(seed=21, d=2, levels=3,
                                                  m=2), (i,), 3, 2, 1.0, x)
            np.testing.assert_allclose(batch[i - 1], scalar, rtol=1e-9,
                                       atol=1e-12)

    def test_level_zero(self):
        prob = linear_problem(1)
        out = mlp_estimate_batch(prob, make_tree(), [1, 2, 3], 0, 2, 1.0,
                                 np.ones(1))
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_rows_independent_of_batch_bitwise(self):
        # 3000 rows run in parts, one k per group and two noise blocks per
        # query (910 keys each on this grid); a single row runs every k in
        # one group and one block.  Coarse queries skip dead bridge nodes.
        prob = linear_problem(2, a=0.2, b=-0.3)
        tree = make_tree(seed=17, d=2, levels=8, m=2)
        x = np.array([0.3, -0.6])
        bases = range(1, 3001)
        batch = mlp_estimate_batch(prob, tree, bases, 2, 2, 0.85, x)
        for row, b in zip(batch, bases):
            np.testing.assert_array_equal(
                row, mlp_estimate_batch(prob, tree, [b], 2, 2, 0.85, x)[0])

    def test_empty_batch(self):
        prob = linear_problem(2)
        out = mlp_estimate_batch(prob, make_tree(d=2), [], 2, 2, 1.0,
                                 np.ones(2))
        assert out.shape == (0, 2)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(1, 3),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 63 - 1),
       bases=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3))
def test_batch_matches_scalar_property(d, n, m, frac, seed, bases):
    prob = linear_problem(d, a=0.3, b=-0.4)
    tree = NoiseTree(master_seed=seed, T=1.5, d=d, grid_levels=n, m=m)
    t, x = frac * tree.T, np.linspace(-1.0, 1.0, d)
    batch = mlp_estimate_batch(prob, tree, bases, n, m, t, x)
    for row, b in zip(batch, bases):
        scalar = mlp_estimate(prob, tree, (b,), n, m, t, x)
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(row - scalar)) <= 1e-8 * scale


class TestMonteCarloPayoff:
    def test_single_sample(self):
        prob = linear_problem(1)
        tree = make_tree(seed=13)
        got = monte_carlo_payoff(prob, tree, 1, 2, 2, np.ones(1))
        state = mlp_estimate_batch(prob, tree, [1], 2, 2, 1.0, np.ones(1))
        want = float(realize(prob.f_net, state)[:, 0][0])
        assert got == want

    def test_constant_payoff(self):
        prob = constant_problem(2, value=4.25)
        tree = make_tree(seed=1, d=2)
        for K, n in ((1, 0), (3, 1), (5, 2)):
            assert monte_carlo_payoff(prob, tree, K, n, 2,
                                      np.zeros(2)) == pytest.approx(4.25)

    def test_mean_of_individual_payoffs(self):
        prob = linear_problem(1, a=0.1)
        tree = make_tree(seed=8)
        K = 5
        got = monte_carlo_payoff(prob, tree, K, 2, 2, np.ones(1))
        singles = []
        for i in range(1, K + 1):
            st = mlp_estimate(prob, make_tree(seed=8), (i,), 2, 2, 1.0,
                              np.ones(1))
            singles.append(realize(prob.f_net, st)[0])
        assert got == pytest.approx(np.mean(singles), rel=1e-9)


class TestGridClosure:
    def test_all_floored_times_on_finest_grid(self):
        # every Brownian query during the recursion hits the finest grid,
        # otherwise brownian_at raises
        prob = linear_problem(1, a=0.2, b=-0.1)
        for seed in range(5):
            tree = make_tree(seed=seed, levels=3, m=3)
            mlp_estimate(prob, tree, (1,), 3, 3, 0.77, np.ones(1))


def test_linear_drift_sanity():
    # payoff average approaches <w,x> e^{(a+b)T} at moderate depth
    prob = linear_problem(1, a=0.0, b=-0.5, T=1.0)
    x = np.ones(1)
    truth = prob.closed_form(x, prob.T)
    ests = []
    for seed in range(10):
        tree = make_tree(seed=seed, levels=3, m=3)
        ests.append(monte_carlo_payoff(prob, tree, 400, 3, 3, x))
    err = abs(np.mean(ests) - truth)
    assert err <= 0.1 * abs(truth)


def test_mlp_params_validation():
    with pytest.raises(ValueError):
        MlpParams(n=-1, m=2, K=1, t=0.5)
    with pytest.raises(ValueError):
        MlpParams(n=1, m=0, K=1, t=0.5)
    p = MlpParams(n=2, m=2, K=4, t=0.5)
    assert (p.n, p.m, p.K, p.t) == (2, 2, 4, 0.5)
