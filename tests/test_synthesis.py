import dataclasses
import hashlib
import math
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardnet.calculus import (compose, dim_compose, dim_merge, dim_sum,
                                extend_depth, identity_dims, scaled_sum)
from picardnet.estimator import mlp_estimate, monte_carlo_payoff
from picardnet.nets import DimVector, NeuralNetwork, dims, param_count, realize
from picardnet.noise import NoiseTree, brownian_at
from picardnet.problems import constant_problem, linear_problem
from picardnet.synthesis import (probe_points, synthesize_mc_network,
                                 synthesize_mlp_network, theorem_pipeline)


def make_tree(seed=0, T=1.0, d=1, levels=2, m=2):
    return NoiseTree(master_seed=seed, T=T, d=d, grid_levels=levels, m=m)


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class TestMlpSynthesis:
    def test_level_zero_is_zero_function(self):
        prob = linear_problem(2)
        rep = synthesize_mlp_network(prob, make_tree(d=2), (1,), 0, 2, 0.5)
        assert rep.depth == rep.predicted_depth == 3
        for x in (np.zeros(2), np.ones(2), np.array([-3.0, 7.0])):
            np.testing.assert_array_equal(realize(rep.network, x), np.zeros(2))

    def test_level_one_is_shift(self):
        prob = linear_problem(1, a=0.2, b=-0.3)
        tree = make_tree(seed=4, levels=1, m=2)
        t = 0.6
        rep = synthesize_mlp_network(prob, tree, (3,), 1, 2, t)
        mu0 = realize(prob.mu_net, np.zeros(2))
        # t = 0.6 floors to grid point 1 of 2.
        shift = brownian_at(tree, (3,), 1) + t * mu0
        for x in (np.zeros(1), np.array([2.0]), np.array([-1.5])):
            np.testing.assert_allclose(realize(rep.network, x), x + shift,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_level_two_matches_estimator(self, d):
        prob = linear_problem(d, a=0.1, b=-0.4)
        tree = make_tree(seed=31, d=d, levels=2, m=2)
        rep = synthesize_mlp_network(prob, tree, (1,), 2, 2, 0.9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(d) * 2
            direct = mlp_estimate(prob, tree, (1,), 2, 2, 0.9, x)
            assert rel_err(realize(rep.network, x), direct) <= 1e-8

    def test_depth_and_width_laws(self):
        prob = linear_problem(2)
        for n in range(4):
            m = max(n, 1)
            tree = make_tree(seed=n, d=2, levels=n, m=m)
            rep = synthesize_mlp_network(prob, tree, (1,), n, m, 0.5)
            assert rep.depth == rep.predicted_depth
            assert rep.width_supnorm <= rep.predicted_width_bound

    def test_param_depth_width_inequality(self):
        prob = linear_problem(1)
        tree = make_tree(seed=2, levels=2, m=2)
        rep = synthesize_mlp_network(prob, tree, (1,), 2, 2, 1.0)
        assert rep.param_count == param_count(rep.network)
        assert rep.param_count <= 2 * rep.depth * rep.width_supnorm ** 2


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 2), n=st.integers(1, 2), m=st.integers(1, 2),
       frac=st.floats(0.0, 1.0),
       seed=st.sampled_from([0, 41, 2 ** 40 + 3, 2 ** 63 - 1]))
def test_network_matches_scalar_property(d, n, m, frac, seed):
    prob = linear_problem(d, a=0.3, b=-0.4)
    tree = NoiseTree(master_seed=seed, T=1.5, d=d, grid_levels=n, m=m)
    t = frac * tree.T
    rep = synthesize_mlp_network(prob, tree, (1,), n, m, t)
    assert rep.depth == rep.predicted_depth
    assert rep.width_supnorm <= rep.predicted_width_bound
    for x in (np.linspace(-1.0, 1.0, d), np.full(d, 2.5)):
        direct = mlp_estimate(prob, tree, (1,), n, m, t, x)
        assert rel_err(realize(rep.network, x), direct) <= 1e-8


def width_fold(prob, n, m):
    """Width vector of the level-n network from the width laws alone: each
    correction composes the drift with a merged pair of level-ell (or
    ell - 1) vectors, grown to a common length by an identity network."""
    d, mu = prob.d, dims(prob.mu_net)
    if n == 0:
        return DimVector((d, 1, d))
    length = n * (len(mu) - 1) + 3
    parts = [identity_dims(d, length)]
    for ell in range(1, n):
        for lv in (ell, ell - 1):
            pair = dim_merge(width_fold(prob, lv, m), width_fold(prob, lv, m))
            pad = length - len(pair) - len(mu) + 2
            if pad > 1:
                pair = dim_compose(identity_dims(2 * d, pad), pair)
            parts += [dim_compose(mu, pair)] * m ** (n - ell)
    return reduce(dim_sum, parts)


@pytest.mark.parametrize("d", [1, 2])
def test_dims_equal_width_fold(d):
    prob = linear_problem(d, a=0.1, b=-0.4)
    f = dims(prob.f_net)
    for n in range(4):
        for m in range(1, 4):
            tree = make_tree(seed=n, d=d, levels=n, m=m)
            want = width_fold(prob, n, m)
            assert dims(synthesize_mlp_network(prob, tree, (1,), n, m,
                                               0.5).network) == want
            mc = synthesize_mc_network(prob, tree, 2, n, m).network
            assert dims(mc) == dim_sum(dim_compose(f, want),
                                       dim_compose(f, want))


class TestMcSynthesis:
    def test_constant_at_level_zero(self):
        prob = linear_problem(1)
        rep = synthesize_mc_network(prob, make_tree(), 1, 0, 1)
        f0 = realize(prob.f_net, np.zeros(1))[0]
        for x in (np.zeros(1), np.ones(1), np.array([-2.0])):
            assert realize(rep.network, x)[0] == pytest.approx(f0, abs=1e-12)

    def test_depth_law_grid(self):
        prob = linear_problem(1)
        df = len(dims(prob.f_net))
        dmu = len(dims(prob.mu_net))
        for n in (0, 1, 2):
            m = max(n, 1)
            tree = make_tree(seed=n, levels=n, m=m)
            for K in (1, 2, 5):
                rep = synthesize_mc_network(prob, tree, K, n, m)
                assert rep.depth == df + n * (dmu - 1) + 2
                assert rep.depth == rep.predicted_depth
                assert rep.width_supnorm <= rep.predicted_width_bound

    def test_matches_monte_carlo(self):
        prob = linear_problem(2, a=0.15, b=-0.35)
        tree = make_tree(seed=6, d=2, levels=2, m=2)
        rep = synthesize_mc_network(prob, tree, 4, 2, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2)
            want = monte_carlo_payoff(prob, tree, 4, 2, 2, x)
            assert rel_err(realize(rep.network, x)[0], want) <= 1e-8


def wide_drift_problem(d):
    """A seeded 2d -> 8 -> 8 -> d drift (two hidden ReLU layers) with
    linear_problem(d)'s payoff."""
    rng = np.random.default_rng(40 + d)
    mu = NeuralNetwork((
        (rng.standard_normal((8, 2 * d)), rng.standard_normal(8)),
        (rng.standard_normal((8, 8)) / 3, rng.standard_normal(8)),
        (rng.standard_normal((d, 8)) / 3, rng.standard_normal(d))))
    return dataclasses.replace(linear_problem(d), mu_net=mu, name="wide drift")


def long_payoff_problem(d, extra):
    base = linear_problem(d, a=0.1, b=-0.4)
    return dataclasses.replace(base, f_net=extend_depth(base.f_net, extra))


PROBLEMS = {"linear": lambda d: linear_problem(d, a=0.1, b=-0.4),
            "wide drift": wide_drift_problem,
            "payoff +1": lambda d: long_payoff_problem(d, 1),
            "payoff +2": lambda d: long_payoff_problem(d, 2)}


def layer_digest(net):
    """sha256 of every layer's shapes and W and B bytes, in order."""
    digest = hashlib.sha256()
    for W, B in net.layers:
        digest.update(repr((W.shape, B.shape)).encode())
        digest.update(W.tobytes(order="C"))
        digest.update(B.tobytes(order="C"))
    return digest.hexdigest()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", list(PROBLEMS))
def test_mc_network_bytes_equal_public_api_oracle(kind, d, n, m):
    # The Monte Carlo network is assembled in one pass from the summands of
    # its K level-n sums; the oracle builds each level-n network, composes
    # the payoff after it and sums the K parts, with public functions only.
    prob = PROBLEMS[kind](d)
    tree = NoiseTree(master_seed=17, T=prob.T, d=d, grid_levels=max(n, 1),
                     m=m)
    levels = [synthesize_mlp_network(prob, tree, (i,), n, m, tree.T).network
              for i in (1, 2, 3)]
    for K in (1, 2, 3):
        oracle = scaled_sum([compose(prob.f_net, net) for net in levels[:K]],
                            [1.0 / K] * K)
        want = layer_digest(oracle)
        del oracle
        assert layer_digest(synthesize_mc_network(prob, tree, K, n, m)
                            .network) == want, f"K = {K}"


def test_mc_network_construction_peak_stays_near_its_size():
    # Building each level-n network on its own and then copying it into the
    # Monte Carlo network peaked at 1.5 times the result's bytes here.
    prob = linear_problem(2)
    tree = NoiseTree(master_seed=3, T=prob.T, d=2, grid_levels=3, m=3)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        net = synthesize_mc_network(prob, tree, 2, 3, 3).network
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    size = sum(W.nbytes + B.nbytes for W, B in net.layers)
    assert peak <= 1.25 * size


class TestTheoremPipeline:
    def test_linear_d1(self):
        prob = linear_problem(1, T=0.1)
        res = theorem_pipeline(prob, 0.5, 0.5, level_cap=2, seed_budget=20,
                               points=256)
        assert res.succeeded
        assert res.l2_error < 0.5
        assert res.n_selected >= 2
        assert res.K == res.n_used ** res.n_used

    def test_constant_problem_zero_error(self):
        prob = constant_problem(1, value=0.75, T=0.1)
        res = theorem_pipeline(prob, 0.5, 0.5, level_cap=2, seed_budget=3,
                               points=64)
        assert res.succeeded
        assert res.l2_error <= 1e-10

    def test_determinism(self):
        prob = linear_problem(1, T=0.1)
        r1 = theorem_pipeline(prob, 0.5, 0.5, level_cap=2, seed_budget=5,
                              points=128)
        r2 = theorem_pipeline(prob, 0.5, 0.5, level_cap=2, seed_budget=5,
                              points=128)
        assert r1.l2_error == r2.l2_error
        assert r1.seed_used == r2.seed_used


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed_budget=0), "seed_budget must be an integer >= 1, got 0"),
    (dict(seed_budget=1.5), "seed_budget must be an integer >= 1, got 1.5"),
    (dict(seed_budget=True), "seed_budget must be an integer >= 1"),
    (dict(level_cap=-1), "level_cap must be an integer >= 0, got -1"),
    (dict(level_cap=1.0), "level_cap must be an integer >= 0"),
], ids=["budget-0", "budget-1.5", "budget-True", "cap-1", "cap-float"])
def test_theorem_pipeline_rejects_bad_counts(kwargs, message):
    # seed_budget = 0 used to return None, and level_cap = -1 surfaced as a
    # grid_levels error from NoiseTree.
    with pytest.raises(ValueError, match=f"^{message}"):
        theorem_pipeline(linear_problem(1, T=0.1), 0.5, 0.5, points=16,
                         **kwargs)


def test_probe_points_deterministic():
    a = probe_points(3, 128)
    b = probe_points(3, 128)
    assert a.shape == (128, 3)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))


# Oracle: scipy's unscrambled Sobol sampler, imported by this test only.
# random_base2 draws a power of two of points, of which the first count
# must equal probe_points byte for byte.
@pytest.mark.parametrize("count", [1, 2, 3, 5, 128, 255, 256, 1000, 1024,
                                   1500])
@pytest.mark.parametrize("d", range(1, 33))
def test_probe_points_match_scipy_sobol_bytes(d, count):
    from scipy.stats import qmc

    exponent = max(1, math.ceil(math.log2(count)))
    want = qmc.Sobol(d, scramble=False).random_base2(exponent)[:count]
    got = probe_points(d, count)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, count, message", [
    (0, 4, "d must be an integer >= 1"), (2.0, 4, "d must be an integer"),
    (2, 0, "count must be an integer >= 1"),
    (2, -3, "count must be an integer >= 1"), (2, 1.5, "count must be"),
    (33, 4, "d must be <= 32, got 33")])
def test_probe_points_reject_bad_input(d, count, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        probe_points(d, count)


def pinned_synthesized() -> str:
    """param_count and a sha256 of the layers' bytes (W then B per layer,
    float64, C order) of a level-n and a K=2 Monte Carlo network."""
    lines = []
    for d in (1, 2):
        prob = linear_problem(d, a=0.1, b=-0.4)
        for n in (1, 2, 3):
            tree = NoiseTree(master_seed=5, T=prob.T, d=d, grid_levels=n, m=n)
            reps = [("mlp theta=(0,) t=0.75",
                     synthesize_mlp_network(prob, tree, (0,), n, n, 0.75)),
                    ("mc K=2", synthesize_mc_network(prob, tree, 2, n, n))]
            for name, rep in reps:
                digest = hashlib.sha256()
                for W, B in rep.network.layers:
                    digest.update(W.tobytes(order="C"))
                    digest.update(B.tobytes(order="C"))
                lines.append(f"linear d={d} n=m={n} master_seed=5 {name} "
                             f"{rep.param_count} {digest.hexdigest()}")
    return "\n".join(lines) + "\n"


def test_synthesized_networks_keep_their_bytes():
    # tests/data/synthesized.txt was written before merge and scaled_sum
    # shared their side-by-side layout code.
    golden = Path(__file__).parent / "data" / "synthesized.txt"
    assert pinned_synthesized() == golden.read_text()
