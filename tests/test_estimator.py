import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picardnet.estimator
import picardnet.nets
import picardnet.noise
import picardnet.synthesis
from picardnet.estimator import (_grid_index, mlp_estimate,
                                 mlp_estimate_batch, monte_carlo_payoff)
from picardnet.nets import NeuralNetwork, realize
from picardnet.noise import NoiseTree, brownian_at, theta_key, uniform_time
from picardnet.problems import constant_problem, linear_problem
from picardnet.synthesis import synthesize_mc_network, synthesize_mlp_network


def make_tree(seed=0, T=1.0, d=1, levels=2, m=2):
    return NoiseTree(master_seed=seed, T=T, d=d, grid_levels=levels, m=m)


class TestFloorToGrid:
    """The one floor rule, ``_grid_index``: a time floored to its level-n
    grid point, as an index into the finest grid."""

    def test_examples(self):
        # Floors on grids of 8 and 9 steps (T = 1), and the clamp to T of a
        # time inside the entry check's slack on a grid of 2**50 steps.
        assert _grid_index(make_tree(levels=3), 0.7, 2, 2) == 4
        assert _grid_index(make_tree(levels=2, m=3), 1.0, 3, 2) == 9
        assert _grid_index(make_tree(levels=2, m=3), 0.1, 3, 1) == 0
        assert _grid_index(make_tree(levels=50), 1 + 1e-12, 2, 50) == 2 ** 50

    def test_grid_points_are_fixed(self):
        tree = make_tree(levels=3)
        times = np.arange(9) / 8
        np.testing.assert_array_equal(_grid_index(tree, times, 2, 3),
                                      np.arange(9))
        for k, t in enumerate(times):
            assert _grid_index(tree, t, 2, 3) == k

    def test_out_of_range(self):
        prob, tree = linear_problem(1), make_tree()
        for t in (-0.1, 1.5):
            with pytest.raises(ValueError, match="time t"):
                mlp_estimate(prob, tree, (1,), 2, 2, t, np.ones(1))

    # The entry check and the tree own the rejections.
    @pytest.mark.parametrize("args, match", [
        (dict(t=float("nan")), "time t"),
        (dict(m=0), "m must"),
        (dict(n=-1), "n must"),
        (dict(levels=54), r"2\*\*54 exceeds 2\*\*53"),
        (dict(n=10 ** 9, m=3), "level n = 1000000000"),
    ], ids=["t-nan", "m0", "n-1", "grid-over-2**53", "n-1e9"])
    def test_rejects_bad_arguments(self, args, match):
        kw = dict(t=0.5, m=2, n=2, levels=2) | args
        with pytest.raises(ValueError, match=match):
            mlp_estimate(linear_problem(1), make_tree(levels=kw["levels"]),
                         (1,), kw["n"], kw["m"], kw["t"], np.ones(1))


def transcription_oracle(problem, tree, theta, n, m, t, x):
    """Second, independent transcription of the level recursion.

    Kept deliberately different in style from the library version: explicit
    integer floor, list-based accumulation, no shared helpers.
    """
    if n == 0:
        return np.zeros(problem.d)
    g = m ** n
    floored = min(int(t * g / tree.T + 1e-9), g) * (tree.grid_size // g)
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
        # t = 0.8 floors to grid point 1 of 2.
        want = x + brownian_at(tree, (1,), 1) + t * mu0
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
        # Each row against the scalar transcription of its stream.
        prob = linear_problem(2, a=0.2, b=-0.3)
        tree = make_tree(seed=21, d=2, levels=3, m=2)
        x = np.array([1.0, 0.5])
        batch = mlp_estimate_batch(prob, tree, range(1, 9), 3, 2, 1.0, x)
        for i in range(1, 9):
            scalar = transcription_oracle(prob, tree, (i,), 3, 2, 1.0, x)
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


def drift_rows(n, m):
    """D(n): drift rows per sample of a level-n batch estimate.

    Each correction evaluates the drift on its level-ell row and, for
    ell > 1, on its level-(ell - 1) row (at ell = 1 that term is mu(0, 0));
    its two sub-estimates at each of those levels add their own rows.
    """
    return sum(m ** (n - ell) * (2 - (ell == 1) + 2 * drift_rows(ell, m)
                                 + 2 * drift_rows(ell - 1, m))
               for ell in range(1, n))


@pytest.mark.parametrize("n, m, per_sample", [(2, 2, 2), (3, 3, 33),
                                              (4, 4, 712)])
def test_batch_drift_rows_skip_level_zero(monkeypatch, n, m, per_sample):
    prob = linear_problem(2, a=0.2, b=-0.3)
    tree = make_tree(seed=5, d=2, levels=n, m=m)
    rows, vectors = [], []

    def counting_realize(net, x):
        if net is prob.mu_net:
            if np.ndim(x) == 2:
                rows.append(len(x))
            else:
                vectors.append(x)
        return realize(net, x)

    monkeypatch.setattr(picardnet.estimator, "realize", counting_realize)
    K = 3
    mlp_estimate_batch(prob, tree, range(1, K + 1), n, m, 1.0, np.ones(2))
    assert drift_rows(n, m) == per_sample
    assert sum(rows) == K * per_sample
    # mu(0, 0), evaluated once as a single vector
    assert len(vectors) == 1 and not np.any(vectors[0])


def wide_problem(d=2, width=256, seed=0):
    """A drift 2d -> width -> width -> d with random weights."""
    rng = np.random.default_rng(seed)
    shapes = ((width, 2 * d), (width, width), (d, width))
    layers = tuple((rng.standard_normal(s) / np.sqrt(s[1]),
                    0.1 * rng.standard_normal(s[0])) for s in shapes)
    return replace(linear_problem(d), mu_net=NeuralNetwork(layers),
                   closed_form=None, name="wide-drift")


@pytest.mark.parametrize("prob, n, m, K", [
    (wide_problem(), 2, 2, 1000), (wide_problem(), 3, 3, 100),
    (linear_problem(2, a=0.2, b=-0.3), 4, 4, 100),
    (linear_problem(3, a=0.2, b=-0.3), 3, 3, 1000),
], ids=["wide-n2", "wide-n3", "linear-d2-n4", "linear-d3-split"])
def test_drift_blocks_hold_at_most_2_14_values(monkeypatch, prob, n, m, K):
    """Each drift evaluation is one ``realize`` call, which runs in the
    fewest row blocks whose widest activation holds at most 2**14 values,
    equal up to one row."""
    evaluations = []
    forward = picardnet.nets._forward

    def recording_realize(net, x):
        if net is prob.mu_net and np.ndim(x) == 2:
            evaluations.append((len(x), []))
        return realize(net, x)

    def counting_forward(net, h, rowwise):
        if net is prob.mu_net and rowwise:
            evaluations[-1][1].append(len(h))
        return forward(net, h, rowwise)

    monkeypatch.setattr(picardnet.estimator, "realize", recording_realize)
    monkeypatch.setattr(picardnet.nets, "_forward", counting_forward)
    tree = make_tree(seed=5, d=prob.d, levels=n, m=m)
    mlp_estimate_batch(prob, tree, range(1, K + 1), n, m, 1.0,
                       np.ones(prob.d))
    widest = max(W.shape[0] for W, _ in prob.mu_net.layers)
    per_block = 2 ** 14 // widest
    for rows, blocks in evaluations:
        assert sum(blocks) == rows
        assert max(blocks) * widest <= 2 ** 14
        assert max(blocks) - min(blocks) <= 1
        assert len(blocks) == -(-rows // per_block)
    assert sum(rows for rows, _ in evaluations) == K * drift_rows(n, m)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(1, 3),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 63 - 1),
       bases=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3))
def test_batch_matches_scalar_property(d, n, m, frac, seed, bases):
    # Each row against the scalar transcription of its stream.
    prob = linear_problem(d, a=0.3, b=-0.4)
    tree = NoiseTree(master_seed=seed, T=1.5, d=d, grid_levels=n, m=m)
    t, x = frac * tree.T, np.linspace(-1.0, 1.0, d)
    batch = mlp_estimate_batch(prob, tree, bases, n, m, t, x)
    for row, b in zip(batch, bases):
        scalar = transcription_oracle(prob, tree, (b,), n, m, t, x)
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


def pinned_estimates() -> str:
    """Float hex of payoffs and estimate rows whose level-n queries put
    index-0 rows beside live rows in one Brownian block."""
    x = np.array([0.3, -0.2])
    cases = [("linear d=2", linear_problem(2), 4, 20),
             ("drift 4->64->64->2", wide_problem(width=64, seed=5), 3, 20)]
    lines = []
    for name, prob, n, K in cases:
        tree = NoiseTree(master_seed=7, T=prob.T, d=2, grid_levels=n, m=n)
        payoff = monte_carlo_payoff(prob, tree, K, n, n, x)
        rows = mlp_estimate_batch(prob, tree, range(1, K + 1), n, n, prob.T, x)
        lines += [f"# {name} n=m={n} K={K} master_seed=7",
                  f"payoff {float(payoff).hex()}"]
        lines += [f"row {b} " + " ".join(v.hex() for v in row.tolist())
                  for b, row in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


def blas_core() -> str:
    """The OpenBLAS core type numpy's BLAS runs on.  The lookup exists only
    in numpy's wheel, whose bundled libscipy_openblas64_ its extension
    module links."""
    try:
        from numpy._core import _multiarray_umath
        library = ctypes.CDLL(_multiarray_umath.__file__)
        corename = library.scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError) as err:
        return f"unknown ({err})"
    corename.restype = ctypes.c_char_p
    return corename().decode()


# The golden of each OpenBLAS kernel family: their GEMM kernels sum the
# wide drift's 64-term dot products in different orders or with FMA, so 15
# to 17 of its 21 lines differ between families.  OPENBLAS_CORETYPE=Zen
# runs on the Haswell kernels, and many older cores on Nehalem or Katmai.
ESTIMATE_PINS = {"SkylakeX": "estimates.txt",
                 "Haswell": "estimates-haswell.txt",
                 **dict.fromkeys(("Sandybridge", "Nehalem", "Katmai"),
                                 "estimates-sandybridge.txt")}


def test_estimates_keep_their_bits():
    # Written before Brownian queries stopped drawing normals for index-0
    # rows; each kernel family still gets an exact comparison.
    core = blas_core()
    if core not in ESTIMATE_PINS:
        pytest.fail(f"no golden estimates for OpenBLAS core {core}")
    golden = Path(__file__).parent / "data" / ESTIMATE_PINS[core]
    assert pinned_estimates() == golden.read_text(), \
        f"estimates differ from the golden on OpenBLAS core {core}"


def test_estimate_pins_share_the_linear_section():
    # Only the wide drift's products depend on the kernel: the linear
    # drift's sums have at most two nonzero terms, which every order and
    # FMA give alike, so its section is one on every pin.
    sections = {Path(__file__).parent.joinpath("data", name).read_text()
                .split("# drift")[0] for name in ESTIMATE_PINS.values()}
    assert len(sections) == 1 and len(next(iter(sections)).splitlines()) == 22


# Fine grids with a non-dyadic T.  A scalar path that floored t to a float
# time and mapped it back to an index raised "not on the grid" in the first
# case and read the neighbouring index, 3.4e-9 off the batch, in the second.
@pytest.mark.parametrize("m, levels, n, t", [
    (2, 34, 2, 0.089), (2, 53, 2, 0.08653832930594503), (3, 33, 1, 0.07)])
def test_fine_grid_paths_agree(m, levels, n, t):
    prob = linear_problem(1, a=0.2, b=-0.3, T=0.1)
    tree = make_tree(seed=7, T=0.1, levels=levels, m=m)
    x = np.array([0.4])
    scalar = mlp_estimate(prob, tree, (3,), n, m, t, x)
    row = mlp_estimate_batch(prob, tree, [3], n, m, t, x)[0]
    assert scalar.tobytes() == row.tobytes()
    np.testing.assert_allclose(
        row, transcription_oracle(prob, tree, (3,), n, m, t, x), rtol=1e-12)
    rep = synthesize_mlp_network(prob, tree, (3,), n, m, t)
    np.testing.assert_allclose(realize(rep.network, x), scalar, rtol=1e-8,
                               atol=1e-8)
    assert rep.depth == rep.predicted_depth


class TestGridClosure:
    def test_all_floored_times_on_finest_grid(self):
        # every Brownian query during the recursion is an integer index
        # into the finest grid, otherwise brownian_at raises
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
    prob, tree = linear_problem(1), make_tree()
    check = picardnet.estimator._check_args
    with pytest.raises(ValueError, match="n must"):
        check(prob, tree, -1, 2, 0.5)
    with pytest.raises(ValueError, match="m must"):
        check(prob, tree, 1, 0, 0.5)
    assert check(prob, tree, 2, 2, 0.5) is None
    assert np.isfinite(monte_carlo_payoff(prob, tree, 4, 2, 2, np.ones(1)))


def entry_points(n=2, m=2, t=1.0, base=1, x=(1.0,), K=1):
    """Every public entry point of the recursion on linear_problem(1) and a
    tree with m = 2, grid_levels = 2, T = 1; the defaults are valid."""
    prob, tree = linear_problem(1), make_tree()
    return {
        "scalar": lambda: mlp_estimate(prob, tree, (base,), n, m, t, x),
        "batch": lambda: mlp_estimate_batch(prob, tree, [base], n, m, t, x),
        "payoff": lambda: monte_carlo_payoff(prob, tree, K, n, m, x),
        "network": lambda: synthesize_mlp_network(prob, tree, (base,), n, m,
                                                  t),
        "mc_network": lambda: synthesize_mc_network(prob, tree, K, n, m),
    }


TAKE_T = ("scalar", "batch", "network")


class TestEntryCheck:
    def test_defaults_are_valid(self):
        for call in entry_points().values():
            call()

    # Each case names the entry points that take the argument.
    @pytest.mark.parametrize("bad, match, takers", [
        (dict(m=0), "m must", None),
        (dict(m=3), "m = 3", None),
        (dict(n=-1), "n must", None),
        (dict(t=2.0), "time t", TAKE_T),
        (dict(t=float("nan")), "time t", TAKE_T),
        (dict(base=-1), "base", TAKE_T),
        (dict(x=(1.0, 2.0, 3.0)), "x has shape", ("scalar", "batch", "payoff")),
        (dict(K=2.5), "K must", ("payoff", "mc_network")),
        (dict(K=True), "K must", ("payoff", "mc_network")),
        (dict(n=True), "n must", None),
        (dict(m=True), "m must", None),
        (dict(t=True), "time t", TAKE_T),
        (dict(t=np.True_), "time t", TAKE_T),
        (dict(base=True), "base", TAKE_T),
        (dict(x=(float("nan"),)), "x has shape", ("scalar", "batch", "payoff")),
        (dict(x=(float("inf"),)), "x has shape", ("scalar", "batch", "payoff")),
        (dict(x=(-float("inf"),)), "x has shape", ("scalar", "batch", "payoff")),
    ], ids=["m0", "m3-on-m2-tree", "n-1", "t-above-T", "t-nan", "base-1",
            "x-length-3", "K-2.5", "K-True", "n-True", "m-True", "t-True",
            "t-numpy-True", "base-True", "x-nan", "x-inf", "x-minus-inf"])
    def test_rejects(self, bad, match, takers):
        calls = entry_points(**bad)
        for name in takers or calls:
            with pytest.raises(ValueError, match=match):
                calls[name]()

    def test_huge_level_rejected_without_computing_m_to_the_n(self):
        # An m = 1 tree admits any grid_levels; 3**n would not fit in memory.
        tree = NoiseTree(master_seed=0, T=1.0, d=1, grid_levels=10 ** 15, m=1)
        with pytest.raises(ValueError, match="off the grid"):
            mlp_estimate(linear_problem(1), tree, (1,), 10 ** 12, 3, 0.5,
                         np.ones(1))

    def test_tree_dimension_must_match(self):
        prob = linear_problem(2)
        with pytest.raises(ValueError, match="tree.d"):
            mlp_estimate_batch(prob, make_tree(d=1), [1], 2, 2, 1.0,
                               np.ones(2))


@pytest.mark.parametrize("S, K", [(1, 6), (3, 6), (10, 6), (10, 250)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_stacked_payoffs_equal_per_tree_calls(S, K, d, n):
    # K = 250 puts 2500 stacked rows past the 2048-row group cap.
    prob = linear_problem(d, a=0.2, b=-0.4)
    x = np.linspace(0.5, -0.5, d)
    m = max(n, 1)
    trees = [make_tree(seed=100 + 7 * s, d=d, levels=n, m=m)
             for s in range(S)]
    assert picardnet.estimator._mc_payoffs(prob, trees, K, n, m, x) == [
        monte_carlo_payoff(prob, tree, K, n, m, x) for tree in trees]


@pytest.mark.parametrize("other", [dict(T=2.0), dict(d=2),
                                   dict(grid_levels=3), dict(m=4)],
                         ids=["T", "d", "grid_levels", "m"])
def test_stacked_payoffs_reject_mismatched_trees(other):
    prob, tree = linear_problem(1), make_tree()
    stack = picardnet.estimator._mc_payoffs
    with pytest.raises(ValueError, match="one or more"):
        stack(prob, [], 2, 2, 2, np.ones(1))
    with pytest.raises(ValueError, match="share T, d"):
        stack(prob, [tree, replace(tree, master_seed=1, **other)], 2, 2, 2,
              np.ones(1))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(-1, 4), m=st.integers(0, 5),
       t=st.one_of(st.floats(-0.5, 2.0), st.just(float("nan"))))
def test_scalar_and_batch_accept_the_same_inputs(n, m, t):
    prob = linear_problem(2, a=0.3, b=-0.4)
    tree = NoiseTree(master_seed=7, T=1.5, d=2, grid_levels=3, m=2)
    x = np.array([0.5, -1.0])
    outcomes = []
    for call in (lambda: mlp_estimate(prob, tree, (3,), n, m, t, x),
                 lambda: mlp_estimate_batch(prob, tree, [3], n, m, t, x)[0]):
        try:
            outcomes.append(call())
        except ValueError:
            outcomes.append(None)
    scalar, batch = outcomes
    assert (scalar is None) == (batch is None)
    if scalar is not None:
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(batch - scalar)) <= 1e-8 * scale


@pytest.mark.parametrize("module, call", [
    (picardnet.estimator,
     lambda p, tr: mlp_estimate(p, tr, (1,), 3, 3, 0.8, np.ones(1))),
    (picardnet.synthesis,
     lambda p, tr: synthesize_mlp_network(p, tr, (1,), 3, 3, 0.8)),
    (picardnet.synthesis,
     lambda p, tr: synthesize_mc_network(p, tr, 2, 3, 3)),
], ids=["mlp_estimate", "synthesize_mlp_network", "synthesize_mc_network"])
def test_mu0_realized_once_per_call(monkeypatch, module, call):
    prob = linear_problem(1, a=0.2, b=-0.3)
    zeros = []

    def counting_realize(net, x):
        if np.ndim(x) == 1 and not np.any(x):
            zeros.append(net)
        return realize(net, x)

    monkeypatch.setattr(module, "realize", counting_realize)
    call(prob, make_tree(seed=4, levels=3, m=3))
    assert len(zeros) == 1 and zeros[0] is prob.mu_net


# Nodes of a level-3 call at m = 3, N(3) = 1 + sum_ell 3**(3 - ell) * (pairs
# at ell and ell - 1): N(0) = N(1) = 1.  The estimator skips level 0 (N(2) =
# 7, N(3) = 67) and runs its 67 nodes as rows of 5 calls: the top call, then
# 18 rows at ell = 1, 6 + 6 at ell = 2, and 36 below the 6 level-2 rows.
# Synthesis builds its zero networks too (13 and 121 nodes) in one call per
# class (ell, child level) while a class holds at most 2,048 copies: B(n) =
# 1 + sum_ell (B(ell) + B(ell - 1)), B(0) = B(1) = 1, whatever m is; B(3) =
# 7 calls, where it made one per node.
@pytest.mark.parametrize("module, recursion, call, calls, count", [
    (picardnet.estimator, "_mlp_batch",
     lambda p, tr: mlp_estimate(p, tr, (4, 1), 3, 3, 0.8, np.ones(1)), 5, 67),
    (picardnet.synthesis, "_mlp_net",
     lambda p, tr: synthesize_mlp_network(p, tr, (4, 1), 3, 3, 0.8), 7, 121),
], ids=["mlp_estimate", "synthesize_mlp_network"])
def test_theta_folded_once_at_entry(monkeypatch, module, recursion, call,
                                    calls, count):
    # The entry point folds theta into one stream key; every node below it
    # walks uint64 keys and never returns to the tuple API.
    folds, nodes = [], []

    def counting_theta_key(seed, theta):
        folds.append(theta)
        return theta_key(seed, theta)

    def tuple_api(*args):
        raise AssertionError("tuple API called below the entry point")

    def recording(problem, tree, key, *rest):
        nodes.append(key)
        return original(problem, tree, key, *rest)

    original = getattr(module, recursion)
    monkeypatch.setattr(picardnet.noise, "theta_key", counting_theta_key)
    monkeypatch.setattr(module, "theta_key", counting_theta_key, raising=False)
    for mod in (picardnet.noise, picardnet.estimator, picardnet.synthesis):
        for name in ("brownian_at", "uniform_time"):
            monkeypatch.setattr(mod, name, tuple_api)
    monkeypatch.setattr(module, recursion, recording)
    call(linear_problem(1, a=0.2, b=-0.3), make_tree(seed=4, levels=3, m=3))
    assert folds == [(4, 1)]
    assert len(nodes) == calls
    assert sum(len(key) for key in nodes) == count
    for key in nodes:
        assert isinstance(key, np.ndarray) and key.dtype == np.uint64
        assert key.ndim == 1 and len(key) > 0
