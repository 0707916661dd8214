import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import picardnet.noise
from picardnet.noise import (NoiseTree, base_keys, brownian_at,
                             brownian_path_batch, fold_keys, grid_index,
                             theta_key, uniform_time, uniform_time_batch)


def make_tree(seed=0, T=1.0, d=1, levels=2, m=2):
    return NoiseTree(master_seed=seed, T=T, d=d, grid_levels=levels, m=m)


def whole_paths(tree, keys):
    """W at every grid index for each key, shape (len(keys), G + 1, d),
    from one index query."""
    G = tree.grid_size
    return brownian_path_batch(
        tree, np.repeat(keys, G + 1), np.tile(np.arange(G + 1), len(keys))
    ).reshape(len(keys), G + 1, tree.d)


class TestUniformTime:
    def test_determinism(self):
        tree = make_tree()
        assert uniform_time(tree, (1, 2, 3)) == uniform_time(tree, (1, 2, 3))

    def test_range_and_uniformity(self):
        tree = make_tree(seed=123)
        keys = base_keys(tree.master_seed, np.arange(1, 100001))
        us = uniform_time_batch(keys)
        assert np.all((us > 0) & (us < 1))
        # Kolmogorov-Smirnov against the uniform law at 99% confidence
        stat = stats.kstest(us, "uniform").statistic
        assert stat <= 1.628 / np.sqrt(len(us))

    def test_stream_separation(self):
        tree = make_tree()
        vals = {uniform_time(tree, (k,)) for k in range(20)}
        assert len(vals) == 20

    def test_seed_separation(self):
        assert uniform_time(make_tree(seed=1), (5,)) != uniform_time(
            make_tree(seed=2), (5,))


class TestBrownian:
    def test_zero_at_origin(self):
        tree = make_tree(d=3)
        np.testing.assert_array_equal(brownian_at(tree, (1,), 0.0),
                                      np.zeros(3))

    def test_query_order_independent(self):
        t1 = make_tree(seed=9)
        a_then_b = (brownian_at(t1, (1,), 0.5).copy(),
                    brownian_at(t1, (1,), 0.25).copy())
        t2 = make_tree(seed=9)
        b_then_a = (brownian_at(t2, (1,), 0.25).copy(),
                    brownian_at(t2, (1,), 0.5).copy())
        np.testing.assert_array_equal(a_then_b[0], b_then_a[1])
        np.testing.assert_array_equal(a_then_b[1], b_then_a[0])

    def test_off_grid_rejected(self):
        tree = make_tree(levels=1, m=2)
        with pytest.raises(ValueError):
            brownian_at(tree, (1,), 0.3)

    def test_gaussian_moments(self):
        tree = make_tree(seed=77, d=2, levels=1, m=2)
        keys = base_keys(tree.master_seed, np.arange(1, 100001))
        paths = whole_paths(tree, keys)
        terminal = paths[:, -1, :]  # W(T)/sqrt(T), T = 1
        n = terminal.shape[0]
        for comp in range(2):
            mean = terminal[:, comp].mean()
            var = terminal[:, comp].var()
            assert abs(mean) <= 3.0 / np.sqrt(n)
            assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_increments_independent_of_grid_position(self):
        # increments along the grid have the grid-step variance
        tree = make_tree(seed=5, d=1, levels=3, m=2)
        keys = base_keys(tree.master_seed, np.arange(1, 20001))
        paths = whole_paths(tree, keys)[:, :, 0]
        incs = np.diff(paths, axis=1)
        dt = tree.T / tree.grid_size
        assert np.allclose(incs.var(axis=0), dt, rtol=0.1)
        # consecutive increments are uncorrelated
        corr = np.corrcoef(incs[:, 0], incs[:, 1])[0, 1]
        assert abs(corr) < 0.03


class TestBridgeOffPowerOfTwoGrid:
    """m = 3: G = 27 grid steps inside a dyadic bridge over P = 32."""

    def tree(self, d=1):
        return make_tree(seed=31, T=2.0, d=d, levels=3, m=3)

    def test_variance_and_uncorrelated_increments(self):
        tree = self.tree()
        n, G = 20000, tree.grid_size
        paths = whole_paths(
            tree, base_keys(tree.master_seed, np.arange(1, n + 1)))[:, :, 0]
        k = np.arange(1, G + 1)
        ratio = paths[:, 1:].var(axis=0) / (k * tree.T / G)
        assert np.all(np.abs(ratio - 1.0) <= 5.0 * np.sqrt(2.0 / n))
        incs = np.diff(paths, axis=1)
        for j in range(G - 1):
            corr = np.corrcoef(incs[:, j], incs[:, j + 1])[0, 1]
            assert abs(corr) <= 5.0 / np.sqrt(n)

    def test_point_query_matches_whole_path_bitwise(self):
        tree = self.tree(d=2)
        keys = base_keys(tree.master_seed, np.arange(1, 51))
        whole = whole_paths(tree, keys)
        assert whole.shape == (50, tree.grid_size + 1, 2)
        idx = np.random.default_rng(0).integers(0, tree.grid_size + 1, 50)
        rows = np.arange(50)
        np.testing.assert_array_equal(brownian_path_batch(tree, keys, idx),
                                      whole[rows, idx])
        for b in (0, 17, 49):
            np.testing.assert_array_equal(
                brownian_path_batch(tree, keys[b:b + 1], idx[b:b + 1])[0],
                whole[b, idx[b]])

    def test_brownian_at_matches_batch(self):
        tree = self.tree(d=2)
        G = tree.grid_size
        for b in (1, 2, 9):
            keys = base_keys(tree.master_seed, np.full(G + 1, b))
            batch = brownian_path_batch(tree, keys, np.arange(G + 1))
            for k in range(G + 1):
                np.testing.assert_array_equal(
                    brownian_at(tree, (b,), k * tree.T / G), batch[k])

    def test_bad_indices_rejected(self):
        tree = self.tree()
        keys = base_keys(tree.master_seed, np.arange(1, 3))
        for idx in ([0, tree.grid_size + 1], [-1, 0], [0]):
            with pytest.raises(ValueError):
                brownian_path_batch(tree, keys, idx)


class TestCoarseQueries:
    """On dyadic grids, an index of a coarser level is a multiple of a power
    of two, where every finer bridge node has a zero tent and is skipped."""

    @pytest.mark.parametrize("m, levels", [(2, 6), (4, 3)])
    def test_point_queries_match_whole_path_bitwise(self, m, levels):
        tree = make_tree(seed=41, d=2, levels=levels, m=m)
        keys = base_keys(tree.master_seed, np.arange(1, 201))
        whole = whole_paths(tree, keys)
        rows, rng = np.arange(len(keys)), np.random.default_rng(m)
        for level in range(levels + 1):
            step = tree.grid_size // m ** level
            idx = rng.integers(0, m ** level + 1, len(keys)) * step
            np.testing.assert_array_equal(
                brownian_path_batch(tree, keys, idx), whole[rows, idx])

    def test_origin_is_exactly_zero(self):
        tree = make_tree(seed=3, d=3, levels=4, m=2)
        keys = base_keys(tree.master_seed, np.arange(1, 101))
        at_zero = brownian_path_batch(tree, keys, np.zeros(100, dtype=int))
        np.testing.assert_array_equal(at_zero, np.zeros((100, 3)))
        mixed = brownian_path_batch(tree, keys, np.arange(100) % 2 * 5)
        np.testing.assert_array_equal(mixed[::2], np.zeros((50, 3)))
        assert np.all(mixed[1::2] != 0)


class TestIndexZeroRows:
    """W(0) = 0, so a query draws no normal for an index-0 row, and index-0
    rows change neither the draws nor the values of the rows beside them."""

    @staticmethod
    def query(monkeypatch, tree, keys, idx):
        """The query's values and the count of normals it drew."""
        sizes = []

        def counting_ndtri(u):
            sizes.append(np.size(u))
            return ndtri(u)

        with monkeypatch.context() as patch:
            patch.setattr(picardnet.noise, "ndtri", counting_ndtri)
            return brownian_path_batch(tree, keys, idx), sum(sizes)

    def test_zero_rows_draw_nothing(self, monkeypatch):
        tree = make_tree(seed=12, d=2, levels=3, m=3)  # G = 27, P = 32
        R = 200
        keys = base_keys(tree.master_seed, np.arange(1, R + 1))
        odd = 2 * np.random.default_rng(5).integers(0, 14, R) + 1
        none, mixed = np.zeros(R, int), np.where(np.arange(R) % 2, odd, 0)
        zeros, drawn = self.query(monkeypatch, tree, keys, none)
        assert drawn == 0
        np.testing.assert_array_equal(zeros, np.zeros((R, 2)))
        got, drawn = self.query(monkeypatch, tree, keys, mixed)
        live = np.flatnonzero(mixed)
        alone, drawn_alone = self.query(monkeypatch, tree, keys[live],
                                        mixed[live])
        # at an odd index every one of the J + 1 = 6 bridge nodes is live
        assert drawn == drawn_alone == len(live) * tree.d * 6
        np.testing.assert_array_equal(got[live], alone)
        for b in range(R):
            for idx, out in ((mixed, got), (none, zeros)):
                np.testing.assert_array_equal(
                    brownian_path_batch(tree, keys[b:b + 1], idx[b:b + 1]),
                    out[b:b + 1])


class TestQueryBoundary:
    """Bad keys or indices raise a ValueError that names them instead of
    being cast, truncated or failing inside NumPy."""

    @pytest.mark.parametrize("keys, idx, name", [
        ([1, 2], [0.5, 1.5], "idx"),
        ([1.5, 2.0], [0, 1], "keys"),
        ([-1, 2], [0, 1], "keys"),
        ([[1, 2]], [[0, 1]], "keys"),
    ], ids=["float-idx", "float-keys", "negative-key", "2d-keys"])
    def test_bad_query_rejected(self, keys, idx, name):
        tree = make_tree(seed=2, levels=2, m=2)
        with pytest.raises(ValueError, match=f"^{name} must"):
            brownian_path_batch(tree, keys, idx)

    def test_integer_lists_and_empty_queries_accepted(self):
        tree = make_tree(seed=2, d=2, levels=2, m=2)
        np.testing.assert_array_equal(
            brownian_path_batch(tree, [7, 2 ** 40], [1, 4]),
            brownian_path_batch(tree, np.array([7, 2 ** 40], np.uint64),
                                np.array([1, 4], np.uint64)))
        assert brownian_path_batch(tree, [], []).shape == (0, 2)


class TestKeys:
    def test_array_element_folds_without_warning(self):
        seed, bases = 4242, np.arange(1, 4)
        keys = base_keys(seed, bases)
        elements = np.array([0, 7, 2 ** 64 - 1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = fold_keys(keys[None, :], elements[:, None])
            scalar = fold_keys(keys, np.uint64(2 ** 64 - 1))
            zero_dim = fold_keys(keys, np.array(2 ** 64 - 1, np.uint64))
        for i, e in enumerate(elements):
            for j, b in enumerate(bases):
                assert int(grid[i, j]) == theta_key(seed, (int(b), int(e)))
        np.testing.assert_array_equal(scalar, grid[2])
        np.testing.assert_array_equal(zero_dim, grid[2])

    def test_batch_matches_scalar(self):
        seed = 4242
        bases = np.arange(1, 50)
        keys = base_keys(seed, bases)
        for i, b in enumerate(bases):
            assert int(keys[i]) == theta_key(seed, (int(b),))
        folded = fold_keys(fold_keys(keys, 3), 7)
        for i, b in enumerate(bases):
            assert int(folded[i]) == theta_key(seed, (int(b), 3, 7))

    def test_empty_theta_rejected(self):
        with pytest.raises(ValueError):
            theta_key(0, ())

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            theta_key(0, (1, -2))

    def test_entry_beyond_64_bits_rejected(self):
        # (1,) and (1 + 2**64,) must not alias to one stream
        theta_key(0, (2 ** 64 - 1,))
        with pytest.raises(ValueError):
            theta_key(0, (1 + 2 ** 64,))


class TestNoiseTreeSize:
    def test_grid_beyond_exact_float_indices_rejected(self):
        with pytest.raises(ValueError, match=r"m\*\*grid_levels = 4\*\*30"):
            NoiseTree(master_seed=0, T=1.0, d=1, grid_levels=30, m=4)
        NoiseTree(master_seed=0, T=1.0, d=1, grid_levels=53, m=2)
        NoiseTree(master_seed=0, T=1.0, d=1, grid_levels=100, m=1)


class TestNoiseTreeValidation:
    @pytest.mark.parametrize("field, value", [
        ("d", 1.5), ("m", 2.5), ("grid_levels", 2.0), ("T", np.inf),
        ("T", np.nan), ("d", 0), ("m", 0), ("grid_levels", -1)])
    def test_bad_field_rejected(self, field, value):
        kwargs = dict(master_seed=0, T=1.0, d=1, grid_levels=2, m=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must"):
            NoiseTree(**kwargs)

    def test_numpy_integers_accepted(self):
        tree = NoiseTree(master_seed=0, T=1.0, d=np.int64(2),
                         grid_levels=np.int64(2), m=np.int64(3))
        assert tree.grid_size == 9


class TestGridIndex:
    def test_endpoints(self):
        tree = make_tree(levels=2, m=2)
        assert grid_index(tree, 0.0) == 0
        assert grid_index(tree, 1.0) == 4
        assert grid_index(tree, 0.75) == 3

    def test_path_caching_returns_same_array(self):
        tree = make_tree()
        a = brownian_at(tree, (2,), 0.5)
        b = brownian_at(tree, (2,), 0.5)
        np.testing.assert_array_equal(a, b)
