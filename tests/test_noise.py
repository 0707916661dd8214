import warnings

import numpy as np
import pytest
import scipy.special
from scipy import stats
from scipy.special import ndtri

from picardnet.noise import (NoiseTree, base_keys, brownian_at,
                             brownian_path_batch, fold_keys, theta_key,
                             uniform_time, uniform_time_batch)


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
        np.testing.assert_array_equal(brownian_at(tree, (1,), 0),
                                      np.zeros(3))

    def test_query_order_independent(self):
        t1 = make_tree(seed=9)
        a_then_b = (brownian_at(t1, (1,), 2).copy(),
                    brownian_at(t1, (1,), 1).copy())
        t2 = make_tree(seed=9)
        b_then_a = (brownian_at(t2, (1,), 1).copy(),
                    brownian_at(t2, (1,), 2).copy())
        np.testing.assert_array_equal(a_then_b[0], b_then_a[1])
        np.testing.assert_array_equal(a_then_b[1], b_then_a[0])

    def test_off_grid_rejected(self):
        tree = make_tree(levels=1, m=2)
        for k in (0.3, 1.0, -1, 3):
            with pytest.raises(ValueError, match="idx"):
                brownian_at(tree, (1,), k)

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
                    brownian_at(tree, (b,), k), batch[k])

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
            # noise imports ndtri from scipy.special at each draw
            patch.setattr(scipy.special, "ndtri", counting_ndtri)
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


MASK, GOLDEN = (1 << 64) - 1, 0x9E3779B97F4A7C15


def mix(x):
    """The SplitMix64 finalizer, on Python ints or on uint64 arrays (which
    wrap modulo 2**64 by themselves)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def splitmix_key(seed, theta):
    """Reference stream key: the SplitMix64 fold transcribed on Python ints,
    h <- mix(h ^ mix(e + golden)) per tuple entry, from h = seed."""
    h = seed & MASK
    for e in theta:
        h = mix(h ^ mix((e + GOLDEN) & MASK))
    return h


def bridge_oracle(tree, keys, idx):
    """Reference W at idx[b] for key b, transcribed row-major from the
    Levy-Ciesielski sum on the dyadic grid 0..P, P = 2^J >= G.

    Row b holds a (d, J + 1) table: column 0 is node 0, W(P), with weight
    k / P; column j + 1 is the midpoint of interval i of level j (half
    width h = P / 2^(j+1), i the last interval at k = P), node 2^j + i, with
    the tent weight min(r, 2h - r) / (2h) * sqrt(2h dt) at offset r into
    its interval.  Component c of node v is ndtri of the word
    mix(key + (2 + v d + c) golden), mapped to (0, 1) by its top 53 bits.
    A node whose tent is zero at k adds 0.0, and all J + 1 columns are
    added one after another, from node 0.
    """
    G, d, dt = tree.grid_size, tree.d, tree.T / tree.grid_size
    J = (G - 1).bit_length()
    k = np.asarray(idx, np.int64)[:, None]
    j = np.arange(J)
    width = (1 << J) >> j  # 2h, in grid steps
    i = np.minimum(k // width, (1 << j) - 1)
    r = k - i * width
    weight = np.concatenate([k * np.sqrt(dt / (1 << J)),
                             np.minimum(r, width - r) * np.sqrt(dt / width)],
                            axis=1)
    node = np.concatenate([np.zeros_like(k), (1 << j) + i], axis=1)
    counters = 2 + node[:, None, :] * d + np.arange(d)[:, None]
    words = mix(np.asarray(keys, np.uint64)[:, None, None]
                + counters.astype(np.uint64) * GOLDEN)
    z = ndtri(((words >> np.uint64(11)) + 0.5) * 2.0 ** -53)
    w = weight[:, None, :]
    terms, total = np.where(w == 0, 0.0, z * w), np.zeros(z.shape[:-1])
    for column in range(J + 1):
        total += terms[..., column]
    return total


class TestBridgeOracle:
    """``brownian_path_batch`` against ``bridge_oracle``, bit for bit, so
    the kernel's layout and its node-order sum are checked without a golden
    file.  At m = 2, grid_levels 0..53 give 1 to 54 bridge columns; coarse
    queries leave the finer columns dead, down to one live column, and a
    one-row query is a block of one row."""

    GRIDS = [(2, levels) for levels in range(54)] + [(3, 4)]

    @staticmethod
    def queries(tree, rng):
        """Per level, coarse indices of that level with index-0 rows; then
        a query of fine, coarse and index-0 rows, shuffled, over 3 blocks
        of the largest grid; then one fine row."""
        G, m, L = tree.grid_size, tree.m, tree.grid_levels
        for level in range(L + 1):
            yield rng.integers(0, m ** level + 1, 12) * (G // m ** level)
        coarse = [rng.integers(0, m ** lev + 1, 20) * (G // m ** lev)
                  for lev in range(L + 1)]
        mixed = np.concatenate([rng.integers(1, G + 1, 100), np.zeros(40, int),
                                *coarse])
        yield rng.permutation(mixed)[:300]
        yield rng.integers(1, G + 1, 1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_row_major_transcription(self, d):
        for m, levels in self.GRIDS:
            tree = make_tree(seed=levels * 7 + m, T=1.3, d=d, levels=levels,
                             m=m)
            rng = np.random.default_rng([levels, m, d])
            for idx in self.queries(tree, rng):
                keys = base_keys(tree.master_seed, rng.integers(1, 2 ** 40,
                                                                len(idx)))
                got = brownian_path_batch(tree, keys, idx)
                np.testing.assert_array_equal(
                    got.view(np.uint64),
                    bridge_oracle(tree, keys, idx).view(np.uint64),
                    err_msg=f"m={m} grid_levels={levels} d={d}")


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
                assert int(grid[i, j]) == splitmix_key(seed, (int(b), int(e)))
        np.testing.assert_array_equal(scalar, grid[2])
        np.testing.assert_array_equal(zero_dim, grid[2])

    def test_batch_matches_scalar(self):
        seed = 4242
        bases = np.arange(1, 50)
        keys = base_keys(seed, bases)
        for i, b in enumerate(bases):
            assert int(keys[i]) == splitmix_key(seed, (int(b),))
            assert theta_key(seed, (int(b),)) == int(keys[i])
        folded = fold_keys(fold_keys(keys, 3), 7)
        for i, b in enumerate(bases):
            assert int(folded[i]) == splitmix_key(seed, (int(b), 3, 7))
            assert theta_key(seed, (int(b), 3, 7)) == int(folded[i])

    def test_theta_key_matches_reference(self):
        for seed in (0, 4242, 2 ** 64 - 1):
            for theta in ((0,), (2 ** 64 - 1,), (5, 3, 2, 1), (1, 2 ** 63, 7)):
                assert theta_key(seed, theta) == splitmix_key(seed, theta)

    def test_callers_arrays_keep_their_bytes(self):
        # The mixer finalizes its words in place, so every entry point must
        # hand it a fresh array, never one of its caller's.
        tree = make_tree(seed=5, d=2, levels=4)
        keys = base_keys(4242, np.arange(1, 9))
        bases, idx = np.arange(1, 9), np.arange(9, 17)
        elements = np.arange(8, dtype=np.uint64)
        arrays = (keys, bases, idx, elements)
        before = [a.tobytes() for a in arrays]
        fold_keys(keys, elements)
        fold_keys(keys, 7)
        base_keys(4242, bases)
        base_keys(4242, keys)
        uniform_time_batch(keys)
        brownian_path_batch(tree, keys, idx)
        assert [a.tobytes() for a in arrays] == before

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
        ("T", np.nan), ("d", 0), ("m", 0), ("grid_levels", -1),
        ("master_seed", -1), ("master_seed", 2 ** 64),
        ("master_seed", -2 ** 64 + 5), ("master_seed", 5.0),
        ("master_seed", True), ("T", True), ("T", np.True_)])
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
        path = whole_paths(tree, base_keys(tree.master_seed, [1]))[0]
        for k in (0, 4, 3):
            np.testing.assert_array_equal(brownian_at(tree, (1,), k), path[k])
        np.testing.assert_array_equal(path[0], np.zeros(1))

    def test_path_caching_returns_same_array(self):
        tree = make_tree()
        a = brownian_at(tree, (2,), 2)
        b = brownian_at(tree, (2,), 2)
        np.testing.assert_array_equal(a, b)
