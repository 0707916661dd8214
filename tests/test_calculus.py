import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import block_diag

import picardnet.calculus
from picardnet.calculus import (_layout, affine_network, affine_wrap,
                                compose, dim_compose, dim_merge, dim_sum,
                                extend_depth, identity_dims, identity_network,
                                merge, scaled_sum, zero_network)
from picardnet.nets import DimVector, _Triplet, dim_supnorm, dims, realize

from test_nets import random_net

dimvec = st.lists(st.integers(1, 6), min_size=3, max_size=5).map(
    lambda ws: DimVector(tuple(ws)))


class TestDimCompose:
    def test_definition(self):
        out = dim_compose(DimVector((1, 2, 1)), DimVector((3, 4, 2)))
        assert tuple(out) == (3, 4, 3, 2, 1)

    def test_self(self):
        out = dim_compose(DimVector((1, 2, 1)), DimVector((1, 2, 1)))
        assert tuple(out) == (1, 2, 2, 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(dimvec, dimvec, dimvec)
    def test_associative(self, a, b, c):
        left = dim_compose(dim_compose(a, b), c)
        right = dim_compose(a, dim_compose(b, c))
        assert tuple(left) == tuple(right)


class TestDimSum:
    def test_definition(self):
        assert tuple(dim_sum(DimVector((1, 2, 1)),
                             DimVector((1, 3, 1)))) == (1, 5, 1)

    @settings(max_examples=100, deadline=None)
    @given(dimvec, st.data())
    def test_triangle_inequality(self, a, data):
        interior = data.draw(st.lists(st.integers(1, 6),
                                      min_size=len(a) - 2,
                                      max_size=len(a) - 2))
        b = DimVector((a[0],) + tuple(interior) + (a[-1],))
        assert dim_supnorm(dim_sum(a, b)) <= dim_supnorm(a) + dim_supnorm(b)

    @settings(max_examples=60, deadline=None)
    @given(dimvec, st.data())
    def test_associative(self, a, data):
        def same_shape():
            mid = data.draw(st.lists(st.integers(1, 6),
                                     min_size=len(a) - 2,
                                     max_size=len(a) - 2))
            return DimVector((a[0],) + tuple(mid) + (a[-1],))
        b, c = same_shape(), same_shape()
        assert tuple(dim_sum(dim_sum(a, b), c)) == tuple(dim_sum(a, dim_sum(b, c)))

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            dim_sum(DimVector((1, 2, 1)), DimVector((2, 2, 1)))


class TestDimMerge:
    def test_definition(self):
        assert tuple(dim_merge(DimVector((1, 2, 1)),
                               DimVector((1, 3, 2)))) == (1, 5, 3)

    def test_doubling(self):
        assert tuple(dim_merge(DimVector((2, 4, 2)),
                               DimVector((2, 4, 2)))) == (2, 8, 4)

    @settings(max_examples=60, deadline=None)
    @given(dimvec, st.data())
    def test_first_entry_preserved(self, a, data):
        rest = data.draw(st.lists(st.integers(1, 6), min_size=len(a) - 1,
                                  max_size=len(a) - 1))
        b = DimVector((a[0],) + tuple(rest))
        assert dim_merge(a, b)[0] == a[0]


class TestIdentityDims:
    def test_examples(self):
        assert tuple(identity_dims(3, 4)) == (3, 6, 6, 3)
        assert tuple(identity_dims(1, 3)) == (1, 2, 1)

    def test_supnorm(self):
        for d, L in ((1, 3), (4, 5), (7, 4)):
            assert dim_supnorm(identity_dims(d, L)) == 2 * d


class TestIdentityNetwork:
    def test_exact_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            H = int(rng.integers(1, 5))
            net = identity_network(d, H)
            assert tuple(dims(net)) == tuple(identity_dims(d, H + 2))
            x = rng.standard_normal(d) * 10
            np.testing.assert_array_equal(realize(net, x), x)

    def test_zero_input(self):
        assert realize(identity_network(1, 3), np.zeros(1))[0] == 0.0


class TestAffineNetwork:
    @pytest.mark.parametrize("H", [1, 2, 3])
    def test_realizes_affine_map(self, H):
        rng = np.random.default_rng(40 + H)
        for q, k in ((1, 1), (1, 4), (3, 2), (5, 6)):
            W = rng.standard_normal((q, k)) * 3
            c = rng.standard_normal(q)
            net = affine_network(W, c, H)
            assert tuple(dims(net)) == (k,) + (2 * q,) * H + (q,)
            xs = rng.standard_normal((7, k)) * 10
            want = xs @ W.T + c
            for got in (realize(net, xs), np.array([realize(net, x)
                                                    for x in xs])):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())

    def test_default_depth_is_one(self):
        assert tuple(dims(affine_network([[1.0, 2.0]], [0.5]))) == (2, 2, 1)

    @pytest.mark.parametrize("W, c, H", [
        (np.ones(3), np.zeros(1), 1),            # W a vector
        (np.ones((1, 2, 2)), np.zeros(1), 1),    # W a 3-d array
        (np.ones((2, 3)), np.zeros(3), 1),       # c of the wrong length
        (np.ones((2, 3)), np.zeros((2, 1)), 1),  # c not a vector
        (np.ones((2, 3)), np.zeros(2), 0),       # no hidden layer
        (np.array([[1.0, np.nan]]), np.zeros(1), 1),  # NaN in W
        (np.ones((1, 2)), [np.inf], 1),          # inf in c
    ])
    def test_bad_arguments_rejected(self, W, c, H):
        with pytest.raises(ValueError):
            affine_network(W, c, H)


class TestCompose:
    def test_scalar_chain(self):
        # f(y) = 3y, g(x) = 2x + 1, both with one hidden layer
        f = affine_wrap(identity_network(1, 1), 3.0, np.zeros(1), np.zeros(1))
        g = affine_wrap(scaled_sum([identity_network(1, 1)], [2.0]),
                        1.0, np.zeros(1), np.array([1.0]))
        assert realize(compose(f, g), np.array([1.0]))[0] == pytest.approx(9.0)

    def test_dims_law_and_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mid = int(rng.integers(1, 5))
            g = random_net(rng, [int(rng.integers(1, 5))]
                           + list(rng.integers(1, 5, rng.integers(1, 3)))
                           + [mid])
            f = random_net(rng, [mid]
                           + list(rng.integers(1, 5, rng.integers(1, 3)))
                           + [int(rng.integers(1, 5))])
            h = compose(f, g)
            assert tuple(dims(h)) == tuple(dim_compose(dims(f), dims(g)))
            for _ in range(10):
                x = rng.standard_normal(g.input_width)
                want = realize(f, realize(g, x))
                got = realize(h, x)
                assert np.max(np.abs(got - want)) <= 1e-9 * max(
                    1.0, float(np.max(np.abs(want))))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_network(2, 1), identity_network(3, 1))


class TestScaledSum:
    def test_cancellation(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, (2, 3, 2))
        s = scaled_sum([net, net], [1.0, -1.0])
        for _ in range(5):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(realize(s, x), np.zeros(2), atol=1e-12)

    def test_single_scaling(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, (3, 4, 1))
        s = scaled_sum([net], [2.5])
        x = rng.standard_normal(3)
        np.testing.assert_allclose(realize(s, x), 2.5 * realize(net, x))

    def test_three_way_oracle(self):
        rng = np.random.default_rng(8)
        nets = [random_net(rng, (2, int(rng.integers(1, 5)), 3))
                for _ in range(3)]
        coeffs = list(rng.standard_normal(3))
        s = scaled_sum(nets, coeffs)
        assert tuple(dims(s)) == tuple(
            dim_sum(dim_sum(dims(nets[0]), dims(nets[1])), dims(nets[2])))
        for _ in range(10):
            x = rng.standard_normal(2)
            want = sum(h * realize(n, x) for h, n in zip(coeffs, nets))
            np.testing.assert_allclose(realize(s, x), want, rtol=1e-9,
                                       atol=1e-9)

    def test_empty(self):
        with pytest.raises(ValueError):
            scaled_sum([], [])


class TestMerge:
    def test_duplication(self):
        m = merge([identity_network(1, 1), identity_network(1, 1)])
        np.testing.assert_array_equal(realize(m, np.array([2.0])),
                                      np.array([2.0, 2.0]))

    def test_dims(self):
        rng = np.random.default_rng(9)
        a = random_net(rng, (1, 2, 1))
        b = random_net(rng, (1, 3, 2))
        assert tuple(dims(merge([a, b]))) == (1, 5, 3)

    def test_concatenation_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            M = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            nets = [random_net(rng, (p, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4))))
                    for _ in range(M)]
            mg = merge(nets)
            for _ in range(10):
                x = rng.standard_normal(p)
                want = np.concatenate([realize(n, x) for n in nets])
                np.testing.assert_allclose(realize(mg, x), want, rtol=1e-9,
                                           atol=1e-9)


_SHAPES = [(2, 3, 1), (2, 3, 3, 1), (3, 3, 1), (2, 3, 2)]
_NETS = {w: random_net(np.random.default_rng(12), w) for w in _SHAPES}


@pytest.mark.parametrize("name, widths, coeffs, reason", [
    ("merge", [], None, "of an empty sequence"),
    ("merge", [(2, 3, 1), (2, 3, 3, 1)], None, "needs same depth"),
    ("merge", [(2, 3, 1), (3, 3, 1)], None, "needs same depth and input width"),
    ("scaled_sum", [], [], "of an empty sequence"),
    ("scaled_sum", [(2, 3, 1), (2, 3, 3, 1)], [1.0, 1.0], "needs same depth"),
    ("scaled_sum", [(2, 3, 1), (3, 3, 1)], [1.0, 1.0],
     "needs same depth and input width"),
    ("scaled_sum", [(2, 3, 1), (2, 3, 2)], [1.0, 1.0], "needs same output width"),
    ("scaled_sum", [(2, 3, 1), (2, 3, 1)], [1.0], "needs one coefficient"),
], ids=["merge-empty", "merge-depth", "merge-input", "sum-empty", "sum-depth",
        "sum-input", "sum-output", "sum-coeffs"])
def test_side_by_side_rejections(name, widths, coeffs, reason):
    nets = [_NETS[w] for w in widths]
    with pytest.raises(ValueError, match=f"^{name} {reason}"):
        merge(nets) if coeffs is None else scaled_sum(nets, coeffs)


@pytest.mark.parametrize("build, message", [
    (lambda: scaled_sum([_NETS[(2, 3, 1)]] * 2, [float("nan"), 1.0]),
     "scaled_sum coefficients must be finite"),
    (lambda: scaled_sum([_NETS[(2, 3, 1)]] * 2, [1.0, -np.inf]),
     "scaled_sum coefficients must be finite"),
    (lambda: affine_wrap(_NETS[(2, 3, 1)], np.nan, np.zeros(2), np.zeros(1)),
     "lam must be finite"),
    (lambda: affine_wrap(_NETS[(2, 3, 1)], 1.0, [0.0, np.inf], np.zeros(1)),
     "shift b must be finite"),
    (lambda: affine_wrap(_NETS[(2, 3, 1)], 1.0, np.zeros(2), [np.nan]),
     "offset a must be finite"),
    (lambda: scaled_sum([_NETS[(2, 3, 1)]] * 2, [True, 1.0]),
     "scaled_sum coefficients must be finite numbers"),
    (lambda: scaled_sum([_NETS[(2, 3, 1)]] * 2, [1.0, np.False_]),
     "scaled_sum coefficients must be finite numbers"),
    (lambda: affine_wrap(_NETS[(2, 3, 1)], True, np.zeros(2), np.zeros(1)),
     "lam must be finite and not a bool"),
    (lambda: affine_wrap(_NETS[(2, 3, 1)], np.True_, np.zeros(2), np.zeros(1)),
     "lam must be finite and not a bool"),
], ids=["sum-nan", "sum-inf", "wrap-lam", "wrap-b", "wrap-a", "sum-True",
        "sum-numpy-False", "wrap-lam-True", "wrap-lam-numpy-True"])
def test_non_finite_scalars_rejected(build, message):
    # Each non-finite scalar used to build a network that realizes NaN
    # everywhere, and a bool was taken as the number 0 or 1.
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


class TestAffineWrap:
    def test_identity_wrap(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, (2, 3, 2))
        w = affine_wrap(net, 1.0, np.zeros(2), np.zeros(2))
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(realize(w, x), realize(net, x))

    def test_zero_lambda(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, (2, 3, 1))
        w = affine_wrap(net, 0.0, np.zeros(2), np.zeros(1))
        np.testing.assert_array_equal(realize(w, rng.standard_normal(2)),
                                      np.zeros(1))

    def test_general_oracle(self):
        rng = np.random.default_rng(14)
        net = random_net(rng, (3, 4, 2))
        b = rng.standard_normal(3)
        a = rng.standard_normal(2)
        w = affine_wrap(net, 2.0, b, a)
        assert tuple(dims(w)) == tuple(dims(net))
        for _ in range(10):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(realize(w, x),
                                       2.0 * (realize(net, x + b) + a),
                                       rtol=1e-9, atol=1e-9)


class TestExtendDepth:
    def test_zero_extension(self):
        rng = np.random.default_rng(15)
        net = random_net(rng, (2, 3, 1))
        ext = extend_depth(net, 0)
        assert all(np.array_equal(W1, W2) and np.array_equal(B1, B2)
                   for (W1, B1), (W2, B2) in zip(net.layers, ext.layers))

    def test_realization_unchanged(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, (2, 4, 3))
        ext = extend_depth(net, 2)
        for _ in range(10):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(realize(ext, x), realize(net, x),
                                       rtol=1e-12, atol=1e-12)

    def test_depth_growth(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, (1, 2, 1))
        for extra in (1, 2, 5):
            assert len(dims(extend_depth(net, extra))) == 3 + extra


@pytest.mark.parametrize("build, name", [
    (lambda: affine_network(np.eye(2), np.zeros(2), 2.5), "hidden_layers"),
    (lambda: identity_network(2, 2.5), "hidden_layers"),
    (lambda: identity_network(1.5, 2), "d"),
    (lambda: extend_depth(identity_network(2, 1), 1.5), "extra_hidden"),
    (lambda: zero_network(1, 1, 3.5), "length"),
    (lambda: zero_network(1.5, 1), "d_in"),
    (lambda: zero_network(0, 1), "d_in"),
    (lambda: zero_network(1, 0), "d_out"),
], ids=["affine", "identity-depth", "identity-d", "extend", "zero",
        "zero-float-d_in", "zero-d_in", "zero-d_out"])
def test_non_integer_size_rejected(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        build()


def test_zero_network():
    z = zero_network(3, 2, 5)
    assert tuple(dims(z)) == (3, 1, 1, 1, 2)
    np.testing.assert_array_equal(realize(z, np.ones(3) * 4), np.zeros(2))


def test_composition_chain_supnorm_bound():
    rng = np.random.default_rng(18)
    for _ in range(100):
        count = int(rng.integers(2, 5))
        widths = [int(w) for w in rng.integers(1, 6, count + 1)]
        vecs = []
        for i in range(count):
            mid = [int(w) for w in rng.integers(1, 6, rng.integers(1, 3))]
            vecs.append(DimVector(tuple([widths[i]] + mid + [widths[i + 1]])))
        chain = vecs[0]
        for v in vecs[1:]:
            chain = dim_compose(v, chain)
        limit = max([dim_supnorm(v) for v in vecs]
                    + [2 * w for w in widths[1:-1]])
        assert dim_supnorm(chain) <= limit


class TestSharing:
    def _results(self):
        rng = np.random.default_rng(19)
        f, g = random_net(rng, (3, 4, 2)), random_net(rng, (2, 5, 3))
        h = random_net(rng, (2, 2, 3))
        wide = random_net(rng, (2, 200, 200, 1))  # merged: a triplet layer
        return [compose(f, g), merge([g, h]), scaled_sum([g, h], [0.5, -2.0]),
                affine_wrap(g, 1.5, np.ones(2), np.ones(3)),
                extend_depth(g, 0), extend_depth(g, 3),
                identity_network(2, 3), zero_network(2, 3, 4),
                merge([wide, wide])]

    def test_every_array_read_only(self):
        triplets = 0
        for net in self._results():
            for W, B in net.layers:
                arrays = [W, B]
                if isinstance(W, _Triplet):
                    arrays, triplets = [W.rows, W.cols, W.vals, B], triplets + 1
                for a in arrays:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a.flat[0] = 1
        assert triplets > 0

    def test_unchanged_layers_shared(self):
        rng = np.random.default_rng(20)
        f, g = random_net(rng, (3, 4, 2)), random_net(rng, (2, 5, 6, 3))
        h = compose(f, g)
        assert h.layers[0][0] is g.layers[0][0]
        assert h.layers[1][0] is g.layers[1][0]
        assert h.layers[1][1] is g.layers[1][1]
        assert h.layers[2][1] is not g.layers[2][1]
        assert h.layers[3][1] is f.layers[0][1]
        assert h.layers[-1][0] is f.layers[-1][0]
        wrapped = affine_wrap(g, 2.0, np.zeros(2), np.zeros(3))
        assert wrapped.layers[0][0] is g.layers[0][0]
        assert wrapped.layers[1][0] is g.layers[1][0]
        assert all(a is b for a, b in zip(extend_depth(g, 0).layers[0],
                                          g.layers[0]))


def test_block_diag_matches_scipy(monkeypatch):
    # Both layouts, compared bitwise with scipy's block_diag and numpy's
    # stacks, on blocks that hold -0.0 and +0.0: a dense block's -0.0 is an
    # entry of its triplets, so the dense view keeps it.
    rng = np.random.default_rng(21)

    def block(rows, cols):
        b = rng.standard_normal((rows, cols))
        b[rng.random(b.shape) < 0.3] = -0.0
        b[rng.random(b.shape) < 0.3] = 0.0
        return b

    for entries, kind in ((2 ** 16, np.ndarray), (0, _Triplet)):
        monkeypatch.setattr(picardnet.calculus, "_DENSE_ENTRIES", entries)
        for _ in range(50):
            count, (r, c) = int(rng.integers(1, 5)), rng.integers(1, 6, 2)
            blocks = [block(*rng.integers(1, 6, 2)) for _ in range(count)]
            tall = [block(int(rng.integers(1, 6)), c) for _ in range(count)]
            wide = [block(r, int(rng.integers(1, 6))) for _ in range(count)]
            for got, want in ((_layout(blocks), block_diag(*blocks)),
                              (_layout(tall, across=False), np.vstack(tall)),
                              (_layout(wide, down=False), np.hstack(wide))):
                assert isinstance(got, kind)
                assert got.shape == want.shape
                assert np.asarray(got).tobytes() == want.tobytes()
