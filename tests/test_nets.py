import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardnet.calculus import identity_network
from picardnet.nets import (DimVector, NeuralNetwork, _check_count,
                            dim_supnorm, dims, network_from_text,
                            network_to_text, param_count, realize, relu)


def random_net(rng, widths):
    layers = []
    for i in range(1, len(widths)):
        layers.append((rng.standard_normal((widths[i], widths[i - 1])),
                       rng.standard_normal(widths[i])))
    return NeuralNetwork(tuple(layers))


def naive_forward(net, x):
    """Independent straight-line oracle: explicit loops, no shared code."""
    h = [float(v) for v in x]
    n_layers = len(net.layers)
    for li, (W, B) in enumerate(net.layers):
        out = []
        for row in range(W.shape[0]):
            acc = float(B[row])
            for col in range(W.shape[1]):
                acc += float(W[row, col]) * h[col]
            out.append(acc)
        if li != n_layers - 1:
            out = [max(v, 0.0) for v in out]
        h = out
    return np.array(h)


class TestRelu:
    def test_mixed_signs(self):
        assert np.array_equal(relu(np.array([-1.0, 2.0, 0.0])),
                              np.array([0.0, 2.0, 0.0]))

    def test_zero_fixed_point(self):
        assert np.array_equal(relu(np.zeros(4)), np.zeros(4))

    def test_nonnegative_unchanged(self):
        assert relu(np.array([3.5]))[0] == 3.5


class TestRealize:
    def test_identity(self):
        net = identity_network(2, 1)
        x = np.array([-1.5, 2.0])
        assert np.array_equal(realize(net, x), x)

    def test_relu_kills_negative(self):
        net = NeuralNetwork(((np.array([[1.0]]), np.zeros(1)),
                             (np.array([[1.0]]), np.zeros(1))))
        assert realize(net, np.array([-3.0]))[0] == 0.0

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(42)
        net = random_net(rng, (4, 6, 3, 2))
        for _ in range(10):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(realize(net, x), naive_forward(net, x),
                                       rtol=1e-12, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, (3, 5, 2))
        xs = rng.standard_normal((7, 3))
        batch = realize(net, xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], realize(net, xs[i]),
                                       rtol=1e-12)

    def test_dimension_mismatch(self):
        net = identity_network(2, 1)
        with pytest.raises(ValueError):
            realize(net, np.zeros(3))
        with pytest.raises(ValueError, match=r"shape \(2, 2, 2\)"):
            realize(net, np.ones((2, 2, 2)))


class TestRealizeInPlace:
    def test_input_never_written(self):
        rng = np.random.default_rng(7)
        narrow = random_net(rng, (1, 5, 2))
        wide = random_net(rng, (4, 6, 3, 2))
        cases = [(narrow, np.array(0.7)), (narrow, np.array([-0.4])),
                 (wide, rng.standard_normal(4)),
                 (wide, rng.standard_normal((6, 4)))]
        for net, x in cases:
            before = x.copy()
            realize(net, x)
            assert x.tobytes() == before.tobytes()
            x.flags.writeable = False
            realize(net, x)

    def test_writing_result_leaves_layers(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, (3, 4, 2))
        saved = [(W.copy(), B.copy()) for W, B in net.layers]
        for x in (rng.standard_normal(3), rng.standard_normal((5, 3))):
            out = realize(net, x)
            expected = out.copy()
            out[...] = 123.0
            for (W, B), (W0, B0) in zip(net.layers, saved):
                assert W.tobytes() == W0.tobytes()
                assert B.tobytes() == B0.tobytes()
            assert realize(net, x).tobytes() == expected.tobytes()

    def test_bitwise_naive_oracle(self):
        # Small integers make every product and sum exact, so the oracle's
        # summation order gives the same bits as the matrix products.
        rng = np.random.default_rng(11)
        widths = (4, 7, 5, 3)
        net = NeuralNetwork(tuple(
            (rng.integers(-4, 5, (widths[i], widths[i - 1])).astype(float),
             rng.integers(-4, 5, widths[i]).astype(float))
            for i in range(1, len(widths))))
        xs = rng.integers(-8, 9, (9, 4)).astype(float)
        batch = realize(net, xs)
        for x, row in zip(xs, batch):
            oracle = naive_forward(net, x).tobytes()
            assert row.tobytes() == oracle
            assert realize(net, x).tobytes() == oracle

    def test_bitwise_allocating_forward(self):
        # The same arithmetic with a fresh array for every operation.
        rng = np.random.default_rng(12)
        net = random_net(rng, (3, 9, 6, 2))
        for x in (rng.standard_normal(3), rng.standard_normal((40, 3))):
            h = x
            for n, (W, B) in enumerate(net.layers):
                h = (h @ W.T + B) if x.ndim == 2 else (W @ h + B)
                if n != len(net.layers) - 1:
                    h = np.maximum(h, 0.0)
            assert realize(net, x).tobytes() == h.tobytes()


class TestParamCount:
    def test_2442(self):
        rng = np.random.default_rng(0)
        assert param_count(random_net(rng, (2, 4, 4, 2))) == 42

    def test_121(self):
        rng = np.random.default_rng(0)
        assert param_count(random_net(rng, (1, 2, 1))) == 7

    def test_identity_widths(self):
        assert param_count(identity_network(5, 1)) == 115


class TestDims:
    def test_read_off_shapes(self):
        rng = np.random.default_rng(1)
        assert tuple(dims(random_net(rng, (2, 4, 2)))) == (2, 4, 2)

    def test_identity_dims(self):
        assert tuple(dims(identity_network(3, 2))) == (3, 6, 6, 3)

    def test_length_is_layers_plus_one(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, (1, 3, 3, 3, 1))
        assert len(dims(net)) == len(net.layers) + 1


class TestDimSupnorm:
    def test_values(self):
        assert dim_supnorm(DimVector((2, 4, 3))) == 4
        assert dim_supnorm(DimVector((1, 1, 1))) == 1
        assert dim_supnorm(DimVector((3, 6, 6, 3))) == 6


class TestValidation:
    def test_too_few_layers(self):
        with pytest.raises(ValueError):
            NeuralNetwork(((np.zeros((1, 1)), np.zeros(1)),))

    def test_chain_mismatch(self):
        with pytest.raises(ValueError):
            NeuralNetwork(((np.zeros((2, 1)), np.zeros(2)),
                           (np.zeros((1, 3)), np.zeros(1))))

    def test_dimvector_needs_three(self):
        with pytest.raises(ValueError):
            DimVector((1, 2))

    def test_immutability(self):
        net = identity_network(2, 1)
        with pytest.raises(ValueError):
            net.layers[0][0][0, 0] = 5.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=3, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_param_count_depth_width_inequality(widths, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, widths)
    dv = dims(net)
    assert param_count(net) <= 2 * len(dv) * dim_supnorm(dv) ** 2


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    net = random_net(rng, (3, 4, 2))
    back = network_from_text(network_to_text(net))
    assert tuple(dims(back)) == tuple(dims(net))
    for (W1, B1), (W2, B2) in zip(net.layers, back.layers):
        assert np.array_equal(W1, W2) and np.array_equal(B1, B2)


def test_serialization_rejects_truncated_text():
    text = network_to_text(random_net(np.random.default_rng(9), (3, 4, 2)))
    lines = text.splitlines()
    for cut in (1, len(lines) // 2, len(lines) - 1):
        with pytest.raises(ValueError, match="nonblank lines"):
            network_from_text("\n".join(lines[:cut]) + "\n")
    with pytest.raises(ValueError):
        network_from_text("")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_serialization_rejects_nonfinite_values(bad):
    text = network_to_text(random_net(np.random.default_rng(9), (3, 4, 2)))
    lines = text.splitlines()
    weight_row = lines[1].split()
    weight_row[0] = bad
    with pytest.raises(ValueError, match="finite"):
        network_from_text("\n".join([lines[0], " ".join(weight_row)]
                                     + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="finite"):
        network_from_text("\n".join(lines[:-1] + [bad + " 0.0"]) + "\n")


def test_serialization_text_roundtrip_is_byte_identical():
    text = network_to_text(random_net(np.random.default_rng(9), (3, 4, 2)))
    assert network_to_text(network_from_text(text)) == text


class TestSharing:
    def test_caller_array_is_copied(self):
        W1, B1 = np.ones((2, 1)), np.zeros(2)
        net = NeuralNetwork(((W1, B1), (np.ones((1, 2)), np.zeros(1))))
        W1[0, 0] = 7.0
        B1[:] = 3.0
        assert net.layers[0][0][0, 0] == 1.0
        assert not net.layers[0][1].any()
        assert realize(net, np.array([1.0]))[0] == 2.0

    def test_frozen_layers_are_shared(self):
        net = random_net(np.random.default_rng(4), (2, 3, 1))
        again = NeuralNetwork(net.layers)
        for (W1, B1), (W2, B2) in zip(net.layers, again.layers):
            assert W1 is W2 and B1 is B2

    def test_read_only_views_are_copied(self):
        net = random_net(np.random.default_rng(4), (2, 3, 1))
        W, B = net.layers[0]
        view = NeuralNetwork(((W[:, :1], B), net.layers[1]))
        assert view.layers[0][0].base is None
        assert view.layers[0][1] is B


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, "2", None])
def test_count_check_rejects_non_integers_and_bools(value):
    # A bool is an int to isinstance, so True used to pass as a count of 1.
    with pytest.raises(ValueError, match="^K must be an integer >= 0, got "):
        _check_count("K", value, 0)


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(1)])
def test_count_check_accepts_integers(value):
    assert _check_count("K", value, 0) is None
