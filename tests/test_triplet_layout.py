"""The calculus's network tests, and the synthesis tests that check networks
against the estimator, rerun with the size rule at 0: every block layout the
calculus builds is then a _Triplet, so the triplet path is checked at sizes
small enough to be cheap.  The golden byte tests are not rerun: a negated
_Triplet keeps its implicit entries at +0.0, where a dense -W holds -0.0.
The node-by-node oracle at vanishing times is: it builds its triplets by the
same size rule.
"""

import numpy as np
import pytest

import picardnet.calculus
from picardnet.calculus import affine_wrap, merge
from picardnet.nets import (_Triplet, network_from_text, network_to_text,
                            realize)
from picardnet.noise import NoiseTree
from picardnet.problems import linear_problem
from picardnet.synthesis import synthesize_mc_network
from test_nets import random_net
# Collected again here: every network test of test_calculus (its width-vector
# tests build no layer), and the synthesis tests against the estimator.
from test_calculus import (  # noqa: F401
    TestAffineNetwork, TestAffineWrap, TestCompose, TestExtendDepth,
    TestIdentityNetwork, TestMerge, TestScaledSum, TestSharing,
    test_block_diag_matches_scipy, test_composition_chain_supnorm_bound,
    test_non_finite_scalars_rejected, test_non_integer_size_rejected,
    test_side_by_side_rejections, test_zero_network)
from test_synthesis import (  # noqa: F401
    TestMcSynthesis, TestMlpSynthesis, test_network_matches_scalar_property,
    test_node_by_node_oracle_at_vanishing_times)


@pytest.fixture(autouse=True, scope="module")
def all_triplets():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(picardnet.calculus, "_DENSE_ENTRIES", 0)
        yield


def test_every_calculus_layout_is_a_triplet():
    prob = linear_problem(1)
    tree = NoiseTree(master_seed=1, T=prob.T, d=1, grid_levels=2, m=2)
    layers = synthesize_mc_network(prob, tree, 2, 2, 2).network.layers
    assert all(isinstance(W, _Triplet) for W, _ in layers[:-1])


def test_wrap_and_text_read_triplet_layers():
    rng = np.random.default_rng(3)
    f, g = random_net(rng, (2, 3, 2)), random_net(rng, (2, 4, 1))
    net = merge([f, g])
    assert all(isinstance(W, _Triplet) for W, _ in net.layers)
    b, a = rng.standard_normal(2), rng.standard_normal(3)
    wrapped = affine_wrap(net, -1.5, b, a)
    again = network_from_text(network_to_text(net))
    for x in rng.standard_normal((10, 2)):
        np.testing.assert_allclose(realize(wrapped, x),
                                   -1.5 * (realize(net, x + b) + a),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(realize(again, x), realize(net, x),
                                   rtol=1e-12, atol=1e-12)
