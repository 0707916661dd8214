from pathlib import Path

import numpy as np
import pytest

from picardnet import problems
from picardnet.calculus import extend_depth, identity_network
from picardnet.nets import network_to_text


@pytest.mark.parametrize("T", [np.inf, np.nan, 0.0])
def test_non_finite_or_nonpositive_horizon_rejected(T):
    base = problems.linear_problem(1)
    with pytest.raises(ValueError, match="T must be finite"):
        problems.TestProblem(d=1, T=T, c=base.c, r=base.r,
                             mu_net=base.mu_net, f_net=base.f_net)


def pinned_networks() -> str:
    """The shipped problem networks and two calculus networks, as text."""
    nets = []
    for d in (1, 3):
        prob = problems.linear_problem(d, a=0.2, b=-0.3, c0=0.7)
        nets += [(f"linear d={d} drift", prob.mu_net),
                 (f"linear d={d} payoff", prob.f_net)]
    const = problems.constant_problem(2, 1.5)
    pert, _ = problems.perturbed_problem(prob, 0.1)  # prob: the d = 3 one
    nets += [("constant d=2 drift", const.mu_net),
             ("constant d=2 payoff", const.f_net),
             ("linear d=3 drift perturbed eps=0.1", pert.mu_net),
             ("identity d=2 H=3", identity_network(2, 3)),
             ("linear d=3 payoff extended by 2", extend_depth(prob.f_net, 2))]
    return "".join(f"# {name}\n{network_to_text(net)}" for name, net in nets)


def test_networks_keep_their_bytes():
    # tests/data/networks.txt was written by the hand-built layers that the
    # calculus constructions replaced.
    golden = Path(__file__).parent / "data" / "networks.txt"
    assert pinned_networks().encode() == golden.read_bytes()
