import dataclasses
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


@pytest.mark.parametrize("build, name", [
    (lambda: problems.linear_problem(0), "d"),
    (lambda: problems.linear_problem(True), "d"),
    (lambda: problems.linear_problem(1.5), "d"),
    (lambda: problems.linear_problem(1, a=np.nan), "a"),
    (lambda: problems.linear_problem(1, b=np.inf), "b"),
    (lambda: problems.linear_problem(2, w=[1.0, np.nan]), "w"),
    (lambda: problems.linear_problem(1, c0=-np.inf), "c0"),
    (lambda: problems.constant_problem(0, 1.0), "d"),
    (lambda: problems.constant_problem(True, 1.0), "d"),
    (lambda: problems.constant_problem(1, np.nan), "value"),
    (lambda: problems.linear_problem(1, T=True), "T"),
    (lambda: problems.linear_problem(1, T=np.True_), "T"),
    (lambda: problems.constant_problem(1, 1.0, T=np.True_), "T"),
    (lambda: problems.perturbed_problem(problems.linear_problem(1), 0.1,
                                        v=[np.nan]), "v"),
    (lambda: problems.perturbed_problem(problems.linear_problem(2), 0.1,
                                        v=[np.inf, 0.0]), "v"),
    (lambda: problems.perturbed_problem(problems.linear_problem(2), 0.1,
                                        v=[1.0]), "v"),
], ids=["linear-d0", "linear-d-True", "linear-d1.5", "linear-a-nan",
        "linear-b-inf", "linear-w-nan", "linear-c0-minus-inf", "constant-d0",
        "constant-d-True", "constant-value-nan", "linear-T-True",
        "linear-T-numpy-True", "constant-T-numpy-True", "perturbed-v-nan",
        "perturbed-v-inf", "perturbed-v-length-1"])
def test_problem_builders_reject_bad_arguments(build, name):
    # linear_problem(0) raised IndexError, linear_problem(True) TypeError,
    # a NaN a, b, w, c0, value or v built a NaN network, and a bool T
    # became the horizon.
    with pytest.raises(ValueError, match=f"^{name} must"):
        build()


def test_zero_moment_exponent_rejected():
    # the moment bound takes an L^{pr} norm, which r = 0 would divide by
    with pytest.raises(ValueError, match="^r must be an integer >= 1"):
        dataclasses.replace(problems.linear_problem(1), r=0)


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
