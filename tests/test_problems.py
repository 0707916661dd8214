import numpy as np
import pytest

from picardnet import problems


@pytest.mark.parametrize("T", [np.inf, np.nan, 0.0])
def test_non_finite_or_nonpositive_horizon_rejected(T):
    base = problems.linear_problem(1)
    with pytest.raises(ValueError, match="T must be finite"):
        problems.TestProblem(d=1, T=T, c=base.c, r=base.r,
                             mu_net=base.mu_net, f_net=base.f_net)
