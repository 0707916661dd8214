import math
import sys

import pytest

from picardnet.selection import (_log_C_delta_term, _log_level_error,
                                 log_C_delta, log_param_bound, select_N,
                                 select_epsilon)

# The log of the largest double: a log above it is a value that overflows.
LOG_MAX = math.log(sys.float_info.max)


class TestSelectEpsilon:
    def test_hand_value(self):
        got = select_epsilon(1, 0.5, 1.0, 1, 1.0)
        assert got == pytest.approx(0.5 / (2 * math.exp(3.0)), rel=1e-12)
        assert got == pytest.approx(0.012446, rel=1e-4)

    def test_linear_in_epsilon(self):
        a = select_epsilon(2, 0.1, 1.0, 1, 0.5)
        b = select_epsilon(2, 0.2, 1.0, 1, 0.5)
        assert b == pytest.approx(2 * a)
        assert select_epsilon(2, 1e-9, 1.0, 1, 0.5) < a

    def test_smaller_than_epsilon(self):
        for (d, eps, c, r, T) in ((1, 0.5, 1.0, 1, 0.1), (3, 0.9, 2.0, 2, 1.0),
                                  (5, 0.01, 1.5, 1, 0.2)):
            assert select_epsilon(d, eps, c, r, T) < eps


class TestSelectN:
    def test_minimality(self):
        for (d, eps, c, r, T) in ((1, 0.5, 1.0, 1, 0.1), (2, 0.25, 1.0, 1, 0.1),
                                  (1, 0.9, 1.0, 1, 0.05)):
            N = select_N(d, eps, c, r, T)
            assert N >= 2
            if N > 2:
                assert _log_level_error(N - 1, d, c, r, T) > math.log(eps / 2)
            assert _log_level_error(N, d, c, r, T) <= math.log(eps / 2)

    def test_brute_force_scan(self):
        d, eps, c, r, T = 1, 0.5, 1.0, 1, 0.1
        lhs = lambda n: (2 ** r * (c * d ** c) ** (r + 1)
                         * 2 * math.exp(n / 2 + 3 * c * T * n) / n ** (n / 2))
        want = next(n for n in range(2, 201) if lhs(n) <= eps / 2)
        assert select_N(d, eps, c, r, T) == want == 10

    def test_monotone_in_epsilon(self):
        prev = None
        for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
            N = select_N(1, eps, 1.0, 1, 0.1)
            if prev is not None:
                assert N <= prev
            prev = N


class TestCDelta:
    def test_dominates_term_at_two(self):
        log_val = log_C_delta(0.5, 1.0, 0.1)
        assert log_val >= _log_C_delta_term(2, 0.5, 1.0, 0.1)

    def test_finite_log(self):
        log_val = log_C_delta(0.5, 1.0, 0.1)
        assert math.isfinite(log_val)
        # the plain value overflows doubles for these constants
        assert log_val > LOG_MAX

    def test_matches_integer_scan_near_peak(self):
        # For these constants the term peaks near n = 9,833,256.
        scan = max(_log_C_delta_term(n, 0.9, 1.0, 0.001)
                   for n in range(9_832_256, 9_834_257))
        assert log_C_delta(0.9, 1.0, 0.001) == pytest.approx(scan, rel=1e-13)

    def test_root_past_1e60_rejected(self):
        # g' vanishes only near n = e^1924 here; the bracket stops at 1e60.
        with pytest.raises(ValueError, match="does not decay"):
            log_C_delta(0.01, 1.0, 0.1)

    def test_small_horizon_modest_constants(self):
        # with a tiny horizon the log is finite, and the plain value still
        # overflows doubles
        log_val = log_C_delta(0.9, 1.0, 0.001)
        assert LOG_MAX < log_val < math.inf

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            log_C_delta(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            log_C_delta(1.5, 1.0, 0.1)


class TestParamBound:
    def test_hand_recomputation(self):
        d, eps, delta, c, r, T = 2, 0.25, 0.5, 1.0, 1, 0.1
        expo = 3 * c + 8 + delta
        want = (math.log(96) + 3 * c * math.log(d)
                + expo * ((r + 1) * math.log(2 * c * d ** c)
                          + (r + 2) * c * T)
                + log_C_delta(delta, c, T)
                - expo * math.log(eps))
        assert log_param_bound(d, eps, delta, c, r, T) == pytest.approx(
            want, rel=1e-12)

    def test_monotone(self):
        base = log_param_bound(2, 0.25, 0.5, 1.0, 1, 0.1)
        assert log_param_bound(2, 0.125, 0.5, 1.0, 1, 0.1) > base
        assert log_param_bound(3, 0.25, 0.5, 1.0, 1, 0.1) > base

    def test_plain_value_overflows_doubles(self):
        assert log_param_bound(1, 0.5, 0.5, 1.0, 1, 0.1) > LOG_MAX


# One row per rejected input; each names its argument.
@pytest.mark.parametrize("select, kwargs, name", [
    (select_epsilon, dict(d=0), "d"),
    (select_epsilon, dict(d=1.5), "d"),
    (select_epsilon, dict(epsilon=0.0), "epsilon"),
    (select_N, dict(epsilon=0.0), "epsilon"),
    (select_N, dict(epsilon=1.0), "epsilon"),
    (select_N, dict(d=0), "d"),
    (log_param_bound, dict(d=0), "d"),
    (log_param_bound, dict(epsilon=0.0), "epsilon"),
    (log_param_bound, dict(epsilon=float("nan")), "epsilon"),
], ids=["eps-d0", "eps-d1.5", "eps-eps0", "N-eps0", "N-eps1", "N-d0",
        "bound-d0", "bound-eps0", "bound-eps-nan"])
def test_bad_selection_input_rejected(select, kwargs, name):
    args = dict(d=1, epsilon=0.5, c=1.0, r=1, T=0.1)
    if select is log_param_bound:
        args["delta"] = 0.5
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{name} must"):
        select(**args)
