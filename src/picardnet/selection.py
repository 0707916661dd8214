"""Parameter-selection formulas for the accuracy/complexity experiment.

These are closed-form selections: an inner perturbation accuracy, a minimal
level count N, a universal constant C_delta defined as a supremum over the
levels, and the resulting bound on the synthesized network's parameter count.
C_delta and the parameter bound overflow double precision for typical
constants, so both are computed as logarithms only.
"""

from __future__ import annotations

import math

from .nets import _check_count


def _check_accuracy(d, epsilon) -> None:
    """Reject d < 1 and epsilon outside (0, 1), naming the argument."""
    _check_count("d", d, 1)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")


def select_epsilon(d: int, epsilon: float, c: float, r: int,
                   T: float) -> float:
    """Inner accuracy epsilon / (2^r (c d^c)^{r+1} e^{(r+2) c T})."""
    _check_accuracy(d, epsilon)
    return epsilon / (2 ** r * (c * d ** c) ** (r + 1)
                      * math.exp((r + 2) * c * T))


def _log_level_error(n: float, d: int, c: float, r: int, T: float) -> float:
    """log of 2^r (c d^c)^{r+1} * 2 e^{n/2 + 3cTn} / n^{n/2}."""
    return (r * math.log(2) + (r + 1) * math.log(c * d ** c) + math.log(2)
            + n / 2 + 3 * c * T * n - (n / 2) * math.log(n))


def select_N(d: int, epsilon: float, c: float, r: int, T: float) -> int:
    """Minimal level n >= 2 whose error expression drops below epsilon/2."""
    _check_accuracy(d, epsilon)
    target = math.log(epsilon / 2)
    for n in range(2, 10 ** 4 + 1):
        if _log_level_error(n, d, c, r, T) <= target:
            return n
    raise ValueError("no admissible level found up to 10000")


def _log_C_delta_term(n: float, delta: float, c: float, T: float) -> float:
    """log of 5^{2n} n n^{4n} (2 e^{(n-1)/2 + 3cT(n-1)} / (n-1)^{(n-1)/2})^{8+delta}."""
    q = 8 + delta
    return (2 * n * math.log(5) + math.log(n) + 4 * n * math.log(n)
            + q * (math.log(2) + (n - 1) / 2 + 3 * c * T * (n - 1)
                   - ((n - 1) / 2) * math.log(n - 1)))


def log_C_delta(delta: float, c: float, T: float) -> float:
    """log of the supremum over integer levels n >= 2 of the C_delta term.

    Its log g is strictly concave on [2, inf), as g''(n) = -1/n^2 + 4/n
    - (8 + delta) / (2 (n - 1)) < 0, so the supremum is at n = 2 or next to
    the root of g'.  Doubling brackets the root and bisection narrows the
    bracket to width 1, or to adjacent floats where they lie further apart.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    q = 8 + delta

    def slope(n):
        return (2 * math.log(5) + 1 / n + 4 * math.log(n) + 4
                + q * (3 * c * T - math.log(n - 1) / 2))

    lo, hi = 2.0, 4.0
    while slope(hi) > 0:
        lo, hi = hi, 2 * hi
        if hi > 1e60:
            raise ValueError("C_delta term does not decay; check constants")
    while hi - lo > 1 and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    # The integer maximum lies in [floor(lo), ceil(hi)], at most 2 wide.
    return max(_log_C_delta_term(n, delta, c, T)
               for n in (2, math.floor(lo), math.floor(lo) + 1, math.ceil(hi)))


def log_param_bound(d: int, epsilon: float, delta: float, c: float, r: int,
                    T: float) -> float:
    """log of 96 d^{3c} ((2 c d^c)^{r+1} e^{(r+2) c T})^{3c+8+delta}
    C_delta epsilon^{-(3c+8+delta)}."""
    _check_accuracy(d, epsilon)
    expo = 3 * c + 8 + delta
    return (math.log(96) + 3 * c * math.log(d)
            + expo * ((r + 1) * math.log(2 * c * d ** c) + (r + 2) * c * T)
            + log_C_delta(delta, c, T)
            + expo * math.log(1 / epsilon))

