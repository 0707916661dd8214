"""Parameter-selection formulas for the accuracy/complexity experiment.

These are closed-form selections: an inner perturbation accuracy, a minimal
level count N, a universal constant C_delta defined as a supremum over the
levels, and the resulting bound on the synthesized network's parameter count.
C_delta and the parameter bound overflow double precision for typical
constants, so the primary representations are logarithmic; the plain values
are provided for convenience and may be infinite.
"""

from __future__ import annotations

import math


def select_epsilon(d: int, epsilon: float, c: float, r: int,
                   T: float) -> float:
    """Inner accuracy epsilon / (2^r (c d^c)^{r+1} e^{(r+2) c T})."""
    return epsilon / (2 ** r * (c * d ** c) ** (r + 1)
                      * math.exp((r + 2) * c * T))


def _log_level_error(n: float, d: int, c: float, r: int, T: float) -> float:
    """log of 2^r (c d^c)^{r+1} * 2 e^{n/2 + 3cTn} / n^{n/2}."""
    return (r * math.log(2) + (r + 1) * math.log(c * d ** c) + math.log(2)
            + n / 2 + 3 * c * T * n - (n / 2) * math.log(n))


def select_N(d: int, epsilon: float, c: float, r: int, T: float,
             cap: int = 10 ** 4) -> int:
    """Minimal level n >= 2 whose error expression drops below epsilon/2."""
    target = math.log(epsilon / 2)
    for n in range(2, cap + 1):
        if _log_level_error(n, d, c, r, T) <= target:
            return n
    raise ValueError(f"no admissible level found up to cap {cap}")


def _log_C_delta_term(n: float, delta: float, c: float, T: float) -> float:
    """log of 5^{2n} n n^{4n} (2 e^{(n-1)/2 + 3cT(n-1)} / (n-1)^{(n-1)/2})^{8+delta}."""
    q = 8 + delta
    return (2 * n * math.log(5) + math.log(n) + 4 * n * math.log(n)
            + q * (math.log(2) + (n - 1) / 2 + 3 * c * T * (n - 1)
                   - ((n - 1) / 2) * math.log(n - 1)))


def log_C_delta(delta: float, c: float, T: float, cap: int = 10 ** 4) -> float:
    """log of the supremum over integer levels n >= 2 of the C_delta term.

    The term rises for a very long stretch before the n^{-delta(n-1)/2}
    factor wins, so the supremum is located by continuous maximization in
    log space (bracketed by doubling), then checked against the neighboring
    integers and a direct scan over the small levels.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    from scipy.optimize import minimize_scalar  # slow to import, needed here

    def g(n):
        return _log_C_delta_term(n, delta, c, T)

    hi = 4.0
    while g(2 * hi) > g(hi):
        hi *= 2
        if hi > 1e60:
            raise ValueError("C_delta term does not decay; check constants")
    res = minimize_scalar(lambda v: -g(v), bounds=(2.0, 4 * hi),
                          method="bounded",
                          options={"xatol": 1e-6 * hi})
    cands = {2.0}
    peak = float(res.x)
    cands.update(float(max(2, math.floor(peak) + k)) for k in (-1, 0, 1))
    cands.update(float(n) for n in range(2, min(cap, 1000) + 1))
    return max(g(n) for n in cands)


def compute_C_delta(delta: float, c: float, T: float,
                    cap: int = 10 ** 4) -> float:
    """The supremum itself; infinite whenever its log exceeds float range."""
    log_val = log_C_delta(delta, c, T, cap)
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def log_param_bound(d: int, epsilon: float, delta: float, c: float, r: int,
                    T: float) -> float:
    """log of 96 d^{3c} ((2 c d^c)^{r+1} e^{(r+2) c T})^{3c+8+delta}
    C_delta epsilon^{-(3c+8+delta)}."""
    expo = 3 * c + 8 + delta
    return (math.log(96) + 3 * c * math.log(d)
            + expo * ((r + 1) * math.log(2 * c * d ** c) + (r + 2) * c * T)
            + log_C_delta(delta, c, T)
            + expo * math.log(1 / epsilon))


def param_bound(d: int, epsilon: float, delta: float, c: float, r: int,
                T: float) -> float:
    """The parameter-count bound itself; may be infinite in double precision."""
    try:
        return math.exp(log_param_bound(d, epsilon, delta, c, r, T))
    except OverflowError:
        return math.inf
