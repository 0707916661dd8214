"""Flat key = value configuration for the experiment driver.

One `key = value` pair per line, `#` starts a comment, lists are
comma-separated.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .nets import _check_count
from .problems import linear_problem
from .selection import log_param_bound, select_N
from .synthesis import PROBE_MAX_DIM


@dataclass
class ExperimentConfig:
    problem: str = "linear"
    dims: list = field(default_factory=lambda: [1])
    epsilons: list = field(default_factory=lambda: [0.5])
    delta: float = 0.5
    seed: int = 0
    out: str = "."
    # suite sizing knobs
    particles: int = 2000
    euler_steps: int = 50
    partner_count: int = 32
    convergence_seeds: int = 10
    mc_samples: int = 200
    level_cap: int = 2
    points: int = 256
    horizon: float = 0.1
    seed_budget: int = 50

    def validate(self):
        if not self.dims:
            raise ValueError("dims must be a nonempty list")
        if not self.epsilons:
            raise ValueError("epsilons must be a nonempty list")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if any(not 0 < e < 1 for e in self.epsilons):
            raise ValueError("every epsilon must lie in (0, 1)")
        if self.problem not in ("linear", "constant"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not 0 < self.horizon < float("inf"):
            raise ValueError(f"horizon must lie in (0, inf): {self.horizon}")
        for key, low in (("mc_samples", 1), ("particles", 2), ("level_cap", 0),
                         ("points", 1), ("euler_steps", 1),
                         ("convergence_seeds", 1), ("partner_count", 1),
                         ("seed_budget", 1)):
            _check_count(key, getattr(self, key), low)
        if self.level_cap > 3:  # a level-4 network holds ~7e12 parameters
            raise ValueError(f"level_cap must be <= 3, got {self.level_cap}")
        for d in self.dims:  # the scaling suite's selection, before any suite
            _check_count("dims", d, 1)
            if d > PROBE_MAX_DIM:  # the Sobol probe table's last dimension
                raise ValueError(f"dims must be <= {PROBE_MAX_DIM}, got {d}")
            prob = linear_problem(d, T=self.horizon)
            for eps in self.epsilons:
                try:
                    select_N(d, eps, prob.c, prob.r, prob.T)
                except ValueError as exc:
                    raise ValueError(f"horizon {self.horizon} admits no level "
                                     f"for epsilon {eps}: {exc}") from None
                try:
                    log_param_bound(d, eps, self.delta, prob.c, prob.r, prob.T)
                except ValueError as exc:
                    raise ValueError(f"delta {self.delta} admits no C_delta at "
                                     f"horizon {self.horizon}: {exc}") from None
        return self


def parse_config(text: str) -> ExperimentConfig:
    """Each value takes the type of its field's default, list entries that
    of the default's first entry."""
    cfg, defaults = ExperimentConfig(), ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        default = getattr(defaults, key)
        if isinstance(default, list):
            kind = type(default[0])
            setattr(cfg, key, [kind(v) for v in value.split(",") if v.strip()])
        else:
            setattr(cfg, key, type(default)(value))
    return cfg.validate()


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
