"""Experiment suites behind the command-line driver.

Each suite runs deterministically from the configured seed, returns its rows
plus a pass flag, and is written to `<out>/<suite>.csv`.  The four suites
mirror the library's main claims: estimator/network equivalence, analytic
bound satisfaction, estimator convergence, and the accuracy/parameter-count
scaling of the end-to-end pipeline.
"""

from __future__ import annotations

import csv
import math
import os
from functools import partial

import numpy as np

from . import bounds
from .bounds import (BoundCheckResult, ParticleConfig, brownian_moment_check,
                     check_moment_bound, check_perturbation_bounds,
                     mlp_error_bound, particle_mean_payoff)
from .config import ExperimentConfig
from .estimator import _mc_payoffs, mlp_estimate, monte_carlo_payoff
from .nets import realize
from .noise import NoiseTree
from .problems import constant_problem, linear_problem, perturbed_problem
from .selection import log_param_bound
from .synthesis import synthesize_mc_network, synthesize_mlp_network, theorem_pipeline


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / max(1.0, float(np.max(np.abs(b)))))


def _problem(cfg: ExperimentConfig, d: int, T: float):
    if cfg.problem == "constant":
        return constant_problem(d, value=1.5, T=T)
    return linear_problem(d, T=T)


def run_equivalence_suite(cfg: ExperimentConfig):
    rows = []
    ok = True
    rng = np.random.default_rng(cfg.seed)
    for d in cfg.dims:
        prob = _problem(cfg, d, T=1.0)
        for n in (0, 1, 2):
            m, t = max(n, 1), 0.75 * prob.T
            tree = NoiseTree(master_seed=cfg.seed + 17 * d + n, T=prob.T,
                             d=d, grid_levels=n, m=m)
            xs = rng.standard_normal((5, d))
            nets = [("mlp", 1, synthesize_mlp_network(prob, tree, (0,), n, m, t),
                     partial(mlp_estimate, prob, tree, (0,), n, m, t))]
            nets += [("mc", K, synthesize_mc_network(prob, tree, K, n, m),
                      partial(monte_carlo_payoff, prob, tree, K, n, m))
                     for K in (1, 2)]
            for kind, K, rep, estimate in nets:
                err = max(_rel_err(realize(rep.network, x), estimate(x))
                          for x in xs)
                depth_ok = rep.depth == rep.predicted_depth
                width_ok = rep.width_supnorm <= rep.predicted_width_bound
                good = err <= 1e-8 and depth_ok and width_ok
                ok = ok and good
                rows.append([kind, d, n, m, K, f"{err:.3e}",
                             int(depth_ok), int(width_ok), int(good)])
    header = ["kind", "d", "n", "m", "K", "max_rel_err",
              "depth_ok", "width_ok", "pass"]
    return header, rows, ok


def run_bounds_suite(cfg: ExperimentConfig):
    checks = [brownian_moment_check(d, p, r, t=1.0, samples=10 ** 5,
                                    seed=cfg.seed)
              for (d, p, r) in ((1, 1, 1), (3, 2, 1), (5, 2, 2))]
    pc = ParticleConfig(particles=cfg.particles, euler_steps=cfg.euler_steps,
                        master_seed=cfg.seed, partner_count=cfg.partner_count)
    d0 = min(cfg.dims)
    base = linear_problem(d0, T=1.0)
    x = np.ones(d0)
    pert, b = perturbed_problem(base, eps=0.1)
    # One coupled run serves all three particle checks: the base states do
    # not depend on the problems they are coupled with.  It is called through
    # the module so that a wrapper of bounds.simulate_particles sees it.
    st_eps, st0 = bounds.simulate_particles([pert, base], pc, x)
    checks.append(check_moment_bound(base, st0, x, p=2))
    checks.extend(check_perturbation_bounds(base, pert, 0.1, b, st0, st_eps,
                                            x, p=2))
    ref = particle_mean_payoff(base, st0)
    trees = [NoiseTree(master_seed=cfg.seed + 1000 + i, T=base.T, d=d0,
                       grid_levels=2, m=2) for i in range(20)]
    samples = _mc_payoffs(base, trees, 1, 2, 2, x)
    rms = float(np.sqrt(np.mean((np.array(samples) - ref) ** 2)))
    checks.append(BoundCheckResult("mlp-error-domination", rms,
                                   mlp_error_bound(base, 2, 2, x), 20))
    rows = [[chk.name, f"{chk.empirical:.6e}", f"{chk.bound:.6e}",
             int(chk.satisfied), chk.samples] for chk in checks]
    return (["name", "empirical", "bound", "satisfied", "samples"], rows,
            all(chk.satisfied for chk in checks))


def run_convergence_suite(cfg: ExperimentConfig):
    rows = []
    ok = True
    for d in cfg.dims:
        prob = linear_problem(d, T=1.0)
        x = np.ones(d)
        truth = prob.closed_form(x, prob.T)
        rms = {}
        for n in (1, 2, 3):
            trees = [NoiseTree(master_seed=cfg.seed + 31 * s, T=prob.T, d=d,
                               grid_levels=n, m=n)
                     for s in range(cfg.convergence_seeds)]
            errs = [est - truth for est in
                    _mc_payoffs(prob, trees, cfg.mc_samples, n, n, x)]
            rms[n] = float(np.sqrt(np.mean(np.square(errs))))
            rows.append([d, n, cfg.mc_samples, f"{rms[n]:.6e}",
                         f"{abs(rms[n] / truth):.6e}"])
        good = rms[3] < rms[1] and abs(rms[3] / truth) <= 0.2
        ok = ok and good
        rows.append([d, "summary", cfg.mc_samples, int(good), ""])
    return ["d", "n", "K", "rms_error", "relative"], rows, ok


def run_scaling_suite(cfg: ExperimentConfig):
    rows = []
    ok = True
    for d in cfg.dims:
        prob = linear_problem(d, T=cfg.horizon)
        for eps in cfg.epsilons:
            res = theorem_pipeline(prob, eps, cfg.delta,
                                   level_cap=cfg.level_cap,
                                   seed_budget=cfg.seed_budget,
                                   base_seed=cfg.seed, points=cfg.points)
            log_bound = log_param_bound(d, eps, cfg.delta, prob.c,
                                        prob.r, prob.T)
            within = math.log(res.report.param_count) <= log_bound
            good = res.succeeded and within
            ok = ok and good
            rows.append([d, eps, res.n_selected, res.n_used, res.K,
                         f"{res.l2_error:.6e}", res.report.param_count,
                         f"{log_bound:.6e}", int(within),
                         int(res.succeeded)])
    return ["d", "epsilon", "n_selected", "n_used", "K", "l2_error",
            "param_count", "log_param_bound", "within_bound",
            "success"], rows, ok


_SUITES = {
    "equivalence": run_equivalence_suite,
    "bounds": run_bounds_suite,
    "convergence": run_convergence_suite,
    "scaling": run_scaling_suite,
}


def run_suite(cfg: ExperimentConfig, suite: str, out_dir: str) -> int:
    """Run one suite (or all) and write CSV; exit code 0 iff all passed."""
    cfg.validate()
    names = list(_SUITES) if suite == "all" else [suite]
    os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    for name in names:
        header, rows, ok = _SUITES[name](cfg)
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        all_ok = all_ok and ok
    return 0 if all_ok else 1
