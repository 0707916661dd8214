"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (visible even under capture) and
enforces the stated tolerances plus a wall-clock budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from picardnet.bounds import (ParticleConfig, brownian_moment_check,
                              check_moment_bound, check_perturbation_bounds,
                              mlp_error_bound, particle_mean_payoff,
                              simulate_particles)
from picardnet.calculus import (affine_wrap, compose, dim_compose, dim_merge,
                                dim_sum, extend_depth, identity_network,
                                merge, scaled_sum)
from picardnet.config import ExperimentConfig
from picardnet.estimator import mlp_estimate, monte_carlo_payoff
from picardnet.nets import DimVector, dim_supnorm, dims, realize
from picardnet.noise import NoiseTree
from picardnet.problems import linear_problem, perturbed_problem
from picardnet.selection import log_param_bound
from picardnet.suites import run_suite
from picardnet.synthesis import (synthesize_mc_network,
                                 synthesize_mlp_network, theorem_pipeline)

from test_nets import random_net


def report(capsys, num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {status} "
              f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok
    assert elapsed < budget


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


# --- criterion 1 helpers -------------------------------------------------

def all_vectors(width_cap, length):
    grids = np.meshgrid(*([np.arange(1, width_cap + 1)] * length),
                        indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def compose_rows(A, B):
    """Vectorized transcription of the composition width rule, used as the
    independent oracle for the exhaustive associativity sweep."""
    Na, la = A.shape
    Nb, lb = B.shape
    out = np.empty((Na, Nb, la + lb - 1), dtype=np.int64)
    out[:, :, :lb - 1] = B[None, :, :lb - 1]
    out[:, :, lb - 1] = A[:, None, 0] + B[None, :, lb - 1]
    out[:, :, lb:] = A[:, None, 1:]
    return out.reshape(Na * Nb, la + lb - 1)


def assoc_holds(A, B, C, chunk_rows=8):
    BC = compose_rows(B, C)
    for start in range(0, len(A), chunk_rows):
        Ak = A[start:start + chunk_rows]
        left = compose_rows(compose_rows(Ak, B), C)
        right = compose_rows(Ak, BC)
        if not np.array_equal(left, right):
            return False
    return True


def test_criterion_1_calculus_laws(capsys):
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(2024)

    # 500 randomized realization-equivalence and dims-law cases per op
    for _ in range(500):
        wid = lambda: int(rng.integers(1, 5))
        mids = lambda: [int(w) for w in rng.integers(1, 5, rng.integers(1, 3))]
        g = random_net(rng, [wid()] + mids() + [wid()])
        f = random_net(rng, [g.output_width] + mids() + [wid()])
        h = compose(f, g)
        ok &= tuple(dims(h)) == tuple(dim_compose(dims(f), dims(g)))
        x = rng.standard_normal(g.input_width)
        ok &= rel_err(realize(h, x), realize(f, realize(g, x))) <= 1e-9

        p, q, L = wid(), wid(), [wid() for _ in range(int(rng.integers(1, 3)))]
        nets = [random_net(rng, [p] + [int(w) for w in
                                       rng.integers(1, 5, len(L))] + [q])
                for _ in range(int(rng.integers(1, 4)))]
        coeffs = list(rng.standard_normal(len(nets)))
        s = scaled_sum(nets, coeffs)
        dv = dims(nets[0])
        for n2 in nets[1:]:
            dv = dim_sum(dv, dims(n2))
        ok &= tuple(dims(s)) == tuple(dv)
        x = rng.standard_normal(p)
        want = sum(h2 * realize(n2, x) for h2, n2 in zip(coeffs, nets))
        ok &= rel_err(realize(s, x), want) <= 1e-9

        mnets = [random_net(rng, [p] + [int(w) for w in
                                        rng.integers(1, 5, len(L))] + [wid()])
                 for _ in range(int(rng.integers(1, 4)))]
        mg = merge(mnets)
        dv = dims(mnets[0])
        for n2 in mnets[1:]:
            dv = dim_merge(dv, dims(n2))
        ok &= tuple(dims(mg)) == tuple(dv)
        ok &= rel_err(realize(mg, x),
                      np.concatenate([realize(n2, x) for n2 in mnets])) <= 1e-9

        net = nets[0]
        lam = float(rng.standard_normal())
        b = rng.standard_normal(net.input_width)
        a = rng.standard_normal(net.output_width)
        w = affine_wrap(net, lam, b, a)
        ok &= tuple(dims(w)) == tuple(dims(net))
        ok &= rel_err(realize(w, x), lam * (realize(net, x + b) + a)) <= 1e-9

        extra = int(rng.integers(0, 4))
        ext = extend_depth(net, extra)
        ok &= len(dims(ext)) == len(dims(net)) + extra
        ok &= rel_err(realize(ext, x), realize(net, x)) <= 1e-9

    # exhaustive composition associativity: full width range 6 at dims
    # length 3, reduced width caps when length-4 vectors enter (the full
    # cross product at width 6 is computationally out of reach)
    v3w6 = all_vectors(6, 3)
    v3w4, v4w4 = all_vectors(4, 3), all_vectors(4, 4)
    v4w3 = all_vectors(3, 4)
    ok &= assoc_holds(v3w6, v3w6, v3w6)
    for combo in itertools.product([3, 4], repeat=3):
        if combo == (3, 3, 3):
            continue
        if combo == (4, 4, 4):
            vecs = [v4w3] * 3
        else:
            vecs = [v3w4 if L == 3 else v4w4 for L in combo]
        ok &= assoc_holds(*vecs)

    # the vectorized oracle agrees with the library operator on a sample
    for _ in range(500):
        a = DimVector(tuple(int(w) for w in rng.integers(1, 7,
                                                         rng.integers(3, 5))))
        b = DimVector(tuple(int(w) for w in rng.integers(1, 7,
                                                         rng.integers(3, 5))))
        got = tuple(dim_compose(a, b))
        via = tuple(compose_rows(np.array([list(a)]), np.array([list(b)]))[0])
        ok &= got == via

    # exhaustive sum triangle inequality, widths <= 6, dims lengths 3 and 4
    for L in (3, 4):
        for alpha in all_vectors(6, L):
            a = DimVector(tuple(int(v) for v in alpha))
            for interior in all_vectors(6, L - 2):
                b = DimVector((a[0],) + tuple(int(v) for v in interior)
                              + (a[-1],))
                if dim_supnorm(dim_sum(a, b)) > dim_supnorm(a) + dim_supnorm(b):
                    ok = False
    report(capsys, 1, "network calculus laws", ok, time.time() - t0, 30.0)


def test_criterion_2_synthesis_equivalence(capsys):
    t0 = time.time()
    ok = True
    for d in (1, 2, 5):
        prob = linear_problem(d, a=0.1, b=-0.4, T=1.0)
        dmu = len(dims(prob.mu_net))
        df = len(dims(prob.f_net))
        rng = np.random.default_rng(d)
        for n in (0, 1, 2, 3):
            m = max(n, 1)
            for seed in range(5):
                tree = NoiseTree(master_seed=seed, T=1.0, d=d,
                                 grid_levels=n, m=m)
                probes = rng.standard_normal((20, d))
                rep = synthesize_mlp_network(prob, tree, (0,), n, m, 0.8)
                ok &= rep.depth == n * (dmu - 1) + 3
                ok &= rep.width_supnorm <= rep.predicted_width_bound
                vals = realize(rep.network, probes)
                for i, x in enumerate(probes):
                    direct = mlp_estimate(prob, tree, (0,), n, m, 0.8, x)
                    ok &= rel_err(vals[i], direct) <= 1e-8
                del rep, vals
                for K in (1, 4):
                    rep = synthesize_mc_network(prob, tree, K, n, m)
                    ok &= rep.depth == df + n * (dmu - 1) + 2
                    ok &= rep.width_supnorm <= rep.predicted_width_bound
                    vals = realize(rep.network, probes)[:, 0]
                    for i, x in enumerate(probes):
                        direct = monte_carlo_payoff(prob, tree, K, n, m, x)
                        ok &= rel_err(vals[i], direct) <= 1e-8
                    del rep, vals
    report(capsys, 2, "synthesis equivalence", ok, time.time() - t0, 180.0)


def test_criterion_3_convergence(capsys):
    t0 = time.time()
    ok = True
    for d in (1, 5):
        prob = linear_problem(d, a=0.0, b=-0.5, T=1.0)
        x = np.ones(d)
        truth = x[0] * math.exp(-prob.T / 2)
        errs = {n: [] for n in (1, 2, 3)}
        for seed in range(50):
            for n in (1, 2, 3):
                tree = NoiseTree(master_seed=1000 * d + seed, T=prob.T,
                                 d=d, grid_levels=n, m=n)
                est = monte_carlo_payoff(prob, tree, 1000, n, n, x)
                errs[n].append(est - truth)
        improved = sum(1 for e1, e3 in zip(errs[1], errs[3])
                       if abs(e3) < abs(e1))
        ok &= improved >= 45
        rms3 = math.sqrt(np.mean(np.square(errs[3])))
        ok &= rms3 / abs(truth) <= 0.10
    report(capsys, 3, "estimator convergence", ok, time.time() - t0, 120.0)


def test_criterion_4_bound_suite(capsys):
    t0 = time.time()
    results = []
    for d in (1, 3, 5):
        for p in (1, 2):
            for r in (1, 2):
                results.append(brownian_moment_check(d, p, r, t=1.0,
                                                     samples=10 ** 5,
                                                     seed=100 * d + 10 * p + r))
    cfg = ParticleConfig(particles=2000, euler_steps=50, master_seed=5,
                         partner_count=32)
    for d in (1, 5):
        prob = linear_problem(d)
        (states,) = simulate_particles([prob], cfg, np.ones(d))
        results.append(check_moment_bound(prob, states, np.ones(d), p=2))
    base = linear_problem(1)
    for eps in (0.05, 0.1, 0.2):
        pert, b = perturbed_problem(base, eps=eps)
        st_eps, st0 = simulate_particles([pert, base], cfg, np.ones(1))
        results.extend(check_perturbation_bounds(base, pert, eps, b, st0,
                                                 st_eps, np.ones(1), p=2))
    x = np.ones(1)
    ref = particle_mean_payoff(base, simulate_particles([base], cfg, x)[0])
    samples = [monte_carlo_payoff(
        base, NoiseTree(master_seed=s, T=1.0, d=1, grid_levels=2, m=2),
        1, 2, 2, x) for s in range(100)]
    rms = math.sqrt(np.mean((np.array(samples) - ref) ** 2))
    dominated = rms <= mlp_error_bound(base, 2, 2, x)
    ok = all(res.satisfied for res in results) and dominated
    report(capsys, 4, "analytic bound suite", ok, time.time() - t0, 120.0)


def test_criterion_5_scaling_table(capsys):
    t0 = time.time()
    ok = True
    delta, c, r, T = 0.5, 1.0, 1, 0.1
    slope_cap = 3 * c + 8 + delta + 0.5
    for d in (1, 2, 3):
        prob = linear_problem(d, T=T)
        assert prob.c == c and prob.r == r
        log_eps_inv, log_pc = [], []
        for eps in (0.5, 0.25):
            res = theorem_pipeline(prob, eps, level_cap=2,
                                   seed_budget=50, points=1024)
            ok &= res.succeeded and res.l2_error < eps
            pc = res.report.param_count
            ok &= math.log(pc) <= log_param_bound(d, eps, delta, c, r, T)
            log_eps_inv.append(math.log(1.0 / eps))
            log_pc.append(math.log(pc))
        slope = ((log_pc[1] - log_pc[0])
                 / (log_eps_inv[1] - log_eps_inv[0]))
        ok &= slope <= slope_cap
    report(capsys, 5, "parameter-count scaling", ok, time.time() - t0, 300.0)


def test_criterion_6_determinism(capsys, tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(dims=[1], epsilons=[0.5], delta=0.5, seed=11,
                           particles=400, euler_steps=20, partner_count=16,
                           convergence_seeds=3, mc_samples=100, points=64)
    ok = True
    for suite in ("equivalence", "bounds", "convergence", "scaling"):
        out1 = tmp_path / f"{suite}_a"
        out2 = tmp_path / f"{suite}_b"
        code1 = run_suite(cfg, suite, str(out1))
        code2 = run_suite(cfg, suite, str(out2))
        ok &= code1 == 0 and code2 == 0
        first = (out1 / f"{suite}.csv").read_bytes()
        second = (out2 / f"{suite}.csv").read_bytes()
        ok &= first == second
    report(capsys, 6, "suite determinism", ok, time.time() - t0, 120.0)
