"""The benchmark's four workloads, each driving picardnet from outside.

A workload builds its inputs from the run seed in ``setup``; ``op(k)`` runs
op k (op 0 is the warm-up, ops 1..n are timed) and returns what ``check``
needs.  Checks run after the timed phase.  The library is called through the
names bound below, so the tracer can wrap them like any other consumer.

The timed phase is a fixed number of ops: ``ceil(seconds / nominal_op_s)``,
rounded up to whole cycles.  ``nominal_op_s`` is the op's cost at the commit
that defined the benchmark (2-core x86-64 container, one BLAS thread), so a
run takes about ``seconds`` there, and every later commit does the same work
and its ``wall_s`` compares directly.  A cycle is the smallest run of ops
whose mean latency is the same from one cycle to the next; ``op_p50_ms`` is
the median over cycles of that mean.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from picardnet.cli import main as cli_main
from picardnet.estimator import (mlp_estimate, mlp_estimate_batch,
                                 monte_carlo_payoff)
from picardnet.nets import NeuralNetwork, realize
from picardnet.noise import NoiseTree
from picardnet.problems import TestProblem, linear_problem
from picardnet.synthesis import synthesize_mc_network, synthesize_mlp_network

REL_TOL = 1e-8


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class Workload:
    name = ""
    nominal_op_s = 1.0
    cycle = 1            # ops per input cycle; the op count is a multiple

    def op_count(self, seconds: float) -> int:
        ops = max(1, math.ceil(seconds / self.nominal_op_s))
        return self.cycle * math.ceil(ops / self.cycle)

    def setup(self, seed: int, ops: int, workdir: str):
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> bool:
        raise NotImplementedError


class _McWorkload(Workload):
    """Ops are ``monte_carlo_payoff`` calls, one fresh noise tree each.

    The check compares ``mlp_estimate_batch`` on a few of the op's bases
    with the scalar ``mlp_estimate`` on the same tree.
    """

    K = 1
    check_bases = (1, 2)

    def problem(self, rng) -> TestProblem:
        raise NotImplementedError

    def levels(self, k: int) -> int:
        raise NotImplementedError

    def setup(self, seed, ops, workdir):
        rng = np.random.default_rng(seed)
        self.prob = self.problem(rng)
        self.x = rng.standard_normal(self.prob.d)
        masters = rng.integers(0, 2 ** 63, size=ops + 1)
        self.trees = [NoiseTree(master_seed=int(s), T=self.prob.T,
                                d=self.prob.d, grid_levels=self.levels(k),
                                m=self.levels(k))
                      for k, s in enumerate(masters)]

    def op(self, k):
        n = self.levels(k)
        return monte_carlo_payoff(self.prob, self.trees[k], self.K, n, n,
                                  self.x)

    def check(self, k, output):
        n, tree, T = self.levels(k), self.trees[k], self.prob.T
        if not math.isfinite(output):
            return False
        batch = mlp_estimate_batch(self.prob, tree, self.check_bases, n, n,
                                   T, self.x)
        scalar = [mlp_estimate(self.prob, tree, (b,), n, n, T, self.x)
                  for b in self.check_bases]
        return rel_err(batch, scalar) <= REL_TOL


class MlpDeep(_McWorkload):
    name = "mlp-deep"
    nominal_op_s = 0.8
    K = 100

    def problem(self, rng):
        return linear_problem(2)

    def levels(self, k):
        return 4


class MlpWide(_McWorkload):
    name = "mlp-wide"
    nominal_op_s = 0.17
    cycle = 3
    K = 1000
    width = 256

    def problem(self, rng):
        d, w = 2, self.width
        shapes = ((w, 2 * d), (w, w), (d, w))
        layers = tuple((rng.standard_normal(s) / math.sqrt(s[1]),
                        0.1 * rng.standard_normal(s[0])) for s in shapes)
        return TestProblem(d=d, T=1.0, c=1.0, r=1,
                           mu_net=NeuralNetwork(layers),
                           f_net=linear_problem(d).f_net, name="wide-drift")

    def levels(self, k):
        return 1 + k % 3


class Synthesis(Workload):
    """Ops synthesize the level-n and Monte Carlo networks for one master
    seed and realize both on the probes."""

    name = "synthesis"
    nominal_op_s = 0.47
    # K = 2 keeps the peak near 0.56 GB.  At K = 4 (1.6 GB) a third or more
    # of each op was kernel time for fresh pages, and its speed moved with
    # the host's memory load: by 20-25% between two sets of ten runs on a
    # 2-vCPU VM.
    d, n, K, probes = 5, 3, 2, 20
    t_frac = 0.75

    def setup(self, seed, ops, workdir):
        rng = np.random.default_rng(seed)
        self.prob = linear_problem(self.d)
        self.xs = rng.standard_normal((self.probes, self.d))
        masters = rng.integers(0, 2 ** 63, size=ops + 1)
        self.trees = [NoiseTree(master_seed=int(s), T=self.prob.T, d=self.d,
                                grid_levels=self.n, m=self.n)
                      for s in masters]

    def op(self, k):
        tree, n = self.trees[k], self.n
        mlp = synthesize_mlp_network(self.prob, tree, (0,), n, n,
                                     self.t_frac * self.prob.T)
        mc = synthesize_mc_network(self.prob, tree, self.K, n, n)
        # Only the outputs and shape facts leave the op, so the networks
        # are freed before the next op starts.
        return [(realize(rep.network, self.xs), rep.depth,
                 rep.predicted_depth, rep.width_supnorm,
                 rep.predicted_width_bound) for rep in (mlp, mc)]

    def check(self, k, output):
        tree, n, T, f = self.trees[k], self.n, self.prob.T, self.prob.f_net
        for _, depth, predicted, width, bound in output:
            if depth != predicted or width > bound:
                return False
        (mlp_out, *_), (mc_out, *_) = output
        mlp_ref = [mlp_estimate(self.prob, tree, (0,), n, n,
                                self.t_frac * T, x) for x in self.xs]
        mc_ref = [np.mean([realize(f, mlp_estimate(self.prob, tree, (i,), n,
                                                   n, T, x))[0]
                           for i in range(1, self.K + 1)])
                  for x in self.xs]
        return (rel_err(mlp_out, mlp_ref) <= REL_TOL
                and rel_err(mc_out[:, 0], mc_ref) <= REL_TOL)


class CliAll(Workload):
    """Ops run ``picardnet --suite all`` on one fixed config; the check is
    exit code 0 and CSV bytes identical to the warm-up op's."""

    name = "cli-all"
    nominal_op_s = 1.3
    # Three dimensions and two accuracies; the sizing knobs keep picardnet's
    # defaults, so a run holds enough ops for a steady median.
    config = ("dims = 1, 2, 3\n"
              "epsilons = 0.5, 0.25\n"
              "particles = 2000\n"
              "euler_steps = 50\n"
              "partner_count = 32\n"
              "mc_samples = 200\n"
              "points = 256\n")
    csv_names = ("equivalence", "bounds", "convergence", "scaling")

    def setup(self, seed, ops, workdir):
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "run.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config + f"seed = {seed}\n")

    def _out(self, k):
        return os.path.join(self.workdir, f"op{k}")

    def op(self, k):
        return cli_main(["--config", self.config_path, "--suite", "all",
                         "--out", self._out(k)])

    def _csv(self, k):
        blobs = []
        for name in self.csv_names:
            with open(os.path.join(self._out(k), f"{name}.csv"), "rb") as fh:
                blobs.append(fh.read())
        shutil.rmtree(self._out(k))
        return blobs

    def check(self, k, output):
        blobs = self._csv(k)
        if k == 0:
            self.reference = blobs
        return output == 0 and blobs == self.reference


WORKLOADS = {w.name: w for w in (MlpDeep, MlpWide, Synthesis, CliAll)}
