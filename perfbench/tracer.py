"""Span tracer that measures picardnet's layers from the outside.

The tracer never edits the library.  It replaces, for the duration of a
traced phase, the names that each *consuming* module bound with
``from .x import y``: ``picardnet.estimator.brownian_path_batch`` is the
name the estimator calls, so wrapping ``picardnet.noise`` would miss it.
Each wrapper records one span (name, start, end, parent, op) and, at the
same boundary, the counts that make per-layer ratios.  Spans stay in memory
until the benchmark writes them out.

A span's self time is its duration minus the time its child spans cover;
the calls of one layer are summed per op of the traced phase.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import picardnet.bounds
import picardnet.calculus
import picardnet.estimator
import picardnet.problems
import picardnet.suites
import picardnet.synthesis

CALCULUS_FUNCS = ("compose", "merge", "scaled_sum", "affine_wrap",
                  "identity_network", "zero_network")
SUITE_NAMES = ("equivalence", "bounds", "convergence", "scaling")

# Per-layer metrics in report order: (name, unit, better).
METRICS = [
    ("noise.path_batch.calls", "count/op", "lower"),
    ("noise.path_batch.self_s", "s/op", "lower"),
    ("noise.normals_drawn", "count/op", "lower"),
    ("noise.path_bytes", "B/op", "lower"),
    ("noise.keys.calls", "count/op", "lower"),
    ("noise.keys.self_s", "s/op", "lower"),
    ("noise.scalar.calls", "count/op", "lower"),
    ("noise.scalar.self_s", "s/op", "lower"),
    ("estimator.calls", "count/op", "lower"),
    ("estimator.self_s", "s/op", "lower"),
    ("estimator.realize_calls", "count/op", "lower"),
    ("estimator.drift_realize_calls", "count/op", "lower"),
    ("estimator.rows_per_realize", "rows", "higher"),
    ("nets.realize.calls", "count/op", "lower"),
    ("nets.realize.self_s", "s/op", "lower"),
    ("nets.realize.rows", "rows/op", "lower"),
    ("nets.realize.flops", "flop/op", "lower"),
    ("nets.realize.gflops", "GFLOP/s", "higher"),
    ("nets.realize.nonzero_ratio", "ratio", "higher"),
    ("nets.construct.calls", "count/op", "lower"),
    ("nets.construct.self_s", "s/op", "lower"),
]
for _f in CALCULUS_FUNCS:
    METRICS += [(f"calculus.{_f}.calls", "count/op", "lower"),
                (f"calculus.{_f}.self_s", "s/op", "lower")]
METRICS += [
    ("calculus.bytes_built", "B/op", "lower"),
    ("synthesis.calls", "count/op", "lower"),
    ("synthesis.self_s", "s/op", "lower"),
    ("synthesis.dense_params", "count/op", "lower"),
    ("synthesis.nonzeros", "count/op", "lower"),
    ("selection.calls", "count/op", "lower"),
    ("selection.self_s", "s/op", "lower"),
    ("bounds.simulate.calls", "count/op", "lower"),
    ("bounds.simulate.self_s", "s/op", "lower"),
    ("bounds.particle_steps_per_s", "1/s", "higher"),
    ("bounds.check.calls", "count/op", "lower"),
    ("bounds.check.self_s", "s/op", "lower"),
]
METRICS += [(f"suites.{s}.wall_s", "s/op", "lower") for s in SUITE_NAMES]
METRICS += [
    ("trace.unattributed_s", "s/op", "lower"),
    ("trace.hooks_s", "s/op", "lower"),
    ("trace.spans", "count/op", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _rows(x) -> int:
    x = np.asarray(x)
    return x.shape[0] if x.ndim == 2 else 1


class Tracer:
    """Records spans and counts while installed; restores every name after."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []
        self._net_sizes = {}     # id(net) -> (weak ref, *sizes), see _sizes
        self._drift_nets = {}    # id(mu_net) -> mu_net of problems seen

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording one span per call; hooks see args and result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                # Counting runs in its own span, so it is kept out of the
                # caller's self time and shows as trace.hooks_s.
                hook_start = perf_counter()
                after(args, result)
                spans.append(("trace.hook", hook_start, perf_counter(),
                              parent, self.op))
            return result

        return traced

    def patch(self, target, attr, name, before=None, after=None):
        """Replace ``target.attr`` (or ``target[attr]`` for a dict)."""
        if isinstance(target, dict):
            original = target[attr]
            target[attr] = self.wrap(original, name, before, after)
        else:
            original = getattr(target, attr)
            setattr(target, attr, self.wrap(original, name, before, after))
        self._patches.append((target, attr, original))

    def install(self, bench_module):
        """Wrap every layer boundary, including the benchmark's own
        bindings in ``bench_module``."""
        est, syn = picardnet.estimator, picardnet.synthesis
        sui, bnd = picardnet.suites, picardnet.bounds

        self.patch(est, "brownian_path_batch", "noise.path_batch",
                   after=self._count_paths)
        for attr in ("base_keys", "fold_keys", "uniform_time_batch"):
            self.patch(est, attr, "noise.keys")
        for mod in (est, syn):
            for attr in ("brownian_at", "uniform_time"):
                self.patch(mod, attr, "noise.scalar")

        self.patch(est, "realize", "nets.realize",
                   after=self._count_estimator_realize)
        for mod in (syn, sui, bnd, bench_module):
            self.patch(mod, "realize", "nets.realize",
                       after=self._count_realize)
        self.patch(picardnet.calculus, "NeuralNetwork", "nets.construct",
                   after=self._count_built)
        self.patch(picardnet.problems, "NeuralNetwork", "nets.construct")

        for attr in CALCULUS_FUNCS:
            self.patch(syn, attr, f"calculus.{attr}")

        self.patch(bench_module, "monte_carlo_payoff", "estimator",
                   before=self._note_problem)
        for attr in ("mlp_estimate", "monte_carlo_payoff"):
            self.patch(sui, attr, "estimator", before=self._note_problem)

        for mod, attrs in ((bench_module, ("synthesize_mlp_network",
                                           "synthesize_mc_network")),
                           (sui, ("synthesize_mlp_network",
                                  "synthesize_mc_network",
                                  "theorem_pipeline"))):
            for attr in attrs:
                self.patch(mod, attr, "synthesis",
                           after=self._count_synthesized)

        for attr in ("select_N", "select_epsilon", "log_param_bound"):
            self.patch(syn, attr, "selection")
        self.patch(sui, "log_param_bound", "selection")

        self.patch(bnd, "simulate_particles", "bounds.simulate",
                   after=self._count_particles)
        for attr in ("brownian_moment_check", "check_moment_bound",
                     "check_perturbation_bounds", "particle_mean_payoff",
                     "mlp_error_bound"):
            self.patch(sui, attr, "bounds.check")

        # run_suite dispatches through this table, so its entries are the
        # names the CLI path binds for each suite.
        for suite in SUITE_NAMES:
            self.patch(sui._SUITES, suite, f"suites.{suite}")

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- counting hooks ---------------------------------------------------

    def _note_problem(self, args):
        mu = args[0].mu_net
        self._drift_nets[id(mu)] = mu

    def _count_paths(self, args, result):
        tree, keys = args[0], args[1]
        self.counts["noise.normals_drawn"] += (len(keys) * tree.grid_size
                                               * tree.d)
        self.counts["noise.path_bytes"] += result.nbytes

    def _sizes(self, net):
        """(weights, nonzero weights, nonzero parameters), once per net.

        The cache holds weak references: synthesized networks reach
        gigabytes, and keeping them alive would change the workload.
        """
        got = self._net_sizes.get(id(net))
        if got is None or got[0]() is not net:
            weights = sum(W.size for W, _ in net.layers)
            nz_w = sum(int(np.count_nonzero(W)) for W, _ in net.layers)
            nz_b = sum(int(np.count_nonzero(B)) for _, B in net.layers)
            got = (weakref.ref(net), weights, nz_w, nz_w + nz_b)
            self._net_sizes[id(net)] = got
        return got[1:]

    def _count_realize(self, args, result):
        net, rows = args[0], _rows(args[1])
        weights, nonzero, _ = self._sizes(net)
        self.counts["nets.realize.rows"] += rows
        self.counts["nets.realize.flops"] += 2 * rows * weights
        self.counts["nets.realize.useful_flops"] += 2 * rows * nonzero
        return rows

    def _count_estimator_realize(self, args, result):
        rows = self._count_realize(args, result)
        self.counts["estimator.realize_calls"] += 1
        self.counts["estimator.realize_rows"] += rows
        if id(args[0]) in self._drift_nets:
            self.counts["estimator.drift_realize_calls"] += 1

    def _count_built(self, args, result):
        self.counts["calculus.bytes_built"] += sum(
            W.nbytes + B.nbytes for W, B in result.layers)

    def _count_synthesized(self, args, result):
        report = getattr(result, "report", result)
        self.counts["synthesis.dense_params"] += report.param_count
        self.counts["synthesis.nonzeros"] += self._sizes(report.network)[2]

    def _count_particles(self, args, result):
        problems, cfg = args[0], args[1]
        self.counts["bounds.particle_steps"] += (cfg.particles
                                                 * cfg.euler_steps
                                                 * len(problems))

    # -- reduction --------------------------------------------------------

    def layer_times(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, incl = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            incl[name] += end - start
        return calls, self_s, incl

    def metrics(self, ops, untraced_wall_s, traced_wall_s):
        """Every per-layer metric of :data:`METRICS`, per op of the phase."""
        calls, self_s, incl = self.layer_times()
        c = self.counts
        raw = {}
        for name, unit, _ in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                raw[name] = calls[layer] / ops
            elif kind == "self_s":
                raw[name] = self_s[layer] / ops
            elif unit.endswith("/op"):
                # Counts taken by the hooks, e.g. noise.normals_drawn.
                raw[name] = c[name] / ops
        raw["estimator.rows_per_realize"] = (
            c["estimator.realize_rows"] / c["estimator.realize_calls"]
            if c["estimator.realize_calls"] else 0.0)
        raw["nets.realize.gflops"] = (
            c["nets.realize.flops"] / self_s["nets.realize"] / 1e9
            if self_s["nets.realize"] > 0 else 0.0)
        raw["nets.realize.nonzero_ratio"] = (
            c["nets.realize.useful_flops"] / c["nets.realize.flops"]
            if c["nets.realize.flops"] else 0.0)
        raw["bounds.particle_steps_per_s"] = (
            c["bounds.particle_steps"] / incl["bounds.simulate"]
            if incl["bounds.simulate"] > 0 else 0.0)
        for suite in SUITE_NAMES:
            raw[f"suites.{suite}.wall_s"] = incl[f"suites.{suite}"] / ops
        raw["trace.unattributed_s"] = self_s["op"] / ops
        raw["trace.hooks_s"] = self_s["trace.hook"] / ops
        raw["trace.spans"] = len(self.spans) / ops
        raw["trace.untraced_wall_s"] = untraced_wall_s
        raw["trace.traced_wall_s"] = traced_wall_s
        raw["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return {name: {"value": raw[name], "unit": unit}
                for name, unit, _ in METRICS}
