"""The tracer's counts against closed forms, and the benchmark's contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from functools import reduce

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import picardnet.calculus  # noqa: E402
import picardnet.estimator  # noqa: E402
import picardnet.suites  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from picardnet.calculus import (dim_compose, dim_merge, dim_sum,  # noqa: E402
                                identity_dims)
from picardnet.nets import DimVector, dims  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402


def corrections(n, m):
    """R(n): drift ``realize`` calls of the correction terms of one
    level-n estimate, R(0) = R(1) = 0."""
    if n <= 1:
        return 0
    return sum(m ** (n - l) * (2 + 2 * corrections(l, m)
                               + 2 * corrections(l - 1, m))
               for l in range(1, n))


def path_batches(n, m):
    """P(n): distinct noise suffixes whose Brownian path batch one level-n
    batch estimate draws (one per suffix reached at a level >= 1)."""
    if n == 0:
        return 0
    return 1 + sum(m ** (j - l) * path_batches(l, m)
                   for j in range(2, n + 1) for l in range(1, j))


def mlp_dims(prob, n, m):
    """Width vector of the level-n network from the width laws alone."""
    d, mu = prob.d, dims(prob.mu_net)
    L = n * (len(mu) - 1) + 3
    if n == 0:
        return DimVector((d, 1, d))
    parts = [identity_dims(d, L)]
    for ell in range(1, n):
        pair = [dim_merge(mlp_dims(prob, lv, m), mlp_dims(prob, lv, m))
                for lv in (ell, ell - 1)]
        for v in pair:
            pad = L - len(v) - len(mu) + 2
            if pad > 1:
                v = dim_compose(identity_dims(2 * d, pad), v)
            parts += [dim_compose(mu, v)] * m ** (n - ell)
    return reduce(dim_sum, parts)


def dense_params(v):
    return sum(v[i] * (v[i - 1] + 1) for i in range(1, len(v)))


def traced(name, ops, tmp_path, seed=0):
    w = workloads.WORKLOADS[name]()
    w.setup(seed, ops, str(tmp_path))
    tracer = Tracer()
    tracer.install(workloads)
    op = tracer.wrap(w.op, "op")
    try:
        outputs = [op(k) for k in range(1, ops + 1)]
    finally:
        tracer.uninstall()
    values = {k: v["value"] for k, v in tracer.metrics(ops, 1.0, 1.0).items()}
    return w, tracer, outputs, values


def test_closed_forms_at_level_four():
    # Drift calls per MC call: R(n) corrections + mu(0, 0); the estimator
    # module makes one more realize call, for the payoff.
    assert corrections(4, 4) + 2 == 1322
    assert path_batches(4, 4) == 349


def test_mlp_deep_counts(tmp_path):
    w, tracer, outputs, got = traced("mlp-deep", 1, tmp_path)
    n, K, d = 4, w.K, w.prob.d
    assert got["estimator.calls"] == 1
    assert got["estimator.realize_calls"] == corrections(n, n) + 2
    assert got["estimator.drift_realize_calls"] == corrections(n, n) + 1
    assert got["nets.realize.calls"] == corrections(n, n) + 2
    assert got["noise.path_batch.calls"] == path_batches(n, n)
    assert got["noise.normals_drawn"] == path_batches(n, n) * K * n ** n * d
    assert got["noise.path_bytes"] == (path_batches(n, n) * K
                                       * (n ** n + 1) * d * 8)
    assert w.check(1, outputs[0])


def test_mlp_wide_counts_over_one_cycle(tmp_path):
    w, _, outputs, got = traced("mlp-wide", 3, tmp_path)
    levels = [w.levels(k) for k in (1, 2, 3)]
    assert sorted(levels) == [1, 2, 3]
    assert got["estimator.realize_calls"] * 3 == sum(
        corrections(n, n) + 2 for n in levels)
    assert got["noise.path_batch.calls"] * 3 == sum(
        path_batches(n, n) for n in levels)
    assert got["nets.realize.nonzero_ratio"] > 0.99
    assert all(w.check(k, out) for k, out in enumerate(outputs, start=1))


def test_synthesis_dense_params_per_op(tmp_path):
    w, tracer, outputs, got = traced("synthesis", 1, tmp_path)
    prob, n = w.prob, w.n
    level = dense_params(mlp_dims(prob, n, n))
    term = dim_compose(dims(prob.f_net), mlp_dims(prob, n, n))
    mc = dense_params(reduce(dim_sum, [term] * w.K))
    assert got["synthesis.calls"] == 2
    assert got["synthesis.dense_params"] == level + mc == 26_898_756
    assert 0 < got["synthesis.nonzeros"] < got["synthesis.dense_params"]
    assert w.check(1, outputs[0])
    # The size cache must not keep the synthesized networks alive.
    alive = [weights for ref, weights, *_ in tracer._net_sizes.values()
             if ref() is not None]
    assert max(alive) < 10 ** 6


def test_self_times_partition_each_op(tmp_path):
    _, tracer, _, _ = traced("mlp-wide", 3, tmp_path)
    calls, self_s, _ = tracer.layer_times()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans
                if parent < 0)
    assert calls["op"] == 3
    assert sum(self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert min(self_s.values()) >= 0


def test_uninstall_restores_every_binding():
    mods = (picardnet.estimator, picardnet.suites, picardnet.calculus,
            workloads)
    before = [dict(vars(m)) for m in mods] + [dict(picardnet.suites._SUITES)]
    tracer = Tracer()
    tracer.install(workloads)
    assert picardnet.estimator.realize is not before[0]["realize"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in mods] + [dict(picardnet.suites._SUITES)]
    assert after == before


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
