"""Every one-line fault in a shared rule or in the recursion fails a test
that reads no golden file.

The estimator's rows, the one-row ``mlp_estimate`` and the synthesized
networks share the class rule, the grid rule, the key path and the
Brownian kernel, so comparing them with each other cannot see a fault in
those rules.  Here each fault is a one-line edit of a library function's
source, compiled in its module's namespace and patched into every module
that binds the function, the test modules included.  Then the independent oracles run until one fails:
the test-side transcription of the recursion, the test-side SplitMix64
keys, hand-computed grid floors, the Brownian moment tests, the calculus
tests against the combinations of their inputs' realizations (also with
every layout stored as triplets), the synthesized networks against the
estimator and against their build from public calculus functions, and the
row-major transcription of the Brownian kernel.  None of
them reads ``tests/data``.  A fault whose line a refactor removed fails
here too, so the table moves with the code it targets.
"""

import inspect
import textwrap
from functools import partial

import pytest

import picardnet.calculus
import picardnet.estimator
import picardnet.nets
import picardnet.noise
import picardnet.synthesis
import test_calculus
import test_estimator
import test_noise
import test_synthesis

MODULES = (picardnet.nets, picardnet.noise, picardnet.estimator,
           picardnet.calculus, picardnet.synthesis, test_calculus,
           test_estimator, test_noise)

# (id, module defining the function, function, line fragment, its fault)
FAULTS = [
    ("mlp_batch-mu_lo-is-mu0", picardnet.estimator, "_mlp_batch",
     "mu_lo = mu[rows:] if ell > 1 else mu0", "mu_lo = mu0"),
    ("mlp_batch-children-first", picardnet.estimator, "_classes",
     "np.concatenate([np.tile(keys, len(ks)), child])",
     "np.concatenate([child, np.tile(keys, len(ks))])"),
    ("mlp_batch-weight-1e-7", picardnet.estimator, "_mlp_batch",
     "val = val + (t / M)[:, None] * c",
     "val = val + (t / M * (1 + 1e-7))[:, None] * c"),
    ("children-ell-before-k", picardnet.estimator, "_classes",
     "fold_keys(fold_keys(fold_keys(keys, n), ks[:, None]), ell)",
     "fold_keys(fold_keys(fold_keys(keys, n), ell), ks[:, None])"),
    ("children-one-minus-u", picardnet.estimator, "_classes",
     "uniform_time_batch(child) *", "(1 - uniform_time_batch(child)) *"),
    ("classes-drop-last-k", picardnet.estimator, "_classes",
     "min(k0 + group, M + 1)", "min(k0 + group, M)"),
    ("grid_index-rounds-up", picardnet.estimator, "_grid_index",
     "np.floor(", "np.ceil("),
    ("brownian-coarser-level", picardnet.estimator, "_brownian",
     "_grid_index(tree, t, m, n))", "_grid_index(tree, t, m, max(n - 1, 0)))"),
    ("bridge-weights-1.05", picardnet.noise, "_bridge_sum",
     "span - r) * scale", "span - r) * scale * 1.05"),
    ("bridge-sum-reversed", picardnet.noise, "_bridge_sum",
     "for column in z[1:]:", "for column in z[:0:-1]:"),
    ("bridge-sum-numpy-reduce", picardnet.noise, "_bridge_sum",
     "out = z[0]", "out, z = z.sum(axis=0), z[:1]"),
    ("fold_keys-adds", picardnet.noise, "fold_keys",
     "keys ^ _mix_array(", "keys + _mix_array("),
    ("fold_keys-writes-its-keys", picardnet.noise, "fold_keys",
     "keys ^ _mix_array(element + _PHI_U)",
     "np.bitwise_xor(keys, _mix_array(element + _PHI_U), out=keys)"),
    ("drift-rows-reversed", picardnet.nets, "realize",
     "_forward(net, x[b], True)", "_forward(net, x[b][::-1], True)"),
    ("blocks-drop-last", picardnet.nets, "_blocks",
     "for i in range(parts + 1)]", "for i in range(parts)]"),
    ("split-bias-not-negated", picardnet.calculus, "_split",
     "_cat([B, -B])", "_cat([B, B])"),
    ("side_by_side-biases-reversed", picardnet.calculus, "_side_by_side",
     "_cat([ls[i][1] for ls in layer_lists])",
     "_cat([ls[i][1] for ls in layer_lists[::-1]])"),
    ("composed_sums-payoffs-reversed", picardnet.calculus, "_composed_sums",
     "[_copy(composed, i) for i in range(len(coeffs))]",
     "[_copy(composed, i) for i in range(len(coeffs))[::-1]]"),
    ("layout-column-offset-not-added", picardnet.calculus, "_layout",
     "np.concatenate([a + j for a, j in zip(cols, c)])", "np.concatenate(cols)"),
    ("entries-first-copy-only", picardnet.calculus, "_entries",
     "bits.any(axis=0)", "bits[0]"),
    ("copy-bias-from-neighbour", picardnet.calculus, "_copy",
     "take(B, 1))", "take(B if B.ndim == 1 else np.roll(B, 1, axis=0), 1))"),
    ("mlp_net-copies-folded-reversed", picardnet.synthesis, "_mlp_net",
     "_copy(pair, slice(k * R, (k + 1) * R))",
     "_copy(pair, slice((len(ks) - 1 - k) * R, (len(ks) - k) * R))"),
]


def all_triplets(detect):
    """detect, run with the size rule at 0: every layout is a triplet."""
    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(picardnet.calculus, "_DENSE_ENTRIES", 0)
            detect()
    run.__qualname__ = f"all_triplets({getattr(detect, '__qualname__', repr(detect))})"
    return run

# Tests that read no golden file, cheapest first.
C, E, N, S = test_calculus, test_estimator, test_noise, test_synthesis
DETECTORS = [
    E.TestFloorToGrid().test_examples,
    E.TestFloorToGrid().test_grid_points_are_fixed,
    N.TestKeys().test_callers_arrays_keep_their_bytes,
    N.TestKeys().test_array_element_folds_without_warning,
    N.TestKeys().test_theta_key_matches_reference,
    N.TestKeys().test_batch_matches_scalar,
    E.TestMlpEstimate().test_level_one_formula,
    E.TestMlpEstimate().test_against_independent_transcription,
    E.TestMlpEstimate().test_transcription_level_three,
    partial(E.test_fine_grid_paths_agree, 2, 34, 2, 0.089),
    E.TestBatch().test_matches_scalar,
    N.TestBrownian().test_increments_independent_of_grid_position,
    N.TestBrownian().test_gaussian_moments,
    N.TestBridgeOffPowerOfTwoGrid().test_variance_and_uncorrelated_increments,
    C.TestMerge().test_concatenation_oracle,
    C.TestCompose().test_dims_law_and_equivalence,
    all_triplets(C.TestScaledSum().test_three_way_oracle),
    all_triplets(C.TestMerge().test_concatenation_oracle),
    partial(S.TestMlpSynthesis().test_level_two_matches_estimator, 1),
    S.TestMcSynthesis().test_matches_monte_carlo,
    # A linear payoff averages the K sums symmetrically, so a fault that
    # permutes them needs the public-API build's bytes to show.
    partial(S.test_mc_network_bytes_equal_public_api_oracle, "linear", 1, 2, 2),
    # Summing a class's copies in another order, or their union of entries
    # replaced by one copy's, changes bytes only.
    partial(S.test_mlp_network_bytes_equal_node_by_node_oracle, "linear", 1, 2,
            2),
    all_triplets(partial(S.test_node_by_node_oracle_at_vanishing_times,
                         "wide drift", 1e-322)),
    # Summing the bridge's nodes in another order changes bits only; its
    # row-major transcription sees them.
    partial(N.TestBridgeOracle().test_matches_row_major_transcription, 1),
]


def faulty(module, name, line, fault):
    """``module.name`` recompiled with its one occurrence of line replaced
    by fault; its globals are the module's, so it calls the patched names."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(line) == 1, f"{line!r} is not one line of {name}"
    namespace = {}
    exec(compile(source.replace(line, fault), f"<fault in {name}>", "exec"),
         vars(module), namespace)
    return namespace[name]


def first_detector():
    """The name of the first detector that fails, or None."""
    for detect in DETECTORS:
        try:
            detect()
        except (Exception, pytest.fail.Exception):
            return getattr(detect, "__qualname__", repr(detect))
    return None


def test_detectors_pass_without_fault():
    assert first_detector() is None


@pytest.mark.parametrize("module, name, line, fault",
                         [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_fault_is_detected(monkeypatch, module, name, line, fault):
    original, replacement = (getattr(module, name),
                             faulty(module, name, line, fault))
    bound = [mod for mod in MODULES if getattr(mod, name, None) is original]
    for mod in bound:
        monkeypatch.setattr(mod, name, replacement)
    assert module in bound
    assert first_detector() is not None, f"no oracle detects {fault!r}"
