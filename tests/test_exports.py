"""The public names of the package, pinned: adding or removing an export
is a change to this test."""

import types

import picardnet

EXPORTS = {
    "DimVector", "NeuralNetwork", "NoiseTree", "PipelineResult",
    "SynthesisReport", "TestProblem", "ThetaIndex", "affine_network",
    "affine_wrap", "brownian_at", "compose", "constant_problem",
    "dim_compose", "dim_merge", "dim_sum", "dim_supnorm", "dims",
    "extend_depth", "floor_to_grid", "identity_dims", "identity_network",
    "linear_problem", "log_C_delta", "log_param_bound", "merge",
    "mlp_estimate", "mlp_estimate_batch", "monte_carlo_payoff",
    "network_from_text", "network_to_text", "param_count",
    "perturbed_problem", "realize", "relu", "scaled_sum", "select_N",
    "select_epsilon", "synthesize_mc_network", "synthesize_mlp_network",
    "theorem_pipeline", "uniform_time", "zero_network",
}


def test_public_names_pinned():
    # Submodules become package attributes once any code imports them, so
    # only the names bound by the package itself are compared.
    public = {name for name, value in vars(picardnet).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
