"""picardnet: multilevel Picard estimators for mean-field SDEs and the
constructive ReLU-network calculus that realizes them exactly."""

from .calculus import (affine_network, affine_wrap, compose, dim_compose,
                       dim_merge, dim_sum, extend_depth, identity_dims,
                       identity_network, merge, scaled_sum, zero_network)
from .estimator import mlp_estimate, mlp_estimate_batch, monte_carlo_payoff
from .nets import (DimVector, NeuralNetwork, dim_supnorm, dims,
                   network_from_text, network_to_text, param_count, realize,
                   relu)
from .noise import NoiseTree, ThetaIndex, brownian_at, uniform_time
from .problems import (TestProblem, constant_problem, linear_problem,
                       perturbed_problem)
from .selection import log_C_delta, log_param_bound, select_N, select_epsilon
from .synthesis import (PipelineResult, SynthesisReport, synthesize_mc_network,
                        synthesize_mlp_network, theorem_pipeline)

__version__ = "0.1.0"
