"""Broadcasting binary values on k-ary trees.

Tools for studying when the root value of a broadcast process on an
infinite k-ary tree stays recoverable from observations at depth d as
d grows: exact density evolution over conditional log-likelihood-ratio
laws, a population-dynamics engine for deep recursions, couplings that
certify stochastic dominance, closed-form reconstruction bounds, and
the hard-core occupancy model as the central worked example.
"""

from .errors import (TreecastError, DegenerateChannel, InvalidParameter,
                     UndefinedLimit, AtomExplosion, PreconditionViolation,
                     DegenerateEvent, ResourceLimit, BadBracket)
from .channels import (BinaryChannel, make_channel,
                       symmetric_channel, hardcore_channel, lambda_of_w,
                       w_of_lambda, mossel_peres_lhs, geometric_mean_bound_lhs,
                       kesten_stigum_eps_c, kelly_threshold, llr_step,
                       gap_kernel, gap_kernel_peak, hardcore_contraction,
                       brightwell_winkler_lower_w)
from .atoms import ConditionalPair, grid_merge, posterior_from_llr
from .evolution import (exact_policy, deep_policy, base_pair,
                        evolve, trajectory, evolve_to_depth, mean_gap,
                        diagnostics, gap_identity_residual)
from .conditioning import (Coupling, build_coupling, SandwichVerdict,
                           verify_sandwich)
from .sampling import (sample_broadcast_batch, bp_root_posterior, Population,
                       population_from_pair, population_evolve_anchored,
                       estimate_diagnostics)
from .hardcore import (gibbs_conditional_sweep, IndependenceVerdict,
                       brw_independence_check)
from .threshold import (ChannelFamily, Decision, fitted_rate,
                        decide_reconstruction, ThresholdEstimate,
                        bisect_threshold, restricted_bound_crossover,
                        bounds_report)
from . import serialize

__version__ = "0.1.0"

__all__ = [
    "TreecastError", "DegenerateChannel", "InvalidParameter", "UndefinedLimit",
    "AtomExplosion", "PreconditionViolation",
    "DegenerateEvent", "ResourceLimit", "BadBracket",
    "BinaryChannel", "make_channel", "symmetric_channel",
    "hardcore_channel", "lambda_of_w", "w_of_lambda", "mossel_peres_lhs",
    "geometric_mean_bound_lhs", "kesten_stigum_eps_c", "kelly_threshold",
    "llr_step", "gap_kernel", "gap_kernel_peak", "hardcore_contraction",
    "brightwell_winkler_lower_w",
    "ConditionalPair", "grid_merge", "posterior_from_llr",
    "exact_policy", "deep_policy", "base_pair", "evolve",
    "trajectory", "evolve_to_depth", "mean_gap", "diagnostics",
    "gap_identity_residual",
    "Coupling", "build_coupling", "SandwichVerdict", "verify_sandwich",
    "sample_broadcast_batch", "bp_root_posterior", "Population",
    "population_from_pair", "population_evolve_anchored", "estimate_diagnostics",
    "gibbs_conditional_sweep", "IndependenceVerdict", "brw_independence_check",
    "ChannelFamily", "Decision", "fitted_rate",
    "decide_reconstruction", "ThresholdEstimate", "bisect_threshold",
    "restricted_bound_crossover", "bounds_report",
    "serialize",
    "__version__",
]
