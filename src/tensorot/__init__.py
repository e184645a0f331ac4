"""Multi-marginal discrete optimal transport on dense d-mode tensors.

Greedy Sinkhorn-style scaling with a certified stopping rule, rounding of
near-feasible plans into the transport polytope, delta-accurate transport
values with certificates, distances between sets of measures through
structured cost tensors, an exact desk-scale simplex oracle, and the
block partial-minimization machinery behind the convergence analysis.

Names load on first use: ``import tensorot`` imports no submodule, and
``tensorot.approx_tot`` or ``tensorot.lp`` imports only the submodule
that defines it (with that submodule's own imports).
"""

import importlib

_EXPORTS = {name: module for module, names in {
    "errors": ("ContractViolation", "DegenerateSliceError", "NonConvergenceError"),
    "io": ("FileFormatError", "load_marginals", "load_tensor", "save_marginals",
           "save_tensor"),
    "lp": ("ExactSolution", "SimplexResult", "scalability_check", "simplex_minimize",
           "solve_exact_tot", "transport_constraints"),
    "pm": ("PmProblem", "PmResult", "ProjectionKlBounds", "RateParams", "RateReport",
           "g_gradient", "g_sublevel_params", "g_value", "hessian_bounds", "pm_minimize",
           "projection_kl_bounds", "rate_bound", "scaling_block_minimizer"),
    "rounding": ("rank_one_correction", "round_to_polytope", "shrink_to_submarginals"),
    "scaling": ("IterationRecord", "SinkhornConfig", "SinkhornTrace", "SubspaceBases",
                "iteration_bound", "kl_divergence", "log_marginal_fit",
                "mode_orthogonal_blocks", "residual", "select_mode", "sinkhorn_scale",
                "support_subspaces"),
    "setdist": ("CostTensorProfile", "DistanceCheck", "SetDistanceResult",
                "check_bisymmetric", "check_distance_matrix", "check_multiset_distance",
                "contract_middle", "cost_profile", "glue", "lift_ground_metric", "matricize",
                "pair_distance", "set_distance"),
    "tensor": ("MarginalFamily", "Tensor", "all_marginals", "apply_scaling", "entropy",
               "exp_neg_scaled", "inner", "l1_distance", "l1_norm", "marginal", "ones_tensor",
               "outer", "rescale_mode"),
    "transport": ("EntropicResult", "TotCertificate", "approx_tot", "entropic_bracket",
                  "entropic_tot"),
}.items() for name in names}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # no caching in globals(): each access reads the submodule's current
    # binding, so a function replaced there (a wrapper, a test double) is seen
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
