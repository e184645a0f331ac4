"""Multi-marginal discrete optimal transport on dense d-mode tensors.

Greedy Sinkhorn-style scaling with a certified stopping rule, rounding of
near-feasible plans into the transport polytope, delta-accurate transport
values with certificates, distances between sets of measures through
structured cost tensors, an exact desk-scale simplex oracle, and the
block partial-minimization machinery behind the convergence analysis.
"""

from .errors import ContractViolation, DegenerateSliceError, NonConvergenceError
from .io import (
    FileFormatError,
    load_marginals,
    load_tensor,
    save_marginals,
    save_tensor,
)
from .lp import (
    ExactSolution,
    SimplexResult,
    scalability_check,
    simplex_minimize,
    solve_exact_tot,
    transport_constraints,
)
from .pm import (
    PmProblem,
    PmResult,
    ProjectionKlBounds,
    RateParams,
    RateReport,
    g_gradient,
    g_sublevel_params,
    g_value,
    hessian_bounds,
    pm_minimize,
    projection_kl_bounds,
    rate_bound,
    scaling_block_minimizer,
)
from .rounding import rank_one_correction, round_to_polytope, shrink_to_submarginals
from .scaling import (
    IterationRecord,
    SinkhornConfig,
    SinkhornTrace,
    SubspaceBases,
    iteration_bound,
    kl_divergence,
    log_marginal_fit,
    mode_orthogonal_blocks,
    residual,
    select_mode,
    sinkhorn_scale,
    support_subspaces,
)
from .setdist import (
    CostTensorProfile,
    DistanceCheck,
    SetDistanceResult,
    check_bisymmetric,
    check_distance_matrix,
    check_multiset_distance,
    contract_middle,
    cost_profile,
    glue,
    lift_ground_metric,
    matricize,
    pair_distance,
    set_distance,
)
from .tensor import (
    MarginalFamily,
    Tensor,
    all_marginals,
    apply_scaling,
    entropy,
    exp_neg_scaled,
    inner,
    l1_distance,
    l1_norm,
    marginal,
    ones_tensor,
    outer,
    rescale_mode,
)
from .transport import (
    EntropicResult,
    TotCertificate,
    approx_tot,
    entropic_bracket,
    entropic_tot,
)

__version__ = "0.1.0"
