"""The package namespace: every public name, each resolved on first use."""

import importlib
import subprocess
import sys

import pytest

import tensorot
from tensorot import transport

from conftest import package_env

# the public names of each submodule that ``tensorot`` re-exports
PUBLIC = {
    "errors": ["ContractViolation", "DegenerateSliceError", "NonConvergenceError"],
    "io": ["FileFormatError", "load_marginals", "load_tensor", "save_marginals", "save_tensor"],
    "lp": ["ExactSolution", "SimplexResult", "scalability_check", "simplex_minimize",
           "solve_exact_tot", "transport_constraints"],
    "pm": ["PmProblem", "PmResult", "ProjectionKlBounds", "RateParams", "RateReport",
           "g_gradient", "g_sublevel_params", "g_value", "hessian_bounds", "pm_minimize",
           "projection_kl_bounds", "rate_bound", "scaling_block_minimizer"],
    "rounding": ["rank_one_correction", "round_to_polytope", "shrink_to_submarginals"],
    "scaling": ["IterationRecord", "SinkhornConfig", "SinkhornTrace", "SubspaceBases",
                "iteration_bound", "kl_divergence", "log_marginal_fit", "mode_orthogonal_blocks",
                "residual", "select_mode", "sinkhorn_scale", "support_subspaces"],
    "setdist": ["CostTensorProfile", "DistanceCheck", "SetDistanceResult", "check_bisymmetric",
                "check_distance_matrix", "check_multiset_distance", "contract_middle",
                "cost_profile", "glue", "lift_ground_metric", "matricize", "pair_distance",
                "set_distance"],
    "tensor": ["MarginalFamily", "Tensor", "all_marginals", "apply_scaling", "entropy",
               "exp_neg_scaled", "inner", "l1_distance", "l1_norm", "marginal", "ones_tensor",
               "outer", "rescale_mode"],
    "transport": ["EntropicResult", "TotCertificate", "approx_tot", "entropic_bracket",
                  "entropic_tot"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 73
    assert sorted(tensorot.__all__) == NAMES
    assert len(tensorot.__all__) == len(set(tensorot.__all__))


@pytest.mark.parametrize("module", list(PUBLIC))
def test_names_resolve_to_their_submodule(module):
    sub = importlib.import_module(f"tensorot.{module}")
    for name in PUBLIC[module]:
        assert getattr(tensorot, name) is getattr(sub, name), name
        assert name in dir(tensorot)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from tensorot import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_submodules_are_attributes():
    assert tensorot.lp is importlib.import_module("tensorot.lp")
    assert tensorot.pm is sys.modules["tensorot.pm"]
    assert tensorot.cli.run is importlib.import_module("tensorot.cli").run
    assert tensorot.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        tensorot.nope  # noqa: B018
    assert not hasattr(tensorot, "nope")


def test_names_follow_the_submodule_binding(monkeypatch):
    # nothing is cached in the package: a function replaced in its module,
    # as the benchmark's tracer does, is what the package name returns
    original = transport.approx_tot

    def replaced(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(transport, "approx_tot", replaced)
    assert tensorot.approx_tot is replaced
    monkeypatch.undo()
    assert tensorot.approx_tot is original
    assert "approx_tot" not in vars(tensorot)


def test_first_use_loads_only_the_defining_submodule():
    code = ("import sys, tensorot\n"
            "tensorot.lift_ground_metric\n"
            "print(sorted(m for m in sys.modules if m.startswith('tensorot')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["tensorot", "tensorot.errors", "tensorot.setdist",
                                       "tensorot.tensor"])
