"""Reference results for the correctness gate, computed without tensorot.lp.

Transport optima come from HiGHS (``scipy.optimize.linprog``) with column
generation: solve on the cheapest cells plus a north-west-corner support,
price every cell with the duals, add the cells of negative reduced cost,
repeat.  Duals ``y`` and the smallest reduced cost ``r`` bound the optimum
below by ``<p, y> + min(r, 0)`` (plans have unit mass), so the returned
optimum is certified by a lower bound within ``CERT_TOL``.  Solving the
full LP in one go takes 3-5 s per wide instance; this takes well under one.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

import tensorot
from tensorot import MarginalFamily, Tensor

from grid import Op

CERT_TOL = 1e-10
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
MAX_ROUNDS = 50


def _northwest_cells(p: np.ndarray) -> list[tuple]:
    """Support of the multi-marginal north-west-corner plan (a feasible one)."""
    d, n = p.shape
    left = p.copy()
    at = [0] * d
    cells = []
    while True:
        cells.append(tuple(at))
        amount = min(left[j, at[j]] for j in range(d))
        moved = False
        for j in range(d):
            left[j, at[j]] -= amount
            if left[j, at[j]] <= 1e-15 and at[j] < n - 1:
                at[j] += 1
                moved = True
        if not moved:
            return cells


def transport_opt(C: np.ndarray, p: np.ndarray) -> float:
    """Optimal value of min <C, U> over U >= 0 with mode marginals p."""
    d, n = p.shape
    c = C.ravel()
    start = min(c.size, 40 * d * n)
    cols = set(np.argpartition(c, start - 1)[:start].tolist())
    cols.update(np.ravel_multi_index(tuple(np.array(_northwest_cells(p)).T), C.shape).tolist())
    b = p.ravel()
    for _ in range(MAX_ROUNDS):
        idx = np.fromiter(sorted(cols), dtype=np.int64)
        multi = np.unravel_index(idx, C.shape)
        rows = np.concatenate([j * n + multi[j] for j in range(d)])
        A = sp.csr_matrix((np.ones(d * idx.size), (rows, np.tile(np.arange(idx.size), d))),
                          shape=(d * n, idx.size))
        res = linprog(c[idx], A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options=HIGHS_OPTIONS)
        if res.status == 2 and idx.size < c.size:  # restricted support infeasible
            cols = set(range(c.size))
            continue
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        y = res.eqlin.marginals.reshape(d, n)
        potential = sum(y[j].reshape([n if ax == j else 1 for ax in range(d)])
                        for j in range(d))
        reduced = (C - potential).ravel()
        lower = float(b @ res.eqlin.marginals) + min(float(reduced.min()), 0.0)
        if res.fun - lower <= CERT_TOL:
            return float(res.fun)
        priced = set(np.nonzero(reduced < 0)[0].tolist())
        if priced <= cols:
            break  # only HiGHS's own dual tolerance is left
        cols |= priced
    raise RuntimeError(f"column generation left a gap of {res.fun - lower:.3e} to the optimum")


def scalable_pattern(A: np.ndarray, p: np.ndarray) -> bool:
    """Max-t LP: does a feasible plan carry exactly the support of A?"""
    d, n = p.shape
    support = np.nonzero(A.ravel() > 0)[0]
    multi = np.unravel_index(support, A.shape)
    ns = support.size
    rows = np.concatenate([j * n + multi[j] for j in range(d)])
    A_eq = sp.hstack([
        sp.csr_matrix((np.ones(d * ns), (rows, np.tile(np.arange(ns), d))), shape=(d * n, ns)),
        sp.csr_matrix((d * n, 1)),
    ])
    A_ub = sp.hstack([-sp.identity(ns), np.ones((ns, 1))])  # t - u_i <= 0
    c = np.zeros(ns + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(ns), A_eq=A_eq, b_eq=p.ravel(),
                  bounds=[(0, None)] * ns + [(0, 1)], method="highs", options=HIGHS_OPTIONS)
    if res.status == 2:
        return False
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return bool(-res.fun > 1e-10)


def _setdist_opt(C: Tensor, P: MarginalFamily) -> float:
    """Minimum over simultaneous permutations of the two measure lists."""
    half = P.d // 2
    left, right = P.p[:half], P.p[half:]
    return min(transport_opt(C.data, np.vstack([left[list(s)], right[list(s)]]))
               for s in itertools.permutations(range(half)))


def cli_payload(op: Op) -> dict:
    """The JSON object the CLI should print, from in-process library calls."""
    argv = dict(zip(op.argv[1::2], op.argv[2::2]))
    C = tensorot.load_tensor(argv["--cost"])
    if op.argv[0] == "validate-cost":
        profile = tensorot.cost_profile(C)
        check = tensorot.check_distance_matrix(tensorot.matricize(C))
        return {"bisymmetric": profile.bisymmetric,
                "weak_bisymmetric": profile.weak_bisymmetric,
                "distance_matrix": profile.distance_matrix,
                "multiset_distance": profile.multiset_distance,
                "violation": check.violation}
    if op.argv[0] == "set-distance":
        delta = float(argv["--delta"]) if "--delta" in argv else None
        res = tensorot.set_distance(C, tensorot.load_marginals(argv["--left"]).p,
                                    tensorot.load_marginals(argv["--right"]).p,
                                    solver=argv["--solver"], delta=delta)
        return {"distance": res.distance,
                "best_permutation": list(res.best_permutation),
                "flags": {"distance_matrix": res.profile.distance_matrix,
                          "multiset_distance": res.profile.multiset_distance,
                          "bisymmetric": res.profile.bisymmetric,
                          "weak_bisymmetric": res.profile.weak_bisymmetric,
                          "multisets_equal": res.multisets_equal}}
    if op.argv[0] == "approx":
        _, cert = tensorot.approx_tot(C, tensorot.load_marginals(argv["--marginals"]),
                                      float(argv["--delta"]))
        return dict(cert.as_dict(), plan_file=None)
    raise ValueError(f"no reference for CLI job {op.argv[0]!r}")


def references(ops: list[Op]) -> list[dict]:
    """One reference dict per op; optima are shared between ops of one problem."""
    optima: dict[str, float] = {}

    def opt(prob, fn):
        if prob.key not in optima:
            optima[prob.key] = fn(prob.C, prob.P)
        return optima[prob.key]

    refs = []
    for op in ops:
        if op.kind in ("approx", "exact"):
            refs.append({"opt": opt(op.problem, lambda C, P: transport_opt(C.data, P.p))})
        elif op.kind == "scalable":
            refs.append({"scalable": scalable_pattern(op.problem.C.data, op.problem.P.p)})
        else:
            ref = {"payload": cli_payload(op)}
            if op.ref_problem is not None:
                fn = _setdist_opt if op.argv[0] == "set-distance" else (
                    lambda C, P: transport_opt(C.data, P.p))
                ref["opt"] = opt(op.ref_problem, fn)
            refs.append(ref)
    return refs
