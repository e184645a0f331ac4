"""Shared random-instance builders and independent brute-force oracles."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tensorot
from tensorot import MarginalFamily, Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def package_env():
    """Environment for a child interpreter that imports this tensorot."""
    root = str(Path(tensorot.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root if not path else root + os.pathsep + path}


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_marginals(rng, d, n, floor=0.2):
    """Strictly positive probability marginals."""
    p = floor + rng.random((d, n))
    return MarginalFamily(p / p.sum(axis=1, keepdims=True))


def random_positive_tensor(rng, d, n, floor=0.1):
    return Tensor(floor + rng.random((n,) * d))


def random_cost(rng, d, n):
    return Tensor(rng.random((n,) * d))


def overflowing_kernel():
    """A nonnegative (3,6) kernel whose scaling at epsilon 0.01 overflows.

    The truncated kernel exp(-(6 ln 6 / 0.001) (C - min C)) has 196 zero
    cells and a smallest positive entry of 2.1e-321, and its support is
    not scalable to the marginals: the iterate's marginals reach inf.
    """
    rng = np.random.default_rng([3, 6, 0])
    C = rng.random((6,) * 3)
    p = 0.2 + rng.random((3, 6))
    with np.errstate(under="ignore"):
        K = np.exp(-(6 * np.log(6) / 0.001) * (C - C.min()))
    return Tensor(K), MarginalFamily(p / p.sum(axis=1, keepdims=True))


def brute_marginal(A, mode):
    """Mode marginal via an explicit loop over every cell."""
    out = np.zeros(A.n)
    for idx in np.ndindex(*A.data.shape):
        out[idx[mode]] += A.data[idx]
    return out


def brute_inner(A, B):
    total = 0.0
    for idx in np.ndindex(*A.data.shape):
        total += A.data[idx] * B.data[idx]
    return total


def feasible_plan(rng, P):
    """Random feasible plan by a greedy corner rule on shuffled indices.

    Only uses the marginal data, so it is independent of the library's
    solvers and usable as an oracle against them.
    """
    d, n = P.d, P.n
    orders = [rng.permutation(n) for _ in range(d)]
    remaining = P.p.copy()
    pointers = [0] * d
    plan = np.zeros((n,) * d)
    for _ in range(d * n + 1):
        idx = tuple(orders[j][pointers[j]] for j in range(d))
        amount = min(remaining[j, idx[j]] for j in range(d))
        plan[idx] += amount
        advanced = False
        for j in range(d):
            remaining[j, idx[j]] -= amount
            if remaining[j, idx[j]] <= 1e-14 and pointers[j] < n - 1:
                pointers[j] += 1
                advanced = True
        if all(remaining[j, orders[j][pointers[j]]] <= 1e-14 for j in range(d)):
            if not advanced:
                break
    return Tensor(plan)


def max_marginal_gap(plan, P, ord=1):
    """Largest per-mode marginal error of a plan, in the given norm."""
    gaps = []
    for j in range(P.d):
        axes = tuple(ax for ax in range(P.d) if ax != j)
        diff = plan.data.sum(axis=axes) - P.p[j]
        gaps.append(np.abs(diff).sum() if ord == 1 else np.abs(diff).max())
    return max(gaps)
