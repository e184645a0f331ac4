"""Dense d-mode tensors with equal side lengths and the elementary kernels.

A :class:`Tensor` is an immutable wrapper around a row-major ``(n,)*d``
float array.  Everything the iterative solvers consume lives here as pure
functions: mode marginals, single-mode rescaling, diagonal scalings in the
log domain, inner products, entropy, and outer products of marginal
vectors.

Scalar reductions over all ``n**d`` cells are correctly rounded: they
return exactly what ``math.fsum`` returns on the same entries, bit for bit,
but large inputs are summed in a few numpy passes instead of one Python
float per cell.  Vector-valued marginals use numpy's pairwise reduction,
which is deterministic for a fixed shape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, DegenerateSliceError

__all__ = [
    "Tensor",
    "MarginalFamily",
    "ones_tensor",
    "marginal",
    "all_marginals",
    "rescale_mode",
    "apply_scaling",
    "inner",
    "entropy",
    "exp_neg_scaled",
    "outer",
    "l1_norm",
    "l1_distance",
    "zero_scaling",
]

MASS_RTOL = 1e-12

# Up to this many entries math.fsum over a list is cheaper than the passes.
_SHORT_SUM = 1024
# Entries per block of a pass: the block and its residual stay in cache.
_SUM_BLOCK = 32768
_SUM_PASSES = 3


def _fsum(values) -> float:
    """Correctly rounded sum of an array's entries, equal to ``math.fsum``.

    Error-free vector extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation, Part I", SISC 2008): with ``2**m >= size + 2``
    and ``sigma = 2**(m + e)`` for a residual bounded by ``2**e``, each
    ``q = (sigma + r) - sigma`` and ``r - q`` are exact and so is any sum of
    the ``q``.  After each pass the exact total lies within
    ``2**m * max|r|`` of the extracted parts; once ``math.fsum`` rounds both
    ends of that interval to one float, that float is the correctly rounded
    total.  Non-finite entries, extreme exponents, zero totals and
    unresolved intervals fall back to ``math.fsum`` itself, which keeps its
    ``inf``/``nan``/``OverflowError``/``ValueError`` behaviour and the sign
    of a zero.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size <= _SHORT_SUM:
        return math.fsum(x.tolist())
    m = (x.size + 1).bit_length()
    mu = max(float(x.max()), -float(x.min()))
    r = x
    res = np.empty_like(x)
    q = np.empty(min(_SUM_BLOCK, x.size))
    parts = []
    for _ in range(_SUM_PASSES):
        e = m + math.frexp(mu)[1]
        if not (math.isfinite(mu) and -1000 < e < 1000):
            break
        sigma = math.ldexp(1.0, e)
        part = mu = 0.0
        for start in range(0, x.size, _SUM_BLOCK):
            block = r[start:start + _SUM_BLOCK]
            qb = np.add(block, sigma, out=q[:block.size])
            qb -= sigma
            part += float(qb.sum())
            rb = np.subtract(block, qb, out=res[start:start + _SUM_BLOCK])
            mu = max(mu, float(rb.max()), -float(rb.min()))
        r = res
        parts.append(part)
        bound = math.ldexp(mu, m)
        low = math.fsum(parts + [-bound])
        if low != 0.0 and low == math.fsum(parts + [bound]):
            return low
        if bound == 0.0:
            break
    return math.fsum(x.tolist())


class Tensor:
    """Dense order-d tensor whose modes all share the side length n.

    The data array is copied, made C-contiguous, and frozen; operations
    return new tensors.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=float, copy=True, order="C")
        if arr.ndim < 1:
            raise ValueError("a tensor needs at least one mode")
        n = arr.shape[0]
        if any(side != n for side in arr.shape):
            raise ValueError(
                f"all modes must share one side length, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def d(self) -> int:
        return self.data.ndim

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def size(self) -> int:
        return self.data.size

    @classmethod
    def from_flat(cls, d: int, n: int, flat) -> "Tensor":
        flat = np.asarray(flat, dtype=float)
        if flat.size != n**d:
            raise ValueError(f"expected {n**d} entries for d={d}, n={n}, got {flat.size}")
        return cls(flat.reshape((n,) * d))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.data >= 0))

    def is_probability(self, tol: float = MASS_RTOL) -> bool:
        return self.is_nonnegative() and abs(_fsum(self.data) - 1.0) <= tol

    def require_nonnegative(self, what: str = "tensor") -> None:
        if not self.is_nonnegative():
            raise ContractViolation(f"{what} must be entrywise nonnegative")

    def require_probability(self, what: str = "tensor", tol: float = MASS_RTOL) -> None:
        self.require_nonnegative(what)
        mass = _fsum(self.data)
        if abs(mass - 1.0) > tol:
            raise ContractViolation(f"{what} must have unit mass, got {mass!r}")

    def min_positive(self) -> float:
        """Smallest strictly positive entry."""
        pos = self.data[self.data > 0]
        if pos.size == 0:
            raise ContractViolation("tensor has no positive entries")
        return float(pos.min())

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "data": self.data.ravel().tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Tensor":
        return cls.from_flat(int(obj["d"]), int(obj["n"]), obj["data"])

    def __repr__(self) -> str:
        return f"Tensor(d={self.d}, n={self.n})"


class MarginalFamily:
    """d strictly positive target marginals of length n with a common mass.

    Stored as a read-only ``(d, n)`` array; row j is the prescribed
    marginal for mode j.
    """

    __slots__ = ("p",)

    def __init__(self, vectors):
        p = np.array(vectors, dtype=float, copy=True, order="C")
        if p.ndim == 1:
            p = p[None, :]
        if p.ndim != 2:
            raise ValueError("expected d vectors of a common length n")
        if np.any(p <= 0) or not np.isfinite(p).all():
            raise ContractViolation("marginal vectors must be strictly positive and finite")
        masses = [_fsum(row) for row in p]
        h = masses[0]
        if any(abs(m - h) > MASS_RTOL * h for m in masses):
            raise ContractViolation(
                f"marginal vectors must share one total mass, got {masses}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("MarginalFamily is immutable")

    @property
    def d(self) -> int:
        return self.p.shape[0]

    @property
    def n(self) -> int:
        return self.p.shape[1]

    @property
    def h(self) -> float:
        """Common l1 mass of the marginal vectors."""
        return _fsum(self.p[0])

    def vector(self, mode: int) -> np.ndarray:
        return self.p[mode]

    def is_probability(self, tol: float = MASS_RTOL) -> bool:
        return abs(self.h - 1.0) <= tol

    def require_probability(self) -> None:
        if not self.is_probability():
            raise ContractViolation(
                f"marginals must be probability vectors (mass 1), got mass {self.h!r}"
            )

    def to_dict(self) -> dict:
        return {"p": [row.tolist() for row in self.p]}

    @classmethod
    def from_dict(cls, obj: dict) -> "MarginalFamily":
        return cls(obj["p"])

    def __repr__(self) -> str:
        return f"MarginalFamily(d={self.d}, n={self.n}, h={self.h})"


def ones_tensor(d: int, n: int) -> Tensor:
    """The all-ones tensor J_d."""
    return Tensor(np.ones((n,) * d))


def zero_scaling(d: int, n: int) -> np.ndarray:
    """The zero log-domain scaling, one row of exponents per mode."""
    return np.zeros((d, n))


def _check_mode(A: Tensor, mode: int) -> None:
    if not 0 <= mode < A.d:
        raise ValueError(f"mode {mode} out of range for an order-{A.d} tensor")


def _axis_shape(d: int, mode: int, n: int) -> tuple:
    return tuple(n if ax == mode else 1 for ax in range(d))


def marginal(A: Tensor, mode: int) -> np.ndarray:
    """Sum A over every mode except ``mode``."""
    _check_mode(A, mode)
    axes = tuple(ax for ax in range(A.d) if ax != mode)
    return A.data.sum(axis=axes)


def _marginals(a: np.ndarray) -> np.ndarray:
    """All d marginals of an ``(n,)*d`` array as a (d, n) array.

    Leading-axis passes: marginal j is the row sums of what is left after
    axes 0..j-1 have been summed out, so the full array is read twice and
    every later pass reads a factor n less.
    """
    d, n = a.ndim, a.shape[0]
    out = np.empty((d, n))
    rest = a
    for j in range(d - 1):
        rows = rest.reshape(n, n ** (d - 1 - j))
        out[j] = rows.sum(axis=1)
        rest = rows.sum(axis=0)
    out[d - 1] = rest
    return out


def all_marginals(A: Tensor) -> np.ndarray:
    """All d marginals stacked as a (d, n) array."""
    return _marginals(A.data)


def rescale_mode(A: Tensor, target, mode: int) -> Tensor:
    """Scale the mode-``mode`` slices so that marginal equals ``target``.

    Moves exactly ``||target - marginal(A, mode)||_1`` mass in l1.
    """
    _check_mode(A, mode)
    target = np.asarray(target, dtype=float)
    if target.shape != (A.n,):
        raise ValueError(f"target marginal must have length {A.n}")
    if np.any(target <= 0):
        raise ContractViolation("target marginal must be strictly positive")
    s = marginal(A, mode)
    if np.any(s <= 0):
        raise DegenerateSliceError(
            f"mode {mode} has a slice with zero mass; cannot rescale"
        )
    factor = target / s
    return Tensor(A.data * factor.reshape(_axis_shape(A.d, mode, A.n)))


def _scaled(data: np.ndarray, X: np.ndarray, zeros=None) -> np.ndarray:
    """data * exp(sum_j X[j, i_j]), exactly 0 where ``zeros`` is set; exponents
    are unconstrained on zero cells and may overflow there harmlessly."""
    d, n = X.shape
    E = X[0].reshape(_axis_shape(d, 0, n))
    for j in range(1, d):
        E = E + X[j].reshape(_axis_shape(d, j, n))
    with np.errstate(over="ignore", invalid="ignore"):
        out = data * np.exp(E)
    return out if zeros is None else np.where(zeros, 0.0, out)


def apply_scaling(A: Tensor, exponents) -> Tensor:
    """Entrywise multiply A by exp(sum_j x[j, i_j]).

    ``exponents`` is a (d, n) array of per-mode log-domain factors.  The
    zero pattern of A is preserved exactly.
    """
    X = np.asarray(exponents, dtype=float)
    if X.shape != (A.d, A.n):
        raise ValueError(f"expected scaling exponents of shape {(A.d, A.n)}, got {X.shape}")
    if not np.isfinite(X).all():
        raise ContractViolation("scaling exponents must be finite")
    return Tensor(_scaled(A.data, X, A.data == 0))


def inner(A: Tensor, B: Tensor) -> float:
    """Hilbert-Schmidt inner product, compensated accumulation."""
    if A.data.shape != B.data.shape:
        raise ValueError(f"shape mismatch: {A.data.shape} vs {B.data.shape}")
    return _fsum(A.data * B.data)


def entropy(U: Tensor) -> float:
    """Shannon entropy of a probability tensor, with 0*log(0) = 0."""
    if np.any(U.data < 0):
        raise ContractViolation("entropy needs a nonnegative tensor")
    U.require_probability("entropy argument")
    flat = U.data.ravel()
    pos = flat[flat > 0]
    return -_fsum(pos * np.log(pos))


def exp_neg_scaled(C: Tensor, rate: float) -> Tensor:
    """Entrywise exp(-rate * c), shifting C to min 0 before exponentiating.

    The shift is restored as a single scalar factor, so the result equals
    exp(-rate*C) while the array exponentiation stays in (0, 1].
    """
    if not rate > 0:
        raise ContractViolation("rate must be positive")
    if not np.isfinite(C.data).all():
        raise ContractViolation("cost tensor must be finite")
    low = float(C.data.min())
    out = np.exp(-rate * (C.data - low))
    if low != 0.0:
        out = out * math.exp(-rate * low)
    return Tensor(out)


def outer(vectors) -> Tensor:
    """Tensor product of d vectors of a common length."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    n = vecs[0].shape[0]
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("all vectors must share one length")
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return Tensor(out)


def l1_norm(A: Tensor) -> float:
    """Sum of absolute entries (== total mass for nonnegative tensors)."""
    return _fsum(np.abs(A.data))


def l1_distance(A: Tensor, B: Tensor) -> float:
    if A.data.shape != B.data.shape:
        raise ValueError(f"shape mismatch: {A.data.shape} vs {B.data.shape}")
    return _fsum(np.abs(A.data - B.data))
