"""Dense d-mode tensors with equal side lengths and the elementary kernels.

A :class:`Tensor` is an immutable wrapper around a row-major ``(n,)*d``
float array.  Everything the iterative solvers consume lives here as pure
functions: mode marginals, single-mode rescaling, diagonal scalings in the
log domain, inner products, entropy, and outer products of marginal
vectors.

Scalar reductions over all ``n**d`` cells are correctly rounded: they
return exactly what ``math.fsum`` returns on the same entries, bit for bit.
Two paths compute them: up to 256 entries go to ``math.fsum`` as a list,
and larger inputs are summed in one numpy pass over cache-sized blocks
instead of one Python float per cell.  Each block extracts its few exact
levels while it is in cache, and one interval test over all of them
settles the total.  The pass keeps no array of the input's size, and a
sum of products, differences or entropy terms forms them one block at a
time.  Vector-valued marginals use numpy's pairwise reduction, which is
deterministic for a fixed shape.
"""

from __future__ import annotations

import math
from typing import Optional

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
]

MASS_RTOL = 1e-12

# Up to this many entries math.fsum over a list is cheaper than the pass.
# The list's cost grows with the partials fsum keeps, which grow with the
# spread of the entries, and the plans of small solves span 90-300
# decades.  On a normalized kernel spanning 250 decades both cost about
# 29 us at 256 entries, and at 512 the list took twice as long as the
# pass; on one spanning 30 decades the list stays cheaper up to 512
# entries (2 vCPUs).
_SHORT_SUM = 256
# Entries per block of the pass: the block and its residual stay in cache.
_SUM_BLOCK = 32768
_SUM_LEVELS = 3


def _fsum(values, *others, op=None) -> float:
    """Correctly rounded sum of an array's entries, equal to ``math.fsum``.

    With ``op``, sums the entries of ``op(values, *others)`` instead, for an
    elementwise function taking an ``out=`` array and operands of one
    shape; above ``_SHORT_SUM`` entries it is applied one block at a time,
    so no array of the full size is formed.

    Two paths: at most ``_SHORT_SUM`` entries go to ``math.fsum`` as a
    list, and more to ``_blocked_sum``'s single pass over blocks of at
    most ``_SUM_BLOCK`` entries.  The pass uses error-free vector
    extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
    Part I", SISC 2008): with ``2**m >= size + 2`` and ``sigma = 2**(m +
    e)`` for a residual bounded by ``2**e``, each ``q = (sigma + r) -
    sigma`` and ``r - q`` are exact and so is any sum of the ``q``.  Each
    block extracts up to ``_SUM_LEVELS`` levels while it is in cache, each
    with the sigma of its own largest residual.  The exact total then lies
    within ``2**m * max|r|`` of the extracted parts; if ``math.fsum``
    rounds both ends of that interval to one float, that float is the
    correctly rounded total.  Non-finite entries, entries near the
    overflow threshold, zero totals and unresolved intervals fall back to
    ``math.fsum`` itself, which keeps its
    ``inf``/``nan``/``OverflowError``/``ValueError`` behaviour and the sign
    of a zero.
    """
    x = np.asarray(values, dtype=float)
    if x.size <= _SHORT_SUM:
        if op is not None:
            x = op(x, *others)
        return math.fsum(x.ravel().tolist())
    x = x.ravel()
    ys = [np.ravel(y) for y in others]
    total = _blocked_sum(x, ys, op)
    if total is None and op is not None:
        x = op(x, *ys)
    return math.fsum(x.tolist()) if total is None else total


def _settled(parts: list, mu: float, m: int) -> Optional[float]:
    """The float both ends of ``sum(parts) +- 2**m * mu`` round to, or None."""
    bound = math.ldexp(mu, m)
    low = math.fsum(parts + [-bound])
    return low if low != 0.0 and low == math.fsum(parts + [bound]) else None


def _blocked_sum(x: np.ndarray, ys: list, op) -> Optional[float]:
    """``_fsum``'s pass over x, or over ``op(x, *ys)``, one block at a
    time; None where the sum is left unresolved."""
    res = np.empty(min(x.size, _SUM_BLOCK))
    q = np.empty_like(res)
    m = (x.size + 1).bit_length()
    parts = []
    mu = 0.0
    for start in range(0, x.size, _SUM_BLOCK):
        r = x[start:start + _SUM_BLOCK]
        size = r.size
        if op is not None:
            r = op(r, *(y[start:start + _SUM_BLOCK] for y in ys), out=res[:size])
        top = max(float(r.max()), -float(r.min()))
        for _ in range(_SUM_LEVELS):
            e = m + math.frexp(top)[1]
            if not (math.isfinite(top) and e < 1000):
                return None
            # keep q clear of the subnormal range; the bound covers the rest
            if top == 0.0 or e <= -1000:
                break
            sigma = math.ldexp(1.0, e)
            qb = np.add(r, sigma, out=q[:size])
            qb -= sigma
            r = np.subtract(r, qb, out=res[:size])
            parts.append(float(qb.sum()))
            top = max(float(r.max()), -float(r.min()))
        mu = max(mu, top)
    return _settled(parts, mu, m)


def _mass(values, what: str) -> float:
    """``_fsum`` of finite entries, refusing a total that overflows."""
    try:
        total = _fsum(values)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ContractViolation(f"the mass of the {what} overflows")
    return total


class Tensor:
    """Dense order-d tensor whose modes all share the side length n and
    whose entries are all finite (others raise ContractViolation).

    The data array is copied, made C-contiguous, and frozen; operations
    return new tensors.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self._freeze(np.array(data, dtype=float, copy=True, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor":
        """``Tensor(arr)`` without the copy, for an array the library has just made."""
        self = cls.__new__(cls)
        self._freeze(np.asarray(arr, dtype=float, order="C"))
        return self

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.ndim < 1 or arr.size == 0 or arr.shape != arr.shape[:1] * arr.ndim:
            raise ValueError(
                f"a tensor needs d >= 1 modes of one side length n >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractViolation("tensor entries must be finite")
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
        return cls._adopt(np.array(flat, dtype=float).reshape((n,) * d))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.data >= 0))

    def is_probability(self) -> bool:
        return self.is_nonnegative() and abs(_fsum(self.data) - 1.0) <= MASS_RTOL

    def require_nonnegative(self, what: str = "tensor") -> None:
        if not self.is_nonnegative():
            raise ContractViolation(f"{what} must be entrywise nonnegative")

    def require_probability(self, what: str = "tensor") -> None:
        self.require_nonnegative(what)
        mass = _fsum(self.data)
        if abs(mass - 1.0) > MASS_RTOL:
            raise ContractViolation(f"{what} must have unit mass, got {mass!r}")

    def min_positive(self) -> float:
        """Smallest strictly positive entry."""
        pos = self.data[self.data > 0]
        if pos.size == 0:
            raise ContractViolation("tensor has no positive entries")
        return float(pos.min())

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
        if p.size == 0:
            raise ContractViolation(
                f"a marginal family needs d >= 1 vectors of length n >= 1, got {p.shape}")
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

    def is_probability(self) -> bool:
        return abs(self.h - 1.0) <= MASS_RTOL

    def require_probability(self) -> None:
        if not self.is_probability():
            raise ContractViolation(
                f"marginals must be probability vectors (mass 1), got mass {self.h!r}"
            )

    def __repr__(self) -> str:
        return f"MarginalFamily(d={self.d}, n={self.n}, h={self.h})"


def ones_tensor(d: int, n: int) -> Tensor:
    """The all-ones tensor J_d."""
    return Tensor._adopt(np.ones((n,) * d))


def _check_family(A: Tensor, P: MarginalFamily) -> None:
    if (P.d, P.n) != (A.d, A.n):
        raise ValueError(f"marginal family {(P.d, P.n)} does not match tensor {(A.d, A.n)}")


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


def _row_blocks(n: int, row: int) -> list:
    """Slices of a leading axis of length n, whose entries hold ``row``
    cells each, with at most ``_SUM_BLOCK`` cells a slice (one slice when
    the whole axis fits)."""
    step = max(1, _SUM_BLOCK // row)
    return [slice(start, start + step) for start in range(0, n, step)]


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
        np.add.reduce(rows, axis=1, out=out[j])
        rest = np.add.reduce(rows, axis=0)
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
    return Tensor._adopt(A.data * factor.reshape(_axis_shape(A.d, mode, A.n)))


def _outer_sum(rows) -> np.ndarray:
    """New ``(n,)*d`` array of ``0 + rows[0][i_0] + ... + rows[d-1][i_{d-1}]``, in that order."""
    out = np.zeros(())
    for row in rows:
        out = out[..., None] + row
    return out


def _scaled(data: np.ndarray, X: np.ndarray, zeros=None, mass=None) -> np.ndarray:
    """data * exp(sum_j X[j, i_j]) in one new array, exactly 0 where ``zeros``
    is set; exponents are unconstrained on zero cells and may overflow there
    harmlessly.  With ``mass``, data / mass takes the place of data, formed
    a block of leading-axis slabs at a time."""
    n = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        out = _outer_sum(X)
        np.exp(out, out=out)
        if mass is None:
            out *= data
        else:
            for rows in _row_blocks(n, data.size // n):
                out[rows] *= data[rows] / mass
    if zeros is not None:
        out[zeros] = 0.0
    return out


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
    return Tensor._adopt(_scaled(A.data, X, A.data == 0))


def inner(A: Tensor, B: Tensor) -> float:
    """Hilbert-Schmidt inner product, correctly rounded."""
    if A.data.shape != B.data.shape:
        raise ValueError(f"shape mismatch: {A.data.shape} vs {B.data.shape}")
    return _fsum(A.data, B.data, op=np.multiply)


def entropy(U: Tensor) -> float:
    """Shannon entropy of a probability tensor, with 0*log(0) = 0."""
    U.require_probability("entropy argument")
    return _entropy(U.data)


def _xlogx(x: np.ndarray, out=None) -> np.ndarray:
    """x * log(x) entrywise, with 0 * x where x <= 0."""
    if out is None:
        out = np.zeros(x.shape)
    else:
        out.fill(0.0)
    np.log(x, out=out, where=x > 0)
    out *= x
    return out


def _entropy(data: np.ndarray) -> float:
    """``entropy`` of an array already known to be a probability tensor."""
    return -_fsum(data, op=_xlogx)


def _spread(C: Tensor) -> tuple[float, float]:
    """Smallest entry of C and the spread max - min, refusing a spread
    past the float range (finite entries of both signs can have one)."""
    low = float(C.data.min())
    spread = float(C.data.max()) - low
    if not math.isfinite(spread):
        raise ContractViolation("the spread max - min of the cost overflows")
    return low, spread


def exp_neg_scaled(C: Tensor, rate: float) -> Tensor:
    """Entrywise exp(-rate * c), shifting C to min 0 before exponentiating.

    The shift is restored as a single scalar factor, so the result equals
    exp(-rate*C) while the array exponentiation stays in (0, 1].  A result
    that overflows, or underflows to 0 anywhere, raises ContractViolation.
    """
    if not rate > 0:
        raise ContractViolation("rate must be positive")
    low, _ = _spread(C)
    out = np.subtract(C.data, low)
    out *= -rate
    np.exp(out, out=out)
    if low != 0.0:
        try:
            out *= math.exp(-rate * low)
        except OverflowError:
            raise ContractViolation("exp(-rate * C) overflows") from None
    if not out.min() > 0:
        raise ContractViolation("exp(-rate * C) underflows to 0")
    return Tensor._adopt(out)


def outer(vectors) -> Tensor:
    """Tensor product of d vectors of a common length."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    n = vecs[0].shape[0]
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("all vectors must share one length")
    out = vecs[0].copy()
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return Tensor._adopt(out)


def l1_norm(A: Tensor) -> float:
    """Sum of absolute entries (== total mass for nonnegative tensors)."""
    return _fsum(A.data, op=np.abs)


def l1_distance(A: Tensor, B: Tensor) -> float:
    if A.data.shape != B.data.shape:
        raise ValueError(f"shape mismatch: {A.data.shape} vs {B.data.shape}")
    return _fsum(A.data, B.data, op=_abs_diff)


def _abs_diff(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    out = np.subtract(a, b, out=out)
    return np.abs(out, out=out)
