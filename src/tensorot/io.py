"""JSON file formats for tensors and marginal families.

Tensor files look like ``{"d": 2, "n": 2, "data": [...]}`` with the data
row-major (first index slowest); marginal files look like
``{"p": [[...], [...]]}``.  ``d`` and ``n`` are JSON integers and every
entry a JSON number; other types raise :class:`FileFormatError`.  Values
of the right type that break a contract of ``Tensor`` or
``MarginalFamily`` (a NaN, a weight that is not positive, unequal masses)
raise their ``ContractViolation``.  Floats
are written with Python's shortest round-trip representation, so
save/load is bit-stable.
"""

from __future__ import annotations

import json

from .tensor import MarginalFamily, Tensor

__all__ = ["FileFormatError", "load_tensor", "save_tensor", "load_marginals", "save_marginals"]


class FileFormatError(ValueError):
    """A data file is missing a field or holds a malformed value."""


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return obj


def _is_numbers(values) -> bool:
    """True for a list of JSON numbers: ints and floats, no bools or strings."""
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def load_tensor(path) -> Tensor:
    obj = _load_json(path)
    for field in ("d", "n", "data"):
        if field not in obj:
            raise FileFormatError(f"{path}: missing field '{field}'")
    d, n = obj["d"], obj["n"]
    if type(d) is not int or type(n) is not int:
        raise FileFormatError(f"{path}: fields 'd' and 'n' must be integers")
    if d < 1 or n < 1:
        raise FileFormatError(f"{path}: fields 'd' and 'n' must be positive")
    if not _is_numbers(obj["data"]):
        raise FileFormatError(f"{path}: field 'data' must be a flat list of numbers")
    try:
        return Tensor.from_flat(d, n, obj["data"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: field 'data' is malformed ({exc})") from exc


def save_tensor(A: Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": A.d, "n": A.n, "data": A.data.ravel().tolist()}, fh)
        fh.write("\n")


def load_marginals(path) -> MarginalFamily:
    obj = _load_json(path)
    if "p" not in obj:
        raise FileFormatError(f"{path}: missing field 'p'")
    p = obj["p"]  # one vector, or a list of them
    if not (_is_numbers(p) or isinstance(p, list) and all(map(_is_numbers, p))):
        raise FileFormatError(f"{path}: field 'p' must hold lists of numbers")
    try:
        return MarginalFamily(p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: field 'p' is malformed ({exc})") from exc


def save_marginals(P: MarginalFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": P.p.tolist()}, fh)
        fh.write("\n")
