"""Dense complex linear algebra on Z/2-graded spaces.

Everything is plain numpy in double precision.  Helpers never mutate their
arguments; returned arrays are fresh.  The grading convention throughout is
diag(+1, ..., +1, -1, ..., -1) with the even block first.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "GradedSpace",
    "NonHermitianError",
    "Parity",
    "ParityError",
    "frob",
    "matrix_from_json",
    "matrix_to_json",
    "opnorm",
    "parity_of",
    "supertrace",
]

DEFAULT_TOL = 1e-10
PARITY_TOL = 1e-12


class NonHermitianError(ValueError):
    """The operation requires a Hermitian matrix and the input is not one."""


class ParityError(ValueError):
    """A matrix fails a required evenness or oddness constraint."""


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def _freeze(m) -> np.ndarray:
    """Read-only complex128 matrix: one that is already frozen (read-only,
    owning its data) is shared, anything else is copied."""
    if (isinstance(m, np.ndarray) and m.dtype == np.complex128
            and m.ndim == 2 and not m.flags.writeable and m.flags.owndata):
        return m
    a = as_matrix(m).copy()
    a.setflags(write=False)
    return a


def _integer(value, what: str) -> int:
    """value as an int; bools and non-integral values are a ValueError."""
    if type(value) is int:  # skips the numbers.Integral check, about 1 us
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer")
    return int(value)


def _kron(a, b):
    """Kronecker products of two stacks of square matrices (one broadcasts):
    the entries np.kron computes, without its per-call overhead."""
    m, n = a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
        -1, m * n, m * n)


def frob(m) -> float:
    return float(np.linalg.norm(m))


def opnorm(m) -> float:
    """Operator (largest singular value) norm."""
    return float(np.linalg.norm(as_matrix(m), 2))


class _Grading(NamedTuple):
    """The read-only constants of the grading of C^{p|q}, shared by every
    GradedSpace of those dimensions (see `_grading`).

    gamma (d,) is diag(+1, ..., -1, ...).  parity_weights (d^2, 2) holds
    the 0/1 masks of the odd-block and the even-block entries of a
    flattened d x d matrix, as columns.  rows and at are the string
    kernel's layout of vectors in two halves of m = max(p, q) places, half
    j holding the vectors of parity j, then padding: rows (2, m) is the
    vector at each place, a vector of the other half at a padded place
    (where the kernel only ever scales zeros), and at (d,) is each
    vector's place in the flattened (2 m,) layout."""

    gamma: np.ndarray
    parity_weights: np.ndarray
    rows: np.ndarray
    at: np.ndarray


# bounded: one entry per parity split (dim_even, dim_odd) in use
@lru_cache(maxsize=64)
def _grading(dim_even: int, dim_odd: int) -> _Grading:
    d, m = dim_even + dim_odd, max(dim_even, dim_odd)
    gamma = np.ones(d)
    gamma[dim_even:] = -1.0
    split = np.not_equal.outer(gamma, gamma).ravel()
    out = _Grading(
        gamma, np.stack([split, ~split], axis=1).astype(float),
        np.minimum(np.add.outer((0, dim_even), np.arange(m)), d - 1),
        np.concatenate([np.arange(dim_even), m + np.arange(dim_odd)]))
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded Hilbert space C^{p|q}, even vectors first.
    Each dimension must be an integer (see _integer) and is stored as int.
    Its grading's constants come from `_grading`, so equal spaces share
    them."""

    dim_even: int
    dim_odd: int

    def __post_init__(self):
        for name in ("dim_even", "dim_odd"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.dim_even < 0 or self.dim_odd < 0:
            raise ValueError("dimensions must be non-negative")
        if self.dim_even + self.dim_odd == 0:
            raise ValueError("total dimension must be positive")

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd

    @cached_property
    def _constants(self) -> _Grading:
        return _grading(self.dim_even, self.dim_odd)

    @property
    def gamma_diag(self) -> np.ndarray:
        return self._constants.gamma

    @property
    def _parity_weights(self) -> np.ndarray:
        return self._constants.parity_weights


def supertrace(x, space: GradedSpace) -> complex:
    """trace(gamma @ x) for the grading gamma of space."""
    a = as_matrix(x)
    g = space.gamma_diag
    if g.size != a.shape[0]:
        raise ValueError("grading and matrix dimensions disagree")
    return complex(np.sum(g * np.diagonal(a)))


def parity_codes(stack, space: GradedSpace) -> np.ndarray:
    """Parity codes of a (..., d, d) stack for the grading g of space: 0
    even, 1 odd, 2 mixed.  a is even when |g a g - a|, twice its odd
    blocks' norm, is <= PARITY_TOL max(1, |a|) (NaN is not); odd likewise
    for g a g + a.  Each a and its 1 are scaled by 2^-k, k > 0 the binary
    exponent of its largest part: exact, and the squares stay finite."""
    a = np.asarray(stack, dtype=np.complex128)
    g = space.gamma_diag
    if a.shape[-2:] != (g.size, g.size):
        raise ValueError("grading and matrix dimensions disagree")
    a = a.reshape(*a.shape[:-2], g.size ** 2)
    _, k = np.frexp(np.maximum(abs(a.real), abs(a.imag)).max(-1, initial=0))
    scale = np.ldexp(1.0, -np.maximum(k, 0))[..., None]
    sq = np.abs(a * scale) ** 2
    parts = sq @ space._parity_weights
    odd, even = parts[..., 0], parts[..., 1]
    tol = (PARITY_TOL / 2) ** 2 * np.maximum(scale[..., 0] ** 2, odd + even)
    return ~(odd <= tol) * (1 + ~(even <= tol))


def parity_of(m, space: GradedSpace) -> Parity:
    """Classify one matrix as even, odd, or mixed (see parity_codes)."""
    return tuple(Parity)[parity_codes(as_matrix(m), space)]


def check_hermitian(m) -> np.ndarray:
    """m as a square matrix, or NonHermitianError unless
    opnorm(m - m^*) <= DEFAULT_TOL * max(1, opnorm(m)).

    This is the one Hermiticity rule of the package: up to norm 1 it is the
    absolute residual validate_triple allows a Dirac operator, above it the
    same bound relative to the norm.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    k = a - a.conj().T
    # frob bounds opnorm from above: the SVDs run only past DEFAULT_TOL
    if frob(k) > DEFAULT_TOL and \
            opnorm(k) > DEFAULT_TOL * max(1.0, opnorm(a)):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return a


def matrix_to_json(m) -> dict:
    """Wire format: row-major list of [re, im] pairs plus explicit shape."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = (_integer(obj[k], k) for k in ("rows", "cols"))
        data = obj["data"]
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError("matrix data length disagrees with declared shape")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    try:
        if any(isinstance(re, bool) or isinstance(im, bool) for re, im in data):
            raise ValueError("entries must be numbers, not booleans")
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
