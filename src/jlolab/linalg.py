"""Dense complex linear algebra on Z/2-graded spaces.

Everything is plain numpy in double precision.  Helpers never mutate their
arguments; returned arrays are fresh.  The grading convention throughout is
diag(+1, ..., +1, -1, ..., -1) with the even block first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "GradedSpace",
    "NonHermitianError",
    "Parity",
    "ParityError",
    "as_matrix",
    "frob",
    "hermitian_eigen",
    "matrix_from_json",
    "matrix_to_json",
    "opnorm",
    "parity_codes",
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


def frob(m) -> float:
    return float(np.linalg.norm(m))


def opnorm(m) -> float:
    """Operator (largest singular value) norm."""
    return float(np.linalg.norm(as_matrix(m), 2))


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded Hilbert space C^{p|q}, even vectors first."""

    dim_even: int
    dim_odd: int

    def __post_init__(self):
        if self.dim_even < 0 or self.dim_odd < 0:
            raise ValueError("dimensions must be non-negative")
        if self.dim_even + self.dim_odd == 0:
            raise ValueError("total dimension must be positive")

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd

    @cached_property
    def gamma_diag(self) -> np.ndarray:
        g = np.ones(self.dim)
        g[self.dim_even:] = -1.0
        g.setflags(write=False)
        return g

    def supertrace(self, x) -> complex:
        return supertrace(x, self.gamma_diag)


def _gamma_diag_of(space_or_gamma) -> np.ndarray:
    if isinstance(space_or_gamma, GradedSpace):
        return space_or_gamma.gamma_diag
    return np.real(np.asarray(space_or_gamma))


def supertrace(x, gamma) -> complex:
    """trace(gamma @ x) for a grading given as a GradedSpace or its
    diagonal."""
    a = as_matrix(x)
    g = _gamma_diag_of(gamma)
    if g.size != a.shape[0]:
        raise ValueError("grading and matrix dimensions disagree")
    return complex(np.sum(g * np.diagonal(a)))


def parity_codes(stack, space_or_gamma) -> np.ndarray:
    """Parity codes of a (..., d, d) stack for a grading g (a GradedSpace or its
    diagonal): 0 even, 1 odd, 2 mixed.  a is even when |g a g - a|, twice its
    odd blocks' norm, is <= PARITY_TOL max(1, |a|); odd likewise for g a g + a."""
    a = np.asarray(stack, dtype=np.complex128)
    g = _gamma_diag_of(space_or_gamma)
    if a.shape[-2:] != (g.size, g.size):
        raise ValueError("grading and matrix dimensions disagree")
    split = np.not_equal.outer(g, g).ravel()
    sq = np.abs(a.reshape(*a.shape[:-2], g.size ** 2)) ** 2
    odd, even = sq @ split, sq @ ~split
    tol = (PARITY_TOL / 2) ** 2 * np.maximum(1.0, odd + even)
    return (odd > tol) * (1 + (even > tol))


def parity_of(m, space_or_gamma) -> Parity:
    """Classify one matrix as even, odd, or mixed (see parity_codes)."""
    return tuple(Parity)[parity_codes(as_matrix(m), space_or_gamma)]


def hermitian_eigen(m, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (w, u) with m reconstructed by u @ diag(w) @ u^*.  Raises
    NonHermitianError when the anti-Hermitian part exceeds tol relative to
    the matrix norm.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if frob(a - a.conj().T) > tol * frob(a):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, u


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
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise ValueError("matrix data length disagrees with declared shape")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entries: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
