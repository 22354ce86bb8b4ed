"""Finite-dimensional graded spectral triples.

A triple bundles a graded Hilbert space, an odd Hermitian Dirac operator,
and a list of even generators for the acting algebra.  The module builds
graded tensor products, ampliations, and compressions by idempotents, and
computes the supersymmetric index through the kernel projection.

Operators live in two bases.  The canonical basis lists even vectors
before odd ones, so the grading is diag(+1, ..., -1, ...).  The algebra
basis is whatever ordering chain factors are written in; for triples
assembled out of tensor products the two differ by the recorded
permutation basis_map, and represent / unrepresent convert between them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    GradedSpace,
    Parity,
    ParityError,
    _freeze,
    as_matrix,
    hermitian_eigen,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    parity_of,
    supertrace,
)

__all__ = [
    "Idempotent",
    "NonIntegerIndexError",
    "NotIdempotentError",
    "NotSelfAdjointError",
    "SpectralGapWarning",
    "SpectralTripleFD",
    "TripleDiagnostics",
    "ampliate",
    "commutator_d",
    "compress_by_idempotent",
    "diagnose",
    "idempotent_from_json",
    "idempotent_to_json",
    "index_of_pair",
    "kernel_projection",
    "mckean_singer_index",
    "product_triple",
    "triple_from_json",
    "triple_to_json",
    "validate_triple",
]

INDEX_INTEGER_TOL = 0.01
IDEMPOTENT_TOL = 1e-8


class NotIdempotentError(ValueError):
    """e @ e differs from e beyond tolerance."""


class NotSelfAdjointError(ValueError):
    """A matrix required to be self-adjoint is not."""


class NonIntegerIndexError(ArithmeticError):
    """A quantity that must be an integer landed too far from one."""


class SpectralGapWarning(RuntimeWarning):
    """Eigenvalues sit near the kernel cutoff; the index may be unstable."""


class SpectralTripleFD:
    """Graded space + odd Hermitian Dirac + even algebra generators.

    The Laplacian and its eigensystem are cached on the instance, so treat
    triples as immutable; heat operators are recomputed from the cached
    eigensystem on every call.
    """

    def __init__(self, space: GradedSpace, dirac, generators,
                 basis_map=None, label: str = ""):
        self.space = space
        self.dirac = _freeze(dirac)
        self.generators = tuple(_freeze(g) for g in generators)
        self.label = label
        d = space.dim
        if self.dirac.shape != (d, d):
            raise ValueError("Dirac shape disagrees with the graded space")
        for g in self.generators:
            if g.shape != (d, d):
                raise ValueError("generator shape disagrees with the graded space")
        if basis_map is None:
            self.basis_map = None
        else:
            bm = np.asarray(basis_map, dtype=np.intp)
            if bm.shape != (d,) or not np.array_equal(np.sort(bm), np.arange(d)):
                raise ValueError("basis_map must be a permutation of 0..dim-1")
            bm = bm.copy()
            bm.setflags(write=False)
            self.basis_map = bm
        self._delta = None
        self._delta_eig = None

    @property
    def hilbert_dim(self) -> int:
        return self.space.dim

    @property
    def delta(self) -> np.ndarray:
        if self._delta is None:
            self._delta = self.dirac @ self.dirac
        return self._delta

    def delta_eigensystem(self):
        if self._delta_eig is None:
            self._delta_eig = hermitian_eigen(self.delta)
        return self._delta_eig

    def heat(self, t: float) -> np.ndarray:
        """exp(-t Delta) through the cached eigendecomposition."""
        t = float(t)
        if t < 0:
            raise ValueError("heat time must be nonnegative")
        w, v = self.delta_eigensystem()
        return (v * np.exp(-t * w)) @ v.conj().T

    def supertrace(self, x) -> complex:
        return supertrace(x, self.space.gamma_diag)

    def _bm(self) -> np.ndarray:
        if self.basis_map is None:
            return np.arange(self.hilbert_dim)
        return self.basis_map

    def represent(self, a) -> np.ndarray:
        """Algebra-basis matrix -> canonical-basis operator."""
        a = as_matrix(a)
        if self.basis_map is None:
            return a
        bm = self.basis_map
        return a[np.ix_(bm, bm)]

    def unrepresent(self, x) -> np.ndarray:
        """Canonical-basis operator -> algebra-basis matrix."""
        x = as_matrix(x)
        if self.basis_map is None:
            return x
        inv = np.empty_like(self.basis_map)
        inv[self.basis_map] = np.arange(self.hilbert_dim)
        return x[np.ix_(inv, inv)]

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (f"SpectralTripleFD(dim={self.space.dim_even}+{self.space.dim_odd},"
                f" gens={len(self.generators)}{tag})")


@dataclass(frozen=True)
class TripleDiagnostics:
    """Absolute operator-norm residuals of the structure axioms."""

    dirac_hermiticity: float
    dirac_oddness: float
    generator_evenness: float


def diagnose(triple: SpectralTripleFD) -> TripleDiagnostics:
    g = triple.space.gamma_diag
    d = triple.dirac
    herm = opnorm(d - d.conj().T)
    odd = opnorm(g[:, None] * d * g[None, :] + d)
    even = 0.0
    for a in triple.generators:
        even = max(even, opnorm(g[:, None] * a * g[None, :] - a))
    return TripleDiagnostics(herm, odd, even)


def validate_triple(triple: SpectralTripleFD) -> TripleDiagnostics:
    """Raise unless the Dirac operator is Hermitian and odd and every
    generator is even, each to DEFAULT_TOL in operator norm."""
    diag = diagnose(triple)
    if diag.dirac_hermiticity > DEFAULT_TOL:
        raise NotSelfAdjointError(
            f"Dirac hermiticity residual {diag.dirac_hermiticity:.3g}"
            f" > {DEFAULT_TOL:g}")
    if diag.dirac_oddness > DEFAULT_TOL:
        raise ParityError(
            f"Dirac oddness residual {diag.dirac_oddness:.3g}"
            f" > {DEFAULT_TOL:g}")
    if diag.generator_evenness > DEFAULT_TOL:
        raise ParityError(
            f"generator evenness residual {diag.generator_evenness:.3g}"
            f" > {DEFAULT_TOL:g}")
    return diag


def commutator_d(triple: SpectralTripleFD, a) -> np.ndarray:
    """[D, a] for an even algebra-basis matrix, returned in the algebra basis."""
    rep = triple.represent(a)
    if parity_of(rep, triple.space) is not Parity.EVEN:
        raise ParityError("commutator_d expects an even algebra element")
    out = triple.dirac @ rep - rep @ triple.dirac
    return triple.unrepresent(out)


def product_triple(t1: SpectralTripleFD, t2: SpectralTripleFD,
                   label: str = "") -> SpectralTripleFD:
    """Graded tensor product with Dirac D1 (x) 1 + gamma1 (x) D2.

    The raw Kronecker basis interleaves parities, so vectors are re-sorted
    even-first; the permutation is folded into the recorded basis_map so
    that algebra-basis factors of the form kron(a, b) represent correctly.
    """
    d1, d2 = t1.hilbert_dim, t2.hilbert_dim
    g1 = t1.space.gamma_diag
    g2 = t2.space.gamma_diag
    gk = np.kron(g1, g2)
    q = np.argsort(gk < 0, kind="stable")
    ne = int(np.count_nonzero(gk > 0))
    space = GradedSpace(ne, d1 * d2 - ne)
    if not np.array_equal(gk[q], space.gamma_diag):
        raise AssertionError("parity sort failed to produce the canonical grading")

    i1 = np.eye(d1, dtype=np.complex128)
    i2 = np.eye(d2, dtype=np.complex128)
    dirac = np.kron(t1.dirac, i2) + np.kron(np.diag(g1).astype(np.complex128),
                                            t2.dirac)
    dirac = dirac[np.ix_(q, q)]
    gens = tuple(np.kron(a, i2)[np.ix_(q, q)] for a in t1.generators)
    gens += tuple(np.kron(i1, b)[np.ix_(q, q)] for b in t2.generators)

    qk = (t1._bm()[:, None] * d2 + t2._bm()[None, :]).ravel()
    bm = qk[q]
    if not label:
        label = f"({t1.label})x({t2.label})" if (t1.label or t2.label) else ""
    return SpectralTripleFD(space, dirac, gens, basis_map=bm, label=label)


def kernel_projection(h) -> np.ndarray:
    """Orthogonal projection onto the near-kernel of a Hermitian matrix.

    Eigenvalues with |w| <= eps count as kernel, where the cutoff eps
    scales with the spectral radius.  Eigenvalues in [eps, 10 eps) trigger
    a SpectralGapWarning because the rank is then sensitive to the cutoff.
    """
    w, v = hermitian_eigen(h)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    eps = max(1e-9 * scale, 1e-12)
    aw = np.abs(w)
    if np.any((aw >= eps) & (aw < 10 * eps)):
        warnings.warn(
            f"eigenvalue within a decade of the kernel cutoff {eps:.3g}",
            SpectralGapWarning, stacklevel=2)
    cols = v[:, aw <= eps]
    return cols @ cols.conj().T


def mckean_singer_index(triple: SpectralTripleFD) -> int:
    """Supertrace of the kernel projection of the Dirac operator."""
    p = kernel_projection(triple.dirac)
    s = triple.supertrace(p)
    r = round(s.real)
    if abs(s - r) > INDEX_INTEGER_TOL:
        raise NonIntegerIndexError(
            f"kernel supertrace {s:.6g} is not within {INDEX_INTEGER_TOL} "
            "of an integer")
    return int(r)


@dataclass(frozen=True)
class Idempotent:
    """Idempotent over the algebra, possibly with matrix coefficients.

    matrix is (d * blocks) square in the algebra-Kronecker order
    A (x) M_blocks; blocks == 1 means an idempotent in the algebra itself.
    """

    matrix: np.ndarray
    blocks: int = 1

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("idempotent matrix must be square")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if m.shape[0] % self.blocks != 0:
            raise ValueError("matrix size is not divisible by blocks")
        object.__setattr__(self, "matrix", m)

    @property
    def base_dim(self) -> int:
        return self.matrix.shape[0] // self.blocks


def ampliate(triple: SpectralTripleFD, k: int) -> SpectralTripleFD:
    """Tensor with the trivially graded C^k: D (x) 1, generators g (x) 1."""
    if k == 1:
        return triple
    if k < 1:
        raise ValueError("ampliation factor must be >= 1")
    d = triple.hilbert_dim
    ik = np.eye(k, dtype=np.complex128)
    space = GradedSpace(triple.space.dim_even * k, triple.space.dim_odd * k)
    dirac = np.kron(triple.dirac, ik)
    gens = tuple(np.kron(g, ik) for g in triple.generators)
    bm = (triple._bm()[:, None] * k + np.arange(k)[None, :]).ravel()
    return SpectralTripleFD(space, dirac, gens, basis_map=bm,
                            label=triple.label and f"{triple.label}(x){k}")


def compress_by_idempotent(triple: SpectralTripleFD,
                           idem: Idempotent) -> SpectralTripleFD:
    """Restrict e D e to the range of a self-adjoint even idempotent e.

    The range basis is assembled per parity block, so the compressed triple
    inherits a clean grading; its Dirac is the compressed operator and its
    generators are the compressed images of the ampliated originals.
    """
    amp = ampliate(triple, idem.blocks)
    if idem.matrix.shape[0] != amp.hilbert_dim:
        raise ValueError("idempotent size disagrees with the ampliated triple")
    e = amp.represent(idem.matrix)
    scale = max(1.0, opnorm(e))
    if opnorm(e - e.conj().T) > IDEMPOTENT_TOL * scale:
        raise NotSelfAdjointError("idempotent is not self-adjoint within tolerance")
    if opnorm(e @ e - e) > IDEMPOTENT_TOL * scale:
        raise NotIdempotentError("matrix is not idempotent within tolerance")
    if parity_of(e, amp.space) is not Parity.EVEN:
        raise ParityError("idempotent must be even with respect to the grading")

    de = amp.space.dim_even
    we, ve = hermitian_eigen(e[:de, :de], tol=10 * IDEMPOTENT_TOL)
    wo, vo = hermitian_eigen(e[de:, de:], tol=10 * IDEMPOTENT_TOL)
    re = int(np.count_nonzero(we > 0.5))
    ro = int(np.count_nonzero(wo > 0.5))
    v = np.zeros((amp.hilbert_dim, re + ro), dtype=np.complex128)
    v[:de, :re] = ve[:, we > 0.5]
    v[de:, re:] = vo[:, wo > 0.5]

    space = GradedSpace(re, ro)
    dirac = v.conj().T @ amp.dirac @ v
    dirac = 0.5 * (dirac + dirac.conj().T)
    gens = tuple(v.conj().T @ g @ v for g in amp.generators)
    return SpectralTripleFD(space, dirac, gens,
                            label=triple.label and f"e({triple.label})e")


def index_of_pair(triple: SpectralTripleFD, idem: Idempotent) -> int:
    """Fredholm index of the idempotent-compressed Dirac operator."""
    return mckean_singer_index(compress_by_idempotent(triple, idem))


def triple_to_json(triple: SpectralTripleFD) -> dict:
    return {
        "dim_even": triple.space.dim_even,
        "dim_odd": triple.space.dim_odd,
        "dirac": matrix_to_json(triple.dirac),
        "generators": [matrix_to_json(g) for g in triple.generators],
        "basis_map": None if triple.basis_map is None
                     else [int(i) for i in triple.basis_map],
        "label": triple.label,
    }


def triple_from_json(obj) -> SpectralTripleFD:
    """Rebuild a triple from its wire form and check its structure with
    validate_triple; every rejection is a ValueError."""
    try:
        space = GradedSpace(int(obj["dim_even"]), int(obj["dim_odd"]))
        dirac = matrix_from_json(obj["dirac"])
        gens = [matrix_from_json(g) for g in obj["generators"]]
        bm = obj.get("basis_map")
        label = str(obj.get("label", ""))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed triple object: {exc}") from exc
    triple = SpectralTripleFD(space, dirac, gens, basis_map=bm, label=label)
    validate_triple(triple)
    return triple


def idempotent_to_json(idem: Idempotent) -> dict:
    return {"matrix": matrix_to_json(idem.matrix), "blocks": idem.blocks}


def idempotent_from_json(obj) -> Idempotent:
    try:
        return Idempotent(matrix_from_json(obj["matrix"]),
                          blocks=int(obj.get("blocks", 1)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed idempotent object: {exc}") from exc
