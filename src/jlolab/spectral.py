"""Finite-dimensional graded spectral triples.

A triple bundles a graded Hilbert space, an odd Hermitian Dirac operator,
and a list of even generators for the acting algebra.  The module builds
graded tensor products and ampliations, checks idempotents against a
triple, and computes the Fredholm index of e D e on range(e), which in
finite dimensions is the supertrace of e.

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
    _integer,
    as_matrix,
    check_hermitian,
    frob,
    matrix_from_json,
    matrix_to_json,
    parity_codes,
    parity_of,
)

__all__ = [
    "Idempotent",
    "NonIntegerIndexError",
    "NotIdempotentError",
    "NotSelfAdjointError",
    "SpectralGapWarning",
    "SpectralTripleFD",
    "ampliate",
    "commutator_d",
    "idempotent_from_json",
    "idempotent_to_json",
    "index_of_pair",
    "kernel_projection",
    "product_triple",
    "triple_from_json",
    "triple_to_json",
    "validate_idempotent",
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
        self._delta_eig = None

    @property
    def hilbert_dim(self) -> int:
        return self.space.dim

    def delta_eigensystem(self):
        """Eigensystem of the Hermitian part of Delta = D^2.  The
        Hermiticity rule is checked on D itself: the anti-Hermitian part
        of D^2 can be up to 2 ||D|| times that of D.  Raises ValueError
        when Delta overflows, so that no evaluation runs on its NaNs."""
        if self._delta_eig is None:
            check_hermitian(self.dirac)
            with np.errstate(over="ignore", invalid="ignore"):
                d = self.dirac @ self.dirac
                h = (d + d.conj().T) / 2.0
            if not np.isfinite(h).all():
                raise ValueError("Delta = D^2 overflows the float range")
            self._delta_eig = tuple(np.linalg.eigh(h))
        return self._delta_eig

    def heat(self, t: float) -> np.ndarray:
        """exp(-t Delta) through the cached eigendecomposition."""
        t = float(t)
        if t < 0:
            raise ValueError("heat time must be nonnegative")
        w, v = self.delta_eigensystem()
        return (v * np.exp(-t * w)) @ v.conj().T

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


def validate_triple(triple: SpectralTripleFD) -> None:
    """Raise unless the Dirac operator is Hermitian and odd and every
    generator is even, each to DEFAULT_TOL in operator norm, in that order
    of checks; each message gives the residual."""
    g = triple.space.gamma_diag
    d = triple.dirac
    gens = np.asarray(triple.generators).reshape(-1, *d.shape)
    stack = np.concatenate(([d - d.conj().T, g[:, None] * d * g[None, :] + d],
                            g[:, None] * gens * g[None, :] - gens))
    # the largest singular value of each residual, from the LAPACK call
    # `opnorm` makes, so the values match it bit for bit
    norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    for error, axiom, residual in (
            (NotSelfAdjointError, "Dirac hermiticity", norms[0]),
            (ParityError, "Dirac oddness", norms[1]),
            (ParityError, "generator evenness", norms[2:].max(initial=0.0))):
        if residual > DEFAULT_TOL:
            raise error(f"{axiom} residual {residual:.3g} > {DEFAULT_TOL:g}")


def commutator_d(triple: SpectralTripleFD, a) -> np.ndarray:
    """[D, a] for an even algebra-basis matrix, returned in the algebra basis."""
    rep = triple.represent(a)
    if parity_of(rep, triple.space) is not Parity.EVEN:
        raise ParityError("commutator_d expects an even algebra element")
    out = triple.dirac @ rep - rep @ triple.dirac
    return triple.unrepresent(out)


def product_triple(t1: SpectralTripleFD, t2: SpectralTripleFD) -> SpectralTripleFD:
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

    i1 = np.eye(d1, dtype=np.complex128)
    i2 = np.eye(d2, dtype=np.complex128)
    dirac = np.kron(t1.dirac, i2) + np.kron(np.diag(g1).astype(np.complex128),
                                            t2.dirac)
    dirac = dirac[np.ix_(q, q)]
    gens = tuple(np.kron(a, i2)[np.ix_(q, q)] for a in t1.generators)
    gens += tuple(np.kron(i1, b)[np.ix_(q, q)] for b in t2.generators)

    qk = (t1._bm()[:, None] * d2 + t2._bm()[None, :]).ravel()
    bm = qk[q]
    label = f"({t1.label})x({t2.label})" if (t1.label or t2.label) else ""
    return SpectralTripleFD(space, dirac, gens, basis_map=bm, label=label)


def kernel_projection(h) -> np.ndarray:
    """Orthogonal projection onto the near-kernel of a Hermitian matrix
    (its Hermitian part, under the rule of linalg.check_hermitian).

    Eigenvalues with |w| <= eps count as kernel, where the cutoff eps
    scales with the spectral radius.  Eigenvalues in [eps, 10 eps) trigger
    a SpectralGapWarning because the rank is then sensitive to the cutoff.
    """
    a = check_hermitian(h)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    eps = max(1e-9 * scale, 1e-12)
    aw = np.abs(w)
    if np.any((aw >= eps) & (aw < 10 * eps)):
        warnings.warn(
            f"eigenvalue within a decade of the kernel cutoff {eps:.3g}",
            SpectralGapWarning, stacklevel=2)
    cols = v[:, aw <= eps]
    return cols @ cols.conj().T


def _rounded_index(s: complex, quantity: str) -> int:
    """The integer s stands for; NonIntegerIndexError, naming the quantity
    s is, unless s sits within INDEX_INTEGER_TOL of it."""
    r = round(s.real)
    if abs(s - r) > INDEX_INTEGER_TOL:
        raise NonIntegerIndexError(
            f"{quantity} {s:.6g} is not within {INDEX_INTEGER_TOL} "
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


def ampliate(triple: SpectralTripleFD, k: int) -> SpectralTripleFD:
    """Tensor with the trivially graded C^k: D (x) 1, generators g (x) 1."""
    if k == 1:
        return triple
    if k < 1:
        raise ValueError("ampliation factor must be >= 1")
    ik = np.eye(k, dtype=np.complex128)
    space = GradedSpace(triple.space.dim_even * k, triple.space.dim_odd * k)
    dirac = np.kron(triple.dirac, ik)
    gens = tuple(np.kron(g, ik) for g in triple.generators)
    bm = (triple._bm()[:, None] * k + np.arange(k)[None, :]).ravel()
    return SpectralTripleFD(space, dirac, gens, basis_map=bm,
                            label=triple.label and f"{triple.label}(x){k}")


def validate_idempotent(triple: SpectralTripleFD, idem: Idempotent):
    """The checked pair every index route takes, as (amp, e, basis): the
    triple ampliated by idem.blocks, idem as its operator e, and orthonormal
    columns spanning range(e).  A ValueError unless e fits amp and is
    self-adjoint, idempotent (to IDEMPOTENT_TOL) and even.

    One eigendecomposition h = v diag(w) v^* of the Hermitian part of e
    gives all of it.  With k = e - h, sigma = |k|_F and nu = max |w|,
    |e - e^*| <= 2 sigma and |e^2 - e| <= max |w^2 - w| + (2 nu + 1) sigma
    + sigma^2 in operator norm, and nu <= |e|; so each check below is at
    least as strict as the operator-norm check it bounds.
    """
    amp = ampliate(triple, idem.blocks)
    if idem.matrix.shape[0] != amp.hilbert_dim:
        raise ValueError("idempotent size disagrees with the ampliated triple")
    e = amp.represent(idem.matrix)
    w, v = np.linalg.eigh(0.5 * (e + e.conj().T))
    sigma = 0.5 * frob(e - e.conj().T)
    nu = float(np.max(np.abs(w)))
    tol = IDEMPOTENT_TOL * max(1.0, nu)
    if 2 * sigma > tol:
        raise NotSelfAdjointError("idempotent is not self-adjoint within tolerance")
    if np.max(np.abs(w * w - w)) + (2 * nu + 1) * sigma + sigma ** 2 > tol:
        raise NotIdempotentError("matrix is not idempotent within tolerance")
    if parity_codes(e, amp.space) != 0:
        raise ParityError("idempotent must be even with respect to the grading")
    return amp, e, v[:, w > 0.5]


def index_of_pair(amp: SpectralTripleFD, basis) -> int:
    """Fredholm index of e D e from eH+ to eH-, for a pair checked by
    validate_idempotent: the rounded tr(B^* gamma B) = tr(gamma e) with
    B = basis.  In finite dimensions rank-nullity makes that index
    dim eH+ - dim eH- for every odd D.  The trace is the same for every
    orthonormal basis of the range, and it is 0 when e has rank 0."""
    weights = (basis.real ** 2 + basis.imag ** 2).sum(axis=1)
    return _rounded_index(amp.space.gamma_diag @ weights, "supertrace of e")


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
        space = GradedSpace(_integer(obj["dim_even"], "dim_even"),
                            _integer(obj["dim_odd"], "dim_odd"))
        dirac = matrix_from_json(obj["dirac"])
        gens = [matrix_from_json(g) for g in obj["generators"]]
        bm = obj.get("basis_map")
        if bm is not None:
            bm = [_integer(i, "basis_map entries") for i in bm]
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
                          blocks=_integer(obj.get("blocks", 1), "blocks"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed idempotent object: {exc}") from exc
