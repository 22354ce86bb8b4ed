"""Finite-dimensional graded spectral triples.

A triple bundles a graded Hilbert space, an odd Hermitian Dirac operator,
and a list of even generators for the acting algebra.  The module builds
graded tensor products, ampliation by M_k among them (the product with
the flat, trivially graded C^{k|0}), checks idempotents against a triple,
and computes the Fredholm index of e D e on range(e), which in finite
dimensions is the supertrace of e.

Operators live in two bases.  The canonical basis lists even vectors
before odd ones, so the grading is diag(+1, ..., -1, ...).  The algebra
basis is whatever ordering chain factors are written in.  Every triple
records the permutation basis_map between them (canonical vector i is
algebra vector basis_map[i]; the identity unless given), and represent /
unrepresent convert (..., d, d) stacks between the bases by one gather.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    GradedSpace,
    ParityError,
    _freeze,
    _integer,
    _kron,
    check_hermitian,
    frob,
    matrix_from_json,
    matrix_to_json,
    parity_codes,
    supertrace,
)

__all__ = [
    "Idempotent",
    "NonIntegerIndexError",
    "NotIdempotentError",
    "NotSelfAdjointError",
    "SpectralGapWarning",
    "SpectralTripleFD",
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
        bm = [_integer(i, "basis_map entries")
              for i in (range(d) if basis_map is None else basis_map)]
        if sorted(bm) != list(range(d)):
            raise ValueError("basis_map must be a permutation of 0..dim-1")
        self.basis_map = np.array(bm, dtype=np.intp)
        self.basis_map.setflags(write=False)
        self._delta_eig = None

    @property
    def hilbert_dim(self) -> int:
        return self.space.dim

    def delta_eigensystem(self):
        """Eigensystem (w, u) of the Hermitian part of Delta = D^2, taken
        per parity block: eigh of the even block, then of the odd block, so
        w lists the even block's eigenvalues (each block's ascending) before
        the odd block's, and u is block diagonal with every eigenvector of
        one parity.  The blocks this drops, D_odd E + E D_odd for D's even
        part E, are at most 2 ||D|| |E| in norm, and D must be odd by
        validate_triple's rule, |g D g + D| = 2 |E| <= DEFAULT_TOL, or a
        ParityError is raised.  The Hermiticity rule is checked on D
        itself: the anti-Hermitian part of D^2 can be up to 2 ||D|| times
        that of D.  Raises ValueError when Delta overflows, so that no
        evaluation runs on its NaNs."""
        if self._delta_eig is None:
            check_hermitian(self.dirac)
            with np.errstate(over="ignore", invalid="ignore"):
                d = self.dirac @ self.dirac
                h = (d + d.conj().T) / 2.0
            if not np.isfinite(h).all():
                raise ValueError("Delta = D^2 overflows the float range")
            # D is finite here, since D^2 is; frob bounds the operator norm
            # from above, so the SVD runs only past DEFAULT_TOL
            g = self.space.gamma_diag
            even = g[:, None] * self.dirac * g + self.dirac
            if frob(even) > DEFAULT_TOL:
                _refuse(ParityError, "Dirac oddness",
                        np.linalg.svd(even, compute_uv=False)[0])
            de = self.space.dim_even
            w = np.empty(self.hilbert_dim)
            u = np.zeros_like(h)
            for block in (slice(None, de), slice(de, None)):
                w[block], u[block, block] = np.linalg.eigh(h[block, block])
            self._delta_eig = (w, u)
        return self._delta_eig

    def heat(self, t: float) -> np.ndarray:
        """exp(-t Delta) through the cached eigendecomposition."""
        t = float(t)
        if t < 0:
            raise ValueError("heat time must be nonnegative")
        w, v = self.delta_eigensystem()
        return (v * np.exp(-t * w)) @ v.conj().T

    def _gather(self, a, order) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape[-2:] != (self.hilbert_dim,) * 2:
            raise ValueError("factor shape disagrees with the Hilbert space")
        return a.take(order, -1).take(order, -2)

    def represent(self, a) -> np.ndarray:
        """Algebra-basis (..., d, d) stack -> canonical-basis operators."""
        return self._gather(a, self.basis_map)

    def unrepresent(self, x) -> np.ndarray:
        """Canonical-basis (..., d, d) stack -> algebra-basis matrices."""
        return self._gather(x, np.argsort(self.basis_map))

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
    with np.errstate(over="ignore"):  # an overflowed residual's norm is NaN
        stack = np.concatenate(([d - d.conj().T, g[:, None] * d * g + d],
                                g[:, None] * gens * g - gens))
    # the largest singular value of each residual, from the LAPACK call
    # `opnorm` makes, so the values match it bit for bit
    norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    for error, axiom, residual in (
            (NotSelfAdjointError, "Dirac hermiticity", norms[0]),
            (ParityError, "Dirac oddness", norms[1]),
            (ParityError, "generator evenness", norms[2:].max(initial=0.0))):
        _refuse(error, axiom, residual)


def _refuse(error, axiom: str, residual) -> None:
    """Raise error, naming the axiom and its residual, unless the residual
    is at most DEFAULT_TOL; NaN is refused."""
    if not residual <= DEFAULT_TOL:
        raise error(f"{axiom} residual {residual:.3g} > {DEFAULT_TOL:g}")


def commutator_d(triple: SpectralTripleFD, a) -> np.ndarray:
    """[D, a] for a (..., d, d) stack of even algebra-basis matrices."""
    rep = triple.represent(a)
    if parity_codes(rep, triple.space).any():
        raise ParityError("commutator_d expects an even algebra element")
    return triple.unrepresent(triple.dirac @ rep - rep @ triple.dirac)


def product_triple(t1: SpectralTripleFD, t2: SpectralTripleFD) -> SpectralTripleFD:
    """Graded tensor product with Dirac D1 (x) 1 + gamma1 (x) D2.

    The raw Kronecker basis interleaves parities, so vectors are re-sorted
    even-first; the permutation is folded into the recorded basis_map so
    that algebra-basis factors of the form kron(a, b) represent correctly.
    """
    d1, d2 = t1.hilbert_dim, t2.hilbert_dim
    g1 = t1.space.gamma_diag
    gk = (g1[:, None] * t2.space.gamma_diag).ravel()
    q = np.argsort(gk < 0, kind="stable")
    ne = int(np.count_nonzero(gk > 0))
    space = GradedSpace(ne, d1 * d2 - ne)

    # D1 (x) 1, then a (x) 1 and 1 (x) b for the generators, in one stack
    ops = np.concatenate([
        _kron(np.stack([t1.dirac, *t1.generators]),
              np.eye(d2, dtype=np.complex128)[None]),
        _kron(np.eye(d1, dtype=np.complex128)[None],
              np.reshape(t2.generators, (-1, d2, d2)))])
    ops[0] += _kron(np.diag(g1).astype(np.complex128)[None], t2.dirac[None])[0]
    ops = ops[:, q[:, None], q]

    qk = (t1.basis_map[:, None] * d2 + t2.basis_map[None, :]).ravel()
    bm = qk[q]
    label = f"({t1.label})x({t2.label})" if (t1.label or t2.label) else ""
    return SpectralTripleFD(space, ops[0], ops[1:], basis_map=bm, label=label)


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
    blocks must be an integer (see linalg._integer) and is stored as int.
    """

    matrix: np.ndarray
    blocks: int = 1

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("idempotent matrix must be square")
        object.__setattr__(self, "blocks", _integer(self.blocks, "blocks"))
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if m.shape[0] % self.blocks != 0:
            raise ValueError("matrix size is not divisible by blocks")
        object.__setattr__(self, "matrix", m)


def validate_idempotent(triple: SpectralTripleFD, idem: Idempotent):
    """The checked pair every index route takes, as (amp, e): the triple
    ampliated by k = idem.blocks, the graded tensor product with the flat
    C^{k|0} (the triple itself at k = 1), and idem as its operator e.  A
    ValueError unless idem fits amp and e is self-adjoint, idempotent (to
    IDEMPOTENT_TOL) and even.

    The eigenvalues w of the Hermitian part h of e give all of it.  With
    k = e - h, sigma = |k|_F and nu = max |w|, |e - e^*| <= 2 sigma and
    |e^2 - e| <= max |w^2 - w| + (2 nu + 1) sigma + sigma^2 in operator
    norm, and nu <= |e|; so each check below is at least as strict as the
    operator-norm check it bounds.
    """
    k = idem.blocks
    if idem.matrix.shape[0] != triple.hilbert_dim * k:
        raise ValueError("idempotent size disagrees with the ampliated triple")
    amp = triple if k == 1 else product_triple(
        triple, SpectralTripleFD(GradedSpace(k, 0), np.zeros((k, k)), ()))
    e = amp.represent(idem.matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN refuse
        w = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
        sigma = 0.5 * frob(e - e.conj().T)
        nu = float(np.max(np.abs(w)))
        gap = np.max(np.abs(w * w - w)) + (2 * nu + 1) * sigma + sigma * sigma
    tol = IDEMPOTENT_TOL * max(1.0, nu)
    if not 2 * sigma <= tol:
        raise NotSelfAdjointError("idempotent is not self-adjoint within tolerance")
    if not gap <= tol:
        raise NotIdempotentError("matrix is not idempotent within tolerance")
    if parity_codes(e, amp.space) != 0:
        raise ParityError("idempotent must be even with respect to the grading")
    return amp, e


def index_of_pair(amp: SpectralTripleFD, e) -> int:
    """Fredholm index of e D e from eH+ to eH-, for a pair checked by
    validate_idempotent: the rounded supertrace tr(gamma e).  In finite
    dimensions rank-nullity makes that index dim eH+ - dim eH- for every
    odd D.  Its real part is read: for a checked e the imaginary part is
    at most sqrt(d) |e - e^*|_F / 2, far under INDEX_INTEGER_TOL."""
    return _rounded_index(supertrace(e, amp.space).real, "supertrace of e")


def triple_to_json(triple: SpectralTripleFD) -> dict:
    return {
        "dim_even": triple.space.dim_even,
        "dim_odd": triple.space.dim_odd,
        "dirac": matrix_to_json(triple.dirac),
        "generators": [matrix_to_json(g) for g in triple.generators],
        "basis_map": triple.basis_map.tolist(),
        "label": triple.label,
    }


def triple_from_json(obj) -> SpectralTripleFD:
    """Rebuild a triple from its wire form and check its structure with
    validate_triple; every rejection is a ValueError."""
    try:
        triple = SpectralTripleFD(
            GradedSpace(obj["dim_even"], obj["dim_odd"]),
            matrix_from_json(obj["dirac"]),
            [matrix_from_json(g) for g in obj["generators"]],
            basis_map=obj.get("basis_map"), label=str(obj.get("label", "")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed triple object: {exc}") from exc
    validate_triple(triple)
    return triple


def idempotent_to_json(idem: Idempotent) -> dict:
    return {"matrix": matrix_to_json(idem.matrix), "blocks": idem.blocks}


def idempotent_from_json(obj) -> Idempotent:
    try:
        return Idempotent(matrix_from_json(obj["matrix"]),
                          blocks=obj.get("blocks", 1))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed idempotent object: {exc}") from exc
