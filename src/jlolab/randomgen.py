"""Seeded random builders for triples, chains, and projections.

All functions take an explicit numpy Generator so suites are reproducible;
nothing here touches global random state.  Generators of random triples
are even Hermitian contractions and the Dirac is a random odd Hermitian
matrix rescaled to a prescribed operator norm, so heat factors stay tame.
"""

from __future__ import annotations

import numpy as np

from .chains import Chain, ElementaryChain
from .linalg import GradedSpace, opnorm
from .spectral import SpectralTripleFD

__all__ = [
    "random_chain",
    "random_even",
    "random_even_projection",
    "random_odd_hermitian",
    "random_triple",
]


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_even(rng, space: GradedSpace, hermitian: bool = False) -> np.ndarray:
    """Random block-diagonal (grading-preserving) contraction."""
    de, do = space.dim_even, space.dim_odd
    a = np.zeros((space.dim, space.dim), dtype=np.complex128)
    if de:
        a[:de, :de] = _cplx(rng, (de, de))
    if do:
        a[de:, de:] = _cplx(rng, (do, do))
    if hermitian:
        a = (a + a.conj().T) / 2.0
    return a / max(1.0, opnorm(a))


def random_odd_hermitian(rng, space: GradedSpace,
                         scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix anticommuting with the grading, rescaled so
    its operator norm equals scale (zero when a parity block is empty)."""
    de, do = space.dim_even, space.dim_odd
    d = np.zeros((space.dim, space.dim), dtype=np.complex128)
    if de and do:
        b = _cplx(rng, (de, do))
        d[:de, de:] = b
        d[de:, :de] = b.conj().T
        nrm = opnorm(d)
        if nrm > 0:
            d = d * (scale / nrm)
    return d


def random_triple(rng, dim_even: int, dim_odd: int, dirac_scale: float = 1.0,
                  label: str = "") -> SpectralTripleFD:
    """Triple with a random odd Dirac of norm dirac_scale and two random
    even Hermitian contractions as generators."""
    space = GradedSpace(dim_even, dim_odd)
    dirac = random_odd_hermitian(rng, space, scale=dirac_scale)
    gens = tuple(random_even(rng, space, hermitian=True) for _ in range(2))
    return SpectralTripleFD(space, dirac, gens, label=label)


def random_chain(rng, space: GradedSpace, degrees) -> Chain:
    """Chain with one term per listed degree: random even contraction
    factors and a unit-scale coefficient."""
    out = []
    for n in degrees:
        coeff = complex(*rng.standard_normal(2))
        factors = tuple(random_even(rng, space) for _ in range(n + 1))
        out.append(ElementaryChain(coeff, factors))
    return Chain(space.dim, tuple(out))


def random_even_projection(rng, space: GradedSpace, rank_even: int,
                           rank_odd: int = 0) -> np.ndarray:
    """Random orthogonal projection commuting with the grading.

    Built from QR frames per parity block, so it is Hermitian and
    idempotent to machine precision.
    """
    de, do = space.dim_even, space.dim_odd
    if rank_even > de or rank_odd > do:
        raise ValueError("requested rank exceeds a parity block")
    p = np.zeros((space.dim, space.dim), dtype=np.complex128)
    if rank_even:
        q, _ = np.linalg.qr(_cplx(rng, (de, de)))
        v = q[:, :rank_even]
        p[:de, :de] = v @ v.conj().T
    if rank_odd:
        q, _ = np.linalg.qr(_cplx(rng, (do, do)))
        v = q[:, :rank_odd]
        p[de:, de:] = v @ v.conj().T
    return p
