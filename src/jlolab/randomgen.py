"""Seeded random builders for triples and chains.

All functions take an explicit numpy Generator so suites are reproducible;
nothing here touches global random state.  Generators of random triples
are even Hermitian contractions and the Dirac is a random odd Hermitian
matrix rescaled to a prescribed operator norm, so heat factors stay tame.
"""

from __future__ import annotations

import numpy as np

from .chains import Chain
from .linalg import GradedSpace, _integer, opnorm
from .spectral import SpectralTripleFD

__all__ = [
    "random_chain",
    "random_even",
    "random_odd_hermitian",
    "random_triple",
]


def _even_draws(rng, space: GradedSpace, count: int) -> np.ndarray:
    """(count, d, d) unscaled block-diagonal draws: each draws the real,
    then the imaginary part of its even block, then of its odd block."""
    de, do = space.dim_even, space.dim_odd
    z = rng.standard_normal((count, 2 * de * de + 2 * do * do))
    re_e, im_e, re_o, im_o = np.split(
        z, np.cumsum([de * de, de * de, do * do]), axis=1)
    a = np.zeros((count, space.dim, space.dim), dtype=np.complex128)
    a[:, :de, :de] = (re_e + 1j * im_e).reshape(count, de, de)
    a[:, de:, de:] = (re_o + 1j * im_o).reshape(count, do, do)
    return a


def random_even(rng, space: GradedSpace, hermitian: bool = False) -> np.ndarray:
    """Random block-diagonal (grading-preserving) contraction."""
    a = _even_draws(rng, space, 1)[0]
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
        b = (rng.standard_normal((de, do))
             + 1j * rng.standard_normal((de, do)))
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
    factors and a unit-scale coefficient.

    Each term draws its coefficient, then its factors as random_even does;
    one stacked SVD scales every factor of the table, as opnorm does.
    """
    degrees = [_integer(n, f"degree {n!r}") for n in degrees]
    if any(n < 0 for n in degrees):
        raise ValueError(f"degree {min(degrees)} must be non-negative")
    coeffs = []
    parts = [np.zeros((0, space.dim, space.dim), dtype=np.complex128)]
    for n in degrees:
        coeffs.append(complex(*rng.standard_normal(2)))
        parts.append(_even_draws(rng, space, n + 1))
    table = np.concatenate(parts)
    table /= np.maximum(1.0, np.linalg.svd(table, compute_uv=False)
                        .max(axis=1))[:, None, None]
    # term k's factors are table entries first[k] .. first[k] + degree
    degs = np.array(degrees, dtype=np.intp)
    first = np.cumsum(degs + 1) - (degs + 1)
    coeffs = np.array(coeffs, dtype=np.complex128)
    return Chain.from_table(space.dim, table, {
        n: (first[degs == n, None] + np.arange(n + 1), coeffs[degs == n])
        for n in set(degrees)})
