"""Seeded random even orthogonal projections for the pairing and spectral
tests."""

import numpy as np

from jlolab.randomgen import _cplx


def random_even_projection(rng, space, rank_even: int,
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
