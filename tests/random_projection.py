"""Seeded random even orthogonal projections for the pairing and spectral
tests."""

import numpy as np


def random_even_projection(rng, space, rank_even: int,
                           rank_odd: int = 0) -> np.ndarray:
    """Random orthogonal projection commuting with the grading.

    Built from QR frames per parity block, so it is Hermitian and
    idempotent to machine precision.  Each nonzero rank draws its block's
    real, then imaginary Gaussian parts, the even block first.
    """
    de, do = space.dim_even, space.dim_odd
    if rank_even > de or rank_odd > do:
        raise ValueError("requested rank exceeds a parity block")
    p = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for block, n, rank in ((slice(0, de), de, rank_even),
                           (slice(de, None), do, rank_odd)):
        if rank:
            q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            v = q[:, :rank]
            p[block, block] = v @ v.conj().T
    return p
