"""The Fredholm index of e D e through the kernel of the compressed Dirac
operator, the reference route for `spectral.index_of_pair` in tests.

`index_of_pair` reads the index as tr(gamma e).  This module reaches it
the long way: take an orthonormal basis B of the range of e from an
eigendecomposition of its Hermitian part, compress D to that range, take
the projection K onto the near-kernel of the compression with
`kernel_projection` (an eigendecomposition and a cutoff), and round
tr(B^* gamma B K).  The nonzero eigenvalues of the odd compression come in
pairs +-sigma whose eigenvectors (x, +-y)/sqrt(2) cancel in that trace,
so the cutoff may count a small pair or not and the integer stays.
"""

import warnings

import numpy as np

from jlolab.spectral import (
    INDEX_INTEGER_TOL,
    SpectralGapWarning,
    kernel_projection,
)


def kernel_index_of_pair(amp, e) -> int:
    """The rounded tr(B^* gamma B K), with B the eigenvectors of the
    Hermitian part of e whose eigenvalue is over 1/2 (no columns when e is
    0) and K the kernel projection of B^* D B; a ValueError unless it lies
    within INDEX_INTEGER_TOL of an integer.  A SpectralGapWarning is not
    raised: an eigenvalue near the cutoff moves the trace by 0, as above."""
    w, v = np.linalg.eigh(0.5 * (e + e.conj().T))
    basis = v[:, w > 0.5]
    grading = basis.conj().T @ (amp.space.gamma_diag[:, None] * basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        k = kernel_projection(basis.conj().T @ amp.dirac @ basis)
    s = np.trace(grading @ k)
    r = round(s.real)
    if abs(s - r) > INDEX_INTEGER_TOL:
        raise ValueError(f"kernel supertrace {s:.6g} is not within "
                         f"{INDEX_INTEGER_TOL} of an integer")
    return r
