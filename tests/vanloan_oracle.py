"""Block matrix exponential evaluation of heat-kernel cochains, the oracle
for the contour kernel in tests.

The degree-n term integrates Str(a0 e^{-u0 Delta} s1 ... sn e^{-un Delta})
over the ordered simplex.  It is the head times the last block of the
first block row of exp(M), where M has -Delta on its n + 1 diagonal blocks
and s1, ..., sn above them (Van Loan, IEEE TAC 23(3), 1978); degree 0 is
Str(a0 e^{-Delta}).  Each term is read from `Chain.terms` and its slots are
represented and bracketed here, so nothing is shared with `JLOEvaluator`.
"""

import numpy as np
from scipy.linalg import expm

from jlolab.linalg import supertrace


def term_vanloan(triple, ops) -> complex:
    """One term from its canonical-basis slot operators."""
    n, d = len(ops) - 1, triple.hilbert_dim
    if n == 0:
        return supertrace(ops[0] @ triple.heat(1.0), triple.space)
    delta = triple.dirac @ triple.dirac
    m = np.zeros(((n + 1) * d, (n + 1) * d), dtype=np.complex128)
    for k in range(n + 1):
        m[k * d:(k + 1) * d, k * d:(k + 1) * d] = -delta
    for k in range(1, n + 1):
        m[(k - 1) * d:k * d, k * d:(k + 1) * d] = ops[k]
    return supertrace(ops[0] @ expm(m)[:d, n * d:], triple.space)


def slot_operators(triple, factors, first_slot_d: bool = False):
    """A term's factors represented on the triple, every slot after the
    head bracketed with the Dirac operator, and the head too with
    first_slot_d."""
    ops = [triple.represent(f) for f in factors]
    for k in range(0 if first_slot_d else 1, len(ops)):
        ops[k] = triple.dirac @ ops[k] - ops[k] @ triple.dirac
    return ops


def cochain_vanloan(triple, chain, first_slot_d: bool = False) -> complex:
    """The cochain of a chain, term by term."""
    return sum((term.coeff * term_vanloan(
        triple, slot_operators(triple, term.factors, first_slot_d))
        for term in chain.normalized().terms), 0.0 + 0.0j)
