"""Eigenbasis evaluation of heat-kernel cochains, the exact oracle for tests.

In Delta's eigenbasis the degree-n term is a sum over index strings of
matrix-element products weighted by divided differences of exp at the
eigenvalue strings.  It shares no code with the resolvent-contour route of
`JLOEvaluator`: each term is read from `Chain.terms` and its slots are
represented and bracketed here.
"""

import numpy as np
from scipy.linalg import expm


def divided_diff_exp(mu):
    """Integral of exp(-u . mu) over the barycentric n-simplex.

    Equals the divided difference of exp at the negated nodes, computed in
    one shot as the corner entry of the exponential of the bidiagonal node
    matrix; exact for repeated nodes, stable for clustered ones.  mu is one
    node string (a float comes back) or a stack of them along the last
    axis (an array comes back, from one batched expm call).
    """
    arr = np.asarray(mu, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("need at least one node")
    n = arr.shape[-1] - 1
    if n == 0:
        out = np.exp(-arr[..., 0])
    else:
        idx = np.arange(n + 1)
        m = np.zeros(arr.shape + (n + 1,))
        m[..., idx, idx] = -arr
        m[..., idx[1:], idx[:-1]] = 1.0
        out = expm(m)[..., n, 0]
    return float(out) if arr.ndim == 1 else out


def term_eigensum(triple, ops) -> complex:
    """One term from its canonical-basis slot operators: matrix-element
    strings weighted by divided differences of exp at the eigenvalue
    strings."""
    n = len(ops) - 1
    w, u = triple.delta_eigensystem()
    uh = u.conj().T
    g = triple.space.gamma_diag
    mats = [uh @ (g[:, None] * ops[0]) @ u] + [uh @ op @ u for op in ops[1:]]
    d = w.size
    # divided differences are symmetric: one per sorted index string
    strings = np.indices((d,) * (n + 1), dtype=np.min_scalar_type(d))
    strings = np.sort(strings.reshape(n + 1, -1).T, axis=1)
    nodes, where = np.unique(strings, axis=0, return_inverse=True)
    weights = divided_diff_exp(w[nodes])[where].reshape((d,) * (n + 1))
    letters = "abcdefghijklm"
    spec = ",".join(letters[k] + letters[(k + 1) % (n + 1)]
                    for k in range(n + 1))
    spec += "," + letters[:n + 1] + "->"
    return complex(np.einsum(spec, *mats, weights))


def cochain_eigensum(triple, chain, first_slot_d: bool = False) -> complex:
    """The cochain of a chain, term by term; with first_slot_d the head is
    bracketed with the Dirac operator as well."""
    total = 0.0 + 0.0j
    for term in chain.normalized().terms:
        ops = [triple.represent(f) for f in term.factors]
        for k in range(0 if first_slot_d else 1, len(ops)):
            ops[k] = triple.dirac @ ops[k] - ops[k] @ triple.dirac
        total += term.coeff * term_eigensum(triple, ops)
    return total
