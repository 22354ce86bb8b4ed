"""Heat-kernel cochains of graded triples: exact and Monte-Carlo evaluation.

The degree-n cochain of factors (a0, ..., an) is the ordered-simplex
integral of Str(a0 e^{-u0 Delta} [D,a1] e^{-u1 Delta} ... [D,an]
e^{-un Delta}) over the gap variables u.  Three evaluation routes live
here: a block matrix exponential that performs the simplex integral in
closed form, an eigenbasis sum weighted by divided differences of exp
(mathematically identical, kept as a cross-check), and Monte-Carlo
quadrature over sorted uniform times (the independent oracle).  All three
run over one term loop: it represents, brackets and parity-classifies each
distinct factor of a chain once, and marks the terms whose supertrace
vanishes by parity, which no route then evaluates.

The module also carries the contraction variant with [D, a0] in the first
slot, the perturbed mixed-parity cochain built from it, the idempotent
character chains, and the integer index pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chains import Chain, ElementaryChain, TermBudgetError, br_operation, \
    shuffle_product
from .linalg import Parity, parity_of
from .shuffles import sample_simplex_batch
from .spectral import INDEX_INTEGER_TOL, Idempotent, NonIntegerIndexError, \
    SpectralTripleFD, ampliate, commutator_d, product_triple

__all__ = [
    "DEGREE_CAP",
    "DegreeCapError",
    "JLOEvaluator",
    "NonConvergentError",
    "PairingReport",
    "SimplexOrderError",
    "bch_cochain",
    "delta_perturbation",
    "divided_diff_exp",
    "index_pairing",
    "jlo_cochain",
    "jlo_cochain_mc",
    "jlo_integrand",
    "perturbed_cochain",
    "verify_theorem_ainf",
]

DEGREE_CAP = 12
EIGENSUM_BUDGET = 2_000_000
PAIRING_TRUNCATION = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class DegreeCapError(RuntimeError):
    """Chain degree beyond the supported evaluation cap."""


class NonConvergentError(RuntimeError):
    """Pairing terms failed to decay below the truncation threshold."""


class SimplexOrderError(ValueError):
    """Simplex coordinates were not sorted into [0, 1]."""


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


class JLOEvaluator:
    """Per-triple evaluation engine; reuses the cached eigensystem of Delta.
    Every cochain route loops over _prepared_terms."""

    def __init__(self, triple: SpectralTripleFD):
        self.triple = triple

    # ---------------------------------------------------------------- slots
    def _operator(self, f, bracketed: bool) -> np.ndarray:
        """Canonical-basis operator of one factor, or its bracket [D, .]."""
        t = self.triple
        r = t.represent(f)
        if r.shape != (t.hilbert_dim, t.hilbert_dim):
            raise ValueError("factor shape disagrees with the Hilbert space")
        if bracketed:
            r = t.dirac @ r - r @ t.dirac
        return r

    @staticmethod
    def _slots(factors, first_slot_d: bool, prepare) -> list:
        """prepare(head, first_slot_d), then prepare(f, True) per slot."""
        if len(factors) - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {len(factors) - 1} exceeds the cap {DEGREE_CAP}")
        return [prepare(factors[0], first_slot_d)] + \
            [prepare(f, True) for f in factors[1:]]

    def _prepared_terms(self, terms, first_slot_d: bool):
        """Yield (coeff, ops) per term: its slot operators, or None when the
        supertrace vanishes by parity.  Each distinct (factor, bracketed)
        pair is prepared once; terms keeps the factors alive, so an id names
        one array."""
        prepared = {}

        def prepare(f, bracketed):
            key = (id(f), bracketed)
            if key not in prepared:
                op = self._operator(f, bracketed)
                prepared[key] = (op, parity_of(op, self.triple.space))
            return prepared[key]

        for term in terms:
            slots = self._slots(term.factors, first_slot_d, prepare)
            parities = [p for _, p in slots]
            if Parity.MIXED not in parities and parities.count(Parity.ODD) % 2:
                yield term.coeff, None
            else:
                yield term.coeff, [op for op, _ in slots]

    def _eigenbasis(self, ops):
        """(w, mats): Delta's eigenvalues and the slot operators in its
        eigenbasis, with the grading folded into the head."""
        t = self.triple
        w, u = t.delta_eigensystem()
        uh = u.conj().T
        g = t.space.gamma_diag
        return w, [uh @ (g[:, None] * ops[0]) @ u] + \
            [uh @ op @ u for op in ops[1:]]

    # ---------------------------------------------------------------- exact
    def term_exact(self, ops) -> complex:
        """Closed-form simplex integral through one block matrix exponential.

        The block bidiagonal matrix with -Delta on the diagonal and the
        differentiated slots above it has the full time-ordered integral as
        the top-right block of its exponential.
        """
        t = self.triple
        n = len(ops) - 1
        if n == 0:
            return t.supertrace(ops[0] @ t.heat(1.0))
        d = t.hilbert_dim
        m = np.zeros(((n + 1) * d, (n + 1) * d), dtype=np.complex128)
        nd = -t.delta
        for k in range(n + 1):
            m[k * d:(k + 1) * d, k * d:(k + 1) * d] = nd
        for k in range(1, n + 1):
            m[(k - 1) * d:k * d, k * d:(k + 1) * d] = ops[k]
        kernel = expm(m)[:d, n * d:]
        return t.supertrace(ops[0] @ kernel)

    def term_eigensum(self, ops) -> complex:
        """Eigenbasis route: matrix-element strings weighted by divided
        differences of exp at the eigenvalue strings."""
        n = len(ops) - 1
        w, mats = self._eigenbasis(ops)
        d = w.size
        if d ** (n + 1) > EIGENSUM_BUDGET:
            raise TermBudgetError(
                f"eigenbasis sum needs {d ** (n + 1)} index strings "
                f"(cap {EIGENSUM_BUDGET})")
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

    # ------------------------------------------------------------- pointwise
    def integrand(self, factors, t, first_slot_d: bool = False) -> complex:
        """Supertraced heat string at one fixed simplex point."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and (t[0] < 0.0 or t[-1] > 1.0):
            raise SimplexOrderError("coordinates must lie in [0, 1]")
        if np.any(np.diff(t) < 0.0):
            raise SimplexOrderError("coordinates must be non-decreasing")
        ops = self._slots(factors, first_slot_d, self._operator)
        if t.size != len(ops) - 1:
            raise ValueError("simplex dimension must equal the chain degree")
        gaps = np.diff(np.concatenate([[0.0], t, [1.0]]))
        cur = ops[0] @ self.triple.heat(gaps[0])
        for k in range(1, len(ops)):
            cur = cur @ ops[k] @ self.triple.heat(gaps[k])
        return self.triple.supertrace(cur)

    # ------------------------------------------------------------------- MC
    def term_mc(self, ops, samples: int, rng):
        """(estimate, standard error) by sorted-uniform simplex sampling."""
        n = len(ops) - 1
        w, mats = self._eigenbasis(ops)
        if n == 0:
            val = complex(np.sum(np.diagonal(mats[0]) * np.exp(-w)))
            return val, 0.0
        if samples < 1:
            raise ValueError("need at least one sample")
        d = w.size
        inv_fact = 1.0 / math.factorial(n)
        chunk = max(16, 1_000_000 // (d * d))
        total = 0.0 + 0.0j
        total_sq = 0.0
        done = 0
        while done < samples:
            b = min(chunk, samples - done)
            ts = sample_simplex_batch(n, rng, b)
            pad = np.concatenate(
                [np.zeros((b, 1)), ts, np.ones((b, 1))], axis=1)
            gaps = np.diff(pad, axis=1)
            damp = np.exp(-gaps[:, :, None] * w[None, None, :])
            cur = mats[0][None, :, :] * damp[:, 0, None, :]
            for k in range(1, n + 1):
                cur = cur @ mats[k]
                cur = cur * damp[:, k, None, :]
            vals = np.einsum("bii->b", cur)
            total += complex(vals.sum())
            total_sq += float(np.sum(np.abs(vals) ** 2))
            done += b
        mean = total / samples
        var = max(total_sq / samples - abs(mean) ** 2, 0.0)
        se = inv_fact * math.sqrt(var / samples)
        return mean * inv_fact, se

    # ------------------------------------------------------------ chain API
    def _exact_sum(self, chain: Chain, first_slot_d: bool, term) -> complex:
        total = 0.0 + 0.0j
        for coeff, ops in self._prepared_terms(chain.normalized().terms,
                                               first_slot_d):
            if ops is not None:
                total += coeff * term(ops)
        return total

    def cochain(self, chain: Chain, first_slot_d: bool = False) -> complex:
        return self._exact_sum(chain, first_slot_d, self.term_exact)

    def cochain_eigensum(self, chain: Chain,
                         first_slot_d: bool = False) -> complex:
        return self._exact_sum(chain, first_slot_d, self.term_eigensum)

    def cochain_mc(self, chain: Chain, samples: int, rng,
                   first_slot_d: bool = False):
        """(estimate, standard error); independent sample streams per term,
        errors combined in quadrature."""
        terms = chain.normalized().terms
        seeds = rng.integers(0, 2 ** 63 - 1, size=max(len(terms), 1))
        total = 0.0 + 0.0j
        var = 0.0
        for (coeff, ops), seed in zip(
                self._prepared_terms(terms, first_slot_d), seeds):
            if ops is not None:
                sub = np.random.default_rng(int(seed))
                est, se = self.term_mc(ops, samples, sub)
                total += coeff * est
                var += (abs(coeff) * se) ** 2
        return total, math.sqrt(var)


def jlo_integrand(triple: SpectralTripleFD, factors, t) -> complex:
    return JLOEvaluator(triple).integrand(factors, t)


def jlo_cochain(triple: SpectralTripleFD, chain: Chain) -> complex:
    return JLOEvaluator(triple).cochain(chain)


def jlo_cochain_mc(triple: SpectralTripleFD, chain: Chain, samples: int, rng):
    return JLOEvaluator(triple).cochain_mc(chain, samples, rng)


def bch_cochain(triple: SpectralTripleFD, chain: Chain) -> complex:
    """Contraction cochain: first slot bracketed with the Dirac operator."""
    return JLOEvaluator(triple).cochain(chain, first_slot_d=True)


def delta_perturbation(triple: SpectralTripleFD, chain: Chain) -> Chain:
    """Chain map a0 -> [D, a0] / sqrt(2), identity on the other slots."""
    out = []
    for term in chain.normalized().terms:
        head = commutator_d(triple, term.factors[0])
        out.append(ElementaryChain(term.coeff * INV_SQRT2,
                                   (head,) + term.factors[1:]))
    return Chain(chain.algebra_dim, tuple(out))


def perturbed_cochain(triple: SpectralTripleFD, chain: Chain,
                      via_delta: bool = False) -> complex:
    """Mixed-parity cochain: plain value plus the contraction over sqrt(2).

    With via_delta the same number is computed by evaluating the plain
    cochain on the delta-perturbed chain; the two routes must agree.
    """
    ev = JLOEvaluator(triple)
    if via_delta:
        return ev.cochain(chain) + ev.cochain(delta_perturbation(triple, chain))
    return ev.cochain(chain) + INV_SQRT2 * ev.cochain(chain, first_slot_d=True)


def _chern_component(matrix: np.ndarray, n: int) -> Chain:
    """Degree-2n component of the idempotent character."""
    m = matrix.shape[0]
    if n == 0:
        return Chain.elementary(1.0, (matrix,))
    coeff = (-1) ** n * math.factorial(2 * n) / math.factorial(n)
    head = matrix - 0.5 * np.eye(m, dtype=np.complex128)
    return Chain.elementary(coeff, (head,) + (matrix,) * (2 * n))


@dataclass(frozen=True)
class PairingReport:
    value: complex
    truncation_degree: int
    last_term_magnitude: float
    integer: int = None


def index_pairing(triple: SpectralTripleFD, idem: Idempotent) -> PairingReport:
    """Pair the idempotent character against the triple's cochain.

    Even degrees are summed until a term falls below the truncation
    threshold relative to the accumulated value; the total must then sit
    within INDEX_INTEGER_TOL of an integer.
    """
    amp = ampliate(triple, idem.blocks)
    if idem.matrix.shape[0] != amp.hilbert_dim:
        raise ValueError("idempotent size disagrees with the ampliated triple")
    ev = JLOEvaluator(amp)
    mat = np.asarray(idem.matrix)
    acc = 0.0 + 0.0j
    last = math.inf
    degree = 0
    converged = False
    for n in range(0, DEGREE_CAP // 2 + 1):
        term = ev.cochain(_chern_component(mat, n))
        acc += term
        last = abs(term)
        degree = 2 * n
        if n >= 1 and last < PAIRING_TRUNCATION * (1.0 + abs(acc)):
            converged = True
            break
    if not converged:
        raise NonConvergentError(
            f"pairing terms still at {last:.3g} at degree {degree}")
    r = round(acc.real)
    if abs(acc - r) > INDEX_INTEGER_TOL:
        raise NonIntegerIndexError(
            f"pairing value {acc:.6g} is not within {INDEX_INTEGER_TOL} "
            "of an integer")
    return PairingReport(value=acc, truncation_degree=degree,
                         last_term_magnitude=last, integer=int(r))


def verify_theorem_ainf(triples, chains, part: int) -> dict:
    """Residual report for the two product identities.

    Part 1: the cochain of a shuffle product against the product triple
    versus the product of the factor cochains.  Part 2: the cochain of the
    degree-raising cyclic-shuffle operation versus the product of the
    contraction cochains over r factorial.
    """
    triples = list(triples)
    chains = list(chains)
    if len(triples) != len(chains):
        raise ValueError("need one chain per triple")
    if part == 1:
        if len(triples) != 2:
            raise ValueError("part 1 takes exactly two factors")
        prod = product_triple(triples[0], triples[1])
        lhs = jlo_cochain(prod, shuffle_product(chains[0], chains[1]))
        rhs = jlo_cochain(triples[0], chains[0]) \
            * jlo_cochain(triples[1], chains[1])
    elif part == 2:
        prod = triples[0]
        for t in triples[1:]:
            prod = product_triple(prod, t)
        lhs = jlo_cochain(prod, br_operation(chains))
        rhs = 1.0 / math.factorial(len(triples))
        for t, c in zip(triples, chains):
            rhs *= bch_cochain(t, c)
    else:
        raise ValueError("part must be 1 or 2")
    residual = abs(lhs - rhs)
    return {
        "part": part,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "normalized_residual": residual / (1.0 + abs(rhs)),
    }
