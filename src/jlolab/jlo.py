"""Heat-kernel cochains of graded triples: exact and Monte-Carlo evaluation.

The degree-n cochain of factors (a0, ..., an) is the ordered-simplex
integral of Str(a0 e^{-u0 Delta} [D,a1] e^{-u1 Delta} ... [D,an]
e^{-un Delta}) over the gap variables u.  Two evaluation routes live here:
a block matrix exponential that performs the simplex integral in closed
form (one exponential gives a whole row of blocks, the integral over every
prefix of the slots), and Monte-Carlo quadrature over sorted uniform times
(the independent oracle).  Both run over one term loop: it represents,
brackets and parity-classifies a chain's whole factor table as one stack,
gathers each degree block's slots with one take, and masks the terms whose
supertrace vanishes by parity, which no route then evaluates.

The module also carries the contraction variant with [D, a0] in the first
slot, the perturbed mixed-parity cochain built from it, and the integer
index pairing, which reads every degree of the idempotent's character from
one such row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chains import Chain, _scalar_entries, br_operation, shuffle_product
from .linalg import parity_codes
from .shuffles import sample_simplex_batch
from .spectral import INDEX_INTEGER_TOL, NonIntegerIndexError, \
    SpectralTripleFD, commutator_d, product_triple

__all__ = [
    "DEGREE_CAP",
    "DegreeCapError",
    "JLOEvaluator",
    "NonConvergentError",
    "PairingReport",
    "SimplexOrderError",
    "bch_cochain",
    "delta_perturbation",
    "index_pairing",
    "jlo_cochain",
    "jlo_cochain_mc",
    "jlo_integrand",
    "perturbed_cochain",
    "verify_theorem_ainf",
]

DEGREE_CAP = 12
PAIRING_TRUNCATION = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)


class DegreeCapError(RuntimeError):
    """Chain degree beyond the supported evaluation cap."""


class NonConvergentError(RuntimeError):
    """Pairing terms failed to decay below the truncation threshold."""


class SimplexOrderError(ValueError):
    """Simplex coordinates were not sorted into [0, 1]."""


class JLOEvaluator:
    """Per-triple evaluation engine; reuses the cached eigensystem of Delta."""

    def __init__(self, triple: SpectralTripleFD):
        self.triple = triple

    # ---------------------------------------------------------------- slots
    def _forms(self, stack):
        """(2, K, d, d): a factor stack in the canonical basis, then its [D, .]."""
        t = self.triple
        r = np.asarray(stack, dtype=np.complex128)
        if r.shape[1:] != (t.hilbert_dim, t.hilbert_dim):
            raise ValueError("factor shape disagrees with the Hilbert space")
        ops = np.empty((2, *r.shape), dtype=np.complex128)
        ops[0] = r if t.basis_map is None else r[:, t.basis_map[:, None], t.basis_map]
        np.matmul(t.dirac, ops[0], out=ops[1])
        ops[1] -= ops[0] @ t.dirac
        return ops

    def _prepared_terms(self, chain: Chain, heads):
        """Per degree block of a normalized chain, ascending, and per head
        form in heads (False: a0, True: [D, a0]), yield (form, coeffs, slots,
        vanish): slots (T, n + 1, d, d) bracketed after the head, and the
        terms that vanish by parity (no slot mixed, odd count of odd slots)."""
        if (top := max(chain.blocks, default=0)) > DEGREE_CAP:
            raise DegreeCapError(f"degree {top} exceeds the cap {DEGREE_CAP}")
        ops = self._forms(chain.table)
        codes = parity_codes(ops, self.triple.space)
        for rows, coeffs in chain.blocks.values():
            for form in heads:
                half = np.minimum(np.arange(rows.shape[1]), 1) | form
                c = codes[half, rows]
                vanish = (c.max(1) < 2) & (c.sum(1) % 2 == 1)
                yield form, coeffs, ops[half, rows], vanish

    # ---------------------------------------------------------------- exact
    def _first_block_row(self, slots) -> np.ndarray:
        """First block row, (d, (n + 1) d), of the exponential of the block
        bidiagonal matrix with -Delta on the diagonal and slots[0..n-1]
        above it.  Block k is the time-ordered simplex integral of
        e^{-u0 Delta} slots[0] ... slots[k-1] e^{-uk Delta}."""
        n, d = len(slots), self.triple.hilbert_dim
        m = np.zeros((n + 1, d, n + 1, d), dtype=np.complex128)
        k = np.arange(n + 1)
        m[k, :, k] = -self.triple.delta
        m[k[:-1], :, k[1:]] = slots
        return expm(m.reshape((n + 1) * d, (n + 1) * d))[:d]

    def term_exact(self, ops) -> complex:
        """Closed-form simplex integral: the head times the last block of
        the first block row of one block matrix exponential."""
        t = self.triple
        n = len(ops) - 1
        if n == 0:
            return t.supertrace(ops[0] @ t.heat(1.0))
        kernel = self._first_block_row(ops[1:])[:, n * t.hilbert_dim:]
        return t.supertrace(ops[0] @ kernel)

    # ------------------------------------------------------------- pointwise
    def integrand(self, factors, t, first_slot_d: bool = False) -> complex:
        """Supertraced heat string at one fixed simplex point."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails both
            raise SimplexOrderError("coordinates must be finite, in [0, 1]")
        if np.any(np.diff(t) < 0.0):
            raise SimplexOrderError("coordinates must be non-decreasing")
        if len(factors) - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {len(factors) - 1} exceeds the cap {DEGREE_CAP}")
        plain, ops = self._forms(factors)
        if not first_slot_d:
            ops[0] = plain[0]
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
        # Delta's eigenbasis, with the grading folded into the head
        w, u = self.triple.delta_eigensystem()
        uh = u.conj().T
        g = self.triple.space.gamma_diag
        mats = [uh @ (g[:, None] * ops[0]) @ u] + [uh @ op @ u for op in ops[1:]]
        if n == 0:
            val = complex(np.sum(np.diagonal(mats[0]) * np.exp(-w)))
            return val, 0.0
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
    def _cochains(self, chain: Chain, heads) -> dict:
        """{form: cochain value} per head form, from one preparation."""
        totals = dict.fromkeys(heads, 0.0 + 0.0j)
        chain = chain.normalized()
        for form, coeffs, slots, vanish in self._prepared_terms(chain, heads):
            for k in np.flatnonzero(~vanish).tolist():
                totals[form] += complex(coeffs[k]) * self.term_exact(slots[k])
        return totals

    def cochain(self, chain: Chain, first_slot_d: bool = False) -> complex:
        return self._cochains(chain, (first_slot_d,))[first_slot_d]

    def cochain_mc(self, chain: Chain, samples: int, rng,
                   first_slot_d: bool = False):
        """(estimate, standard error); independent sample streams per term,
        one seed per normalized term, errors combined in quadrature."""
        if isinstance(samples, bool) or not isinstance(
                samples, numbers.Integral) or samples < 1:
            raise ValueError("samples must be a positive integer")
        chain = chain.normalized()
        seeds = iter(rng.integers(2 ** 63 - 1, size=max(chain.num_terms, 1)).tolist())
        total, var = 0.0 + 0.0j, 0.0
        for _, coeffs, slots, vanish in self._prepared_terms(chain, (first_slot_d,)):
            for coeff, ops, zero, seed in zip(
                    coeffs.tolist(), slots, vanish.tolist(), seeds):
                if not zero:
                    est, se = self.term_mc(ops, samples, np.random.default_rng(seed))
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
    """Chain map a0 -> [D, a0] / sqrt(2), identity on the other slots.

    Each head entry of the table is bracketed once, into a new entry.
    """
    chain = chain.normalized()
    heads = np.unique(np.concatenate([np.zeros(0, np.intp)] + [
        rows[:, 0] for rows, _ in chain.blocks.values()]))
    brackets = np.array([commutator_d(triple, chain.table[k]) for k in heads],
                        dtype=np.complex128).reshape(-1, *chain.table.shape[1:])
    blocks = {}
    for n, (rows, coeffs) in chain.blocks.items():
        head = len(chain.table) + np.searchsorted(heads, rows[:, :1])
        blocks[n] = (np.hstack([head, rows[:, 1:]]), coeffs * INV_SQRT2)
    return Chain.from_table(chain.algebra_dim,
                            np.concatenate([chain.table, brackets]), blocks)


def perturbed_cochain(triple: SpectralTripleFD, chain: Chain,
                      via_delta: bool = False) -> complex:
    """Mixed-parity cochain: plain value plus the contraction over sqrt(2).

    With via_delta the same number is computed by evaluating the plain
    cochain on the delta-perturbed chain; the two routes must agree.
    """
    ev = JLOEvaluator(triple)
    if via_delta:
        return ev.cochain(chain) + ev.cochain(delta_perturbation(triple, chain))
    value = ev._cochains(chain, (False, True))
    return value[False] + INV_SQRT2 * value[True]


@dataclass(frozen=True)
class PairingReport:
    value: complex
    truncation_degree: int
    last_term_magnitude: float
    integer: int = None


def index_pairing(amp: SpectralTripleFD, e) -> PairingReport:
    """Pair the idempotent character against the triple's cochain, for the
    ampliated triple amp and operator e of a pair checked by
    spectral.validate_idempotent.

    The character is (e) plus (-1)^n (2n)!/n! (e - 1/2, e, ..., e) in
    degree 2n; its slots are all [D, e], so one first block row holds every
    degree's kernel, and a scalar e (dropped from slots by normalization)
    pairs to zero.  Degrees are summed until a term falls below the
    truncation threshold relative to the sum, which must then sit within
    INDEX_INTEGER_TOL of an integer.
    """
    d = amp.hilbert_dim
    terms = [amp.supertrace(e @ amp.heat(1.0))]
    if _scalar_entries(e[None])[0]:
        terms.append(0.0 + 0.0j)
    else:
        row = JLOEvaluator(amp)._first_block_row(
            [amp.dirac @ e - e @ amp.dirac] * DEGREE_CAP)
        head = e - 0.5 * np.eye(d)
        terms += [(-1) ** n * math.factorial(2 * n) / math.factorial(n)
                  * amp.supertrace(head @ row[:, 2 * n * d:(2 * n + 1) * d])
                  for n in range(1, DEGREE_CAP // 2 + 1)]
    acc = 0.0 + 0.0j
    for n, term in enumerate(terms):
        acc += term
        if n >= 1 and abs(term) < PAIRING_TRUNCATION * (1.0 + abs(acc)):
            break
    else:
        raise NonConvergentError(
            f"pairing terms still at {abs(term):.3g} at degree {2 * n}")
    r = round(acc.real)
    if abs(acc - r) > INDEX_INTEGER_TOL:
        raise NonIntegerIndexError(
            f"pairing value {acc:.6g} is not within {INDEX_INTEGER_TOL} "
            "of an integer")
    return PairingReport(value=acc, truncation_degree=2 * n,
                         last_term_magnitude=abs(term), integer=int(r))


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
