"""Heat-kernel cochains of graded triples: exact and Monte-Carlo evaluation.

The degree-n cochain of factors (a0, ..., an) is the ordered-simplex
integral of Str(a0 e^{-u0 Delta} [D,a1] e^{-u1 Delta} ... [D,an]
e^{-un Delta}) over the gap variables u.  Both evaluation routes run over
one term loop: it represents, brackets and parity-classifies a chain's
whole factor table as one stack, takes it into Delta's eigenbasis once
(the grading folded into the head), and gathers each degree block's live
terms with one take; a term whose supertrace vanishes by parity reaches
no route.

The exact route is the Bromwich integral of the resolvent string: in the
eigenbasis the degree-n term is Str(A0 (1/2 pi i) int e^z R(z) A1 R(z)
... An R(z) dz) with R(z) = diag(1/(z + w)), and the trapezoid rule on a
parabolic contour around (-inf, 0] (Weideman & Trefethen, Math. Comp. 76,
2007) evaluates it with a node count derived a priori from n (see
`_contour`).  All live terms of a block and all nodes step at once.
Monte-Carlo quadrature over sorted uniform times is the independent
oracle.

The module also carries the contraction variant with [D, a0] in the first
slot, the perturbed mixed-parity cochain built from it, and the integer
index pairing, which still reads every degree of the idempotent's
character from the first block row of one block matrix exponential.
"""

from __future__ import annotations

import functools
import itertools
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
# complex entries (1 MiB) of one (rows, nodes, d, d) stack of the contour kernel
NODE_STACK_ELEMENTS = 1 << 16
# quadrature error per term, relative to the largest possible term S / n!
UNIT_ROUNDOFF = 2.0 ** -53
# contour shapes tried for each node count M: the rule truncates at
# X = M h = alpha and the parabola's apex sits at mu = beta M
_ALPHA = 1.0 + 0.1 * np.arange(31)
_BETA = 0.05 * np.arange(1, 61)


class DegreeCapError(RuntimeError):
    """Chain degree beyond the supported evaluation cap."""


class NonConvergentError(RuntimeError):
    """Pairing terms failed to decay below the truncation threshold."""


class SimplexOrderError(ValueError):
    """Simplex coordinates were not sorted into [0, 1]."""


def _log_strip_error(y, mu, h, p):
    """log of the discretization error over S of the strip whose far edge
    maps to the parabola mu (y + iu)^2: (mu / pi)(y sqrt(pi / mu) + 1 / mu)
    e^{mu y^2} (mu y^2)^{-p} / (e^{2 pi |1 - y| / h} - 1)."""
    q = 2.0 * np.pi * np.abs(1.0 - y) / h
    return (np.log(mu / np.pi * (y * np.sqrt(np.pi / mu) + 1.0 / mu))
            + mu * y * y - p * np.log(mu * y * y)
            - q - np.log(-np.expm1(-q)))


@functools.lru_cache(maxsize=None)
def _contour(n: int):
    """Nodes z (N,) and weights c (N,), read-only, with
    (1/2 pi i) int e^z F(z) dz ~ sum_j c_j F(z_j) for the degree-n
    resolvent strings F(z) = tr(A0 R(z) A1 ... An R(z)), n >= 1.

    The rule is the trapezoid rule in u on the parabola z = mu (1 + iu)^2,
    u = kh for |k| <= M, so c_k = (h mu / pi)(1 + iu_k) e^{z_k}
    (Weideman & Trefethen, Math. Comp. 76, 2007).  Since Delta >= 0,
    |R(z)| = 1 / dist(z, (-inf, 0]), and Hoelder's inequality gives
    |F(z)| <= S dist(z, (-inf, 0])^{-p}, with p = n + 1 and S the product
    of the Frobenius norms of the A_k.  For that class the error of the
    rule is at most S times

        e^{mu (1 - X^2)} (1 + 1/X) / (pi mu^p)          truncation, X = Mh,
      + sum over y in {c, s} of
        (mu / pi)(y sqrt(pi / mu) + 1/mu) e^{mu y^2} (mu y^2)^{-p}
        / (e^{2 pi |1 - y| / h} - 1)                  discretization,

    where the strips of analyticity reach width 1 - c toward the cut and
    s - 1 away from it (0 < c < 1 < s); c and s are taken at the
    stationary points mu y^2 -+ (pi / h) y - p = 0 of the exponent.  No
    term exceeds S / n!, so M is the least count for which some shape
    h = alpha / M, mu = beta M on the fixed grid brings the bound to
    UNIT_ROUNDOFF / n!; of those shapes the smallest mu is taken, since
    rounding adds about UNIT_ROUNDOFF sum_j |c_j F(z_j)|, which grows with
    e^mu mu^{-p}.  The count depends on n only: 2M + 1 = 39 nodes for
    n = 1 and 37 for 2 <= n <= DEGREE_CAP.
    """
    p = n + 1
    target = math.log(UNIT_ROUNDOFF / math.factorial(n))
    beta, alpha = np.meshgrid(_BETA, _ALPHA, indexing="ij")
    for m in itertools.count(1):
        h, mu = alpha / m, beta * m
        q = np.pi / h
        root = np.sqrt(q * q + 4.0 * mu * p)
        c = np.clip((root - q) / (2.0 * mu), 1e-3, 1.0 - 1e-3)
        s = np.maximum((root + q) / (2.0 * mu), 1.0 + 1e-3)
        bound = np.logaddexp.reduce([
            mu * (1.0 - alpha ** 2) - p * np.log(mu)
            + np.log((1.0 + 1.0 / alpha) / np.pi),
            _log_strip_error(c, mu, h, p), _log_strip_error(s, mu, h, p)])
        fits = np.flatnonzero(bound <= target)
        if fits.size:
            break
    h, mu = alpha.flat[fits[0]] / m, beta.flat[fits[0]] * m
    u = h * np.arange(-m, m + 1)
    z = mu * (1.0 + 1j * u) ** 2
    weights = (h * mu / np.pi) * (1.0 + 1j * u) * np.exp(z)
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


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
        form in heads (False: a0, True: [D, a0]), yield (form, coeffs,
        slots, vanish): vanish marks the terms whose supertrace vanishes by
        parity (no slot mixed, odd count of odd slots), and slots holds the
        other terms, (L, n + 1, d, d) in Delta's eigenbasis, bracketed
        after the head and with the grading folded into the head."""
        if (top := max(chain.blocks, default=0)) > DEGREE_CAP:
            raise DegreeCapError(f"degree {top} exceeds the cap {DEGREE_CAP}")
        t = self.triple
        ops = self._forms(chain.table)
        codes = parity_codes(ops, t.space)
        _, u = t.delta_eigensystem()
        g = t.space.gamma_diag[:, None]
        # graded heads, one row per form in heads, then the brackets
        eig = u.conj().T @ np.concatenate(
            [g * ops[np.array(heads, dtype=np.intp)], ops[1:]]) @ u
        for rows, coeffs in chain.blocks.values():
            slot = np.minimum(np.arange(rows.shape[1]), 1)
            for i, form in enumerate(heads):
                c = codes[slot | form, rows]
                vanish = (c.max(1) < 2) & (c.sum(1) % 2 == 1)
                where = np.where(slot, len(heads), i)
                yield form, coeffs, eig[where, rows[~vanish]], vanish

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

    def term_exact(self, slots) -> np.ndarray:
        """Values of the T terms of a (T, n + 1, d, d) stack in Delta's
        eigenbasis, head graded, as `_prepared_terms` gives them.

        Degree 0 is sum_i (A0)_ii e^{-w_i}.  Degree n >= 1 is the
        trapezoid rule of `_contour(n)` for (1/2 pi i) int e^z tr(A0 R(z)
        A1 ... An R(z)) dz, R(z) = diag(1/(z + w)): every row and every
        node steps at once, as a (rows, nodes * d, d) stack, with one
        product per slot and one column scaling by R; the last slot enters
        through the trace.  A row with a zero slot is exactly 0 and is
        skipped, and rows go in chunks whose node stack holds at most
        NODE_STACK_ELEMENTS entries."""
        w, _ = self.triple.delta_eigensystem()
        n = slots.shape[1] - 1
        if n == 0:
            return np.einsum("tii,i->t", slots[:, 0], np.exp(-w))
        z, weights = _contour(n)
        r = 1.0 / (z[:, None] + w)
        d = w.size
        values = np.zeros(len(slots), dtype=np.complex128)
        live = np.flatnonzero(np.any(slots, axis=(2, 3)).all(1))
        step = max(1, NODE_STACK_ELEMENTS // (r.size * d))
        for lo in range(0, live.size, step):
            rows = live[lo:lo + step]
            s = slots[rows]
            cur = s[:, 0, None] * r[:, None, :]
            for k in range(1, n):
                cur = (cur.reshape(len(rows), -1, d) @ s[:, k]).reshape(
                    cur.shape)
                cur *= r[:, None, :]
            # tr(X An R) = sum_ab X_ab (An)_ba r_a
            last = (cur * s[:, n, None].swapaxes(-1, -2)).sum(-1)
            values[rows] = (last * r).sum(-1) @ weights
        return values

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
        """(estimate, standard error) by sorted-uniform simplex sampling, for
        one term's (n + 1, d, d) stack in Delta's eigenbasis, head graded,
        as `_prepared_terms` gives it."""
        n = len(ops) - 1
        w, _ = self.triple.delta_eigensystem()
        if n == 0:
            val = complex(np.sum(np.diagonal(ops[0]) * np.exp(-w)))
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
            cur = ops[0][None, :, :] * damp[:, 0, None, :]
            for k in range(1, n + 1):
                cur = cur @ ops[k]
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
            if len(slots):
                totals[form] += complex(coeffs[~vanish] @ self.term_exact(slots))
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
        seeds = rng.integers(2 ** 63 - 1, size=max(chain.num_terms, 1))
        total, var, at = 0.0 + 0.0j, 0.0, 0
        for _, coeffs, slots, vanish in self._prepared_terms(chain, (first_slot_d,)):
            live = ~vanish
            for coeff, ops, seed in zip(coeffs[live].tolist(), slots,
                                        seeds[at:at + len(live)][live].tolist()):
                est, se = self.term_mc(ops, samples, np.random.default_rng(seed))
                total += coeff * est
                var += (abs(coeff) * se) ** 2
            at += len(live)
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
