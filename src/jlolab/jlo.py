"""Heat-kernel cochains of graded triples: exact and Monte-Carlo evaluation.

The degree-n cochain of factors (a0, ..., an) is the ordered-simplex
integral of Str(a0 e^{-u0 Delta} [D,a1] e^{-u1 Delta} ... [D,an]
e^{-un Delta}) over the gap variables u.  Both evaluation routes run over
one term loop: it represents, brackets and parity-classifies a chain's
whole factor table as one stack, takes it into Delta's eigenbasis once
(the grading folded into the head), and gathers each degree block's live
terms with one take; a term whose supertrace vanishes by parity reaches
no route.

In the eigenbasis every heat factor and every resolvent is diagonal, so
one string kernel, `JLOEvaluator._string_run` (by chunks of rows,
`_strings`), evaluates tr(A0 W0 A1 W1 ... An Wn) for a stack of terms at
a stack of diagonal weights W, and every route is a quadrature over it.
The weights come points last, (n + 1, d, P), and each term carries its
partial product transposed as one (d, d P) matrix, so each slot is one
product Ak^T X^T per term and one scaling along the points, and one
contraction over the flattened d^2 pair with the last slot closes every
string; a run may close the points of a lower degree n at its slot n,
with the last slot's weights after An (the pairing's weights are the
same at every slot).  The exact route takes W = R(z) =
diag(1/(z + w)) at the nodes of the trapezoid rule on a parabolic contour
around (-inf, 0] (Weideman & Trefethen, Math. Comp. 76, 2007), the
Bromwich integral Str(A0 (1/2 pi i) int e^z R(z) A1 R(z) ... An R(z) dz),
with a node count derived a priori from n (see `_contour`).  Monte Carlo
takes W = e^{-g w} at the gaps g of sorted uniform times; it shares the
string product with the exact route but not its quadrature, so it checks
the contour rule independently.  The pointwise integrand is the kernel at
one point.

The module also carries the contraction variant with [D, a0] in the first
slot, the perturbed mixed-parity cochain built from it, and the integer
index pairing, whose degrees 2, 4, ... are exact-route terms of one slot
stack (gamma (e - 1/2), [D, e], ..., [D, e]), evaluated until the series
settles.  The degrees below the one where the terms' a-priori bound
stops the series share string runs, each degree at its own contour nodes
and closing at its own slot, as many as one slot product's budget holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chains import Chain, _scalar_entries
from .linalg import parity_codes, supertrace
from .shuffles import sample_simplex_batch
from .spectral import INDEX_INTEGER_TOL, SpectralTripleFD, _rounded_index, \
    commutator_d

__all__ = [
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


def __getattr__(name):
    # `jlo.expm` resolves to scipy's expm, imported on first lookup, only
    # because perfbench/tracer.py looks the name up at install; no route
    # calls it and scipy stays off the import path.  ROADMAP item 1's
    # benchmark PR deletes this hook together with the tracer's row.
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# bounded: every route refuses a degree over DEGREE_CAP before it reads
# a rule
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
    n = 1 and 37 for 2 <= n <= DEGREE_CAP.  The target is taken in logs,
    log UNIT_ROUNDOFF - log n!, so no factorial overflows at n >= 171.
    """
    z, weights = _trapezoid_rule(
        n + 1, math.log(UNIT_ROUNDOFF) - math.lgamma(n + 1))
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


def _trapezoid_rule(p: int, target: float):
    """Nodes and weights of `_contour`'s rule for exponent p, at the least
    count whose error bound over S is at most e^target."""
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
    return z, (h * mu / np.pi) * (1.0 + 1j * u) * np.exp(z)


def _product_points(d: int) -> int:
    """Points P whose slot product, (d, d) x (d, P d), stays under 2^16 =
    NODE_STACK_ELEMENTS complex multiply-adds: OpenBLAS threads larger
    ones, which ran slower (d = 4: 14.4 against 8.1 ms per 10^4 Monte Carlo
    samples, two cores, measured on the (P d, d) x (d, d) form) and left a
    helper thread spinning."""
    return (NODE_STACK_ELEMENTS - 1) // d ** 3


@functools.cache
def _pairing_contour():
    """The nodes of `_contour(2m)`, m = 1, ..., DEGREE_CAP // 2, side by
    side, and the offsets at[m - 1]:at[m] of each degree's nodes.  The
    cache holds one entry: the pairing's degrees are fixed by DEGREE_CAP."""
    rules = [_contour(2 * m)[0] for m in range(1, DEGREE_CAP // 2 + 1)]
    z = np.concatenate(rules)
    z.setflags(write=False)
    return z, tuple(itertools.accumulate(map(len, rules), initial=0))


class JLOEvaluator:
    """Per-triple evaluation engine; reuses the cached eigensystem of Delta."""

    def __init__(self, triple: SpectralTripleFD):
        self.triple = triple

    # ---------------------------------------------------------------- slots
    def _forms(self, stack):
        """(2, K, d, d): a factor stack in the canonical basis, then its [D, .]."""
        r, dirac = self.triple.represent(stack), self.triple.dirac
        if r.ndim != 3:
            raise ValueError("factor shape disagrees with the Hilbert space")
        ops = np.empty((2, *r.shape), dtype=np.complex128)
        ops[0] = r
        np.matmul(dirac, r, out=ops[1])
        ops[1] -= r @ dirac
        return ops

    def _eigenbasis(self, heads, slots):
        """The graded heads, then the slots, in Delta's eigenbasis."""
        _, u = self.triple.delta_eigensystem()
        g = self.triple.space.gamma_diag[:, None]
        return u.conj().T @ np.concatenate([g * heads, slots]) @ u

    def _prepared_terms(self, chain: Chain, heads):
        """Per degree block of a normalized chain, ascending, and per head
        form in heads (False: a0, True: [D, a0]), yield (form, coeffs,
        slots, vanish): vanish marks the terms whose supertrace vanishes by
        parity (no slot mixed, odd count of odd slots), and slots holds the
        other terms, (L, n + 1, d, d) in Delta's eigenbasis, bracketed
        after the head and with the grading folded into the head."""
        if (top := max(chain.blocks, default=0)) > DEGREE_CAP:
            raise DegreeCapError(f"degree {top} exceeds the cap {DEGREE_CAP}")
        ops = self._forms(chain.table)
        codes = parity_codes(ops, self.triple.space)
        # graded heads, one row per form in heads, then the brackets
        eig = self._eigenbasis(ops[np.array(heads, dtype=np.intp)], ops[1:])
        for rows, coeffs in chain.blocks.values():
            slot = np.minimum(np.arange(rows.shape[1]), 1)
            for i, form in enumerate(heads):
                c = codes[slot | form, rows]
                vanish = (c.max(1) < 2) & (c.sum(1) % 2 == 1)
                where = np.where(slot, len(heads), i)
                yield form, coeffs, eig[where, rows[~vanish]], vanish

    # ---------------------------------------------------------------- exact
    def _strings(self, slots, weights) -> np.ndarray:
        """(T, P) values tr(A0 W0 A1 W1 ... An Wn) of the T terms of a
        (T, n + 1, d, d) slot stack at the P points of an (n + 1, d, P)
        stack of diagonal weights, points last: one `_string_run` per chunk
        of rows whose stack holds at most NODE_STACK_ELEMENTS entries."""
        n, d, p = slots.shape[1] - 1, slots.shape[-1], weights.shape[-1]
        if n == 0:
            return np.einsum("tii,ip->tp", slots[:, 0], weights[0])
        values = np.empty((len(slots), p), dtype=np.complex128)
        step = max(1, NODE_STACK_ELEMENTS // (p * d * d))
        for lo in range(0, len(slots), step):
            values[lo:lo + step] = next(self._string_run(
                slots[lo:lo + step], weights, [(n, p)]))
        return values

    @staticmethod
    def _string_run(slots, weights, spans):
        """Per span (n, count) of spans, ascending in n >= 1 and in points,
        yield the (T, count) values tr(A0 W0 A1 W1 ... A(n-1) W(n-1) An WN)
        of the T terms of a (T, N + 1, d, d) slot stack at the span's points
        of an (N + 1, d, P) stack of diagonal weights W, points last.
        Each is the string tr(A0 W0 ... An Wn) where Wn = WN: at n = N,
        and at every n when one W serves every slot.

        By cyclicity the string is tr(X An), X = WN A0 W0 A1 W1 ... A(n-1)
        W(n-1).  Each row carries X transposed over the live points as one
        (d, d P) matrix, X^T[a, (b, p)] = X_p[b, a]: it starts from
        (WN A0 W0)^T, and each slot k is one product X^T <- Ak^T X^T and a
        scaling of its rows by Wk along the points.  On reaching slot n,
        sum_ab X^T[a, b] (An)_ab closes the span's strings in one
        contraction over the flattened d^2 pair, an einsum that makes no
        BLAS call, and their points leave the stack."""
        t, d = len(slots), slots.shape[-1]
        transposed, live = slots.swapaxes(-1, -2), weights[:, :, None]
        x, k = transposed[:, 0, ..., None] * (live[0] * weights[-1]), 1
        for n, count in spans:
            for k in range(k, n):
                x = (transposed[:, k] @ x.reshape(t, d, -1)).reshape(x.shape)
                x *= live[k]
            yield np.einsum("tk,tkp->tp", slots[:, n].reshape(t, d * d),
                            x[..., :count].reshape(t, d * d, count))
            x, live, k = x[..., count:], live[..., count:], n

    def term_exact(self, slots) -> np.ndarray:
        """Values of the T terms of a (T, n + 1, d, d) stack in Delta's
        eigenbasis, head graded, as `_prepared_terms` gives them.

        Degree 0 is sum_i (A0)_ii e^{-w_i}.  Degree n >= 1 is the
        trapezoid rule of `_contour(n)` for (1/2 pi i) int e^z tr(A0 R(z)
        A1 ... An R(z)) dz, R(z) = diag(1/(z + w)), every node a point of
        the string kernel."""
        w, _ = self.triple.delta_eigensystem()
        n = slots.shape[1] - 1
        if n == 0:
            return self._strings(slots, np.exp(-w)[None, :, None])[:, 0]
        z, weights = _contour(n)
        r = 1.0 / (z + w[:, None])
        return self._strings(slots, np.broadcast_to(r, (n + 1, *r.shape))) \
            @ weights

    # ------------------------------------------------------------- pointwise
    def integrand(self, factors, t) -> complex:
        """Supertraced heat string at one fixed simplex point, head a0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails both
            raise SimplexOrderError("coordinates must be finite, in [0, 1]")
        if np.any(np.diff(t) < 0.0):
            raise SimplexOrderError("coordinates must be non-decreasing")
        if len(factors) - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {len(factors) - 1} exceeds the cap {DEGREE_CAP}")
        plain, brackets = self._forms(factors)
        if t.size != len(plain) - 1:
            raise ValueError("simplex dimension must equal the chain degree")
        w, _ = self.triple.delta_eigensystem()
        gaps = np.diff(np.concatenate([[0.0], t, [1.0]]))
        return complex(self._strings(
            self._eigenbasis(plain[:1], brackets[1:])[None],
            np.exp(-gaps[:, None, None] * w[:, None]))[0, 0])

    # ------------------------------------------------------------------- MC
    def term_mc(self, ops, samples: int, rng):
        """(estimate, standard error) by sorted-uniform simplex sampling, for
        one term's (n + 1, d, d) stack in Delta's eigenbasis, head graded,
        as `_prepared_terms` gives it; every sample is a point of the
        string kernel with weights e^{-g w} at its gaps g."""
        n = len(ops) - 1
        if n == 0:
            return complex(self.term_exact(ops[None])[0]), 0.0
        w, _ = self.triple.delta_eigensystem()
        chunk = max(1, _product_points(w.size))
        # the sum and the squared deviation from the mean so far, joined per
        # chunk by Chan's update: no cancelling E|X|^2 against |EX|^2
        total, dev_sq = 0.0 + 0.0j, 0.0
        for done in range(0, samples, chunk):
            ts = sample_simplex_batch(n, rng, min(chunk, samples - done))
            gaps = np.diff(ts, prepend=0.0, append=1.0)
            weights = np.exp(-gaps.T[:, None] * w[:, None])
            vals = self._strings(ops[None], weights)[0]
            part, k = complex(vals.sum()), len(vals)
            dev_sq += float(np.sum(np.abs(vals - part / k) ** 2))
            if done:
                dev_sq += (abs(part / k - total / done) ** 2
                           * done * k / (done + k))
            total += part
        inv_fact = 1.0 / math.factorial(n)
        return (total / samples * inv_fact,
                inv_fact * math.sqrt(dev_sq) / samples)

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

    def cochain_mc(self, chain: Chain, samples: int, rng):
        """(estimate, standard error); independent sample streams per term,
        one seed per normalized term, errors combined in quadrature."""
        if isinstance(samples, bool) or not isinstance(
                samples, numbers.Integral) or samples < 1:
            raise ValueError("samples must be a positive integer")
        chain = chain.normalized()
        seeds = rng.integers(2 ** 63 - 1, size=max(chain.num_terms, 1))
        total, var, at = 0.0 + 0.0j, 0.0, 0
        for _, coeffs, slots, vanish in self._prepared_terms(chain, (False,)):
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
    brackets = commutator_d(triple, chain.table[heads])
    blocks = {}
    for n, (rows, coeffs) in chain.blocks.items():
        head = len(chain.table) + np.searchsorted(heads, rows[:, :1])
        blocks[n] = (np.hstack([head, rows[:, 1:]]), coeffs * INV_SQRT2)
    return Chain.from_table(chain.algebra_dim,
                            np.concatenate([chain.table, brackets]), blocks)


def perturbed_cochain(triple: SpectralTripleFD, chain: Chain) -> complex:
    """Mixed-parity cochain: plain value plus the contraction over sqrt(2),
    as is the plain cochain of the chain plus its `delta_perturbation`'s."""
    value = JLOEvaluator(triple)._cochains(chain, (False, True))
    return value[False] + INV_SQRT2 * value[True]


@dataclass(frozen=True)
class PairingReport:
    value: complex
    truncation_degree: int
    last_term_magnitude: float
    integer: int


def index_pairing(amp: SpectralTripleFD, e) -> PairingReport:
    """Pair the idempotent character against the triple's cochain, for the
    ampliated triple amp and operator e of a pair checked by
    spectral.validate_idempotent.

    The character is (e) plus (-1)^n (2n)!/n! (e - 1/2, e, ..., e) in
    degree 2n, whose slots after the head are all [D, e]; a scalar e
    (dropped from slots by normalization) pairs to zero.  Degrees are
    evaluated and summed until a term falls below the truncation threshold
    relative to the sum, which must then sit within INDEX_INTEGER_TOL of an
    integer; at DEGREE_CAP the sum is also accepted when the terms' bound
    past it is under that threshold.  NonConvergentError is raised when
    neither holds by DEGREE_CAP, or the terms settle before their peak.
    One bound on the terms serves the stop rule and the evaluation: the
    degrees below the one where it falls under every threshold share
    string runs (see `_pairing_terms`), so a run that the term stop ends
    early has carried its later degrees part way, up to the stop's slot.
    """
    de = amp.dirac @ e - e @ amp.dirac
    # the degree-2m term is at most (d/2) c^m / m! for c >= ||[D, e]||^2,
    # and ||[D, e]|| <= ||D|| for a projection; the bound's tail past the
    # stop grows with c and is far over the threshold at c = 700, where
    # e^c is still finite
    c = min(amp.delta_eigensystem()[0][-1], np.vdot(de, de).real, 700.0)
    series = [c ** m / math.factorial(m)
              for m in range(DEGREE_CAP // 2 + 1)]
    acc = 0.0 + 0.0j
    for n, term in enumerate(_pairing_terms(amp, e, de, series)):
        acc += term
        threshold = PAIRING_TRUNCATION * (1.0 + abs(acc))
        if n >= 1 and abs(term) < threshold:
            break
    tail = 0.5 * amp.hilbert_dim * (math.exp(c) - sum(series[:n + 1]))
    # at DEGREE_CAP without the term stop, the tail must meet its threshold
    if not (abs(term) < threshold or tail < threshold):
        raise NonConvergentError(
            f"pairing terms still at {abs(term):.3g} at degree {2 * n}")
    if tail > INDEX_INTEGER_TOL:
        raise NonConvergentError(
            f"pairing terms stopped at degree {2 * n}, but their bound's "
            f"tail past it is {tail:.3g}")
    return PairingReport(value=acc, truncation_degree=2 * n,
                         last_term_magnitude=abs(term),
                         integer=_rounded_index(acc, "pairing value"))


def _pairing_terms(amp: SpectralTripleFD, e, de, series):
    """Pairing terms in degrees 0, 2, ..., DEGREE_CAP, one at a time:
    Str(e e^{-Delta}), then degree 2m's strings of one eigenbasis stack
    (gamma (e - 1/2), de = [D, e], ..., [D, e]) at the nodes of
    `_contour(2m)`, summed with its weights, where series[m] = c^m / m!.

    Below the least m whose bound (d/2) series[m] is under
    PAIRING_TRUNCATION, where the term stop must fire, consecutive degrees
    share one `_string_run` over their nodes side by side while those fit
    one slot product's budget (`_product_points`).  Each degree closes at
    its own slot and is yielded there, so a run whose reader stops early
    has carried its later degrees only up to that slot.  From that m on,
    and where one degree's nodes overrun the budget, each degree runs
    alone, as its own `term_exact` call would."""
    yield supertrace(e @ amp.heat(1.0), amp.space)
    if _scalar_entries(e[None])[0]:
        yield 0.0 + 0.0j
        return
    d, ev = amp.hilbert_dim, JLOEvaluator(amp)
    stack = np.empty((1, DEGREE_CAP + 1, d, d), dtype=np.complex128)
    stack[0, 0], stack[0, 1:] = ev._eigenbasis(
        (e - 0.5 * np.eye(d))[None], de[None])
    w, _ = amp.delta_eigensystem()
    z, at = _pairing_contour()
    top, points = len(series) - 1, _product_points(d)
    # the term stop fires at the least m whose bound is under every
    # threshold, or before it
    stop = next((m for m in range(1, top + 1)
                 if 0.5 * d * series[m] < PAIRING_TRUNCATION), top + 1)
    first = 1
    while first <= top:
        last = first
        while last + 1 < stop and at[last + 1] - at[first - 1] <= points:
            last += 1
        r = 1.0 / (z[at[first - 1]:at[last]] + w[:, None])
        degrees = range(first, last + 1)
        for m, values in zip(degrees, ev._string_run(
                stack[:, :2 * last + 1],
                np.broadcast_to(r, (2 * last + 1, *r.shape)),
                [(2 * m, at[m] - at[m - 1]) for m in degrees])):
            yield ((-1) ** m * math.factorial(2 * m) / math.factorial(m)
                   * (values @ _contour(2 * m)[1])[0])
        first = last + 1
