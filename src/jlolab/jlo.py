"""Heat-kernel cochains of graded triples: exact and Monte-Carlo evaluation.

The degree-n cochain of factors (a0, ..., an) is the ordered-simplex
integral of Str(a0 e^{-u0 Delta} [D,a1] e^{-u1 Delta} ... [D,an]
e^{-un Delta}) over the gap variables u.  Both evaluation routes run over
one term loop: it represents, brackets and parity-classifies a chain's
whole factor table as one stack, takes it into Delta's eigenbasis once
(the grading folded into the head), groups each degree block's terms by
the pattern of their slots' parity codes and gathers each group with one
take; a term whose supertrace vanishes by parity reaches no route.

In the eigenbasis every heat factor and every resolvent is diagonal, so
one string kernel, `JLOEvaluator._string_run` (over spans of points)
and `_strings` (by chunks of rows, with no generator), evaluates
tr(A0 W0 A1 W1 ... An Wn) for a stack of terms at a stack of diagonal
weights W, and every route is a quadrature over it.
The weights come points last, (n + 1, d, P), and each term carries its
partial product transposed, so each slot is one product Ak^T X^T per
term and one scaling along the points, and one contraction with the last
slot closes every string; a run may close the points of a lower degree n
at its slot n, with the last slot's weights after An (the pairing's
weights are the same at every slot).  Delta's eigenvectors are pure
(`SpectralTripleFD.delta_eigensystem` takes them per parity block), so a
slot of one parity keeps two nonzero blocks there, and a string of pure
slots is pure.  The kernel carries such a string as two halves, its rows
of each parity, each padded to m = max(d_even, d_odd): one (m, m P)
matrix per half, each slot one batched product over both halves.  A term
with a mixed slot (parity code 2) runs the dense kernel, one (d, d P)
matrix; the route is chosen by the slots' parity codes alone (`_Terms`).
The exact route takes W = R(z) = diag(1/(z + w)) at the nodes of the
trapezoid rule on a parabolic contour around (-inf, 0] (Weideman &
Trefethen, Math. Comp. 76, 2007), the
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
from typing import NamedTuple

import numpy as np

from .chains import Chain, _scalar_entries
from .linalg import GradedSpace, parity_codes, supertrace
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


# the base-3 place values of a row's parity codes, one digit per slot
_BASE3 = 3 ** np.arange(DEGREE_CAP + 1)


# bounded: a key is one of at most 3^(n + 1) code patterns per degree, and
# a block has few distinct ones
@functools.lru_cache(maxsize=256)
def _parity_pattern(n: int, key: int):
    """The string kernel's route for a row of n + 1 slots whose parity
    codes are the base-3 digits of key, lowest first, as (swapped, near,
    far), read-only; None when its supertrace vanishes by parity (every
    slot pure and an odd count of them odd).

    A row with a mixed slot runs the dense kernel: near = far = None and
    swapped all False.  Otherwise half s of slot k is its block to the
    vectors of parity near[k, s] = s + p_k from those of parity far[k, s]
    = s + p_(k+1), where p_k is the parity of the slots before slot k; so
    half s of every string always holds its rows of parity s, and past
    slot k its columns have parity s + p_(k+1), swapped[k] = p_(k+1)."""
    codes = np.array([key // 3 ** k % 3 for k in range(n + 1)])
    if codes.max() == 2:
        out = (np.zeros(n + 1, dtype=bool), None, None)
    else:
        through = np.cumsum(codes) % 2
        if through[-1]:
            return None
        half = np.arange(2)
        out = (through == 1, (half + (through - codes)[:, None]) % 2,
               (half + through[:, None]) % 2)
    for a in out:
        if a is not None:
            a.setflags(write=False)
    return out


class _Group(NamedTuple):
    """Terms of one route through the string kernel: their rows `at` in
    the stack, ascending, their slots (T, n + 1, H, m, m), `swapped`
    (n + 1,) and `rows` (H, m), the vector of each row of a half.
    swapped[k] says that past slot k the first half carries the odd rows."""

    at: np.ndarray
    slots: np.ndarray
    swapped: np.ndarray
    rows: np.ndarray


class _Terms:
    """The terms of one degree-n slot stack as the string kernel takes
    them, in groups (`_Group`), one per pattern of the slots' parity codes.
    A row with a mixed slot (code 2) runs the dense kernel, one half (H =
    1) of m = d rows; a row of pure slots runs two halves (H = 2) of m =
    max(d_even, d_odd) rows, unless its count of odd slots is odd: then its
    supertrace vanishes by parity, `vanish` marks it, and it reads 0."""

    __slots__ = ("degree", "vanish", "groups")

    def __init__(self, degree: int, vanish, groups: tuple):
        self.degree, self.vanish, self.groups = degree, vanish, groups

    def __len__(self):
        return len(self.vanish)

    def __getitem__(self, t):
        """Term t alone, as a one-term stack."""
        vanish = self.vanish[t:t + 1]
        if not (0 <= t and len(vanish)):
            raise IndexError(t)
        for at, slots, swapped, rows in self.groups:
            j = np.searchsorted(at, t)
            if j < len(at) and at[j] == t:
                return _Terms(self.degree, vanish, (_Group(
                    np.zeros(1, np.intp), slots[j:j + 1], swapped, rows),))
        return _Terms(self.degree, vanish, ())


def _gaps(ts, out):
    """The gaps of P sorted simplex points ts (P, n) written into out
    (n + 1, P), bit for bit np.diff(ts, prepend=0.0, append=1.0).T."""
    out[0] = ts[:, 0]
    np.subtract(ts[:, 1:].T, ts[:, :-1].T, out=out[1:-1])
    np.subtract(1.0, ts[:, -1], out=out[-1])
    return out


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
        """The graded heads, then the slots, flattened to one stack in
        Delta's eigenbasis in the halves' layout, (E, 2, m, 2, m): block
        [j, j'] maps the vectors of parity j' to those of parity j, padded
        with zeros to m x m (see `linalg._Grading`).  It is conjugated by
        Delta's eigenvectors, each placed in its half, by two products over
        the whole stack (not two per matrix).  The eigenvectors are pure, so
        a pure matrix keeps exact zero blocks there."""
        _, u = self.triple.delta_eigensystem()
        space = self.triple.space
        d, m = len(u), max(space.dim_even, space.dim_odd)
        # the eigenvectors as the columns of P, (d, 2 m), each at its place
        placed = np.zeros((d, 2 * m), dtype=np.complex128)
        placed[:, space._constants.at] = u
        stack = np.concatenate([space.gamma_diag[:, None] * heads, slots])
        e = stack.size // (d * d)
        # X_e P for every e, then P^* (X_e P) for every e, side by side
        right = (stack.reshape(e * d, d) @ placed).reshape(e, d, 2 * m)
        both = placed.conj().T @ right.transpose(1, 0, 2).reshape(d, e * 2 * m)
        return both.reshape(2, m, e, 2, m).transpose(2, 0, 1, 3, 4)

    def _terms(self, blocks, codes, rows) -> _Terms:
        """The terms whose slots are rows (T, n + 1) of an `_eigenbasis`
        table, blocks (E, 2, m, 2, m), of parity codes (E,), grouped by the
        pattern of their slots' codes (`_Terms`, `_parity_pattern`)."""
        n = rows.shape[1] - 1
        _, _, vectors, at = self.triple.space._constants
        key = codes[rows] @ _BASE3[:n + 1]
        keys = sorted(set(key.tolist()))
        vanish = np.zeros(len(rows), dtype=bool)
        groups = []
        for k in keys:
            match = np.flatnonzero(key == k) if len(keys) > 1 \
                else np.arange(len(rows))
            pattern = _parity_pattern(n, k)
            if pattern is None:
                vanish[match] = True
                continue
            swapped, near, far = pattern
            if near is None:
                # the dense d x d slots, read off their places
                grid = blocks.reshape(
                    len(codes), vectors.size, -1)[rows[match]]
                groups.append(_Group(
                    match, grid[..., at[:, None], at][:, :, None], swapped,
                    np.arange(at.size)[None]))
            else:
                groups.append(_Group(match, blocks[
                    rows[match][..., None], near, :, far], swapped, vectors))
        return _Terms(n, vanish, tuple(groups))

    def _prepared_terms(self, chain: Chain, heads):
        """Per degree block of a normalized chain, ascending, and per head
        form in heads (False: a0, True: [D, a0]), yield (form, coeffs,
        terms): the block's terms as a `_Terms` in Delta's eigenbasis,
        bracketed after the head and with the grading folded into the
        head, whose `vanish` marks the terms that vanish by parity."""
        if (top := max(chain.blocks, default=0)) > DEGREE_CAP:
            raise DegreeCapError(f"degree {top} exceeds the cap {DEGREE_CAP}")
        ops = self._forms(chain.table)
        codes = parity_codes(ops, self.triple.space)
        # graded heads, one row per form in heads, then the brackets
        forms = np.array([*heads, True], dtype=np.intp)
        blocks = self._eigenbasis(ops[forms[:-1]], ops[1:])
        codes = codes[forms].ravel()
        for rows, coeffs in chain.blocks.values():
            slot = np.minimum(np.arange(rows.shape[1]), 1)
            for i, form in enumerate(heads):
                yield form, coeffs, self._terms(
                    blocks, codes,
                    np.where(slot, len(heads), i) * len(chain.table) + rows)

    # ---------------------------------------------------------------- exact
    def _strings(self, terms: _Terms, weights) -> np.ndarray:
        """(T, P) values tr(A0 W0 A1 W1 ... An Wn) of the T terms of a
        `_Terms` at the P points of an (n + 1, d, P) stack of diagonal
        weights, points last.  Each group (`_Group`) reads its halves'
        rows of the weights, (n + 1, H, m, P): the rows with a mixed slot
        run the dense kernel (H = 1, m = d), each pure pattern the two
        halves (H = 2).  A group runs `_string_run`'s products over every
        point once per chunk of rows whose d x d slot stack would hold at
        most NODE_STACK_ELEMENTS entries, with no generator to set up; a
        row in no group vanishes by parity and reads 0."""
        n, d, p = terms.degree, weights.shape[1], weights.shape[-1]
        values = np.zeros((len(terms), p), dtype=np.complex128)
        step = max(1, NODE_STACK_ELEMENTS // (p * d * d))
        for at, slots, swapped, rows in terms.groups:
            live = weights[:, rows]
            if n == 0:
                values[at] = np.einsum("thii,hip->tp", slots[:, 0], live[0])
                continue
            for lo in range(0, len(at), step):
                chunk = slots[lo:lo + step]
                x, run = self._string_open(chunk, swapped, live)
                values[at[lo:lo + step]] = self._string_close(
                    chunk, self._string_carry(chunk, swapped, x, run, 1, n),
                    n, p)
        return values

    @staticmethod
    def _string_run(slots, swapped, weights, spans):
        """Per span (n, count) of spans, ascending in n >= 1 and in points,
        yield the (T, count) values tr(A0 W0 A1 W1 ... A(n-1) W(n-1) An WN)
        of the T terms of one group's (T, N + 1, H, m, m) slots (`_Group`)
        at the span's points of their (N + 1, H, m, P) diagonal weights W,
        points last.  Each is the string tr(A0 W0 ... An Wn) where Wn = WN:
        at n = N, and at every n when one W serves every slot.  The halves
        close a span only where the slots through n hold an even count of
        odd ones, swapped[n] False; at any other n the string is 0 by
        parity, and what they yield is not it.

        By cyclicity the string is tr(X An), X = WN A0 W0 A1 W1 ... A(n-1)
        W(n-1).  Each row carries X transposed over the live points as H
        halves of one (m, m P) matrix each, X^T[s, a, (b, p)] = X_p[b, a]
        for the rows b of half s.  With H = 1, m = d, that is the dense
        string.  With H = 2, half s holds X's rows of parity s: X is pure
        when its slots are, so the halves hold all of it, and the rest of
        each half is zero padding.  X^T starts from (WN A0 W0)^T
        (`_string_open`), and each slot k is one batched product X^T <- Ak^T
        X^T, (T, H, m, m) by (T, H, m, m P), and a scaling of its rows by
        Wk along the points (`_string_carry`).  A slot maps each half into
        itself; past slot k half s holds the columns a of parity s + p,
        where p is the parity of the slots so far, swapped[k], so its rows
        take the weights of half s + p.  No half is moved or copied.  On
        reaching slot n, sum_sab X^T[s, a, b] (An)_sab closes the span's
        strings in one contraction over the flattened H m^2 entries, an
        einsum that makes no BLAS call (`_string_close`), and their points
        leave the stack."""
        x, live = JLOEvaluator._string_open(slots, swapped, weights)
        k = 1
        for n, count in spans:
            x = JLOEvaluator._string_carry(slots, swapped, x, live, k, n)
            yield JLOEvaluator._string_close(slots, x, n, count)
            x, live, k = x[..., count:], live[..., count:], n

    @staticmethod
    def _string_open(slots, swapped, weights):
        """(X^T, live weights): X^T = (WN A0 W0)^T of every row, (T, H, m,
        m, P), and the weights with a row axis, (N + 1, H, m, 1, P)."""
        live = weights[:, :, :, None]
        first = live[0, ::-1] if swapped[0] else live[0]
        x = slots[:, 0].swapaxes(-1, -2)[..., None] \
            * (first * weights[-1][:, None])
        return x, live

    @staticmethod
    def _string_carry(slots, swapped, x, live, k, n):
        """X^T carried from slot k to slot n: X^T <- Ak^T X^T, then its rows
        scaled by Wk, for each slot k .. n - 1."""
        t, h, m = len(slots), slots.shape[2], slots.shape[-1]
        for k in range(k, n):
            x = (slots[:, k].swapaxes(-1, -2) @ x.reshape(t, h, m, -1)) \
                .reshape(x.shape)
            x *= live[k, ::-1] if swapped[k] else live[k]
        return x

    @staticmethod
    def _string_close(slots, x, n, count):
        """(T, count) values sum_sab X^T[s, a, b] (An)_sab at the first
        count points of X^T."""
        t = len(slots)
        return np.einsum("tk,tkp->tp", slots[:, n].reshape(t, -1),
                         x[..., :count].reshape(t, -1, count))

    def term_exact(self, terms: _Terms) -> np.ndarray:
        """Values of the T terms of a `_Terms` in Delta's eigenbasis, head
        graded, as `_prepared_terms` gives them.

        Degree 0 is sum_i (A0)_ii e^{-w_i}.  Degree n >= 1 is the
        trapezoid rule of `_contour(n)` for (1/2 pi i) int e^z tr(A0 R(z)
        A1 ... An R(z)) dz, R(z) = diag(1/(z + w)), every node a point of
        the string kernel."""
        w, _ = self.triple.delta_eigensystem()
        n = terms.degree
        if n == 0:
            return self._strings(terms, np.exp(-w)[None, :, None])[:, 0]
        z, weights = _contour(n)
        r = 1.0 / (z + w[:, None])
        return self._strings(terms, np.broadcast_to(r, (n + 1, *r.shape))) \
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
        codes = parity_codes(np.concatenate([plain[:1], brackets[1:]]),
                             self.triple.space)
        terms = self._terms(self._eigenbasis(plain[:1], brackets[1:]), codes,
                            np.arange(len(plain))[None])
        return complex(self._strings(
            terms,
            np.exp(-gaps[:, None, None] * w[:, None]))[0, 0])

    # ------------------------------------------------------------------- MC
    def term_mc(self, terms: _Terms, samples: int, rng):
        """(estimate, standard error) by sorted-uniform simplex sampling, for
        a one-term `_Terms` in Delta's eigenbasis, head graded, as
        `_prepared_terms` gives it; every sample is a point of the string
        kernel with weights e^{-g w} at its gaps g, taken in the term's
        halves.  A term that vanishes by parity reads (0, 0) and draws
        nothing."""
        n = terms.degree
        if n == 0:
            return complex(self.term_exact(terms)[0]), 0.0
        if not terms.groups:
            return 0.0 + 0.0j, 0.0
        (_, slots, swapped, rows), = terms.groups
        w, _ = self.triple.delta_eigensystem()
        chunk = max(1, _product_points(w.size))
        gaps = np.empty((n + 1, min(chunk, samples)))
        w = w[rows][..., None]
        # the sum and the squared deviation from the mean so far, joined per
        # chunk by Chan's update: no cancelling E|X|^2 against |EX|^2
        total, dev_sq = 0.0 + 0.0j, 0.0
        for done in range(0, samples, chunk):
            ts = sample_simplex_batch(n, rng, min(chunk, samples - done))
            weights = np.exp(-_gaps(ts, gaps[:, :len(ts)])[:, None, None] * w)
            x, live = self._string_open(slots, swapped, weights)
            vals = self._string_close(slots, self._string_carry(
                slots, swapped, x, live, 1, n), n, len(ts))[0]
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
        for form, coeffs, terms in self._prepared_terms(chain, heads):
            if terms.groups:
                totals[form] += complex(coeffs @ self.term_exact(terms))
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
        seeds, total, var, at = seeds.tolist(), 0.0 + 0.0j, 0.0, 0
        for _, coeffs, terms in self._prepared_terms(chain, (False,)):
            coeffs = coeffs.tolist()
            for t in np.flatnonzero(~terms.vanish).tolist():
                est, se = self.term_mc(terms[t], samples,
                                       np.random.default_rng(seeds[at + t]))
                total += coeffs[t] * est
                var += (abs(coeffs[t]) * se) ** 2
            at += len(terms)
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
    c = min(amp.delta_eigensystem()[0].max(), np.vdot(de, de).real, 700.0)
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
    head = e - 0.5 * np.eye(d)
    blocks = ev._eigenbasis(head[None], de[None])
    codes = parity_codes(np.stack([head, de]), amp.space)
    # one row, in one group: its head is even, as e is, and its other
    # slots are one matrix, so every degree 2m holds an even count of odd
    # slots and no run closes where the halves could not
    (_, slots, swapped, rows), = ev._terms(
        blocks, codes, np.minimum(np.arange(DEGREE_CAP + 1), 1)[None]).groups
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
        r = (1.0 / (z[at[first - 1]:at[last]] + w[:, None]))[rows]
        degrees = range(first, last + 1)
        for m, values in zip(degrees, ev._string_run(
                slots[:, :2 * last + 1], swapped,
                np.broadcast_to(r, (2 * last + 1, *r.shape)),
                [(2 * m, at[m] - at[m - 1]) for m in degrees])):
            yield ((-1) ** m * math.factorial(2 * m) / math.factorial(m)
                   * (values @ _contour(2 * m)[1])[0])
        first = last + 1
