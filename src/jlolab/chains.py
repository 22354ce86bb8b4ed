"""Formal chains over matrix algebras and the shuffle-type operations on them.

A chain is a finite complex-linear combination of elementary tensors
(a0, ..., an) of square matrices over a fixed algebra dimension.  Slots
1..n are understood modulo scalars: the normalization pass drops any
elementary term carrying a scalar multiple of the identity in such a slot,
which is the computable shadow of working in A tensor (A / C1)^n.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import _freeze, frob
from .shuffles import (
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    permutation_signs,
)

__all__ = [
    "Chain",
    "ElementaryChain",
    "TermBudgetError",
    "br_operation",
    "connes_B",
    "cyclic_shuffle_product",
    "hochschild_b",
    "probe_distance",
    "shuffle_product",
]

SCALAR_SLOT_TOL = 1e-12
MAX_OUTPUT_TERMS = 1_000_000


class TermBudgetError(RuntimeError):
    """An operation would produce an unreasonable number of elementary terms."""


@dataclass(frozen=True)
class ElementaryChain:
    """coeff times the elementary tensor (factors[0], ..., factors[n])."""

    coeff: complex
    factors: tuple

    def __post_init__(self):
        facs = tuple(_freeze(f) for f in self.factors)
        if not facs:
            raise ValueError("need at least one tensor factor")
        d = facs[0].shape[0]
        for f in facs:
            if f.shape != (d, d):
                raise ValueError("factors must be square matrices of equal dimension")
        object.__setattr__(self, "factors", facs)
        object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def degree(self) -> int:
        return len(self.factors) - 1

    @property
    def dim(self) -> int:
        return self.factors[0].shape[0]

    def scaled(self, c) -> "ElementaryChain":
        return ElementaryChain(self.coeff * c, self.factors)


@dataclass(frozen=True)
class Chain:
    """Finite sum of elementary chains over a fixed algebra dimension."""

    algebra_dim: int
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, ElementaryChain):
                raise TypeError("terms must be ElementaryChain instances")
            if t.dim != self.algebra_dim:
                raise ValueError("term dimension disagrees with the algebra dimension")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, algebra_dim: int) -> "Chain":
        return cls(algebra_dim, ())

    @classmethod
    def elementary(cls, coeff, factors) -> "Chain":
        term = ElementaryChain(coeff, tuple(factors))
        return cls(term.dim, (term,))

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def degrees(self) -> tuple:
        return tuple(sorted({t.degree for t in self.terms}))

    def component(self, n: int) -> "Chain":
        return Chain(self.algebra_dim, tuple(t for t in self.terms if t.degree == n))

    def by_degree(self) -> dict:
        out: dict = {}
        for t in self.terms:
            out.setdefault(t.degree, []).append(t)
        return {n: Chain(self.algebra_dim, tuple(ts)) for n, ts in out.items()}

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if other.algebra_dim != self.algebra_dim:
            raise ValueError("cannot add chains over different algebra dimensions")
        return Chain(self.algebra_dim, self.terms + other.terms)

    def __neg__(self) -> "Chain":
        return Chain(self.algebra_dim, tuple(t.scaled(-1.0) for t in self.terms))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __rmul__(self, c) -> "Chain":
        return Chain(self.algebra_dim, tuple(t.scaled(c) for t in self.terms))

    def normalized(self) -> "Chain":
        """Drop vanishing terms and terms with a scalar matrix in a slot >= 1.

        Each distinct slot array is tested once: the terms of a product
        share their factor arrays, and while they live an id names one.
        """
        slots = {id(f): f for t in self.terms for f in t.factors[1:]}
        scalar = {k: _is_scalar_matrix(f) for k, f in slots.items()}
        kept = [t for t in self.terms if t.coeff != 0
                and not any(scalar[id(f)] for f in t.factors[1:])]
        return Chain(self.algebra_dim, tuple(kept))


def _is_scalar_matrix(f: np.ndarray) -> bool:
    d = f.shape[0]
    mu = np.trace(f) / d
    return frob(f - mu * np.eye(d)) <= SCALAR_SLOT_TOL * max(1.0, frob(f))


def hochschild_b(chain: Chain) -> Chain:
    """Hochschild boundary.

    b(a0, ..., an) = sum_{i<n} (-1)^i (a0, ..., a_i a_{i+1}, ..., an)
                     + (-1)^n (an a0, a1, ..., a_{n-1}).
    Degree-0 terms are annihilated.
    """
    out = []
    for term in chain.terms:
        n = term.degree
        if n == 0:
            continue
        f = term.factors
        for i in range(n):
            merged = f[:i] + (f[i] @ f[i + 1],) + f[i + 2:]
            out.append(ElementaryChain(term.coeff * (-1) ** i, merged))
        wrap = (f[n] @ f[0],) + f[1:n]
        out.append(ElementaryChain(term.coeff * (-1) ** n, wrap))
    return Chain(chain.algebra_dim, tuple(out)).normalized()


def connes_B(chain: Chain) -> Chain:
    """Cyclic boundary B(a0, ..., an) = sum_i (-1)^{ni} (1, a_i, ..., a_{i-1})."""
    out = []
    eye = _freeze(np.eye(chain.algebra_dim))
    for term in chain.terms:
        n = term.degree
        f = term.factors
        for i in range(n + 1):
            rotated = f[i:] + f[:i]
            out.append(ElementaryChain(term.coeff * (-1) ** (n * i), (eye,) + rotated))
    return Chain(chain.algebra_dim, tuple(out)).normalized()


def _budget(chains, extra=()):
    """Raise TermBudgetError before a product of chains is built if it would
    have more than MAX_OUTPUT_TERMS terms.

    A combination of terms of degrees ps yields multinomial(ps + extra)
    terms; combinations are counted per distinct tuple of degrees.
    """
    count = 0
    for combo in itertools.product(*(
            collections.Counter(t.degree for t in c.terms).items()
            for c in chains)):
        parts = tuple(p for p, _ in combo) + extra
        count += math.prod(m for _, m in combo) * (
            math.factorial(sum(parts)) // math.prod(map(math.factorial, parts)))
    if count > MAX_OUTPUT_TERMS:
        raise TermBudgetError(
            f"operation would produce {count} elementary terms "
            f"(cap {MAX_OUTPUT_TERMS})"
        )


def _embedder(dims):
    """embed(i, f): a factor f over algebra i as 1 (x) .. (x) f (x) .. (x) 1
    over the tensor product of algebras of the given dims, frozen.

    Each distinct (i, array) is embedded once per embedder, so the terms of
    a product share one array per input factor; while the inputs live an
    id names one array.
    """
    total = math.prod(dims)
    pre = list(itertools.accumulate(dims[:-1], operator.mul, initial=1))
    done = {}

    def embed(i: int, f: np.ndarray) -> np.ndarray:
        key = (i, id(f))
        if key not in done:
            out = f
            if pre[i] > 1:
                out = np.kron(np.eye(pre[i], dtype=np.complex128), out)
            post = total // (pre[i] * dims[i])
            if post > 1:
                out = np.kron(out, np.eye(post, dtype=np.complex128))
            done[key] = _freeze(out)
        return done[key]

    return embed


def _placements(images) -> list:
    """(sign, inverse row) for each row of an image array.

    Column j of the inverse permutation names the item that lands in slot
    j.  shuffles.sorting_images places simplex coordinates by the same
    rule, so algebra and geometry share one sign convention.
    """
    return list(zip(permutation_signs(images).tolist(),
                    np.argsort(images, axis=1).tolist()))


def _signed_terms(coeff, head, slots, placements) -> list:
    """One term per placement (sign, inverse row): coeff times the sign,
    head in slot 0 and slots[row[j]] in slot j + 1.

    head and slots are frozen once, so every row shares their arrays.
    """
    head = _freeze(head)
    slots = [_freeze(s) for s in slots]
    return [ElementaryChain(coeff * sign, (head,) + tuple(slots[k] for k in row))
            for sign, row in placements]


def shuffle_product(left: Chain, right: Chain) -> Chain:
    """Signed sum over (p, q)-shuffles of the interleaved Kronecker factors.

    The head slot is a0 (x) b0; the remaining slots are a_i (x) 1 and
    1 (x) b_j interleaved by each shuffle with its signature.  Associative,
    with unit the degree-0 chain (1) over the one-dimensional algebra.
    """
    _budget((left, right))
    embed = _embedder((left.algebra_dim, right.algebra_dim))
    heads, families = {}, {}
    out = []
    for ta, tb in itertools.product(left.terms, right.terms):
        a0, b0 = ta.factors[0], tb.factors[0]
        key = (id(a0), id(b0))
        if key not in heads:
            heads[key] = _freeze(np.kron(a0, b0))
        slots = [embed(0, a) for a in ta.factors[1:]]
        slots += [embed(1, b) for b in tb.factors[1:]]
        ps = (ta.degree, tb.degree)
        if ps not in families:
            families[ps] = _placements(enumerate_shuffles(*ps))
        out += _signed_terms(ta.coeff * tb.coeff, heads[key], slots,
                             families[ps])
    return Chain(left.algebra_dim * right.algebra_dim, tuple(out)).normalized()


def br_operation(chains) -> Chain:
    """Degree-raising cyclic-shuffle operation on r chains.

    Inserts the unit in slot 0, embeds the arguments' factors into the
    tensor-product algebra, and sums the signed cyclic-shuffle
    interleavings.  One argument reproduces the cyclic boundary connes_B;
    two arguments give the cyclic shuffle product.
    """
    chains = list(chains)
    if not chains:
        raise ValueError("need at least one chain")
    _budget(chains, (len(chains),))
    dims = [c.algebra_dim for c in chains]
    embed = _embedder(dims)
    lead = _freeze(np.eye(math.prod(dims)))
    families = {}
    out = []
    for combo in itertools.product(*[c.terms for c in chains]):
        slots = [embed(i, f) for i, t in enumerate(combo) for f in t.factors]
        base = math.prod((t.coeff for t in combo), start=1.0 + 0.0j)
        ps = tuple(t.degree for t in combo)
        if ps not in families:
            families[ps] = _placements(enumerate_cyclic_shuffles(ps))
        out += _signed_terms(base, lead, slots, families[ps])
    return Chain(math.prod(dims), tuple(out)).normalized()


def cyclic_shuffle_product(left: Chain, right: Chain) -> Chain:
    """Two-argument cyclic-shuffle product, degree p + q + 2."""
    return br_operation([left, right])


def _random_probes(d: int, degrees, rng) -> dict:
    out = {}
    for n in degrees:
        out[n] = tuple(
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
            for _ in range(n + 1)
        )
    return out


def probe_distance(c1: Chain, c2: Chain, rng) -> float:
    """Max over four random probe families of the normalized pairing
    difference.

    A family holds probe matrices (P_0, ..., P_n) for each degree n and
    pairs a chain to the sum of coeff * prod_k tr(f_k P_k) over its terms.
    Faithful on formal chains outside a measure-zero set of probes, which
    makes it a cheap randomized equality test for chain-valued identities.
    One matrix product gives the trace of every distinct factor array
    against every probe; the terms of a product share their factor arrays,
    and while they live an id names one.
    """
    if c1.algebra_dim != c2.algebra_dim:
        raise ValueError("chains live over different algebra dimensions")
    d = c1.algebra_dim
    degs = sorted(set(c1.degrees()) | set(c2.degrees()))
    families = [_random_probes(d, degs, rng) for _ in range(4)]
    # probe columns run degree by degree, then family by family, then slot
    start = dict(zip(degs, itertools.accumulate(
        (4 * (n + 1) for n in degs), initial=0)))
    probes_t = np.array([p.T for n in degs for fam in families for p in fam[n]],
                        dtype=np.complex128)
    table = {id(f): f for c in (c1, c2) for t in c.terms for f in t.factors}
    row_of = {k: i for i, k in enumerate(table)}
    factors = np.array(list(table.values()), dtype=np.complex128)
    # tr(f P) = sum_ij f_ij (P^T)_ij
    traces = factors.reshape(-1, d * d) @ probes_t.reshape(-1, d * d).T

    def pairings(chain):
        grouped = {}
        for t in chain.terms:
            rows, coeffs = grouped.setdefault(t.degree, ([], []))
            rows.append([row_of[id(f)] for f in t.factors])
            coeffs.append(t.coeff)
        values = np.zeros(4, dtype=np.complex128)
        for n, (rows, coeffs) in grouped.items():
            # traces of shape (family, term, slot), one table row per factor
            cols = start[n] + np.arange(4 * (n + 1)).reshape(4, 1, n + 1)
            values += np.prod(traces[np.array(rows)[None], cols], axis=2) \
                @ np.array(coeffs)
        return values

    v1, v2 = pairings(c1), pairings(c2)
    scale = 1.0 + np.maximum(np.abs(v1), np.abs(v2))
    return float(np.max(np.abs(v1 - v2) / scale))
