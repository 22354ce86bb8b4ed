"""Formal chains over matrix algebras and the shuffle-type operations on them.

A chain is a finite complex-linear combination of elementary tensors
(a0, ..., an) of square matrices over a fixed algebra dimension.  Slots
1..n are understood modulo scalars: the normalization pass drops any
elementary term carrying a scalar multiple of the identity in such a slot,
which is the computable shadow of working in A tensor (A / C1)^n.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _freeze, frob, matrix_from_json, matrix_to_json
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
    "chain_from_json",
    "chain_to_json",
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


def _budget(count: int):
    if count > MAX_OUTPUT_TERMS:
        raise TermBudgetError(
            f"operation would produce {count} elementary terms "
            f"(cap {MAX_OUTPUT_TERMS})"
        )


def _signed_terms(coeff, head, slots, images) -> list:
    """One term per row of an image array: coeff times the row's sign, with
    head in slot 0 and slots[k] moved to slot images[k].

    shuffles.sorting_images places simplex coordinates by the same rule, so
    algebra and geometry share one sign convention.  head and slots are
    frozen once, so every row shares their arrays.
    """
    head = _freeze(head)
    slots = [_freeze(s) for s in slots]
    signs = permutation_signs(images).tolist()
    # column j of the inverse permutation names the item that lands in slot j
    inverse = np.argsort(images, axis=1).tolist()
    return [ElementaryChain(coeff * sign, (head,) + tuple(slots[k] for k in row))
            for sign, row in zip(signs, inverse)]


def shuffle_product(left: Chain, right: Chain) -> Chain:
    """Signed sum over (p, q)-shuffles of the interleaved Kronecker factors.

    The head slot is a0 (x) b0; the remaining slots are a_i (x) 1 and
    1 (x) b_j interleaved by each shuffle with its signature.  Associative,
    with unit the degree-0 chain (1) over the one-dimensional algebra.
    """
    d1, d2 = left.algebra_dim, right.algebra_dim
    i1 = np.eye(d1, dtype=np.complex128)
    i2 = np.eye(d2, dtype=np.complex128)
    out = []
    count = 0
    for ta, tb in itertools.product(left.terms, right.terms):
        p, q = ta.degree, tb.degree
        # closed-form count so the budget trips before any big enumeration
        count += math.comb(p + q, p)
        _budget(count)
        head = np.kron(ta.factors[0], tb.factors[0])
        slots = [np.kron(a, i2) for a in ta.factors[1:]]
        slots += [np.kron(i1, b) for b in tb.factors[1:]]
        out += _signed_terms(ta.coeff * tb.coeff, head, slots,
                             enumerate_shuffles(p, q))
    return Chain(d1 * d2, tuple(out)).normalized()


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
    dims = [c.algebra_dim for c in chains]
    total = 1
    for d in dims:
        total *= d
    lead = np.eye(total, dtype=np.complex128)
    pre = list(itertools.accumulate([1] + dims[:-1], lambda a, b: a * b))
    post = [total // (pre[i] * dims[i]) for i in range(len(dims))]

    def embed(i: int, f: np.ndarray) -> np.ndarray:
        out = f
        if pre[i] > 1:
            out = np.kron(np.eye(pre[i], dtype=np.complex128), out)
        if post[i] > 1:
            out = np.kron(out, np.eye(post[i], dtype=np.complex128))
        return out

    out = []
    count = 0
    for combo in itertools.product(*[c.terms for c in chains]):
        ps = tuple(t.degree for t in combo)
        n = len(ps) + sum(ps)
        count += math.factorial(n) // (
            math.factorial(len(ps))
            * math.prod(math.factorial(p) for p in ps))
        _budget(count)
        slots = [embed(i, f) for i, t in enumerate(combo) for f in t.factors]
        base = 1.0 + 0.0j
        for t in combo:
            base *= t.coeff
        out += _signed_terms(base, lead, slots, enumerate_cyclic_shuffles(ps))
    return Chain(total, tuple(out)).normalized()


def cyclic_shuffle_product(left: Chain, right: Chain) -> Chain:
    """Two-argument cyclic-shuffle product, degree p + q + 2."""
    return br_operation([left, right])


def _probe_functional(chain: Chain, probes) -> complex:
    """Pair against fixed probe matrices: sum of coeff * prod_k tr(f_k P_k).

    Faithful on formal chains outside a measure-zero set of probes, which
    makes it a cheap randomized equality test for chain-valued identities.
    The probe map must cover every degree present in the chain.  Each
    distinct (factor, degree, slot) trace is computed once: the terms of a
    product share their factor arrays, and while they live an id names one.
    """
    traces = {}
    total = 0.0 + 0.0j
    for t in chain.terms:
        try:
            pr = probes[t.degree]
        except KeyError as exc:
            raise ValueError(f"no probe family for degree {t.degree}") from exc
        val = t.coeff
        for k, (f, p) in enumerate(zip(t.factors, pr)):
            key = (id(f), t.degree, k)
            if key not in traces:
                traces[key] = np.trace(f @ p)
            val *= traces[key]
        total += val
    return complex(total)


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
    difference."""
    if c1.algebra_dim != c2.algebra_dim:
        raise ValueError("chains live over different algebra dimensions")
    degs = sorted(set(c1.degrees()) | set(c2.degrees()))
    worst = 0.0
    for _ in range(4):
        probes = _random_probes(c1.algebra_dim, degs, rng)
        v1 = _probe_functional(c1, probes)
        v2 = _probe_functional(c2, probes)
        worst = max(worst, abs(v1 - v2) / (1.0 + max(abs(v1), abs(v2))))
    return worst


def chain_to_json(chain: Chain) -> dict:
    return {
        "algebra_dim": int(chain.algebra_dim),
        "terms": [
            {
                "coeff": [float(t.coeff.real), float(t.coeff.imag)],
                "factors": [matrix_to_json(f) for f in t.factors],
            }
            for t in chain.terms
        ],
    }


def chain_from_json(obj) -> Chain:
    try:
        d = int(obj["algebra_dim"])
        raw_terms = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain object: {exc}") from exc
    if d < 1:
        raise ValueError("algebra_dim must be positive")
    terms = []
    for rt in raw_terms:
        try:
            re, im = rt["coeff"]
            coeff = complex(re, im)
            factors = [matrix_from_json(f) for f in rt["factors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed chain term: {exc}") from exc
        if not cmath.isfinite(coeff):
            raise ValueError("chain coefficients must be finite")
        for f in factors:
            if f.shape != (d, d):
                raise ValueError("chain factor shape disagrees with algebra_dim")
        terms.append(ElementaryChain(coeff, tuple(factors)))
    return Chain(d, tuple(terms))
