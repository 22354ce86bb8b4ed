"""Formal chains over matrix algebras and the shuffle-type operations on them.

A chain is a finite complex-linear combination of elementary tensors
(a0, ..., an) of square matrices over a fixed algebra dimension.  Slots
1..n are understood modulo scalars: the normalization pass drops any
elementary term carrying a scalar multiple of the identity in such a slot,
which is the computable shadow of working in A tensor (A / C1)^n.  Every
operation works on a chain's factor table and integer term rows (Chain).

The products fill their rows from shuffle families.  Each family's slot
order (the argsort of its image rows) and signs are built once per
enumerator and degree tuple and kept read-only in a private memo bounded
in bytes: FAMILY_MEMO_BYTES (1 MiB) in all, oldest evicted first, and no
entry over FAMILY_ENTRY_BYTES (256 KiB), a family that is built per call
instead.  The public enumerators in `shuffles` keep no cache.  A
product's term coefficients are multiplied as whole float64 arrays that
round as CPython's complex multiply does.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import _freeze, _kron
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
    "hochschild_b",
    "probe_distance",
    "shuffle_product",
]

SCALAR_SLOT_TOL = 1e-12
MAX_OUTPUT_TERMS = 1_000_000


class TermBudgetError(RuntimeError):
    """An operation would produce an unreasonable number of elementary terms."""


def _scalar_entries(table) -> np.ndarray:
    """Mask of the table entries that are scalar within SCALAR_SLOT_TOL."""
    d = table.shape[-1]
    mu = table.trace(axis1=1, axis2=2) / d
    dev = table - mu[:, None, None] * np.eye(d)
    # squared Frobenius norms, compared squared: |f|^2 = |dev|^2 + d |mu|^2
    off = np.einsum("kij,kij->k", dev.conj(), dev).real
    return off <= SCALAR_SLOT_TOL ** 2 * np.maximum(1.0, off + d * abs(mu) ** 2)


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


class Chain:
    """Finite sum of elementary chains over a fixed algebra dimension.

    `table` is the read-only (F, d, d) factor table; `blocks` maps each
    degree n, ascending, to (rows, coeffs): integer rows (T, n + 1) into the
    table and complex coefficients (T,), terms in order.
    """

    __slots__ = ("algebra_dim", "table", "blocks")

    def __init__(self, algebra_dim: int, terms=()):
        """The chain of the given ElementaryChain terms.  A factor array
        that several terms share is stored once."""
        # id -> (table index, array); the terms keep their arrays alive
        index, grouped = {}, {}
        for t in terms:
            if not isinstance(t, ElementaryChain):
                raise TypeError("terms must be ElementaryChain instances")
            if t.dim != algebra_dim:
                raise ValueError("term dimension disagrees with the algebra dimension")
            rows, coeffs = grouped.setdefault(t.degree, ([], []))
            rows.append([index.setdefault(id(f), (len(index), f))[0]
                         for f in t.factors])
            coeffs.append(t.coeff)
        table = np.array([f for _, f in index.values()], dtype=np.complex128) \
            .reshape(-1, algebra_dim, algebra_dim)
        self._set(algebra_dim, table, {
            n: (np.array(rows, dtype=np.intp), np.array(coeffs, dtype=np.complex128))
            for n, (rows, coeffs) in grouped.items()})

    def _set(self, algebra_dim, table, blocks):
        table.setflags(write=False)
        self.algebra_dim = algebra_dim
        self.table = table
        self.blocks = dict(sorted(blocks.items()))

    @classmethod
    def from_table(cls, algebra_dim: int, table, blocks) -> "Chain":
        """The chain of a table and {degree: (rows, coeffs)}, unchecked."""
        chain = cls.__new__(cls)
        chain._set(algebra_dim, table, blocks)
        return chain

    @classmethod
    def zero(cls, algebra_dim: int) -> "Chain":
        return cls(algebra_dim, ())

    @classmethod
    def elementary(cls, coeff, factors) -> "Chain":
        term = ElementaryChain(coeff, tuple(factors))
        return cls(term.dim, (term,))

    @property
    def terms(self) -> tuple:
        """The terms as ElementaryChain, degrees ascending; a table entry
        that several terms use is one array."""
        facs = [_freeze(f) for f in self.table]
        return tuple(ElementaryChain(c, tuple(facs[k] for k in row))
                     for rows, coeffs in self.blocks.values()
                     for row, c in zip(rows.tolist(), coeffs.tolist()))

    @property
    def num_terms(self) -> int:
        return sum(len(coeffs) for _, coeffs in self.blocks.values())

    def degrees(self) -> tuple:
        return tuple(self.blocks)

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain):
            return NotImplemented
        if other.algebra_dim != self.algebra_dim:
            raise ValueError("cannot add chains over different algebra dimensions")
        blocks = dict(self.blocks)
        for n, (rows, coeffs) in other.blocks.items():
            own_rows, own_coeffs = blocks.get(n, (rows[:0], coeffs[:0]))
            blocks[n] = (np.vstack([own_rows, rows + len(self.table)]),
                         np.concatenate([own_coeffs, coeffs]))
        return Chain.from_table(self.algebra_dim,
                                np.concatenate([self.table, other.table]), blocks)

    def __neg__(self) -> "Chain":
        return -1.0 * self

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __rmul__(self, c) -> "Chain":
        return Chain.from_table(self.algebra_dim, self.table, {
            n: (rows, coeffs * c) for n, (rows, coeffs) in self.blocks.items()})

    def normalized(self) -> "Chain":
        """Drop vanishing terms and terms with a scalar matrix in a slot >= 1.

        One batched test marks the scalar table entries, then one mask per
        degree drops the rows.  The table keeps only the entries the kept
        rows use, in order; when they use every entry it is kept as it is.
        """
        d = self.algebra_dim
        scalar = _scalar_entries(self.table)
        kept = {}
        used = np.zeros(len(self.table), dtype=bool)
        for n, (rows, coeffs) in self.blocks.items():
            keep = (coeffs != 0) & ~scalar[rows[:, 1:]].any(axis=1)
            if keep.any():
                kept[n] = (rows[keep], coeffs[keep])
                used[kept[n][0]] = True
        if used.all():
            return Chain.from_table(d, self.table, kept)
        remap = np.cumsum(used) - 1
        return Chain.from_table(d, self.table[used], {
            n: (remap[rows], coeffs) for n, (rows, coeffs) in kept.items()})


def hochschild_b(chain: Chain) -> Chain:
    """Hochschild boundary.

    b(a0, ..., an) = sum_{i<n} (-1)^i (a0, ..., a_i a_{i+1}, ..., an)
                     + (-1)^n (an a0, a1, ..., a_{n-1}).
    Degree-0 terms are annihilated.  Each distinct adjacent pair of table
    entries is multiplied once, in one batched product.
    """
    blocks = {n: b for n, b in chain.blocks.items() if n > 0}
    # face k of a degree-n term multiplies slots k and k + 1 (mod n + 1)
    pairs, which = np.unique(np.concatenate([np.zeros((0, 2), np.intp)] + [
        np.stack([rows, np.roll(rows, -1, axis=1)], axis=2).reshape(-1, 2)
        for rows, _ in blocks.values()]), axis=0, return_inverse=True)
    merged = np.split(len(chain.table) + which.ravel(), np.cumsum(
        [rows.size for rows, _ in blocks.values()])[:-1])
    out = {}
    for (n, (rows, coeffs)), products in zip(blocks.items(), merged):
        # face k keeps slots j < k, the product at slot k and slots j + 1
        # after it; the last face puts the product first, then slots 1..n-1
        j = np.arange(n)
        src = np.array([np.where(j < k, j, j + 1) for k in range(n)] + [j])
        src[np.arange(n + 1), np.arange(n + 1) % n] = n + 1 + np.arange(n + 1)
        faces = np.hstack([rows, products.reshape(rows.shape)])[:, src]
        out[n - 1] = (faces.reshape(-1, n),
                      (coeffs[:, None] * (-1.0) ** np.arange(n + 1)).ravel())
    table = np.concatenate([chain.table,
                            chain.table[pairs[:, 0]] @ chain.table[pairs[:, 1]]])
    return Chain.from_table(chain.algebra_dim, table, out).normalized()


def connes_B(chain: Chain) -> Chain:
    """Cyclic boundary B(a0, ..., an) = sum_i (-1)^{ni} (1, a_i, ..., a_{i-1}):
    the one-argument br_operation, whose family is the n + 1 rotations."""
    return br_operation([chain])


def _budget(chains, extra=()):
    """Raise TermBudgetError before a product of chains is built if it would
    have more than MAX_OUTPUT_TERMS terms.

    A combination of terms of degrees ps yields multinomial(ps + extra)
    terms; combinations are counted per tuple of degree blocks.
    """
    count = 0
    for combo in itertools.product(*(
            [(n, len(coeffs)) for n, (_, coeffs) in c.blocks.items()]
            for c in chains)):
        parts = tuple(p for p, _ in combo) + extra
        count += math.prod(m for _, m in combo) * (
            math.factorial(sum(parts)) // math.prod(map(math.factorial, parts)))
    if count > MAX_OUTPUT_TERMS:
        raise TermBudgetError(
            f"operation would produce {count} elementary terms "
            f"(cap {MAX_OUTPUT_TERMS})"
        )


def _embedded(chains):
    """(table, offsets): every chain's table embedded as
    1 (x) .. (x) f (x) .. (x) 1 over the tensor product of the chains'
    algebras, stacked, and where each chain's entries start."""
    dims = [c.algebra_dim for c in chains]
    total = math.prod(dims)
    parts = []
    for pre, c in zip(itertools.accumulate(dims, operator.mul, initial=1), chains):
        post = total // (pre * c.algebra_dim)
        parts.append(_kron(_kron(np.eye(pre)[None], c.table), np.eye(post)[None]))
    offsets = list(itertools.accumulate((len(p) for p in parts), initial=0))
    return np.concatenate(parts), offsets


def _shuffles(ps) -> np.ndarray:
    """The (p, q)-shuffles of a degree pair, as `_interleave` names a family."""
    return enumerate_shuffles(*ps)


# (enumerator, degrees) -> (order, signs) of the families products have
# used, read-only.  Bounded in bytes: a family over FAMILY_ENTRY_BYTES is
# built per call and not kept, and an entry that would take the memo past
# FAMILY_MEMO_BYTES evicts the oldest first, so at least four are kept.
FAMILY_MEMO_BYTES = 1 << 20
FAMILY_ENTRY_BYTES = 1 << 18
_FAMILIES: dict = {}


def _family(enumerator, ps) -> tuple:
    """(order, signs) of the family enumerator(ps): column j of row k of
    order, the argsort of the image row, names the item in slot j + 1;
    signs are permutation_signs of the rows.  Served from the memo once
    built, unless over the per-entry limit."""
    key = (enumerator, ps)
    if (entry := _FAMILIES.get(key)) is not None:
        return entry
    images = enumerator(ps)
    entry = (np.argsort(images, axis=1), permutation_signs(images))
    size = sum(a.nbytes for a in entry)
    if size <= FAMILY_ENTRY_BYTES:
        for a in entry:
            a.setflags(write=False)
        while size + sum(a.nbytes for e in _FAMILIES.values() for a in e) \
                > FAMILY_MEMO_BYTES:
            del _FAMILIES[next(iter(_FAMILIES))]
        _FAMILIES[key] = entry
    return entry


def _coefficient_products(factors) -> np.ndarray:
    """math.prod of every choice of one entry from each complex array of
    factors, the last array fastest, as one flat array.

    Whole-array real arithmetic rounds as CPython's complex multiply does,
    (ar br - ai bi, ar bi + ai br) from the 1 that math.prod starts with;
    numpy's complex multiply may fuse operations and round differently.
    Overflow and inf - inf are as silent as they are in CPython."""
    re, im = np.ones(1), np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in factors:
            br, bi = c.real, c.imag
            re, im = (np.multiply.outer(re, br) - np.multiply.outer(im, bi),
                      np.multiply.outer(re, bi) + np.multiply.outer(im, br))
    out = re.astype(np.complex128).ravel()
    out.imag = im.ravel()
    return out


def _interleave(chains, offsets, first, head, family) -> dict:
    """{degree: (rows, coeffs)} of a product of chains: one term per
    combination of a term of each chain and row of the family
    family(degrees), read through `_family`.

    Slot 0 holds head(rows), the combination's head entry from its terms'
    rows; the factors from slot `first` on, shifted by their chain's table
    offset, fill slots 1.. as the family row places them; the coefficient
    is the terms' product times the row's sign.  Within a degree, terms
    follow the chains' term order, then the family.
    """
    # a term's key is its position in each chain's term order, combined
    # with the last chain fastest: (degree, index) chain by chain
    starts = [dict(zip(c.blocks, itertools.accumulate(
        (len(k) for _, k in c.blocks.values()), initial=0))) for c in chains]
    sizes = [c.num_terms for c in chains]
    # the coefficient products of every key at once
    products = _coefficient_products([np.concatenate(
        [np.zeros(0, np.complex128)] + [k for _, k in c.blocks.values()])
        for c in chains])
    grouped = {}
    for combo in itertools.product(*(c.blocks.items() for c in chains)):
        # one combination per tuple of term indices, the last chain fastest
        pick = np.indices([len(k) for _, (_, k) in combo]).reshape(len(combo), -1)
        rows = [r[p] for (_, (r, _)), p in zip(combo, pick)]
        slots = np.hstack([off + r[:, first:] for off, r in zip(offsets, rows)])
        order, signs = _family(family, tuple(n for n, _ in combo))
        terms = np.empty((len(slots), len(order), slots.shape[1] + 1), np.intp)
        terms[:, :, 0] = head(rows)[:, None]
        terms[:, :, 1:] = slots[:, order]
        key = np.ravel_multi_index(
            [s[n] + p for s, (n, _), p in zip(starts, combo, pick)], sizes)
        grouped.setdefault(slots.shape[1], []).append((
            np.repeat(key, len(order)), terms.reshape(-1, terms.shape[2]),
            (products[key][:, None] * signs).ravel()))
    out = {}
    for n, parts in grouped.items():
        key, rows, coeffs = (np.concatenate(x) for x in zip(*parts))
        # a stable sort: the rows of one combination keep the family order
        by_term = np.argsort(key, kind="stable")
        out[n] = (rows[by_term], coeffs[by_term])
    return out


def shuffle_product(left: Chain, right: Chain) -> Chain:
    """Signed sum over (p, q)-shuffles of the interleaved Kronecker factors.

    The head slot is a0 (x) b0; the remaining slots are a_i (x) 1 and
    1 (x) b_j interleaved by each shuffle with its signature.  Associative,
    with unit the degree-0 chain (1) over the one-dimensional algebra.
    Each input table is embedded once and each distinct head pair is one
    table entry.
    """
    _budget((left, right))
    table, offsets = _embedded((left, right))
    width = len(right.table)
    heads = [np.concatenate([np.zeros(0, np.intp)] + [
        rows[:, 0] for rows, _ in c.blocks.values()]) for c in (left, right)]
    pairs = np.unique(np.add.outer(heads[0] * width, heads[1]))
    first_head = len(table)
    table = np.concatenate([table, _kron(left.table[pairs // width],
                                         right.table[pairs % width])])
    blocks = _interleave(
        (left, right), offsets, 1,
        lambda rows: first_head + np.searchsorted(
            pairs, rows[0][:, 0] * width + rows[1][:, 0]),
        _shuffles)
    return Chain.from_table(left.algebra_dim * right.algebra_dim, table,
                            blocks).normalized()


def br_operation(chains) -> Chain:
    """Degree-raising cyclic-shuffle operation on r chains.

    Inserts the unit in slot 0, embeds the arguments' factors into the
    tensor-product algebra, and sums the signed cyclic-shuffle
    interleavings.  One argument is the cyclic boundary connes_B;
    two arguments give the cyclic shuffle product.
    """
    chains = list(chains)
    if not chains:
        raise ValueError("need at least one chain")
    _budget(chains, (len(chains),))
    table, offsets = _embedded(chains)
    unit = len(table)
    d = math.prod(c.algebra_dim for c in chains)
    table = np.concatenate([table, np.eye(d, dtype=np.complex128)[None]])
    blocks = _interleave(chains, offsets, 0,
                         lambda rows: np.full(len(rows[0]), unit),
                         enumerate_cyclic_shuffles)
    return Chain.from_table(d, table, blocks).normalized()


def probe_distance(c1: Chain, c2: Chain, rng) -> float:
    """Max over four random probe families of the normalized pairing
    difference.

    A family holds probe matrices (P_0, ..., P_n) for each degree n and
    pairs a chain to the sum of coeff * prod_k tr(f_k P_k) over its terms.
    Faithful on formal chains outside a measure-zero set of probes, which
    makes it a cheap randomized equality test for chain-valued identities.
    One matrix product gives the trace of every entry of both factor tables
    against every probe.
    """
    if c1.algebra_dim != c2.algebra_dim:
        raise ValueError("chains live over different algebra dimensions")
    d = c1.algebra_dim
    degs = sorted(set(c1.degrees()) | set(c2.degrees()))
    # probe columns run degree by degree, then family by family, then slot
    start = dict(zip(degs, itertools.accumulate(
        (4 * (n + 1) for n in degs), initial=0)))
    probes_t = np.empty((4 * sum(n + 1 for n in degs), d, d),
                        dtype=np.complex128)
    for family in range(4):
        cols = np.concatenate([np.zeros(0, np.intp)] + [
            start[n] + family * (n + 1) + np.arange(n + 1) for n in degs])
        # a family draws degree by degree, then slot, then the real and
        # imaginary parts of each probe matrix
        z = rng.standard_normal((len(cols), 2, d, d))
        # (re + 1j * im) / d with one complex temporary, which keeps the
        # peak resident size at that of a per-matrix draw
        p = 1j * z[:, 1]
        p += z[:, 0]
        p /= d
        probes_t[cols] = p.transpose(0, 2, 1)
    # tr(f P) = sum_ij f_ij (P^T)_ij
    traces = np.concatenate([c1.table, c2.table]).reshape(-1, d * d) \
        @ probes_t.reshape(-1, d * d).T

    def pairings(chain, offset):
        values = np.zeros(4, dtype=np.complex128)
        for n, (rows, coeffs) in chain.blocks.items():
            # traces of shape (family, term, slot), one table row per factor
            cols = start[n] + np.arange(4 * (n + 1)).reshape(4, 1, n + 1)
            values += np.prod(traces[(offset + rows)[None], cols], axis=2) \
                @ coeffs
        return values

    v1, v2 = pairings(c1, 0), pairings(c2, len(c1.table))
    scale = 1.0 + np.maximum(np.abs(v1), np.abs(v2))
    return float(np.max(np.abs(v1 - v2) / scale))
