"""Signed shuffles, cyclic shuffles, and their simplex regions.

A (p, q)-shuffle interleaves two ordered blocks while preserving the
internal order of each.  A (p_1, ..., p_r)-cyclic shuffle starts from r
blocks of sizes p_i + 1 (a lead element plus p_i rows), rotates each block
cyclically, interleaves the rotated blocks order-preservingly, and requires
the lead elements to land in increasing positions in block order.

Geometrically, the product of ordered simplices splits, up to measure zero,
into one region per shuffle; the cyclic variant does the same for products
with mod-1 offsets.  Both decompositions are exposed here through the
region membership and locate helpers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SignedPermutation",
    "SimplexPoint",
    "cyclic_region_locate",
    "enumerate_cyclic_shuffles",
    "enumerate_shuffles",
    "is_cyclic_shuffle",
    "sample_simplex",
    "sample_simplex_batch",
    "shuffle_region_contains",
    "sorting_images",
]


@dataclass(frozen=True)
class SignedPermutation:
    """Permutation of {1, ..., n} stored as its image tuple, with signature."""

    n: int
    images: tuple
    sign: int

    def __post_init__(self):
        if len(self.images) != self.n or len(set(self.images)) != self.n:
            raise ValueError("images must be a bijection of 1..n")
        if self.n and (min(self.images) != 1 or max(self.images) != self.n):
            raise ValueError("images must be a bijection of 1..n")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @staticmethod
    def signature_of(images) -> int:
        inv = 0
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if images[i] > images[j]:
                    inv += 1
        return -1 if inv % 2 else 1

    @classmethod
    def from_images(cls, images) -> "SignedPermutation":
        images = tuple(int(i) for i in images)
        return cls(len(images), images, cls.signature_of(images))

    @cached_property
    def inverse_images(self) -> tuple:
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return tuple(inv)

    def apply_to_slots(self, items) -> tuple:
        """Permute a length-n sequence: output slot j receives items[inverse(j)].

        This is the slot action used on both chain factors and simplex
        coordinates, so algebra and geometry share one sign convention.
        """
        items = tuple(items)
        if len(items) != self.n:
            raise ValueError("sequence length must equal n")
        inv = self.inverse_images
        return tuple(items[inv[j] - 1] for j in range(self.n))


@lru_cache(maxsize=None)
def enumerate_shuffles(p: int, q: int) -> tuple:
    """All (p, q)-shuffles of {1, ..., p+q} with signatures.

    Positions 1..p and p+1..p+q each keep their internal order; there are
    binomial(p+q, p) of them.
    """
    if p < 0 or q < 0:
        raise ValueError("block sizes must be non-negative")
    n = p + q
    out = []
    for first in itertools.combinations(range(1, n + 1), p):
        chosen = set(first)
        images = [0] * n
        for k, pos in enumerate(first):
            images[k] = pos
        k = p
        for pos in range(1, n + 1):
            if pos not in chosen:
                images[k] = pos
                k += 1
        out.append(SignedPermutation.from_images(images))
    return tuple(out)


def _ordered_partitions(positions, sizes):
    """Split the ordered tuple into blocks of the given sizes, order kept."""
    if len(sizes) == 1:
        yield (positions,)
        return
    for head in itertools.combinations(positions, sizes[0]):
        chosen = set(head)
        rest = tuple(x for x in positions if x not in chosen)
        for tail in _ordered_partitions(rest, sizes[1:]):
            yield (head,) + tail


def _signature_batch(rows, n: int) -> np.ndarray:
    if not rows:
        return np.ones(0, dtype=np.int64)
    imgs = np.array(rows, dtype=np.int64)
    i, j = np.triu_indices(n, k=1)
    inv = (imgs[:, i] > imgs[:, j]).sum(axis=1)
    return 1 - 2 * (inv & 1)


@lru_cache(maxsize=8)
def enumerate_cyclic_shuffles(block_degrees: tuple) -> tuple:
    """All (p_1, ..., p_r)-cyclic shuffles of {1, ..., r + sum p_i}.

    Block i occupies domain positions off_i .. off_i + p_i with the lead
    element first.  For each choice of rotation j_i the block rows
    j_i, j_i+1, ..., p_i, 0, ..., j_i-1 must appear in increasing image
    order, and the lead elements must map to increasing positions across
    blocks.  The count is (r + sum p_i)! / (r! * prod p_i!).
    """
    ps = tuple(int(p) for p in block_degrees)
    if len(ps) < 1 or any(p < 0 for p in ps):
        raise ValueError("need r >= 1 non-negative block degrees")
    sizes = [p + 1 for p in ps]
    n = sum(sizes)
    offs = []
    acc = 0
    for s in sizes:
        offs.append(acc)
        acc += s
    rows = []
    rotranges = [range(s) for s in sizes]
    for parts in _ordered_partitions(tuple(range(1, n + 1)), tuple(sizes)):
        for rots in itertools.product(*rotranges):
            prev = 0
            ok = True
            for part, s, j in zip(parts, sizes, rots):
                # lead element sits at index (s - j) mod s of the rotated order
                z = part[(s - j) % s]
                if z <= prev:
                    ok = False
                    break
                prev = z
            if not ok:
                continue
            images = [0] * n
            for i, (part, s, j) in enumerate(zip(parts, sizes, rots)):
                base = offs[i]
                for k in range(s):
                    images[base + (j + k) % s] = part[k]
            rows.append(tuple(images))
    signs = _signature_batch(rows, n)
    return tuple(
        SignedPermutation(n, row, int(sg)) for row, sg in zip(rows, signs)
    )


def is_cyclic_shuffle(perm: SignedPermutation, block_degrees) -> bool:
    """Check the defining block conditions directly."""
    ps = tuple(int(p) for p in block_degrees)
    sizes = [p + 1 for p in ps]
    if perm.n != sum(sizes):
        return False
    pos = 0
    prev_lead = 0
    for s in sizes:
        block = perm.images[pos:pos + s]
        if block[0] <= prev_lead:
            return False
        prev_lead = block[0]
        start = min(range(s), key=lambda k: block[k])
        seq = [block[(start + k) % s] for k in range(s)]
        if any(seq[k] >= seq[k + 1] for k in range(s - 1)):
            return False
        pos += s
    return True


@dataclass(frozen=True)
class SimplexPoint:
    """Point 0 <= t_1 <= ... <= t_n <= 1 of the ordered n-simplex."""

    t: tuple

    def __post_init__(self):
        vals = tuple(float(x) for x in self.t)
        object.__setattr__(self, "t", vals)
        if vals and (vals[0] < 0.0 or vals[-1] > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("coordinates must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.t)


def _coords(x) -> np.ndarray:
    if isinstance(x, SimplexPoint):
        return np.asarray(x.t, dtype=float)
    return np.atleast_1d(np.asarray(x, dtype=float))


def sample_simplex(n: int, rng) -> SimplexPoint:
    """Uniform point of the ordered n-simplex via sorted uniforms."""
    return SimplexPoint(tuple(np.sort(rng.random(n))))


def sample_simplex_batch(n: int, rng, count: int) -> np.ndarray:
    """(count, n) array of uniform ordered-simplex points."""
    return np.sort(rng.random((count, n)), axis=1)


def shuffle_region_contains(chi: SignedPermutation, s, t) -> bool:
    """True when interleaving the two coordinate blocks by chi sorts them."""
    sv, tv = _coords(s), _coords(t)
    merged = tuple(np.concatenate([sv, tv]))
    if len(merged) != chi.n:
        raise ValueError("coordinate count must equal the permutation size")
    arranged = chi.apply_to_slots(merged)
    return all(arranged[k] <= arranged[k + 1] for k in range(chi.n - 1))


def sorting_images(values):
    """Sorting permutations of the rows of an (N, n) coordinate array.

    Returns (images, tied): row k of the (N, n) integer array images holds
    the 1-based images of the permutation that sorts row k ascending, so
    entry j lands in slot images[k, j]; tied[k] is True when row k has two
    exactly equal entries, in which case its region is not unique.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    tied = np.any(np.diff(ranked, axis=1) == 0.0, axis=1)
    images = np.empty_like(order)
    images[np.arange(values.shape[0])[:, None], order] = \
        np.arange(1, values.shape[1] + 1)
    return images, tied


def cyclic_region_locate(block_degrees, s, ts):
    """Locate the cyclic-shuffle region of offset coordinates, or None on ties.

    The entry for row l of block i is s_i + t_i[l] reduced mod 1 (row 0 is
    s_i itself).  Returns the unique permutation sorting the resulting
    tuple ascending; for almost every input it is a cyclic shuffle.
    """
    ps = tuple(int(p) for p in block_degrees)
    r = len(ps)
    sv = _coords(s)
    if sv.size != r:
        raise ValueError("need one offset per block")
    vals = []
    for i in range(r):
        tv = _coords(ts[i]) if ps[i] else np.zeros(0)
        if tv.size != ps[i]:
            raise ValueError("block coordinate count disagrees with its degree")
        vals.append(sv[i])
        vals.extend((sv[i] + tv) % 1.0)
    images, tied = sorting_images([vals])
    if tied[0]:
        return None
    return SignedPermutation.from_images(images[0])
