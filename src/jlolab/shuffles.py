"""Signed shuffles, cyclic shuffles, and their simplex regions.

A (p, q)-shuffle interleaves two ordered blocks while preserving the
internal order of each.  A (p_1, ..., p_r)-cyclic shuffle starts from r
blocks of sizes p_i + 1 (a lead element plus p_i rows), rotates each block
cyclically, interleaves the rotated blocks order-preservingly, and requires
the lead elements to land in increasing positions in block order.

A family of either kind is an (N, n) integer image array: row k is one
permutation of {1, ..., n}, and item j of a sequence lands in slot
row[j].  permutation_signs gives the signatures of the rows.

Geometrically, the product of ordered simplices splits, up to measure zero,
into one region per shuffle; the cyclic variant does the same for products
with mod-1 offsets.  Points are plain float arrays: sample_simplex_batch
draws a batch of sorted uniforms, and sorting_images locates a batch of
points in these regions.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "cyclic_region_locate",
    "enumerate_cyclic_shuffles",
    "enumerate_shuffles",
    "is_cyclic_shuffle",
    "permutation_signs",
    "sample_simplex_batch",
    "sorting_images",
]


def _ordered_partitions(n: int, sizes) -> np.ndarray:
    """Every split of 1..n into blocks of the given sizes, as rows.

    Each row concatenates the blocks, each block increasing; rows are in
    lexicographic order of (block 1, block 2, ...).
    """
    def split(positions, block_sizes):
        if len(block_sizes) == 1:
            yield positions
            return
        for head in itertools.combinations(positions, block_sizes[0]):
            chosen = set(head)
            rest = tuple(x for x in positions if x not in chosen)
            for tail in split(rest, block_sizes[1:]):
                yield head + tail

    rows = list(split(tuple(range(1, n + 1)), tuple(sizes)))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def permutation_signs(images) -> np.ndarray:
    """Signatures (+1 or -1) of the rows of an (N, n) image array."""
    images = np.asarray(images)
    i, j = np.triu_indices(images.shape[1], k=1)
    inv = (images[:, i] > images[:, j]).sum(axis=1)
    return 1 - 2 * (inv & 1)


def enumerate_shuffles(p: int, q: int) -> np.ndarray:
    """All (p, q)-shuffles of {1, ..., p+q} as a (binomial(p+q, p), p+q)
    image array.

    Positions 1..p and p+1..p+q each keep their internal order.
    """
    if p < 0 or q < 0:
        raise ValueError("block sizes must be non-negative")
    return _ordered_partitions(p + q, (p, q))


def enumerate_cyclic_shuffles(block_degrees: tuple) -> np.ndarray:
    """All (p_1, ..., p_r)-cyclic shuffles of {1, ..., r + sum p_i} as an
    image array.

    Block i occupies domain positions off_i .. off_i + p_i with the lead
    element first.  Each block's images are one of its ordered-partition
    blocks rotated by j_i, and the lead elements must map to increasing
    positions across blocks.  Rows are ordered by partition, then by
    (j_1, ..., j_r).  The count is (r + sum p_i)! / (r! * prod p_i!).
    """
    ps = tuple(int(p) for p in block_degrees)
    if len(ps) < 1 or any(p < 0 for p in ps):
        raise ValueError("need r >= 1 non-negative block degrees")
    sizes = [p + 1 for p in ps]
    parts = _ordered_partitions(sum(sizes), sizes)
    images = np.zeros((len(parts), 0), dtype=np.int64)
    source = np.arange(len(parts))
    lead = np.zeros(len(parts), dtype=np.int64)
    off = 0
    for s in sizes:
        # rotation j puts block item (m - j) mod s in domain slot m; a
        # rotation whose lead does not exceed the previous block's lead
        # is dropped here, before the later blocks are expanded
        turn = np.arange(s)
        blocks = parts[source][:, off + (turn[None, :] - turn[:, None]) % s]
        keep, j = np.nonzero(blocks[:, :, 0] > lead[:, None])
        images = np.hstack([images[keep], blocks[keep, j]])
        source, lead = source[keep], blocks[keep, j, 0]
        off += s
    return images


def is_cyclic_shuffle(images, block_degrees) -> bool:
    """Check that an image row is a permutation meeting the defining block
    conditions."""
    images = tuple(int(i) for i in images)
    ps = tuple(int(p) for p in block_degrees)
    sizes = [p + 1 for p in ps]
    n = sum(sizes)
    if len(images) != n or sorted(images) != list(range(1, n + 1)):
        return False
    pos = 0
    prev_lead = 0
    for s in sizes:
        block = images[pos:pos + s]
        if block[0] <= prev_lead:
            return False
        prev_lead = block[0]
        start = min(range(s), key=lambda k: block[k])
        seq = [block[(start + k) % s] for k in range(s)]
        if any(seq[k] >= seq[k + 1] for k in range(s - 1)):
            return False
        pos += s
    return True


def sample_simplex_batch(n: int, rng, count: int) -> np.ndarray:
    """(count, n) array of uniform ordered-simplex points."""
    return np.sort(rng.random((count, n)), axis=1)


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
    s_i itself).  Returns the image tuple of the unique permutation sorting
    the resulting tuple ascending; for almost every input it is a cyclic
    shuffle.
    """
    ps = tuple(int(p) for p in block_degrees)
    r = len(ps)
    sv = np.atleast_1d(np.asarray(s, dtype=float))
    if sv.size != r:
        raise ValueError("need one offset per block")
    vals = []
    for i in range(r):
        tv = np.atleast_1d(np.asarray(ts[i] if ps[i] else (), dtype=float))
        if tv.size != ps[i]:
            raise ValueError("block coordinate count disagrees with its degree")
        vals.append(sv[i])
        vals.extend((sv[i] + tv) % 1.0)
    images, tied = sorting_images([vals])
    if tied[0]:
        return None
    return tuple(images[0].tolist())
