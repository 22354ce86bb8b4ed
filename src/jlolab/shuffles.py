"""Signed shuffles, cyclic shuffles, and their simplex regions.

A (p, q)-shuffle interleaves two ordered blocks while preserving the
internal order of each.  A (p_1, ..., p_r)-cyclic shuffle starts from r
blocks of sizes p_i + 1 (a lead element plus p_i rows), rotates each block
cyclically, interleaves the rotated blocks order-preservingly, and requires
the lead elements to land in increasing positions in block order.

A family of either kind is an (N, n) integer image array: row k is one
permutation of {1, ..., n}, and item j of a sequence lands in slot
row[j].  permutation_signs gives the signatures of the rows.  Both
families are built as arrays from the ordered partitions of 1..n into
blocks, which grow one block at a time: every row at once is extended by
every subset of its remaining entries through one gather, with no Python
loop over rows.  A cyclic family then keeps, block by block, the
rotations whose leads increase; cyclic_shuffle_peak_rows counts the most
rows it holds on the way, which can exceed the family's own size.  Every
cyclic-shuffle function takes r >= 1 non-negative block degrees, checked
by one rule.

Geometrically, the product of ordered simplices splits, up to measure zero,
into one region per shuffle; the cyclic variant does the same for products
with mod-1 offsets.  Points are plain float arrays: sample_simplex_batch
draws a batch of sorted uniforms, and sorting_images locates a batch of
points in these regions.  _sorting_order is the one locator behind it,
cyclic_region_locate and `decompose`: one stable argsort per batch, with
ties read off the argsorted values.  _cyclic_coordinates is the one map
from cyclic offsets s_i and block coordinates t_i to s_i, then
(s_i + t_i) mod 1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "cyclic_region_locate",
    "cyclic_shuffle_peak_rows",
    "enumerate_cyclic_shuffles",
    "enumerate_shuffles",
    "is_cyclic_shuffle",
    "permutation_signs",
    "sample_simplex_batch",
    "sorting_images",
]


def _subsets(m: int, s: int) -> np.ndarray:
    """The s-subsets of range(m) as rows, in lexicographic order."""
    return np.array(list(itertools.combinations(range(m), s)), dtype=np.intp)


def _ordered_partitions(n: int, sizes) -> np.ndarray:
    """Every split of 1..n into blocks of the given sizes, as rows.

    Each row concatenates the blocks, each block increasing; rows are in
    lexicographic order of (block 1, block 2, ...).  The array grows block
    by block: once `done` entries are placed, each row holds its blocks so
    far and then the m entries left, in increasing order.  The next block
    extends every row by every s-subset of those entries at once, through
    one gather of column table `order`: subset k, then what it leaves.
    """
    rows = np.arange(1, n + 1, dtype=np.int64)[None, :]
    done = 0
    for s in sizes[:-1]:
        m = n - done
        count = math.comb(m, s)
        if count > 1:  # else the block is empty or takes every entry left
            # the least entry where two subsets differ lies in one of them,
            # and exactly in the other's complement: complements come in
            # reverse lexicographic order, so subset k leaves the
            # (count - 1 - k)-th (m - s)-subset
            order = np.concatenate(
                [_subsets(m, s), _subsets(m, m - s)[::-1]], axis=1)
            grown = np.empty((len(rows), count, n), dtype=np.int64)
            grown[:, :, :done] = rows[:, None, :done]
            grown[:, :, done:] = rows[:, done:][:, order]
            rows = grown.reshape(len(rows) * count, n)
        done += s
    return rows


def permutation_signs(images) -> np.ndarray:
    """Signatures (+1 or -1) of the rows of an (N, n) image array."""
    images = np.asarray(images)
    # an inversion is a pair of columns i < j with images i above j
    inv = ((images[:, :, None] > images[:, None, :])
           & np.tri(images.shape[1], k=-1, dtype=bool).T).sum(axis=(1, 2))
    return 1 - 2 * (inv & 1)


def _block_degrees(block_degrees) -> tuple:
    """block_degrees as a tuple of ints: the one rule every cyclic-shuffle
    function checks, r >= 1 blocks of non-negative degree."""
    ps = tuple(int(p) for p in block_degrees)
    if not ps or min(ps) < 0:
        raise ValueError("need r >= 1 non-negative block degrees")
    return ps


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
    sizes = [p + 1 for p in _block_degrees(block_degrees)]
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


def cyclic_shuffle_peak_rows(block_degrees) -> int:
    """The most rows enumerate_cyclic_shuffles(block_degrees) holds at once.

    It starts from the n!/prod (p_i + 1)! ordered partitions, n = r + sum
    p_i.  Once blocks 1..i have their leads, a row is a choice of i
    increasing leads plus a split of the other n - i entries, so each
    block multiplies the row count by (p_i + 1)/i, ending at the region
    count n!/(r! prod p_i!).
    """
    ps = _block_degrees(block_degrees)
    rows = math.factorial(len(ps) + sum(ps)) // math.prod(
        math.factorial(p + 1) for p in ps)
    peak = rows
    for i, p in enumerate(ps, 1):
        rows = rows * (p + 1) // i
        peak = max(peak, rows)
    return peak


def is_cyclic_shuffle(images, block_degrees) -> bool:
    """Check that an image row is a permutation meeting the defining block
    conditions."""
    sizes = [p + 1 for p in _block_degrees(block_degrees)]
    images = tuple(int(i) for i in images)
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


def _sorting_order(values):
    """The one locator of a batch of points: (order, tied) for an (N, n)
    coordinate array.

    Row k of order is the stable argsort of row k.  tied[k] is True when
    two neighbours of the sorted row differ by exactly 0: -0 ties with +0,
    while two +inf (whose difference is NaN) and a NaN never tie.
    """
    values = np.asarray(values, dtype=float)
    count, width = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    # the sorted rows, one flat gather by the argsort itself, and the rows
    # of the zero gaps, one flat search: both cost less than a per-row
    # take_along_axis or any, on one row as on thousands
    ranked = values.take(order + np.arange(count)[:, None] * width)
    gaps = ranked[:, 1:] - ranked[:, :-1]
    tied = np.zeros(count, dtype=bool)
    tied[np.flatnonzero(gaps == 0.0) // (width - 1 or 1)] = True
    return order, tied


def sorting_images(values):
    """Sorting permutations of the rows of an (N, n) coordinate array.

    Returns (images, tied): row k of the (N, n) integer array images holds
    the 1-based images of the permutation that sorts row k ascending, so
    entry j lands in slot images[k, j]; tied[k] is True when two sorted
    neighbours of row k differ by exactly 0, in which case its region is
    not unique.  images is the inverse of _sorting_order's order.
    """
    order, tied = _sorting_order(values)
    images = np.empty_like(order)
    images[np.arange(order.shape[0])[:, None], order] = \
        np.arange(1, order.shape[1] + 1)
    return images, tied


def _cyclic_coordinates(s, ts) -> np.ndarray:
    """(N, r + sum p_i) coordinates of N cyclic points, from s (N, r) and
    ts[i] (N, p_i): per block i, s_i then (s_i + t_i) mod 1.

    x - floor(x) is x % 1.0 bit for bit, signed zeros, subnormals, inf and
    NaN included, and takes a fraction of np.remainder's time."""
    cols = []
    for i, t in enumerate(ts):
        lead = s[:, i:i + 1]
        x = lead + t
        cols += [lead, x - np.floor(x)]
    return np.concatenate(cols, axis=1)


def cyclic_region_locate(block_degrees, s, ts):
    """Locate the cyclic-shuffle region of offset coordinates, or None on ties.

    The entry for row l of block i is s_i + t_i[l] reduced mod 1 (row 0 is
    s_i itself); ts holds one coordinate sequence per block.  Returns the
    image tuple of the unique permutation sorting the resulting tuple
    ascending; for almost every input it is a cyclic shuffle.
    """
    ps = _block_degrees(block_degrees)
    sv = np.asarray(s, dtype=float).reshape(1, -1)
    if sv.size != len(ps):
        raise ValueError("need one offset per block")
    tv = [np.asarray(t, dtype=float).reshape(1, -1) for t in ts]
    if len(tv) != len(ps) or any(t.size != p for t, p in zip(tv, ps)):
        raise ValueError("block coordinate count disagrees with its degree")
    order, tied = _sorting_order(_cyclic_coordinates(sv, tv))
    if tied[0]:
        return None
    # sorting_images' row, inverted in Python: cheaper for one short row
    images = [0] * order.shape[1]
    for slot, item in enumerate(order[0].tolist(), 1):
        images[item] = slot
    return tuple(images)
