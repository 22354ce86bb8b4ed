import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab import shuffles
from jlolab.shuffles import (
    _cyclic_coordinates,
    _ordered_partitions,
    cyclic_region_locate,
    cyclic_shuffle_peak_rows,
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    is_cyclic_shuffle,
    permutation_signs,
    sample_simplex_batch,
    sorting_images,
)


def _inversion_sign(row):
    inv = sum(1 for i in range(len(row)) for j in range(i + 1, len(row))
              if row[i] > row[j])
    return -1 if inv % 2 else 1


def _recursive_partitions(n, sizes):
    """The recursive construction the array builder replaced: every split
    of 1..n into increasing blocks, lexicographic in (block 1, block 2, ...)."""
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


def _cyclic_by_definition(degrees):
    """Cyclic shuffles from the recursive partitions, one row at a time:
    per partition, per rotation tuple (j_1, ..., j_r) in product order,
    rotation j putting block item (m - j) mod s in block slot m; a row is
    kept when the block leads increase."""
    sizes = [p + 1 for p in degrees]
    out = []
    for part in _recursive_partitions(sum(sizes), sizes).tolist():
        blocks, off = [], 0
        for s in sizes:
            blocks.append(part[off:off + s])
            off += s
        for turns in itertools.product(*(range(s) for s in sizes)):
            row = [b[(m - j) % len(b)] for b, j in zip(blocks, turns)
                   for m in range(len(b))]
            leads = [b[-j % len(b)] for b, j in zip(blocks, turns)]
            if all(a < b for a, b in zip(leads, leads[1:])):
                out.append(row)
    return np.array(out, dtype=np.int64)


def _size_tuples(max_blocks, max_total):
    for r in range(1, max_blocks + 1):
        for sizes in itertools.product(range(max_total + 1), repeat=r):
            if sum(sizes) <= max_total:
                yield sizes


def _same_array(got, want):
    return (np.array_equal(got, want) and got.dtype == want.dtype == np.int64
            and got.shape == want.shape)


def test_ordered_partitions_match_recursive_construction():
    # every size tuple of at most 4 blocks and n <= 9, blocks of size 0
    # and n = 0 included: same rows, same order, int64, shape (count, n)
    for sizes in _size_tuples(4, 9):
        n = sum(sizes)
        got = _ordered_partitions(n, sizes)
        assert _same_array(got, _recursive_partitions(n, sizes)), sizes
        assert got.shape == (math.factorial(n) // math.prod(
            math.factorial(s) for s in sizes), n)
    assert _ordered_partitions(0, (0, 0)).shape == (1, 0)


def test_shuffle_enumerations_match_recursive_construction(monkeypatch):
    for p, q in (t for t in _size_tuples(2, 9) if len(t) == 2):
        assert _same_array(enumerate_shuffles(p, q),
                           _recursive_partitions(p + q, (p, q))), (p, q)
    # degree tuples whose blocks (p_i + 1) fit the same range
    cyclic = {}
    for sizes in _size_tuples(4, 9):
        if min(sizes) > 0:
            degrees = tuple(s - 1 for s in sizes)
            cyclic[degrees] = enumerate_cyclic_shuffles(degrees)
            if sum(sizes) <= 7:
                assert _same_array(cyclic[degrees],
                                   _cyclic_by_definition(degrees)), degrees
    # and built on the recursive partitions, every row in the same place
    monkeypatch.setattr(shuffles, "_ordered_partitions", _recursive_partitions)
    for degrees, got in cyclic.items():
        assert _same_array(got, enumerate_cyclic_shuffles(degrees)), degrees


def test_signature_matches_inversion_parity():
    assert permutation_signs([(1, 2, 3), (2, 1, 3), (3, 1, 2)]).tolist() == \
        [1, -1, 1]
    families = [enumerate_shuffles(p, q) for p in range(5) for q in range(5)]
    families += [enumerate_cyclic_shuffles(ps) for ps in _size_tuples(3, 6)]
    for images in families:
        assert permutation_signs(images).tolist() == \
            [_inversion_sign(row) for row in images.tolist()]
    empty = permutation_signs(np.zeros((0, 4), dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert permutation_signs(np.zeros((3, 0), dtype=np.int64)).tolist() == \
        [1, 1, 1]


def test_shuffle_enumeration_small_cases():
    assert enumerate_shuffles(1, 1).tolist() == [[1, 2], [2, 1]]
    assert permutation_signs(enumerate_shuffles(1, 1)).tolist() == [1, -1]
    assert len(enumerate_shuffles(2, 2)) == 6
    assert len(enumerate_shuffles(0, 3)) == 1


def test_shuffles_preserve_block_orders():
    for p, q in [(1, 2), (2, 2), (3, 2)]:
        perms = enumerate_shuffles(p, q)
        for row, sign in zip(perms.tolist(), permutation_signs(perms)):
            first = [row[k] for k in range(p)]
            second = [row[p + k] for k in range(q)]
            assert first == sorted(first)
            assert second == sorted(second)
            assert sign == _inversion_sign(row)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 4), st.integers(0, 4))
def test_shuffle_count_is_binomial(p, q):
    assert len(enumerate_shuffles(p, q)) == math.comb(p + q, p)


def test_cyclic_shuffle_count_examples():
    assert len(enumerate_cyclic_shuffles((0, 0))) == 1
    # the order is frozen: chain term order and the byte-stable verify
    # report follow it
    assert enumerate_cyclic_shuffles((1, 1)).tolist() == [
        [1, 2, 3, 4], [1, 2, 4, 3], [2, 1, 3, 4], [2, 1, 4, 3],
        [1, 3, 2, 4], [1, 3, 4, 2], [3, 1, 4, 2], [1, 4, 2, 3],
        [1, 4, 3, 2], [2, 3, 4, 1], [3, 2, 4, 1], [2, 4, 3, 1]]
    assert len(enumerate_cyclic_shuffles((1,))) == 2
    with pytest.raises(ValueError):
        enumerate_cyclic_shuffles(())


def test_cyclic_shuffle_count_formula_small():
    for degrees in [(1,), (2,), (0, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        r, total = len(degrees), sum(degrees)
        n = r + total
        want = math.factorial(n) // (
            math.factorial(r) * math.prod(math.factorial(p) for p in degrees))
        perms = enumerate_cyclic_shuffles(degrees)
        assert len(perms) == want
        if n > 6:
            continue
        # the builder against the definition: distinct rows, exactly the
        # permutations passing the block conditions, inversion-count signs
        rows = [tuple(row) for row in perms.tolist()]
        assert len(set(rows)) == len(rows)
        assert set(rows) == {
            row for row in itertools.permutations(range(1, n + 1))
            if is_cyclic_shuffle(row, degrees)}
        assert permutation_signs(perms).tolist() == \
            [_inversion_sign(row) for row in rows]


def test_cyclic_shuffles_pass_membership_predicate():
    degrees = (2, 1)
    perms = enumerate_cyclic_shuffles(degrees)
    for row in perms:
        assert is_cyclic_shuffle(row, degrees)
    # an arbitrary non-member: swap two images of the identity arrangement
    bad = (2, 1, 3, 4, 5)
    assert bad not in {tuple(row) for row in perms.tolist()}
    # rows that are not permutations of 1..5 fail the predicate
    assert not is_cyclic_shuffle((1, 2, 3, 4, 6), degrees)
    assert not is_cyclic_shuffle((1, 2, 3, 4), degrees)


def test_single_block_cyclic_shuffles_are_rotations():
    # one block of degree n: the r+n slots are rotated cyclically
    perms = enumerate_cyclic_shuffles((2,))
    images = {tuple(row) for row in perms.tolist()}
    assert images == {(1, 2, 3), (3, 1, 2), (2, 3, 1)}


def test_sample_simplex_sorted_in_unit_box():
    rng = np.random.default_rng(9)
    pt = sample_simplex_batch(5, rng, 1)[0]
    assert np.all((0.0 <= pt) & (pt <= 1.0))
    assert pt.tolist() == sorted(pt.tolist())
    batch = sample_simplex_batch(4, rng, 100)
    assert batch.shape == (100, 4)
    assert np.all(np.diff(batch, axis=1) >= 0)


def test_shuffle_regions_partition_product_of_simplices():
    rng = np.random.default_rng(10)
    p, q = 2, 2
    members = {tuple(row) for row in enumerate_shuffles(p, q).tolist()}
    # one point of each simplex per row, drawn as consecutive uniforms
    u = rng.random((200, p + q))
    rows = np.hstack([np.sort(u[:, :p], axis=1), np.sort(u[:, p:], axis=1)])
    # each untied point has one sorting permutation, and it is a shuffle
    images, tied = sorting_images(rows)
    assert not tied.any()
    assert all(tuple(row) in members for row in images.tolist())


def test_shuffle_region_volumes_uniform():
    rng = np.random.default_rng(11)
    p, q = 2, 1
    perms = enumerate_shuffles(p, q)
    counts = {tuple(row): 0 for row in perms.tolist()}
    n = 6000
    u = rng.random((n, p + q))
    rows = np.hstack([np.sort(u[:, :p], axis=1), np.sort(u[:, p:], axis=1)])
    images, tied = sorting_images(rows)
    assert not tied.any()
    for row in images.tolist():
        counts[tuple(row)] += 1
    expect = n / len(perms)
    sigma = math.sqrt(n * (1 / len(perms)) * (1 - 1 / len(perms)))
    for c in counts.values():
        assert abs(c - expect) <= 4 * sigma



def _two_sort_images(values):
    """The locator sorting_images used to be: a stable argsort for the
    images, and a second sort of the same values for the ties."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, axis=1, kind="stable")
    tied = np.any(np.diff(np.sort(values, axis=1), axis=1) == 0.0, axis=1)
    images = np.empty_like(order)
    images[np.arange(values.shape[0])[:, None], order] = \
        np.arange(1, values.shape[1] + 1)
    return images, tied


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("rows", [
    # a tie is a zero difference of sorted neighbours: -0 and +0 tie, two
    # +inf (inf - inf is NaN) and NaNs do not, repeated finite values do
    [[0.0, -0.0, 1.0, 2.0], [-0.0, 0.5, 0.0, 0.25], [INF, INF, 1.0, 0.0],
     [-INF, 0.0, -INF, 1.0], [NAN, 1.0, NAN, 2.0], [NAN, 0.5, 0.5, NAN],
     [3.0, 1.0, 3.0, 2.0], [INF, -INF, NAN, 0.0], [0.4, 0.1, 0.3, 0.2]],
    [[0.5], [NAN], [INF], [-0.0]],
    np.zeros((0, 3)),
    np.zeros((0, 1)),
    np.zeros((3, 0)),
], ids=["specials", "width 1", "no rows", "no rows, width 1", "width 0"])
def test_sorting_images_keep_the_two_sort_rule(rows):
    with np.errstate(invalid="ignore"):  # inf - inf, in both locators
        images, tied = sorting_images(rows)
        old_images, old_tied = _two_sort_images(rows)
    assert images.dtype == old_images.dtype
    assert images.shape == old_images.shape
    assert images.tolist() == old_images.tolist()
    assert tied.tolist() == old_tied.tolist()


@pytest.mark.parametrize("degrees", [(1, 1), (2, 0, 1)], ids=str)
def test_cyclic_region_locate_lands_in_enumerated_set(degrees):
    rng = np.random.default_rng(12)
    r = len(degrees)
    members = {tuple(row) for row in enumerate_cyclic_shuffles(degrees).tolist()}
    # per point: r sorted offsets, then each block's sorted coordinates
    u = rng.random((300, r + sum(degrees)))
    s = np.sort(u[:, :r], axis=1)
    ts = [np.sort(t, axis=1) for t in
          np.split(u[:, r:], np.cumsum(degrees)[:-1], axis=1)]
    located, rows = [], []
    for k in range(300):
        row = cyclic_region_locate(degrees, s[k], [t[k] for t in ts])
        assert row is not None
        assert row in members
        assert is_cyclic_shuffle(row, degrees)
        located.append(row)
        hand = []
        for i, t in enumerate(ts):
            hand.append(float(s[k, i]))
            hand.extend((float(s[k, i]) + x) % 1.0 for x in t[k].tolist())
        rows.append(hand)
    # the builder's coordinates are the hand-built rows, bit for bit
    assert _cyclic_coordinates(s, ts).tobytes() == np.array(rows).tobytes()
    # the batched locator agrees row by row and flags an exact tie
    rows.append([rows[0][0]] + rows[0][:-1])
    images, tied = sorting_images(np.array(rows))
    assert [tuple(row) for row in images[:-1].tolist()] == located
    assert tied.tolist() == [False] * len(located) + [True]


# signed zeros, the least subnormal and normal, +-inf, NaN of both signs,
# +-2**52 and its neighbours, where floor is exact, and values next to whole
# numbers, where the fraction rounds up to 1
MOD_ONE_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, INF, -INF, NAN,
    -NAN, 2.0 ** 52, -2.0 ** 52, 2.0 ** 52 - 0.5, -2.0 ** 52 + 0.5,
    2.0 ** 53 + 2, 1e300, -1e300, 1.0, -1.0, 1 - 2.0 ** -53, -2.0 ** -53,
    -1e-20, 0.1, -0.1, 3.7, -3.7])


def test_cyclic_coordinates_reduce_mod_one_as_remainder_does():
    x = MOD_ONE_EDGES[:, None]
    # one block at offset 0 keeps each edge value as it is; two blocks at
    # offsets 0.5 and -0.5 reduce sums of an offset and an edge value
    s, lead = np.zeros((len(x), 1)), np.array([[0.5, -0.5]] * len(x))
    with np.errstate(invalid="ignore"):  # inf - inf and inf % 1
        # x - floor(x) is x % 1.0 bit for bit on every edge value
        assert (x - np.floor(x)).tobytes() == (x % 1.0).tobytes()
        assert _cyclic_coordinates(s, [x]).tobytes() == \
            np.hstack([s, x % 1.0]).tobytes()
        assert _cyclic_coordinates(lead, [x, x]).tobytes() == np.hstack([
            lead[:, :1], (lead[:, :1] + x) % 1.0,
            lead[:, 1:], (lead[:, 1:] + x) % 1.0]).tobytes()


def test_cyclic_region_locate_checks_every_block_alike():
    # a degree-0 block takes no coordinates, as a degree-1 block takes one
    for degrees, ts in [((0, 1), [[0.3, 0.9, 0.4], [0.2]]),
                        ((1, 1), [[0.3, 0.9], [0.2]])]:
        with pytest.raises(ValueError, match="disagrees with its degree"):
            cyclic_region_locate(degrees, (0.1, 0.5), ts)
        # a missing block has no coordinates either
        with pytest.raises(ValueError, match="disagrees with its degree"):
            cyclic_region_locate(degrees, (0.1, 0.5), ts[1:])
    assert cyclic_region_locate((0, 1), (0.1, 0.5), [[], [0.2]]) == (1, 2, 3)


@pytest.mark.parametrize("degrees", [(), (-1, 1)], ids=str)
def test_cyclic_shuffle_functions_share_one_degree_rule(degrees):
    # each function refuses the degrees the enumeration refuses, with its
    # message, where it used to raise IndexError, return True or fail
    # inside numpy
    r = len(degrees)
    calls = [lambda: enumerate_cyclic_shuffles(degrees),
             lambda: cyclic_shuffle_peak_rows(degrees),
             lambda: is_cyclic_shuffle(tuple(range(1, r + 1)), degrees),
             lambda: cyclic_region_locate(degrees, [0.5] * r, [[]] * r)]
    for call in calls:
        with pytest.raises(ValueError,
                           match="need r >= 1 non-negative block degrees"):
            call()


def test_cyclic_region_locate_reports_ties_as_none():
    assert cyclic_region_locate((0, 0), (0.3, 0.3), [(), ()]) is None


def test_cyclic_region_locate_sorted_inputs_give_identity():
    row = cyclic_region_locate((0, 0, 0), (0.1, 0.4, 0.8), [(), (), ()])
    assert row == (1, 2, 3)
    assert permutation_signs([row]).tolist() == [1]
