import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.shuffles import (
    cyclic_region_locate,
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


def test_signature_matches_inversion_parity():
    assert permutation_signs([(1, 2, 3), (2, 1, 3), (3, 1, 2)]).tolist() == \
        [1, -1, 1]


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


def test_cyclic_region_locate_lands_in_enumerated_set():
    rng = np.random.default_rng(12)
    degrees = (1, 1)
    members = {tuple(row) for row in enumerate_cyclic_shuffles(degrees).tolist()}
    # per point: two sorted offsets, then one coordinate per block
    u = rng.random((300, 4))
    s, t = np.sort(u[:, :2], axis=1), u[:, 2:]
    located, rows = [], []
    for k in range(300):
        row = cyclic_region_locate(degrees, s[k], [t[k, :1], t[k, 1:]])
        assert row is not None
        assert row in members
        assert is_cyclic_shuffle(row, degrees)
        located.append(row)
        rows.append([s[k, 0], (s[k, 0] + t[k, 0]) % 1.0,
                     s[k, 1], (s[k, 1] + t[k, 1]) % 1.0])
    # the batched locator agrees row by row and flags an exact tie
    rows.append([0.25, 0.5, 0.25, 0.75])
    images, tied = sorting_images(np.array(rows))
    assert [tuple(row) for row in images[:-1].tolist()] == located
    assert tied.tolist() == [False] * len(located) + [True]


def test_cyclic_region_locate_reports_ties_as_none():
    assert cyclic_region_locate((0, 0), (0.3, 0.3), [(), ()]) is None


def test_cyclic_region_locate_sorted_inputs_give_identity():
    row = cyclic_region_locate((0, 0, 0), (0.1, 0.4, 0.8), [(), (), ()])
    assert row == (1, 2, 3)
    assert permutation_signs([row]).tolist() == [1]
