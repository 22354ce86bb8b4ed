import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.shuffles import (
    SignedPermutation,
    SimplexPoint,
    cyclic_region_locate,
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    is_cyclic_shuffle,
    sample_simplex,
    sample_simplex_batch,
    shuffle_region_contains,
    sorting_images,
)


def test_signed_permutation_validation():
    SignedPermutation(3, (2, 3, 1), 1)
    with pytest.raises(ValueError):
        SignedPermutation(3, (1, 1, 2), 1)
    with pytest.raises(ValueError):
        SignedPermutation(3, (2, 3, 4), 1)
    with pytest.raises(ValueError):
        SignedPermutation(2, (1, 2), 0)


def test_signature_matches_inversion_parity():
    assert SignedPermutation.signature_of((1, 2, 3)) == 1
    assert SignedPermutation.signature_of((2, 1, 3)) == -1
    assert SignedPermutation.signature_of((3, 1, 2)) == 1


def test_apply_to_slots_moves_item_k_to_slot_image_k():
    chi = SignedPermutation.from_images((2, 3, 1))
    # item k lands in slot images[k]; reading slots gives the inverse
    assert chi.apply_to_slots(("a", "b", "c")) == ("c", "a", "b")
    assert chi.apply_to_slots((1, 2, 3)) == chi.inverse_images


def test_shuffle_enumeration_small_cases():
    assert [chi.images for chi in enumerate_shuffles(1, 1)] == \
        [(1, 2), (2, 1)]
    assert [chi.sign for chi in enumerate_shuffles(1, 1)] == [1, -1]
    assert len(enumerate_shuffles(2, 2)) == 6
    assert len(enumerate_shuffles(0, 3)) == 1


def test_shuffles_preserve_block_orders():
    for p, q in [(1, 2), (2, 2), (3, 2)]:
        for chi in enumerate_shuffles(p, q):
            first = [chi.images[k] for k in range(p)]
            second = [chi.images[p + k] for k in range(q)]
            assert first == sorted(first)
            assert second == sorted(second)
            assert chi.sign == SignedPermutation.signature_of(chi.images)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 4), st.integers(0, 4))
def test_shuffle_count_is_binomial(p, q):
    assert len(enumerate_shuffles(p, q)) == math.comb(p + q, p)


def test_cyclic_shuffle_count_examples():
    assert len(enumerate_cyclic_shuffles((0, 0))) == 1
    assert len(enumerate_cyclic_shuffles((1, 1))) == 12
    assert len(enumerate_cyclic_shuffles((1,))) == 2
    with pytest.raises(ValueError):
        enumerate_cyclic_shuffles(())


def test_cyclic_shuffle_count_formula_small():
    for degrees in [(1,), (2,), (0, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        r, total = len(degrees), sum(degrees)
        n = r + total
        want = math.factorial(n) // (
            math.factorial(r) * math.prod(math.factorial(p) for p in degrees))
        assert len(enumerate_cyclic_shuffles(degrees)) == want


def test_cyclic_shuffles_pass_membership_predicate():
    degrees = (2, 1)
    perms = enumerate_cyclic_shuffles(degrees)
    for sg in perms:
        assert is_cyclic_shuffle(sg, degrees)
    # an arbitrary non-member: swap two images of the identity arrangement
    bad = SignedPermutation.from_images((2, 1, 3, 4, 5))
    assert bad not in perms


def test_single_block_cyclic_shuffles_are_rotations():
    # one block of degree n: the r+n slots are rotated cyclically
    perms = enumerate_cyclic_shuffles((2,))
    images = {sg.images for sg in perms}
    assert images == {(1, 2, 3), (3, 1, 2), (2, 3, 1)}


def test_simplex_point_validation():
    SimplexPoint((0.1, 0.5, 0.9))
    SimplexPoint(())
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 0.1))
    with pytest.raises(ValueError):
        SimplexPoint((-0.1, 0.5))
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 1.1))


def test_sample_simplex_sorted_in_unit_box():
    rng = np.random.default_rng(9)
    pt = sample_simplex(5, rng)
    assert all(0.0 <= c <= 1.0 for c in pt.t)
    assert list(pt.t) == sorted(pt.t)
    batch = sample_simplex_batch(4, rng, 100)
    assert batch.shape == (100, 4)
    assert np.all(np.diff(batch, axis=1) >= 0)


def test_shuffle_regions_partition_product_of_simplices():
    rng = np.random.default_rng(10)
    p, q = 2, 2
    perms = enumerate_shuffles(p, q)
    for _ in range(200):
        s = sample_simplex(p, rng)
        t = sample_simplex(q, rng)
        hits = [chi for chi in perms if shuffle_region_contains(chi, s, t)]
        assert len(hits) == 1


def test_shuffle_region_volumes_uniform():
    rng = np.random.default_rng(11)
    p, q = 2, 1
    perms = enumerate_shuffles(p, q)
    counts = {chi.images: 0 for chi in perms}
    n = 6000
    for _ in range(n):
        s = sample_simplex(p, rng)
        t = sample_simplex(q, rng)
        for chi in perms:
            if shuffle_region_contains(chi, s, t):
                counts[chi.images] += 1
                break
    expect = n / len(perms)
    sigma = math.sqrt(n * (1 / len(perms)) * (1 - 1 / len(perms)))
    for c in counts.values():
        assert abs(c - expect) <= 4 * sigma


def test_cyclic_region_locate_lands_in_enumerated_set():
    rng = np.random.default_rng(12)
    degrees = (1, 1)
    members = {sg.images for sg in enumerate_cyclic_shuffles(degrees)}
    located, rows = [], []
    for _ in range(300):
        s = sample_simplex(len(degrees), rng)
        ts = [sample_simplex(p, rng) for p in degrees]
        sg = cyclic_region_locate(degrees, s, ts)
        assert sg is not None
        assert sg.images in members
        assert is_cyclic_shuffle(sg, degrees)
        located.append(sg.images)
        rows.append([s.t[0], (s.t[0] + ts[0].t[0]) % 1.0,
                     s.t[1], (s.t[1] + ts[1].t[0]) % 1.0])
    # the batched locator agrees row by row and flags an exact tie
    rows.append([0.25, 0.5, 0.25, 0.75])
    images, tied = sorting_images(np.array(rows))
    assert [tuple(row) for row in images[:-1].tolist()] == located
    assert tied.tolist() == [False] * len(located) + [True]


def test_cyclic_region_locate_reports_ties_as_none():
    assert cyclic_region_locate((0, 0), (0.3, 0.3), [(), ()]) is None


def test_cyclic_region_locate_sorted_inputs_give_identity():
    sg = cyclic_region_locate((0, 0, 0), (0.1, 0.4, 0.8), [(), (), ()])
    assert sg.images == (1, 2, 3)
    assert sg.sign == 1
