import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.chains import (
    Chain,
    ElementaryChain,
    MAX_OUTPUT_TERMS,
    TermBudgetError,
    _interleave,
    _random_probes,
    br_operation,
    connes_B,
    hochschild_b,
    probe_distance,
    shuffle_product,
)
from jlolab.linalg import GradedSpace
from jlolab.shuffles import (
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    permutation_signs,
)
from jlolab.randomgen import random_chain


def _mats(rng, d, k):
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(k)]


def _close(c1: Chain, c2: Chain, seed=0, tol=1e-12) -> bool:
    return probe_distance(c1, c2, np.random.default_rng(seed)) <= tol


def test_elementary_chain_validation():
    with pytest.raises(ValueError):
        ElementaryChain(1.0, ())
    with pytest.raises(ValueError):
        ElementaryChain(1.0, (np.eye(2), np.eye(3)))
    t = ElementaryChain(2.0, (np.eye(2), np.ones((2, 2))))
    assert t.degree == 1 and t.dim == 2


def test_chain_arithmetic_and_components():
    rng = np.random.default_rng(0)
    a0, a1 = _mats(rng, 2, 2)
    c = Chain.elementary(1.0, (a0,)) + Chain.elementary(2.0, (a0, a1))
    assert c.degrees() == (0, 1)
    # no like-term combining: arithmetic concatenates term lists
    d = 3.0 * c - c
    assert sorted(t.coeff.real for t in d.terms) == [-2.0, -1.0, 3.0, 6.0]
    with pytest.raises(ValueError):
        c + Chain.elementary(1.0, (np.eye(3),))


def test_normalization_drops_scalar_interior_slots():
    rng = np.random.default_rng(1)
    a0, a1 = _mats(rng, 2, 2)
    keep = Chain.elementary(1.0, (a0, a1))
    drop = Chain.elementary(1.0, (a0, 2.0 * np.eye(2)))
    zero = Chain.elementary(0.0, (a0, a1))
    c = (keep + drop + zero).normalized()
    assert c.num_terms == 1
    assert np.array_equal(c.terms[0].factors[1], a1)
    # a scalar in the head slot is meaningful and must survive
    head = Chain.elementary(1.0, (np.eye(2), a1)).normalized()
    assert head.num_terms == 1


def test_hochschild_b_degree_one_is_commutator():
    rng = np.random.default_rng(2)
    a0, a1 = _mats(rng, 2, 2)
    out = hochschild_b(Chain.elementary(1.0, (a0, a1)))
    direct = Chain.elementary(1.0, (a0 @ a1 - a1 @ a0,))
    assert _close(out, direct)


def test_hochschild_b_degree_two_term_structure():
    rng = np.random.default_rng(3)
    a0, a1, a2 = _mats(rng, 2, 3)
    out = hochschild_b(Chain.elementary(1.0, (a0, a1, a2)))
    expect = Chain.elementary(1.0, (a0 @ a1, a2)) \
        - Chain.elementary(1.0, (a0, a1 @ a2)) \
        + Chain.elementary(1.0, (a2 @ a0, a1))
    assert _close(out, expect)


def test_hochschild_b_kills_degree_zero():
    out = hochschild_b(Chain.elementary(1.0, (np.ones((2, 2)),)))
    assert out.num_terms == 0


def test_connes_b_formula_low_degrees():
    rng = np.random.default_rng(4)
    a0, a1 = _mats(rng, 2, 2)
    eye = np.eye(2)
    out0 = connes_B(Chain.elementary(1.0, (a0,)))
    assert _close(out0, Chain.elementary(1.0, (eye, a0)))
    out1 = connes_B(Chain.elementary(1.0, (a0, a1)))
    expect = Chain.elementary(1.0, (eye, a0, a1)) \
        - Chain.elementary(1.0, (eye, a1, a0))
    assert _close(out1, expect)


def test_connes_b_annihilates_scalar_headed_terms():
    # every rotation of (1, a) parks the unit in an interior slot, so the
    # normalized image is zero
    rng = np.random.default_rng(5)
    (a,) = _mats(rng, 2, 1)
    src = Chain.elementary(1.0, (np.eye(2), a))
    assert connes_B(src).num_terms == 0


def test_boundary_squares_vanish_and_anticommute():
    rng = np.random.default_rng(6)
    space = GradedSpace(2, 1)
    a = random_chain(rng, space, (1, 2, 3, 4))
    zero = Chain.zero(space.dim)
    assert _close(hochschild_b(hochschild_b(a)), zero)
    assert _close(connes_B(connes_B(a)), zero)
    mixed = hochschild_b(connes_B(a)) + connes_B(hochschild_b(a))
    assert _close(mixed, zero)


def test_shuffle_product_degree_zero_is_kronecker():
    rng = np.random.default_rng(7)
    (a,) = _mats(rng, 2, 1)
    (b,) = _mats(rng, 3, 1)
    out = shuffle_product(Chain.elementary(2.0, (a,)),
                          Chain.elementary(3.0, (b,)))
    assert out.num_terms == 1
    assert out.terms[0].coeff == 6.0
    assert np.allclose(out.terms[0].factors[0], np.kron(a, b))


def test_shuffle_product_degrees_one_zero():
    rng = np.random.default_rng(8)
    a0, a1 = _mats(rng, 2, 2)
    (b,) = _mats(rng, 2, 1)
    out = shuffle_product(Chain.elementary(1.0, (a0, a1)),
                          Chain.elementary(1.0, (b,)))
    expect = Chain.elementary(
        1.0, (np.kron(a0, b), np.kron(a1, np.eye(2))))
    assert _close(out, expect)


def test_shuffle_product_degrees_one_one_signs():
    rng = np.random.default_rng(9)
    a0, a1 = _mats(rng, 2, 2)
    b0, b1 = _mats(rng, 2, 2)
    out = shuffle_product(Chain.elementary(1.0, (a0, a1)),
                          Chain.elementary(1.0, (b0, b1)))
    head = np.kron(a0, b0)
    sa = np.kron(a1, np.eye(2))
    sb = np.kron(np.eye(2), b1)
    expect = Chain.elementary(1.0, (head, sa, sb)) \
        - Chain.elementary(1.0, (head, sb, sa))
    assert out.num_terms == 2
    assert _close(out, expect)


def test_signed_terms_move_item_k_to_slot_image_k():
    # items a, b, c are non-scalar matrices marked 1, 2, 3 and the head is
    # marked 7; (2, 3, 1) is not an involution, so it tells the action from
    # its inverse
    def marker(v):
        return np.array([[v, 1.0], [0.0, 0.0]])

    items = Chain.elementary(2.0, [marker(v) for v in (1.0, 2.0, 3.0)])
    table = np.concatenate([items.table, marker(7.0)[None]])
    blocks = _interleave([items], [0], 0, lambda rows: np.full(len(rows[0]), 3),
                         lambda ps: np.array([[2, 3, 1], [2, 1, 3]]))
    terms = Chain.from_table(2, table, blocks).terms
    # item k lands in slot images[k]; reading slots gives the inverse
    assert [[f[0, 0].real for f in t.factors] for t in terms] == \
        [[7, 3, 1, 2], [7, 2, 1, 3]]
    assert [t.coeff for t in terms] == [2.0, -2.0]


def test_shuffle_associativity_random():
    rng = np.random.default_rng(10)
    spaces = [GradedSpace(1, 1), GradedSpace(2, 0), GradedSpace(1, 1)]
    a, b, c = (random_chain(rng, s, (0, 1, 2)) for s in spaces)
    lhs = shuffle_product(shuffle_product(a, b), c)
    rhs = shuffle_product(a, shuffle_product(b, c))
    assert probe_distance(lhs, rhs, rng) <= 1e-12


def test_br_single_argument_is_connes_b():
    rng = np.random.default_rng(11)
    space = GradedSpace(2, 1)
    a = random_chain(rng, space, (0, 1, 2, 3))
    assert _close(br_operation([a]), connes_B(a))


def test_br_pair_degree_zero_single_term():
    rng = np.random.default_rng(12)
    (a,) = _mats(rng, 2, 1)
    (b,) = _mats(rng, 2, 1)
    out = br_operation([Chain.elementary(1.0, (a,)),
                        Chain.elementary(1.0, (b,))])
    assert out.num_terms == 1
    t = out.terms[0]
    assert t.coeff == 1.0
    assert np.allclose(t.factors[0], np.eye(4))
    assert np.allclose(t.factors[1], np.kron(a, np.eye(2)))
    assert np.allclose(t.factors[2], np.kron(np.eye(2), b))


def test_br_pair_degree_one_term_count():
    rng = np.random.default_rng(13)
    a = Chain.elementary(1.0, tuple(_mats(rng, 2, 2)))
    b = Chain.elementary(1.0, tuple(_mats(rng, 2, 2)))
    out = br_operation([a, b])
    assert out.num_terms == 12
    assert out.degrees() == (4,)
    for t in out.terms:
        assert np.allclose(t.factors[0], np.eye(4))


def test_term_budget_guards_big_enumerations():
    rng = np.random.default_rng(15)
    big = Chain.elementary(1.0, tuple(_mats(rng, 2, 4)))
    with pytest.raises(TermBudgetError):
        br_operation([big, big, big, big])


def test_probe_distance_separates_unequal_chains():
    rng = np.random.default_rng(17)
    space = GradedSpace(1, 1)
    a = random_chain(rng, space, (1, 2))
    b = random_chain(rng, space, (1, 2))
    assert probe_distance(a, b, rng) > 1e-6
    assert probe_distance(a, a, rng) == 0.0


def _reference_distance(c1, c2, rng):
    """probe_distance with one np.trace(f @ p) per factor and slot."""
    degs = sorted(set(c1.degrees()) | set(c2.degrees()))
    worst = 0.0
    for _ in range(4):
        probes = _random_probes(c1.algebra_dim, degs, rng)
        v1, v2 = (sum((t.coeff * np.prod([np.trace(f @ p) for f, p in
                                          zip(t.factors, probes[t.degree])])
                       for t in c.terms), 0j)
                  for c in (c1, c2))
        worst = max(worst, abs(v1 - v2) / (1.0 + max(abs(v1), abs(v2))))
    return worst


def test_probe_distance_matches_plain_traces():
    rng = np.random.default_rng(19)
    space = GradedSpace(2, 1)
    a = random_chain(rng, space, (0, 1, 2, 3))
    f, g = _mats(rng, 3, 2)
    for m in (f, g):
        m.setflags(write=False)
    # one array in several terms and slots, next to fresh arrays
    shared = Chain(3, (ElementaryChain(0.5, (f, g, f)),
                       ElementaryChain(-2.0, (g, f)), ElementaryChain(1j, (f,))))
    assert len(shared.table) == 2
    small = random_chain(rng, GradedSpace(1, 1), (0, 1))
    prod = shuffle_product(small, small)
    zero = Chain.zero(3)
    cases = [(a, shared), (a + shared, zero), (zero, shared), (zero, zero),
             (prod, Chain.zero(4)), (prod, -1.0 * prod), (connes_B(a), a)]
    for seed, (c1, c2) in enumerate(cases):
        got_rng = np.random.default_rng([20, seed])
        ref_rng = np.random.default_rng([20, seed])
        got = probe_distance(c1, c2, got_rng)
        ref = _reference_distance(c1, c2, ref_rng)
        assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref)), (seed, got, ref)
        # the caller's stream is left where four plain draws leave it
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    for c in (a, shared, prod, zero):
        assert probe_distance(c, c, rng) == 0.0


def _kron_shuffle_product(left, right):
    """shuffle_product rebuilt with np.kron for every pair of terms."""
    d1, d2 = left.algebra_dim, right.algebra_dim
    terms = []
    for ta, tb in itertools.product(left.terms, right.terms):
        head = np.kron(ta.factors[0], tb.factors[0])
        slots = [np.kron(a, np.eye(d2)) for a in ta.factors[1:]]
        slots += [np.kron(np.eye(d1), b) for b in tb.factors[1:]]
        images = enumerate_shuffles(ta.degree, tb.degree)
        for sign, row in zip(permutation_signs(images), images):
            terms.append(ElementaryChain(
                ta.coeff * tb.coeff * sign,
                (head,) + tuple(slots[k] for k in np.argsort(row))))
    return Chain(d1 * d2, tuple(terms)).normalized()


def _kron_br_operation(chains):
    """br_operation rebuilt with np.kron for every combination of terms."""
    dims = [c.algebra_dim for c in chains]
    total = int(np.prod(dims))
    terms = []
    for combo in itertools.product(*[c.terms for c in chains]):
        slots = []
        for i, t in enumerate(combo):
            pre = int(np.prod(dims[:i]))
            post = total // (pre * dims[i])
            slots += [np.kron(np.kron(np.eye(pre), f), np.eye(post))
                      for f in t.factors]
        images = enumerate_cyclic_shuffles(tuple(t.degree for t in combo))
        coeff = np.prod([t.coeff for t in combo])
        for sign, row in zip(permutation_signs(images), images):
            terms.append(ElementaryChain(
                coeff * sign,
                (np.eye(total),) + tuple(slots[k] for k in np.argsort(row))))
    return Chain(total, tuple(terms)).normalized()


def _assert_rebuilt(out, ref, most):
    assert out.num_terms == ref.num_terms > 0
    for t, r in zip(out.terms, ref.terms):
        assert t.coeff == r.coeff
        for f, g in zip(t.factors, r.factors, strict=True):
            assert np.array_equal(f, g)
    # the table holds each entry the rows use once, and no other
    assert len(out.table) == _distinct(f for t in out.terms for f in t.factors)
    assert len(out.table) <= most


def _distinct(arrays) -> int:
    # random factors have distinct values, so a value names one input
    return len({f.tobytes() for f in arrays})


def test_products_embed_each_factor_once():
    rng = np.random.default_rng(21)
    s1, s2, s3 = GradedSpace(1, 1), GradedSpace(2, 1), GradedSpace(1, 1)
    a = random_chain(rng, s1, (0, 1, 2))
    b = random_chain(rng, s2, (0, 1, 2))
    c = random_chain(rng, s3, (0, 1))
    assert a.num_terms > 1 and b.num_terms > 1
    for x in (a, b, c):
        assert len(x.table) == _distinct(f for t in x.terms for f in t.factors)
    for left, right in ((a, b), (b, a), (shuffle_product(a, c), b)):
        # each input table entry embedded at most once, plus at most one
        # entry per head pair
        heads = _distinct(np.kron(ta.factors[0], tb.factors[0])
                          for ta in left.terms for tb in right.terms)
        _assert_rebuilt(shuffle_product(left, right),
                        _kron_shuffle_product(left, right),
                        len(left.table) + len(right.table) + heads)
    for args in ((a, b), (a, b, c)):
        # each input table entry embedded at most once, plus the unit
        _assert_rebuilt(br_operation(list(args)), _kron_br_operation(list(args)),
                        1 + sum(len(x.table) for x in args))


def test_normalized_keeps_only_the_entries_its_rows_use():
    rng = np.random.default_rng(23)
    a = random_chain(rng, GradedSpace(2, 1), (1, 2, 3, 4))
    assert a.normalized().table is a.table
    assert len(connes_B(connes_B(a)).table) == 0
    bb = hochschild_b(hochschild_b(a))
    used = np.concatenate([rows.ravel() for rows, _ in bb.blocks.values()])
    assert bb.num_terms > 0
    assert np.array_equal(np.unique(used), np.arange(len(bb.table)))


def test_shuffle_product_budget_trips_before_any_work(monkeypatch):
    rng = np.random.default_rng(22)
    big = Chain.elementary(1.0, tuple(_mats(rng, 2, 13)))
    assert big.degrees() == (12,)

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr("jlolab.chains.enumerate_shuffles", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    assert math.comb(24, 12) > MAX_OUTPUT_TERMS
    with pytest.raises(TermBudgetError):
        shuffle_product(big, big)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3))
def test_hochschild_square_zero_property(seed, p, q):
    rng = np.random.default_rng(seed)
    space = GradedSpace(p, q)
    a = random_chain(rng, space, (1, 2, 3))
    assert probe_distance(hochschild_b(hochschild_b(a)),
                          Chain.zero(space.dim), rng) <= 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 31 - 1))
def test_connes_square_zero_property(seed):
    rng = np.random.default_rng(seed)
    space = GradedSpace(1, 1)
    a = random_chain(rng, space, (0, 1, 2))
    assert probe_distance(connes_B(connes_B(a)),
                          Chain.zero(space.dim), rng) <= 1e-12
