import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.chains import (
    Chain,
    ElementaryChain,
    TermBudgetError,
    _signed_terms,
    br_operation,
    chain_from_json,
    chain_to_json,
    connes_B,
    cyclic_shuffle_product,
    hochschild_b,
    probe_distance,
    shuffle_product,
)
from jlolab.linalg import GradedSpace
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
    assert c.component(1).num_terms == 1
    assert set(c.by_degree()) == {0, 1}
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
    # items a, b, c are the 1x1 matrices 1, 2, 3; (2, 3, 1) is not an
    # involution, so it tells the action from its inverse
    head = np.full((1, 1), 7.0)
    items = [np.full((1, 1), v) for v in (1.0, 2.0, 3.0)]
    terms = _signed_terms(2.0, head, items, np.array([[2, 3, 1], [2, 1, 3]]))
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
    out = cyclic_shuffle_product(a, b)
    assert out.num_terms == 12
    assert out.degrees() == (4,)
    for t in out.terms:
        assert np.allclose(t.factors[0], np.eye(4))


def test_cyclic_product_matches_br_pair():
    rng = np.random.default_rng(14)
    s1, s2 = GradedSpace(1, 1), GradedSpace(1, 1)
    a = random_chain(rng, s1, (0, 1))
    b = random_chain(rng, s2, (1, 2))
    assert _close(cyclic_shuffle_product(a, b), br_operation([a, b]))


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


def test_chain_json_round_trip():
    rng = np.random.default_rng(18)
    space = GradedSpace(2, 1)
    c = random_chain(rng, space, (0, 2))
    back = chain_from_json(chain_to_json(c))
    assert back.algebra_dim == c.algebra_dim
    assert back.num_terms == c.num_terms
    assert _close(back, c)
    with pytest.raises(ValueError):
        chain_from_json({"algebra_dim": 2})


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
