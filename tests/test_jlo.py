import math

import numpy as np
import pytest

from jlolab.chains import Chain, ElementaryChain, connes_B
from jlolab.jlo import (
    DegreeCapError,
    JLOEvaluator,
    SimplexOrderError,
    bch_cochain,
    jlo_cochain,
    jlo_cochain_mc,
    jlo_integrand,
    perturbed_cochain,
)
from jlolab.linalg import GradedSpace, _freeze
from jlolab.randomgen import (
    random_chain,
    random_even,
    random_odd_hermitian,
    random_triple,
)
from jlolab.spectral import SpectralTripleFD, commutator_d

from eigensum_oracle import cochain_eigensum, divided_diff_exp

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def test_divided_diff_exp_single_node_is_plain_exponential():
    assert divided_diff_exp((0.0,)) == pytest.approx(1.0)
    assert divided_diff_exp((2.0,)) == pytest.approx(math.exp(-2.0))


def test_divided_diff_exp_two_nodes_closed_form():
    # integral of exp(-x) linearly interpolated between the nodes
    want = 1.0 - math.exp(-1.0)
    assert divided_diff_exp((0.0, 1.0)) == pytest.approx(want, abs=1e-14)


def test_divided_diff_exp_frozen_value():
    assert divided_diff_exp((0.0, 1.0, 2.0)) == pytest.approx(
        0.19978820044686402, abs=1e-15)


def test_divided_diff_exp_repeated_nodes():
    for lam, n in [(0.0, 2), (1.0, 2), (0.7, 3)]:
        nodes = (lam,) * (n + 1)
        want = math.exp(-lam) / math.factorial(n)
        assert divided_diff_exp(nodes) == pytest.approx(want, abs=1e-14)


def test_divided_diff_exp_symmetric_and_stacked():
    # a stack of node strings gives one value per string, each matching the
    # single-string call; the value does not depend on the node order
    stack = divided_diff_exp([(2.0, 0.0, 1.0), (0.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
    assert stack.shape == (3,)
    assert stack[0] == pytest.approx(stack[1], abs=1e-15)
    assert stack[1] == pytest.approx(0.19978820044686402, abs=1e-15)
    assert stack[2] == pytest.approx(divided_diff_exp((1.0, 1.0, 1.0)),
                                     abs=1e-15)
    assert divided_diff_exp([[0.5], [2.0]]) == pytest.approx(
        [math.exp(-0.5), math.exp(-2.0)])


def test_divided_diff_exp_matches_simplex_monte_carlo():
    nodes = (0.3, 1.7)
    rng = np.random.default_rng(100)
    t = rng.random(200_000)
    vals = np.exp(-(t * nodes[0] + (1.0 - t) * nodes[1]))
    est, se = vals.mean(), vals.std() / math.sqrt(t.size)
    assert abs(divided_diff_exp(nodes) - est) < 4 * se


def test_degree_zero_cochain_is_heat_supertrace():
    rng = np.random.default_rng(0)
    t = random_triple(rng, 2, 1)
    a = random_even(rng, t.space)
    got = jlo_cochain(t, Chain.elementary(1.0, (a,)))
    want = t.supertrace(t.represent(a) @ t.heat(1.0))
    assert got == pytest.approx(want, abs=1e-13)


def test_unit_laplacian_reduces_to_volume_weights():
    # D = offdiagonal swap so Delta = 1: the heat factors are scalars and
    # the degree-n value is exp(-1)/n! times the supertraced slot product
    s = GradedSpace(1, 1)
    t = SpectralTripleFD(s, X, (np.eye(2),))
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        mats = [random_even(rng, s) for _ in range(n + 1)]
        got = jlo_cochain(t, Chain.elementary(1.0, tuple(mats)))
        prod = t.represent(mats[0])
        for a in mats[1:]:
            prod = prod @ commutator_d(t, a)
        want = math.exp(-1.0) / math.factorial(n) * t.supertrace(prod)
        assert got == pytest.approx(want, abs=1e-12)


def test_exact_and_eigensum_routes_agree():
    rng = np.random.default_rng(2)
    for de, do in [(1, 1), (2, 1), (2, 2)]:
        t = random_triple(rng, de, do)
        chain = random_chain(rng, t.space, (0, 1, 2, 3))
        ev = JLOEvaluator(t)
        a = ev.cochain(chain)
        b = cochain_eigensum(t, chain)
        assert a == pytest.approx(b, abs=1e-12)


def test_first_slot_bracket_routes_agree():
    rng = np.random.default_rng(3)
    t = random_triple(rng, 2, 1)
    chain = random_chain(rng, t.space, (1, 2))
    ev = JLOEvaluator(t)
    assert ev.cochain(chain, first_slot_d=True) == pytest.approx(
        cochain_eigensum(t, chain, first_slot_d=True), abs=1e-12)


def test_parity_shortcut_gives_exact_zeros():
    # each bracketed slot is odd, so a degree-n term with even factors has
    # supertrace parity n and vanishes identically for odd n
    rng = np.random.default_rng(4)
    t = random_triple(rng, 2, 2)
    a0, a1, a2, a3 = (random_even(rng, t.space) for _ in range(4))
    assert jlo_cochain(t, Chain.elementary(1.0, (a0, a1))) == 0.0
    assert jlo_cochain(t, Chain.elementary(1.0, (a0, a1, a2, a3))) == 0.0
    # an odd head in degree zero is supertrace-free as well
    odd_head = np.kron(X, np.eye(2))
    assert jlo_cochain(t, Chain.elementary(1.0, (odd_head,))) == 0.0
    # even total parity is not short-circuited
    assert jlo_cochain(t, Chain.elementary(1.0, (a0, a1, a2))) != 0.0


def test_contraction_cochain_vanishes_in_degree_zero():
    rng = np.random.default_rng(5)
    t = random_triple(rng, 2, 1)
    a = random_even(rng, t.space)
    assert bch_cochain(t, Chain.elementary(1.0, (a,))) == 0.0


def test_integrand_at_simplex_points():
    rng = np.random.default_rng(6)
    t = random_triple(rng, 1, 1)
    a0, a1 = random_even(rng, t.space), random_even(rng, t.space)
    v = jlo_integrand(t, (a0, a1), (0.25,))
    r0 = t.represent(a0)
    width = commutator_d(t, a1)
    want = t.supertrace(r0 @ t.heat(0.25) @ width @ t.heat(0.75))
    assert v == pytest.approx(want, abs=1e-13)
    for bad in [(0.9, 0.2), (-0.1,), (1.1,)]:
        with pytest.raises(SimplexOrderError):
            jlo_integrand(t, (a0, a1, a1)[:len(bad) + 1], bad)


def test_integrand_requires_matching_degree():
    rng = np.random.default_rng(7)
    t = random_triple(rng, 1, 1)
    a = random_even(rng, t.space)
    with pytest.raises(ValueError):
        jlo_integrand(t, (a, a), (0.2, 0.6))


def test_degree_cap_enforced():
    rng = np.random.default_rng(8)
    t = random_triple(rng, 1, 1)
    mats = tuple(random_even(rng, t.space) for _ in range(14))
    with pytest.raises(DegreeCapError):
        jlo_cochain(t, Chain.elementary(1.0, mats))


def test_monte_carlo_brackets_exact_value():
    rng = np.random.default_rng(9)
    t = random_triple(rng, 2, 1)
    chain = random_chain(rng, t.space, (1, 2))
    exact = jlo_cochain(t, chain)
    est, se = jlo_cochain_mc(t, chain, 40_000, rng)
    assert se > 0
    assert abs(exact - est) < 4 * se


def test_monte_carlo_degree_zero_is_exact():
    rng = np.random.default_rng(10)
    t = random_triple(rng, 2, 1)
    chain = random_chain(rng, t.space, (0,))
    est, se = jlo_cochain_mc(t, chain, 10, rng)
    assert se == 0.0
    assert est == pytest.approx(jlo_cochain(t, chain), abs=1e-12)


def test_scalar_shift_in_interior_slot_is_invisible():
    rng = np.random.default_rng(11)
    t = random_triple(rng, 2, 1)
    a0, a1, a2 = (random_even(rng, t.space) for _ in range(3))
    base = jlo_cochain(t, Chain.elementary(1.0, (a0, a1, a2)))
    eye = np.eye(t.hilbert_dim)
    shifted = jlo_cochain(
        t, Chain.elementary(1.0, (a0, a1 + (0.8 - 0.3j) * eye, a2)))
    assert shifted == pytest.approx(base, abs=1e-12)


def test_contraction_equals_cochain_of_cyclic_boundary():
    rng = np.random.default_rng(12)
    t = random_triple(rng, 2, 1)
    chain = random_chain(rng, t.space, (0, 1, 2, 3))
    assert bch_cochain(t, chain) == pytest.approx(
        jlo_cochain(t, connes_B(chain)), abs=1e-12)


def test_perturbed_cochain_two_routes():
    rng = np.random.default_rng(13)
    t = random_triple(rng, 2, 2)
    chain = random_chain(rng, t.space, (0, 1, 2))
    assert perturbed_cochain(t, chain) == pytest.approx(
        perturbed_cochain(t, chain, via_delta=True), abs=1e-12)


def test_shared_factor_objects_match_per_term_copies():
    # terms that share frozen factor objects, one of them both as a head
    # and as a bracketed slot, evaluate exactly like per-term copies
    rng = np.random.default_rng(14)
    t = random_triple(rng, 2, 1)
    a, b, c = (_freeze(random_even(rng, t.space)) for _ in range(3))
    m = _freeze(random_even(rng, t.space) + random_odd_hermitian(rng, t.space))
    layout = [(1.0, (a, b, a)), (0.5 - 0.25j, (b, a, c, a)),
              (-0.7, (a, m, b)), (1.5j, (m, a)), (0.3, (c, b, a, m))]
    shared = Chain(t.hilbert_dim, tuple(
        ElementaryChain(k, fs) for k, fs in layout))
    copied = Chain(t.hilbert_dim, tuple(
        ElementaryChain(k, tuple(np.array(f) for f in fs))
        for k, fs in layout))
    # the shared chain stores each of a, b, c, m once; the copied one
    # stores all sixteen factors
    assert len(shared.table) == 4
    assert len(copied.table) == sum(len(fs) for _, fs in layout)
    ev = JLOEvaluator(t)
    for first_slot_d in (False, True):
        want = ev.cochain(copied, first_slot_d)
        assert want != 0
        assert ev.cochain(shared, first_slot_d) == want
        assert cochain_eigensum(t, shared, first_slot_d) == \
            cochain_eigensum(t, copied, first_slot_d)
    assert jlo_cochain(t, shared) == jlo_cochain(t, copied)
    assert bch_cochain(t, shared) == bch_cochain(t, copied)
    # a writable source is still copied, so mutating it later changes nothing
    src = np.array(b)
    chain = Chain.elementary(1.0, (a, src, c))
    before = jlo_cochain(t, chain)
    src += 1.0
    assert not np.shares_memory(chain.table, src)
    assert jlo_cochain(t, chain) == before
