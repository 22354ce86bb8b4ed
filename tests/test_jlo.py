import functools
import math

import numpy as np
import pytest

from jlolab import jlo
from jlolab.chains import (
    Chain,
    ElementaryChain,
    connes_B,
    hochschild_b,
    shuffle_product,
)
from jlolab.jlo import (
    DEGREE_CAP,
    INV_SQRT2,
    UNIT_ROUNDOFF,
    DegreeCapError,
    JLOEvaluator,
    SimplexOrderError,
    bch_cochain,
    delta_perturbation,
    jlo_cochain,
    jlo_cochain_mc,
    jlo_integrand,
    perturbed_cochain,
)
from jlolab.linalg import (
    GradedSpace,
    Parity,
    _freeze,
    parity_codes,
    parity_of,
    supertrace,
)
from jlolab.randomgen import (
    random_chain,
    random_even,
    random_odd_hermitian,
    random_triple,
)
from jlolab.shuffles import sample_simplex_batch
from jlolab.spectral import SpectralTripleFD, commutator_d, product_triple

from eigensum_oracle import cochain_eigensum, divided_diff_exp
from vanloan_oracle import cochain_vanloan, term_vanloan

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
    want = supertrace(t.represent(a) @ t.heat(1.0), t.space)
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
        want = math.exp(-1.0) / math.factorial(n) * supertrace(prod, t.space)
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


def test_contour_matches_block_exponential_oracle():
    # random, flat (W = 0), paired-spectrum products of identical factors
    # and wide spectra, one single-term chain per degree through the cap
    rng = np.random.default_rng(21)
    t11, t21 = random_triple(rng, 1, 1), random_triple(rng, 2, 1)
    s21 = GradedSpace(2, 1)
    flat = SpectralTripleFD(s21, np.zeros((3, 3)), (random_even(rng, s21),))
    triples = [t21, random_triple(rng, 2, 2), flat, product_triple(t11, t11),
               product_triple(t21, t21)] + [
        random_triple(rng, 2, 1, dirac_scale=s) for s in (0.5, 2.0, 6.0)]
    for t in triples:
        ev = JLOEvaluator(t)
        for n in range(DEGREE_CAP + 1):
            # factors even on the Hilbert space, in the triple's own basis
            chain = Chain.elementary(complex(*rng.standard_normal(2)), tuple(
                t.unrepresent(random_even(rng, t.space)) for _ in range(n + 1)))
            want = {form: cochain_vanloan(t, chain, form)
                    for form in (False, True)}
            for form, v in want.items():
                assert abs(ev.cochain(chain, form) - v) <= 1e-12 * (1 + abs(v))
            v = want[False] + INV_SQRT2 * want[True]
            for got in (perturbed_cochain(t, chain), _via_delta(t, chain)):
                assert abs(got - v) <= 1e-12 * (1 + abs(v))


def _via_delta(t, chain):
    """The perturbed cochain's second route: the plain cochain of the
    chain plus that of its delta perturbation."""
    return jlo_cochain(t, chain) + jlo_cochain(t, delta_perturbation(t, chain))


def _mc_moments(ev, slots, samples):
    """Per row: the estimate, its mean square (samples se^2 + |est|^2) and
    the generator state after it."""
    runs = []
    for k, ops in enumerate(slots):
        gen = np.random.default_rng(k)
        est, se = ev.term_mc(ops, samples, gen)
        runs.append(([est, samples * se ** 2 + abs(est) ** 2],
                     gen.bit_generator.state))
    moments, states = zip(*runs)
    return np.array(moments), list(states)


def test_node_stack_chunks_give_the_same_rows(monkeypatch):
    rng = np.random.default_rng(22)
    t = product_triple(random_triple(rng, 2, 1), random_triple(rng, 1, 1))
    chain = random_chain(rng, t.space, (4,) * 5).normalized()
    ev = JLOEvaluator(t)
    (_, _, slots), = ev._prepared_terms(chain, (False,))
    assert len(slots) == 5
    whole = ev.term_exact(slots)
    samples = 50
    moments, states = _mc_moments(ev, slots, samples)
    scale = abs(moments).max(0)
    factors, point = chain.terms[0].factors, np.sort(rng.random(4))
    pointwise = ev.integrand(factors, point)
    per_row = len(jlo._contour(4)[0]) * t.hilbert_dim ** 2
    # one, two and two rows a chunk; a batched product may round apart
    for budget in (per_row, 2 * per_row, 3 * per_row - 1):
        monkeypatch.setattr(jlo, "NODE_STACK_ELEMENTS", budget)
        np.testing.assert_allclose(ev.term_exact(slots), whole, rtol=0,
                                   atol=64 * UNIT_ROUNDOFF * abs(whole).max())
    # Monte Carlo, whose chunks take (budget - 1) // d^3 samples: one, two
    # and three uneven (17, 17, 16) chunks, and one sample a chunk when a
    # budget holds less than one; the draws are the same whatever the chunk
    # size
    d3 = t.hilbert_dim ** 3
    for budget in (samples * d3 + 1, 25 * d3 + 1, 17 * d3 + 1, d3):
        monkeypatch.setattr(jlo, "NODE_STACK_ELEMENTS", budget)
        got, got_states = _mc_moments(ev, slots, samples)
        np.testing.assert_allclose(got / scale, moments / scale, rtol=0,
                                   atol=64 * UNIT_ROUNDOFF)
        assert got_states == states
        np.testing.assert_allclose(
            ev.integrand(factors, point), pointwise, rtol=0,
            atol=64 * UNIT_ROUNDOFF * abs(pointwise))


def _explicit_strings(slots, weights):
    """tr(A0 W0 A1 W1 ... An Wn) of each row of slots at each point p of
    (n + 1, d, P) weights, as the trace of the explicit matrix product."""
    return np.array([[np.trace(functools.reduce(np.matmul, [
        a @ np.diag(w[:, p]) for a, w in zip(row, weights)]))
        for p in range(weights.shape[-1])] for row in slots])


def _random_of_parity(rng, space, code):
    """A random complex matrix of parity code 0 (even), 1 (odd) or 2
    (mixed) in the canonical basis."""
    d, g = space.dim, space.gamma_diag
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    split = np.not_equal.outer(g, g)
    return a if code == 2 else a * (split if code else ~split)


def _kernel_terms(ev, stack, rows):
    """The terms whose slots are rows (T, n + 1) of a canonical (E, d, d)
    stack, as the string kernel takes them in Delta's eigenbasis, and the
    same slots there as dense (T, n + 1, d, d) matrices."""
    _, u = ev.triple.delta_eigensystem()
    terms = ev._terms(ev._eigenbasis(stack[:0], stack),
                      parity_codes(stack, ev.triple.space), rows)
    return terms, (u.conj().T @ stack @ u)[rows]


def _routed_rows(rng, n):
    """Rows (6, n + 1) over a stack of two mixed (0, 1), an even (2) and an
    odd (3) matrix: two with a mixed slot, three pure ones in random parity
    patterns and one pure one that vanishes by parity."""
    mixed = rng.integers(0, 4, (2, n + 1))
    mixed[:, 0] = 0
    pure = rng.integers(2, 4, (4, n + 1))
    # an even count of odd slots, then one odd count
    pure[:, -1] = 2 + (pure[:, :-1] == 3).sum(1) % 2
    pure[3, -1] ^= 1
    return np.concatenate([mixed, pure])


@pytest.mark.parametrize("n", [0, 1, 6])
def test_strings_match_the_explicit_product_at_each_point(monkeypatch, n):
    # at one point (the integrand), at the 37 contour nodes and at one full
    # Monte Carlo chunk; on a generic, a flat (D = 0) and a repeated-
    # eigenvalue triple (the product of two identical factors); rows with a
    # mixed slot (the dense kernel), pure rows in several parity patterns
    # (the halves) and one that vanishes by parity; with every row in one
    # chunk and with one row a chunk
    rng = np.random.default_rng(31)
    t21 = random_triple(rng, 2, 1)
    flat = SpectralTripleFD(GradedSpace(2, 1), np.zeros((3, 3)), (np.eye(3),))
    z, _ = jlo._contour(6)
    for t in (t21, flat, product_triple(t21, t21)):
        ev, d = JLOEvaluator(t), t.hilbert_dim
        w = t.delta_eigensystem()[0][:, None]
        stack = np.stack([_random_of_parity(rng, t.space, code)
                          for code in (2, 2, 0, 1)])
        terms, slots = _kernel_terms(ev, stack, _routed_rows(rng, n))
        assert [g.slots.shape[2] for g in terms.groups].count(1) >= 1
        assert terms.vanish.tolist() == [False] * 5 + [True]
        chunk = (jlo.NODE_STACK_ELEMENTS - 1) // d ** 3
        gaps = np.diff(sample_simplex_batch(n, rng, chunk),
                       prepend=0.0, append=1.0).T[:, None]
        for weights in (np.exp(-gaps[..., :1] * w),
                        np.broadcast_to(1.0 / (z + w), (n + 1, d, z.size)),
                        np.exp(-gaps * w)):
            want = _explicit_strings(slots, weights)
            for budget in (jlo.NODE_STACK_ELEMENTS, weights[0].size * d):
                monkeypatch.setattr(jlo, "NODE_STACK_ELEMENTS", budget)
                np.testing.assert_allclose(
                    ev._strings(terms, weights), want, rtol=0,
                    atol=64 * UNIT_ROUNDOFF * abs(want).max())


def _split_triples():
    """Random 1|1, 2|1, 2|2, 5|4 and 4|1 triples (4|1 pads its odd half
    from 1 to 4 rows), the flat 2|1 (D = 0), the square of the 2|1 triple
    (repeated eigenvalues of Delta) and the 2|1 triple ampliated by
    C^{2|0}."""
    rng = np.random.default_rng(3_502)
    t21 = random_triple(rng, 2, 1)
    flat = SpectralTripleFD(GradedSpace(2, 1), np.zeros((3, 3)), (np.eye(3),))
    ampliation = SpectralTripleFD(GradedSpace(2, 0), np.zeros((2, 2)), ())
    return [random_triple(rng, 1, 1), t21, random_triple(rng, 2, 2),
            random_triple(rng, 5, 4), random_triple(rng, 4, 1), flat,
            product_triple(t21, t21), product_triple(t21, ampliation)]


def _kernel_values(ev, chain, seed):
    """Per degree block and head form, the strings of its rows at the
    contour's nodes (at e^{-w} in degree 0), at a chunk of Monte Carlo
    samples and at one point of it."""
    w = ev.triple.delta_eigensystem()[0][:, None]
    values = []
    for _, _, terms in ev._prepared_terms(chain, (False, True)):
        n = terms.degree
        gaps = np.diff(sample_simplex_batch(n, np.random.default_rng(seed),
                                            50), prepend=0.0, append=1.0)
        r = np.exp(-w) if n == 0 else 1.0 / (jlo._contour(n)[0] + w)
        nodes = np.broadcast_to(r, (n + 1, *r.shape))
        for weights in (nodes, np.exp(-gaps.T[:, None] * w),
                        np.exp(-gaps.T[:, None, :1] * w)):
            values.append(ev._strings(terms, weights))
    return values


def test_split_kernel_matches_the_dense_kernel_on_the_same_eigenbasis(
        monkeypatch):
    # the same rows on the same eigenbasis through the halves and, with
    # every pattern sent to it, through the dense kernel: two terms of
    # even factors in degrees 0, 1, 6 and 12, both head forms, at the
    # contour nodes, at Monte Carlo samples and at one point; with the
    # default row budget and with one row a chunk (37 contour nodes)
    rng = np.random.default_rng(35)
    pattern = jlo._parity_pattern

    def dense(n, key):
        out = pattern(n, key)
        return out if out is None else (np.zeros(n + 1, dtype=bool),
                                        None, None)

    budget = jlo.NODE_STACK_ELEMENTS
    for t in _split_triples():
        ev, d = JLOEvaluator(t), t.hilbert_dim
        chain = sum((Chain.elementary(complex(*rng.standard_normal(2)), tuple(
            t.unrepresent(random_even(rng, t.space)) for _ in range(n + 1)))
            for n in (0, 1, 6, 12) for _ in range(2)),
            Chain.zero(d)).normalized()
        seed = int(rng.integers(1 << 30))
        for rows in (budget, len(jlo._contour(6)[0]) * d * d):
            monkeypatch.setattr(jlo, "NODE_STACK_ELEMENTS", rows)
            monkeypatch.setattr(jlo, "_parity_pattern", pattern)
            split = _kernel_values(ev, chain, seed)
            assert any(g.slots.shape[2] == 2 for *_, terms in
                       ev._prepared_terms(chain, (False,))
                       for g in terms.groups)
            monkeypatch.setattr(jlo, "_parity_pattern", dense)
            for got, want in zip(split, _kernel_values(ev, chain, seed)):
                np.testing.assert_allclose(
                    got, want, rtol=0,
                    atol=64 * UNIT_ROUNDOFF * abs(want).max())


def test_a_mixed_slot_takes_the_dense_kernel_and_meets_the_oracle():
    # a term with a mixed slot runs the dense kernel and the pure terms of
    # the same block the halves, in both head forms
    rng = np.random.default_rng(36)
    for t in (random_triple(rng, 2, 1), random_triple(rng, 5, 4)):
        chain = _mixed_chain(rng, t.space, (1, 2, 3))
        ev = JLOEvaluator(t)
        for form in (False, True):
            routes = {g.slots.shape[2] for *_, terms in ev._prepared_terms(
                chain.normalized(), (form,)) for g in terms.groups}
            assert routes == {1, 2}
            want = cochain_vanloan(t, chain, form)
            assert abs(ev.cochain(chain, form) - want) <= 1e-12 * (1 + abs(want))


def test_monte_carlo_gaps_are_np_diffs_bit_for_bit():
    # zeros, ones, ties and random sorted rows, written into a wider array
    rng = np.random.default_rng(37)
    for ts in (np.zeros((3, 2)), np.ones((2, 4)),
               np.array([[0.25, 0.25, 0.75], [0.0, 0.5, 0.5]]),
               np.sort(rng.random((2427, 2)), axis=1),
               np.sort(rng.random((5, 1)), axis=1)):
        want = np.diff(ts, prepend=0.0, append=1.0).T
        out = np.full((ts.shape[1] + 1, len(ts) + 3), np.nan)[:, :len(ts)]
        assert jlo._gaps(ts, out) is out
        assert np.ascontiguousarray(out).tobytes() == \
            np.ascontiguousarray(want).tobytes()


def test_contour_rule_meets_its_bound_on_the_worst_string():
    # a pole of order n + 1 at -s attains |F| = S dist^{-(n + 1)} at s = 0;
    # the rule's error is its bound UNIT_ROUNDOFF / n! plus rounding
    for n in range(1, DEGREE_CAP + 1):
        z, c = jlo._contour(n)
        for s in (0.0, 0.5, 4.0, 40.0):
            terms = c / (z + s) ** (n + 1)
            err = abs(terms.sum() - math.exp(-s) / math.factorial(n))
            assert err <= UNIT_ROUNDOFF * (
                1 / math.factorial(n) + 4 * np.abs(terms).sum())


def test_contour_log_target_keeps_the_factorial_shapes():
    # log UNIT_ROUNDOFF - lgamma(n + 1) and log(UNIT_ROUNDOFF / n!) differ
    # in the last bits (7.1e-15 at n = 4); no shape may move with them
    for n in range(1, DEGREE_CAP + 1):
        want = jlo._trapezoid_rule(
            n + 1, math.log(UNIT_ROUNDOFF / math.factorial(n)))
        for got, old in zip(jlo._contour(n), want):
            assert got.tobytes() == old.tobytes()


def test_contour_past_the_factorial_range_is_finite():
    # 171! overflows a float, its logarithm does not
    z, c = jlo._contour.__wrapped__(171)
    assert len(z) == len(c) and len(z) % 2 == 1
    assert np.isfinite(z).all() and np.isfinite(c).all()


def test_string_run_closes_each_span_at_its_own_slot():
    # degrees 1, 2 and 4 over 3, 5 and 2 points of one generic weight stack,
    # each string closed by the last slot's weights; the dense kernel on
    # generic slots and both kernels on the routed rows of a 2|1 triple,
    # whose pure rows close where their string does not vanish by parity
    rng = np.random.default_rng(32)
    d, spans = 3, [(1, 3), (2, 5), (4, 2)]
    weights = (rng.standard_normal((5, d, 10))
               + 1j * rng.standard_normal((5, d, 10)))
    dense = (rng.standard_normal((2, 5, d, d))
             + 1j * rng.standard_normal((2, 5, d, d)))
    t = random_triple(rng, 2, 1)
    stack = np.stack([_random_of_parity(rng, t.space, code)
                      for code in (2, 2, 0, 1)])
    terms, slots = _kernel_terms(JLOEvaluator(t), stack, _routed_rows(rng, 4))
    runs = [(dense, [(np.arange(2), np.zeros(5, dtype=bool),
                      dense[:, :, None], np.arange(d)[None])]),
            (slots, [(g.at, g.swapped, g.slots, g.rows)
                     for g in terms.groups])]
    for explicit, groups in runs:
        for at, swapped, group, rows in groups:
            got = list(JLOEvaluator._string_run(group, swapped,
                                                weights[:, rows], spans))
            assert len(got) == len(spans)
            lo = 0
            for (n, count), values in zip(spans, got):
                lo += count
                if swapped[n]:
                    # an odd count of odd slots through slot n: the string
                    # is 0 by parity, and the halves close none
                    continue
                want = _explicit_strings(explicit[at][:, :n + 1],
                                         np.concatenate([
                                             weights[:n], weights[4:]])
                                         [..., lo - count:lo])
                np.testing.assert_allclose(
                    values, want, rtol=0,
                    atol=64 * UNIT_ROUNDOFF * abs(want).max())


def test_integrand_at_simplex_points():
    rng = np.random.default_rng(6)
    t = random_triple(rng, 1, 1)
    a0, a1 = random_even(rng, t.space), random_even(rng, t.space)
    v = jlo_integrand(t, (a0, a1), (0.25,))
    r0 = t.represent(a0)
    width = commutator_d(t, a1)
    want = supertrace(r0 @ t.heat(0.25) @ width @ t.heat(0.75), t.space)
    assert v == pytest.approx(want, abs=1e-13)
    for bad in [(0.9, 0.2), (-0.1,), (1.1,)]:
        with pytest.raises(SimplexOrderError):
            jlo_integrand(t, (a0, a1, a1)[:len(bad) + 1], bad)


def test_integrand_head_forms_match_heat_strings():
    # the head is a0 and every later slot [D, a_k], on a plain triple and
    # on a product with a basis map, inside the simplex and on a face; a
    # degree of even total parity, so no value is zero by parity
    rng = np.random.default_rng(19)
    t1, t2 = random_triple(rng, 2, 1), random_triple(rng, 1, 1)
    evens = [np.kron(random_even(rng, t1.space), random_even(rng, t2.space))
             for _ in range(3)]
    for t, mats in ((t1, [random_even(rng, t1.space) for _ in range(3)]),
                    (product_triple(t1, t2), evens)):
        r = [t.represent(a) for a in mats]
        br = [t.dirac @ x - x @ t.dirac for x in r]
        for pts in ((0.2, 0.7), (0.4, 0.4)):
            gaps = np.diff([0.0, *pts, 1.0])
            want = r[0] @ t.heat(gaps[0])
            for op, u in zip(br[1:], gaps[1:]):
                want = want @ op @ t.heat(u)
            want = supertrace(want, t.space)
            got = JLOEvaluator(t).integrand(mats, pts)
            assert abs(want) > 1e-3
            assert got == pytest.approx(want, abs=1e-13)


def test_integrand_rejects_non_finite_coordinates():
    rng = np.random.default_rng(16)
    t = random_triple(rng, 1, 1)
    a = random_even(rng, t.space)
    for bad in [(math.nan, 0.5), (0.2, math.nan), (math.nan,), (math.inf,),
                (-math.inf, 0.5), (0.5, math.inf)]:
        with pytest.raises(SimplexOrderError):
            jlo_integrand(t, (a,) * (len(bad) + 1), bad)


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


def test_monte_carlo_brackets_block_exponential_oracle():
    # Monte Carlo shares the string kernel with the contour route, so it is
    # checked against the independent Van Loan oracle: flat (every slot 0),
    # a paired-spectrum product with a basis map and a wide spectrum, with
    # factors of mixed parity so that no degree or head form is 0 by parity;
    # the contraction form is the plain one with the head bracketed first
    rng = np.random.default_rng(23)
    t21 = random_triple(rng, 2, 1)
    s21 = GradedSpace(2, 1)
    flat = SpectralTripleFD(s21, np.zeros((3, 3)), (random_even(rng, s21),))
    for t in (flat, product_triple(t21, t21),
              random_triple(rng, 2, 1, dirac_scale=6.0)):
        d = t.hilbert_dim
        for n in (1, 2, 3):
            coeff = complex(*rng.standard_normal(2))
            factors = tuple(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(n + 1))
            r = t.represent(factors[0])
            for head in (factors[0], t.unrepresent(t.dirac @ r - r @ t.dirac)):
                chain = Chain.elementary(coeff, (head,) + factors[1:])
                want = cochain_vanloan(t, chain)
                est, se = JLOEvaluator(t).cochain_mc(chain, 20_000, rng)
                assert (se > 0) == (t is not flat)
                assert abs(est - want) <= 4 * se


def test_monte_carlo_error_is_the_spread_of_its_draws(monkeypatch):
    # se is the population standard deviation of the draws over
    # sqrt(samples), whatever the chunks: on a varying integrand the
    # two-pass np.std of the same points, and on a constant one (Delta =
    # 2 |b|^2 I on the square of a 1|1 triple) only rounding, exactly 0 for
    # a single sample
    rng = np.random.default_rng(40)
    t11 = random_triple(rng, 1, 1)
    for t, constant in ((product_triple(t11, t11), True),
                        (random_triple(rng, 2, 1), False)):
        d = t.hilbert_dim
        factors = tuple(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)) for _ in range(3))
        ev = JLOEvaluator(t)
        (_, _, slots), = ev._prepared_terms(
            Chain.elementary(1.0, factors).normalized(), (False,))
        samples = 50
        points = sample_simplex_batch(2, np.random.default_rng(5), samples)
        values = [ev.integrand(factors, p) for p in points]
        want = np.std(values) / math.sqrt(samples) / 2
        # one chunk, three uneven (17, 17, 16) and one sample a chunk
        for budget in (jlo.NODE_STACK_ELEMENTS, 17 * d ** 3 + 1, d ** 3):
            monkeypatch.setattr(jlo, "NODE_STACK_ELEMENTS", budget)
            est, se = ev.term_mc(slots[0], samples, np.random.default_rng(5))
            assert abs(est) > 1e-3
            if constant:
                assert se <= 64 * UNIT_ROUNDOFF * abs(est)
            else:
                assert se == pytest.approx(want, rel=1e-12, abs=0)
            _, se = ev.term_mc(slots[0], 1, np.random.default_rng(5))
            assert se == 0.0


def test_monte_carlo_rejects_bad_sample_counts_at_every_degree():
    rng = np.random.default_rng(17)
    t = random_triple(rng, 2, 1)
    for degrees in ((0,), (1, 2)):
        chain = random_chain(rng, t.space, degrees)
        for bad in (0, -3, 2.5, 3.0, True, "10", None):
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            with pytest.raises(ValueError):
                jlo_cochain_mc(t, chain, bad, gen)
            # rejected before any work: no seed was drawn
            assert gen.bit_generator.state == state
        assert jlo_cochain_mc(t, chain, np.int64(50), np.random.default_rng(1)) \
            == jlo_cochain_mc(t, chain, 50, np.random.default_rng(1))


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
        _via_delta(t, chain), abs=1e-12)


def test_delta_perturbation_brackets_each_head_as_commutator_d_does():
    # the heads go through one stacked commutator_d call; each bracket is
    # bit for bit the call on its head alone, and the zero chain stays empty
    rng = np.random.default_rng(31)
    t = random_triple(rng, 2, 1)
    chain = random_chain(rng, t.space, (0, 1, 2)).normalized()
    out = delta_perturbation(t, chain)
    assert out.blocks.keys() == chain.blocks.keys()
    for n, (rows, coeffs) in chain.blocks.items():
        got_rows, got_coeffs = out.blocks[n]
        assert np.array_equal(got_rows[:, 1:], rows[:, 1:])
        assert np.array_equal(got_coeffs, coeffs * INV_SQRT2)
        for head, got in zip(rows[:, 0], got_rows[:, 0]):
            assert np.array_equal(out.table[got],
                                  commutator_d(t, chain.table[head]))
    zero = delta_perturbation(t, Chain.zero(t.hilbert_dim))
    assert zero.num_terms == 0 and zero.blocks == {}
    assert zero.table.shape == (0, t.hilbert_dim, t.hilbert_dim)


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


def _per_entry_cochain(ev, chain, first_slot_d=False):
    """The cochain as the former per-entry loop computed it: each factor
    represented and bracketed alone, classified by parity_of, and each term
    whose supertrace does not vanish by parity evaluated by the block
    exponential oracle."""
    t = ev.triple
    code = {Parity.EVEN: 0, Parity.ODD: 1, Parity.MIXED: 2}

    def operator(f, bracketed):
        r = t.represent(f)
        return t.dirac @ r - r @ t.dirac if bracketed else r

    total = 0.0 + 0.0j
    for term in chain.normalized().terms:
        ops = [operator(term.factors[0], first_slot_d)] + \
            [operator(f, True) for f in term.factors[1:]]
        codes = [code[parity_of(op, t.space)] for op in ops]
        if max(codes) < 2 and sum(codes) % 2 == 1:
            continue
        total += term.coeff * term_vanloan(t, ops)
    return total


def _mixed_chain(rng, space, degrees):
    """One term per degree with even factors and one with a mixed slot."""
    mixed = random_even(rng, space) + random_odd_hermitian(rng, space)
    return random_chain(rng, space, degrees) + sum(
        (Chain.elementary(0.5, (random_even(rng, space),) + (mixed,) * n)
         for n in degrees), Chain.zero(space.dim))


def test_stacked_preparation_matches_per_entry_loop():
    rng = np.random.default_rng(18)
    t21, t11 = random_triple(rng, 2, 1), random_triple(rng, 1, 1)
    product = product_triple(t21, t11)
    assert not np.array_equal(product.basis_map,
                              np.arange(product.hilbert_dim))
    flat = SpectralTripleFD(GradedSpace(2, 1), np.zeros((3, 3)),
                            (random_even(rng, GradedSpace(2, 1)),))
    pairs = shuffle_product(random_chain(rng, t21.space, (0, 1, 2)),
                            random_chain(rng, t11.space, (0, 1)))
    boundary = hochschild_b(random_chain(rng, t21.space, (1, 2, 3, 4)))
    vanishing = _mixed_chain(rng, t21.space, (0, 1, 2, 3))
    odd_head = Chain.elementary(1.5, (random_odd_hermitian(rng, t21.space),))
    cases = [(product, pairs), (flat, random_chain(rng, flat.space, (0, 1, 2, 3))),
             (flat, vanishing), (t21, boundary), (t21, vanishing),
             (t21, random_chain(rng, t21.space, (0,)) + odd_head)]
    skipped = 0
    for t, chain in cases:
        ev = JLOEvaluator(t)
        for first_slot_d in (False, True):
            want = _per_entry_cochain(ev, chain, first_slot_d)
            got = ev.cochain(chain, first_slot_d)
            assert abs(got - want) <= 1e-13 * (1 + abs(want))
            skipped += sum(int(terms.vanish.sum()) for *_, terms in
                           ev._prepared_terms(chain.normalized(),
                                              (first_slot_d,)))
        assert perturbed_cochain(t, chain) == \
            ev.cochain(chain) + INV_SQRT2 * ev.cochain(chain, True)
    assert skipped > 0
    # the boundary's terms over a table that holds three entries no row uses
    unused = np.stack([random_even(rng, t21.space) for _ in range(3)])
    padded = Chain.from_table(3, np.concatenate([unused, boundary.table]), {
        n: (rows + 3, coeffs) for n, (rows, coeffs) in boundary.blocks.items()})
    ev = JLOEvaluator(t21)
    for first_slot_d in (False, True):
        want = _per_entry_cochain(ev, boundary, first_slot_d)
        got = sum(complex(coeffs @ ev.term_exact(terms))
                  for _, coeffs, terms in ev._prepared_terms(
                      padded, (first_slot_d,)) if terms.groups)
        assert abs(got - want) <= 1e-13 * (1 + abs(want))
