import json
import math
import warnings

import numpy as np
import pytest

from jlolab import cli, jlo
from jlolab.chains import Chain, ElementaryChain
from jlolab.jlo import (
    DEGREE_CAP,
    INV_SQRT2,
    PAIRING_TRUNCATION,
    JLOEvaluator,
    NonConvergentError,
    index_pairing,
    jlo_cochain,
)
from jlolab.linalg import (
    GradedSpace,
    ParityError,
    _freeze,
    parity_codes,
    supertrace,
)
from jlolab.randomgen import random_triple
from jlolab.spectral import (
    Idempotent,
    NonIntegerIndexError,
    SpectralTripleFD,
    idempotent_to_json,
    index_of_pair,
    product_triple,
    triple_to_json,
    validate_idempotent,
)
from jlolab.suites import (
    curated_index_pairs,
    trial_index_pairing,
    trial_index_product,
)

from random_projection import random_even_projection
from vanloan_oracle import slot_operators, term_vanloan

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
E_EVEN = np.diag([1.0, 0.0]).astype(np.complex128)
E_ODD = np.diag([0.0, 1.0]).astype(np.complex128)


def _kick(s):
    return SpectralTripleFD(GradedSpace(1, 1), s * X, (np.eye(2),))


def _pairing(triple, idem):
    return index_pairing(*validate_idempotent(triple, idem))


def _chern_character(matrix):
    """The idempotent character through DEGREE_CAP over a two-entry table:
    (e) in degree 0 and (-1)^n (2n)!/n! (e - 1/2, e, ..., e) in degree 2n."""
    e = _freeze(matrix)
    head = _freeze(e - 0.5 * np.eye(e.shape[0], dtype=np.complex128))
    return Chain(e.shape[0], [ElementaryChain(1.0, (e,))] + [
        ElementaryChain((-1) ** n * math.factorial(2 * n) / math.factorial(n),
                        (head,) + (e,) * (2 * n))
        for n in range(1, DEGREE_CAP // 2 + 1)])


def _per_degree_pairing(triple, idem):
    """(value, truncation degree, last term) of the character chain, one
    block-exponential oracle call per degree on its normalized terms,
    summed under index_pairing's truncation rule."""
    amp, _ = validate_idempotent(triple, idem)
    # the character has one term per degree
    terms = {len(term.factors) - 1: term.coeff * term_vanloan(
        amp, slot_operators(amp, term.factors))
        for term in _chern_character(idem.matrix).normalized().terms}
    acc = 0.0 + 0.0j
    for n in range(DEGREE_CAP // 2 + 1):
        term = terms.get(2 * n, 0.0 + 0.0j)
        acc += term
        if n >= 1 and abs(term) < PAIRING_TRUNCATION * (1.0 + abs(acc)):
            return acc, 2 * n, abs(term)
    raise NonConvergentError(f"per-degree terms still at {abs(term):.3g}")


def _oracle_cases():
    """(label, triple, idempotent) pairs on which both routes converge."""
    rng = np.random.default_rng(8_101)
    curated = curated_index_pairs()
    cases = [(name, t, e) for name, t, e, _ in curated]
    for i, k, rank in ((4, 2, 1), (7, 3, 2), (9, 2, 1), (10, 3, 1)):
        name, t, e, _ = curated[i]
        p = random_even_projection(rng, GradedSpace(k, 0), rank)
        cases.append((f"{name} (x) rank {rank} in M_{k}", t,
                      Idempotent(np.kron(e.matrix, p), blocks=k)))
    # identical factors: every eigenvalue of D^2 on the product is paired
    for de, do in ((1, 1), (2, 1)):
        t = random_triple(rng, de, do, dirac_scale=0.1)
        e = random_even_projection(rng, t.space, 1, do - 1)
        cases.append((f"{de}|{do} squared", product_triple(t, t),
                      Idempotent(np.kron(e, e))))
    for s in (0.05, 0.1, 0.2):
        for de, do in ((2, 1), (2, 2), (3, 2)):
            t = random_triple(rng, de, do, dirac_scale=s)
            e = random_even_projection(rng, t.space, 1, do - 1)
            cases.append((f"random {de}|{do} at {s}", t, Idempotent(e)))
    # half-rank even projections on larger triples
    for half in (12, 20):
        for s in (0.05, 0.15):
            t = random_triple(rng, half, half, dirac_scale=s)
            e = random_even_projection(rng, t.space, half // 2, half // 2)
            cases.append((f"random {half}|{half} at {s}", t, Idempotent(e)))
    return cases


def test_pairing_matches_per_degree_route():
    for label, t, e in _oracle_cases():
        value, degree, last = _per_degree_pairing(t, e)
        rep = _pairing(t, e)
        assert abs(rep.value - value) <= 1e-12 * (1.0 + abs(value)), label
        assert rep.truncation_degree == degree, label


def _run_cases():
    """(label, triple, idempotent, the degrees of each string run that
    index_pairing starts) on each side of the slot product's budget."""
    rng = np.random.default_rng(3_201)
    t = random_triple(rng, 2, 1, dirac_scale=0.1)
    e = random_even_projection(rng, t.space, 1)
    big = random_triple(rng, 8, 8, dirac_scale=0.05)
    half = random_even_projection(rng, big.space, 4, 4)
    flat = SpectralTripleFD(GradedSpace(1, 1), np.zeros((2, 2)),
                            (np.eye(2),))
    return [
        # the bound stops the terms by degree 10; every degree below it
        # shares one run
        ("kick 0.1", _kick(0.1), Idempotent(E_EVEN), [(2, 4, 6, 8), (10,)]),
        # D = 0: the bound stops the terms at degree 2, which runs alone
        ("flat", flat, Idempotent(E_EVEN), [(2,)]),
        # d = 9, with repeated eigenvalues of D^2: two degrees' nodes fit
        # one slot product
        ("2|1 squared", product_triple(t, t), Idempotent(np.kron(e, e)),
         [(2, 4), (6, 8), (10,)]),
        # d = 16: one degree's nodes overrun it
        ("random 8|8 at 0.05", big, Idempotent(half),
         [(2,), (4,), (6,), (8,)]),
    ]


@pytest.mark.parametrize("case", _run_cases(), ids=lambda case: case[0])
def test_pairing_degrees_share_runs_below_the_bound_stop(monkeypatch, case):
    _, triple, idem, runs = case
    started, calls = [], []
    run, terms = JLOEvaluator._string_run, jlo._pairing_terms

    def spy_run(slots, swapped, weights, spans):
        started.append(tuple(n for n, _ in spans))
        return run(slots, swapped, weights, spans)

    def spy_terms(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(JLOEvaluator, "_string_run", staticmethod(spy_run))
    monkeypatch.setattr(jlo, "_pairing_terms", spy_terms)
    _pairing(triple, idem)
    assert started == runs
    # every degree, past the stop too, as term_exact gives it on the first
    # 2m + 1 slots of the pairing's stack
    (amp, e, de, series), = calls
    ev, d = JLOEvaluator(amp), amp.hilbert_dim
    head = e - 0.5 * np.eye(d)
    blocks = ev._eigenbasis(head[None], de[None])
    codes = parity_codes(np.stack([head, de]), amp.space)
    got = list(terms(amp, e, de, series))
    assert len(got) == DEGREE_CAP // 2 + 1
    for m in range(1, DEGREE_CAP // 2 + 1):
        stack = ev._terms(blocks, codes,
                          np.minimum(np.arange(2 * m + 1), 1)[None])
        assert got[m] == ((-1) ** m * math.factorial(2 * m) / math.factorial(m)
                          * ev.term_exact(stack)[0]), m


def test_scalar_idempotent_stops_at_degree_two_with_zero_term():
    rng = np.random.default_rng(3)
    for t in (_kick(0.1), random_triple(rng, 2, 1, dirac_scale=0.1)):
        d = t.hilbert_dim
        # q q^* is the identity up to rounding: scalar to SCALAR_SLOT_TOL,
        # but its bracket with D is not exactly zero
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        for e in (Idempotent(np.eye(d)), Idempotent(np.zeros((d, d))),
                  Idempotent(q @ q.conj().T)):
            rep = _pairing(t, e)
            value, degree, last = _per_degree_pairing(t, e)
            assert rep.truncation_degree == degree == 2
            assert rep.last_term_magnitude == last == 0.0
            assert rep.value == value


def test_both_routes_reject_a_kick_beyond_the_degree_cap():
    for route in (_pairing, _per_degree_pairing):
        with pytest.raises(NonConvergentError):
            route(_kick(1.0), Idempotent(E_EVEN))


def test_chern_chain_structure():
    c = _chern_character(E_EVEN)
    assert c.degrees() == tuple(range(0, 13, 2)) and c.num_terms == 7
    # e and its shifted head, each stored once
    assert len(c.table) == 2
    deg2 = c.terms[1]
    assert deg2.coeff == pytest.approx(-2.0)  # -(2!)/1!
    assert np.allclose(deg2.factors[0], E_EVEN - 0.5 * np.eye(2))
    assert all(np.array_equal(f, E_EVEN) for f in deg2.factors[1:])


def test_kick_family_pairs_to_plus_one():
    for s in (0.05, 0.10, 0.15):
        rep = _pairing(_kick(s), Idempotent(E_EVEN))
        assert rep.integer == 1
        assert rep.value.real == pytest.approx(1.0, abs=1e-3)
        assert rep.value.imag == pytest.approx(0.0, abs=1e-12)


def test_kick_family_terms_match_their_closed_form():
    # Delta = s^2 I, so the degree-2n term is exp(-s^2) s^(2n) / n!; the
    # truncation rule read on those terms gives the degree (12 at s = 0.15)
    for s in (0.05, 0.10, 0.15):
        rep = _pairing(_kick(s), Idempotent(E_EVEN))
        acc = 0.0
        for n in range(DEGREE_CAP // 2 + 1):
            term = math.exp(-s * s) * s ** (2 * n) / math.factorial(n)
            acc += term
            if n >= 1 and term < PAIRING_TRUNCATION * (1.0 + acc):
                break
        assert rep.truncation_degree == 2 * n, s
        assert rep.last_term_magnitude == pytest.approx(
            term, rel=1e-9, abs=0), s
    assert rep.truncation_degree == 12


def test_kick_family_partial_sums_match_exponential_series():
    # degree-2n component contributes exp(-s^2) (s^2)^n / n!
    s = 0.12
    rep = _pairing(_kick(s), Idempotent(E_EVEN))
    nmax = rep.truncation_degree // 2
    want = math.exp(-s * s) * sum(
        (s * s) ** n / math.factorial(n) for n in range(nmax + 1))
    assert rep.value.real == pytest.approx(want, abs=1e-13)


def test_odd_projection_pairs_to_minus_one():
    rep = _pairing(_kick(0.12), Idempotent(E_ODD))
    assert rep.integer == -1
    assert index_of_pair(*validate_idempotent(_kick(0.12),
                                              Idempotent(E_ODD))) == -1


def test_large_dirac_fails_to_converge_within_degree_cap():
    # at 1 the terms never settle; from 6 on they stop at degree 2 on terms
    # near e^{-s^2}, long before they would peak near degree 2 s^2
    for s in (1.0, 6.0, 8.0, 50.0):
        with pytest.raises(NonConvergentError):
            _pairing(_kick(s), Idempotent(E_EVEN))


def test_kick_whose_tail_is_under_the_threshold_pairs_at_the_cap():
    # the terms at 0.2 and 0.25 are still over the truncation threshold at
    # degree 12, but the bound's tail past it, (e^c - sum_{m<=6} c^m/m!)
    # at c = s^2, is 3.3e-14 and 7.4e-13, under 1e-12 (1 + |sum|)
    for s in (0.2, 0.25):
        rep = _pairing(_kick(s), Idempotent(E_EVEN))
        assert rep.integer == 1 and rep.truncation_degree == 12, s
        want = math.exp(-s * s) * sum(
            s ** (2 * n) / math.factorial(n) for n in range(7))
        assert abs(rep.value - want) <= 1e-12, s


def test_kick_whose_tail_is_over_the_threshold_fails_at_the_cap():
    # at 0.3 the tail past degree 12 is 9.6e-12
    with pytest.raises(NonConvergentError,
                       match=r"^pairing terms still at \S+ at degree 12$"):
        _pairing(_kick(0.3), Idempotent(E_EVEN))


def test_parity_mixed_projection_is_caught_as_non_integer():
    th = 0.5
    c, sn = math.cos(th), math.sin(th)
    tilted = np.array([[c * c, c * sn], [c * sn, sn * sn]],
                      dtype=np.complex128)
    # validate_idempotent rejects it as not even; unchecked, the pairing
    # still refuses the non-integer value
    with pytest.raises(NonIntegerIndexError, match=r"^pairing value 0\.53649"
                       r"[-+]\S*j is not within 0\.01 of an integer$"):
        index_pairing(_kick(0.1), tilted)


def _edge_pair(eps):
    """A random 2|2 triple at dirac_scale 0.05 and e = P + eps X, for P =
    diag(1, 1, 0, 0) and X the odd Hermitian matrix with X[0, 2] = X[2, 0]
    = 1/sqrt(2), so that |g e g - e|_F = 2 eps |X|_F = 2 eps."""
    t = random_triple(np.random.default_rng(36), 2, 2, dirac_scale=0.05)
    x = np.zeros((4, 4), dtype=np.complex128)
    x[0, 2] = x[2, 0] = INV_SQRT2
    return t, Idempotent(np.diag([1.0, 1.0, 0.0, 0.0]) + eps * x)


@pytest.mark.parametrize("eps, codes, halves", [
    (0.0, [0, 1], 2), (5.5e-13, [2, 1], 1), (6.5e-13, [2, 1], 1)])
def test_pairing_keeps_its_own_parity_call(monkeypatch, eps, codes, halves):
    # validate_idempotent reads e as even while 2 eps <= PARITY_TOL |e|_F
    # = sqrt(2) 1e-12, but the head e - 1/2, of norm 1, reads mixed once
    # 2 eps > PARITY_TOL: so the pairing cannot take the codes (0, 1) on
    # validate_idempotent's word, and its row runs the dense kernel (one
    # half) at the value of eps = 0
    amp, e = validate_idempotent(*_edge_pair(eps))
    de = amp.dirac @ e - e @ amp.dirac
    assert parity_codes(np.stack([e - 0.5 * np.eye(4), de]),
                        amp.space).tolist() == codes
    grouped = []
    terms = JLOEvaluator._terms

    def recorded(self, *args):
        grouped.append(terms(self, *args))
        return grouped[-1]

    monkeypatch.setattr(JLOEvaluator, "_terms", recorded)
    rep = index_pairing(amp, e)
    (group,), = [t.groups for t in grouped]
    assert group.slots.shape[2] == halves
    monkeypatch.undo()
    exact = _pairing(*_edge_pair(0.0))
    assert abs(rep.value - exact.value) <= 1e-12
    assert rep.truncation_degree == exact.truncation_degree == 8


def test_idempotent_past_the_parity_tolerance_is_refused():
    with pytest.raises(ParityError, match="^idempotent must be even"):
        validate_idempotent(*_edge_pair(8e-13))


def test_pairing_report_fields_are_coherent():
    rep = _pairing(_kick(0.1), Idempotent(E_EVEN))
    assert rep.truncation_degree % 2 == 0
    assert rep.truncation_degree <= 12
    assert rep.last_term_magnitude < 1e-10
    assert rep.integer == round(rep.value.real)


def test_pairing_rejects_size_mismatch():
    with pytest.raises(ValueError):
        validate_idempotent(_kick(0.1), Idempotent(np.eye(3)))


def test_amplified_idempotent_keeps_the_index():
    flat = SpectralTripleFD(GradedSpace(1, 1), np.zeros((2, 2)),
                            (np.eye(2),))
    amp = Idempotent(np.kron(E_EVEN, np.diag([1.0, 0.0])), blocks=2)
    rep = _pairing(flat, amp)
    assert rep.integer == 1


def test_curated_catalog_is_large_and_consistent():
    pairs = curated_index_pairs()
    assert len(pairs) >= 10
    for name, t, e, expected in pairs:
        amp, op = validate_idempotent(t, e)
        rep = index_pairing(amp, op)
        fred = index_of_pair(amp, op)
        assert rep.integer == expected, name
        assert fred == expected, name
        assert abs(rep.value - expected) <= 0.01, name


def test_index_product_checks_multiply_exactly():
    assert trial_index_product() == 0.0


def test_product_of_kicks_pairs_to_one():
    t = product_triple(_kick(0.1), _kick(0.1))
    e = Idempotent(np.kron(E_EVEN, E_EVEN))
    rep = _pairing(t, e)
    assert rep.integer == 1
    # degree-0 sanity on the product: the character's degree-0 term (e)
    # pairs to the heat supertrace
    c0 = Chain.elementary(1.0, (e.matrix,))
    assert jlo_cochain(t, c0).real == pytest.approx(
        supertrace(t.represent(e.matrix) @ t.heat(1.0), t.space).real)


def test_no_index_route_calls_a_matrix_exponential(tmp_path, monkeypatch,
                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix exponential was called")

    monkeypatch.setattr("scipy.linalg.expm", refuse)
    pairs = curated_index_pairs()
    for name, t, e, expected in pairs:
        assert _pairing(t, e).integer == expected, name
    # kick 0.10 times the odd projection at kick 0.12: the second factor and
    # the product reach degree 12
    paths = []
    for k in (5, 7):
        _, t, e, _ = pairs[k]
        for tag, obj in (("t", triple_to_json(t)), ("e", idempotent_to_json(e))):
            paths.append(tmp_path / f"{tag}{k}.json")
            paths[-1].write_text(json.dumps(obj))
    argv = ["index", *map(str, paths[:2]), "--times", *map(str, paths[2:])]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("truncated at degree 12") == 2
    assert "product law       : -1 vs +1 * -1 = -1" in out


def test_index_paths_raise_no_warning(tmp_path, capsys):
    # the index is tr(gamma e), with no eigenvalue cutoff to warn about, so
    # no warning filter is needed on any index path, nor can one hide a
    # kernel route there; the unit at kick 5e-12 has eigenvalues within a
    # decade of kernel_projection's cutoff, where that route warns
    cases = [(t, e) for _, t, e, _ in curated_index_pairs()]
    cases.append((_kick(5e-12), Idempotent(np.eye(2))))
    paths = []
    for k, (t, e) in enumerate(cases):
        paths.append((tmp_path / f"t{k}.json", tmp_path / f"e{k}.json"))
        paths[-1][0].write_text(json.dumps(triple_to_json(t)))
        paths[-1][1].write_text(json.dumps(idempotent_to_json(e)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in paths:
            assert cli.main(["index", *map(str, pair)]) == 0
        for i, j in [(5, 7), (2, 0)]:
            assert cli.main(["index", *map(str, paths[i]), "--times",
                             *map(str, paths[j])]) == 0
        assert cli.main(["index", *map(str, paths[4]), "--times",
                         str(paths[6][0])]) == 0
        assert trial_index_pairing() <= 0.01
        assert trial_index_product() == 0.0
    assert capsys.readouterr().out.count("product law       :") == 3


@pytest.mark.parametrize("dirac, idem, message", [
    (0.1 * X, np.array([[1e308, 1e308], [0, 0]]),
     "idempotent is not self-adjoint within tolerance"),
    (np.diag([1e308, 0.0]), E_EVEN, "Dirac oddness residual nan > 1e-10"),
], ids=["idempotent", "dirac"])
def test_index_refusal_past_the_float_range_warns_nothing(
        tmp_path, capsys, dirac, idem, message):
    # e + e^* and g D g + D overflow; the refusal is the one stderr line
    tp, ep = tmp_path / "t.json", tmp_path / "e.json"
    tp.write_text(json.dumps(triple_to_json(
        SpectralTripleFD(GradedSpace(1, 1), dirac, (np.eye(2),)))))
    ep.write_text(json.dumps(idempotent_to_json(Idempotent(idem))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["index", str(tp), str(ep)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
