import math
import warnings

import numpy as np
import pytest

from jlolab.jlo import (
    NonConvergentError,
    NonIntegerIndexError,
    _chern_component,
    index_pairing,
    jlo_cochain,
)
from jlolab.linalg import GradedSpace
from jlolab.spectral import (
    Idempotent,
    SpectralGapWarning,
    SpectralTripleFD,
    index_of_pair,
    product_triple,
)
from jlolab.suites import curated_index_pairs, index_product_checks

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
E_EVEN = np.diag([1.0, 0.0]).astype(np.complex128)
E_ODD = np.diag([0.0, 1.0]).astype(np.complex128)


def _kick(s):
    return SpectralTripleFD(GradedSpace(1, 1), s * X, (np.eye(2),))


def test_chern_chain_structure():
    for n in range(3):
        c = _chern_component(E_EVEN, n)
        assert c.degrees() == (2 * n,) and c.num_terms == 1
    deg2 = _chern_component(E_EVEN, 1).terms[0]
    assert deg2.coeff == pytest.approx(-2.0)  # -(2!)/1!
    assert np.allclose(deg2.factors[0], E_EVEN - 0.5 * np.eye(2))
    assert all(np.array_equal(f, E_EVEN) for f in deg2.factors[1:])


def test_kick_family_pairs_to_plus_one():
    for s in (0.05, 0.10, 0.15):
        rep = index_pairing(_kick(s), Idempotent(E_EVEN))
        assert rep.integer == 1
        assert rep.value.real == pytest.approx(1.0, abs=1e-3)
        assert rep.value.imag == pytest.approx(0.0, abs=1e-12)


def test_kick_family_partial_sums_match_exponential_series():
    # degree-2n component contributes exp(-s^2) (s^2)^n / n!
    s = 0.12
    rep = index_pairing(_kick(s), Idempotent(E_EVEN))
    nmax = rep.truncation_degree // 2
    want = math.exp(-s * s) * sum(
        (s * s) ** n / math.factorial(n) for n in range(nmax + 1))
    assert rep.value.real == pytest.approx(want, abs=1e-13)


def test_odd_projection_pairs_to_minus_one():
    rep = index_pairing(_kick(0.12), Idempotent(E_ODD))
    assert rep.integer == -1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        assert index_of_pair(_kick(0.12), Idempotent(E_ODD)) == -1


def test_large_dirac_fails_to_converge_within_degree_cap():
    with pytest.raises(NonConvergentError):
        index_pairing(_kick(1.0), Idempotent(E_EVEN))


def test_parity_mixed_projection_is_caught_as_non_integer():
    th = 0.5
    c, sn = math.cos(th), math.sin(th)
    tilted = np.array([[c * c, c * sn], [c * sn, sn * sn]],
                      dtype=np.complex128)
    with pytest.raises(NonIntegerIndexError):
        index_pairing(_kick(0.1), Idempotent(tilted))


def test_pairing_report_fields_are_coherent():
    rep = index_pairing(_kick(0.1), Idempotent(E_EVEN))
    assert rep.truncation_degree % 2 == 0
    assert rep.truncation_degree <= 12
    assert rep.last_term_magnitude < 1e-10
    assert rep.integer == round(rep.value.real)


def test_pairing_rejects_size_mismatch():
    with pytest.raises(ValueError):
        index_pairing(_kick(0.1), Idempotent(np.eye(3)))


def test_amplified_idempotent_keeps_the_index():
    flat = SpectralTripleFD(GradedSpace(1, 1), np.zeros((2, 2)),
                            (np.eye(2),))
    amp = Idempotent(np.kron(E_EVEN, np.diag([1.0, 0.0])), blocks=2)
    rep = index_pairing(flat, amp)
    assert rep.integer == 1


def test_curated_catalog_is_large_and_consistent():
    pairs = curated_index_pairs()
    assert len(pairs) >= 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        for name, t, e, expected in pairs:
            rep = index_pairing(t, e)
            fred = index_of_pair(t, e)
            assert rep.integer == expected, name
            assert fred == expected, name
            assert abs(rep.value - expected) <= 0.01, name


def test_index_product_checks_multiply_exactly():
    rows = index_product_checks()
    assert len(rows) >= 3
    for row in rows:
        assert row["index_of_product"] == row["index_product"]
        assert row["residual"] == 0.0


def test_product_of_kicks_pairs_to_one():
    t = product_triple(_kick(0.1), _kick(0.1))
    e = Idempotent(np.kron(E_EVEN, E_EVEN))
    rep = index_pairing(t, e)
    assert rep.integer == 1
    # degree-0 sanity on the product: the character chain pairs linearly
    c0 = _chern_component(e.matrix, 0)
    assert jlo_cochain(t, c0).real == pytest.approx(
        t.supertrace(t.represent(e.matrix) @ t.heat(1.0)).real)
