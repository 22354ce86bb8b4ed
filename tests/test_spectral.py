import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from jlolab.linalg import GradedSpace, ParityError, opnorm
from jlolab.randomgen import (
    random_even,
    random_even_projection,
    random_odd_hermitian,
    random_triple,
)
from jlolab.spectral import (
    Idempotent,
    NotIdempotentError,
    NotSelfAdjointError,
    SpectralGapWarning,
    SpectralTripleFD,
    ampliate,
    commutator_d,
    compress_by_idempotent,
    diagnose,
    index_of_pair,
    kernel_projection,
    mckean_singer_index,
    product_triple,
    validate_triple,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _flat(p, q):
    s = GradedSpace(p, q)
    return SpectralTripleFD(s, np.zeros((s.dim, s.dim)), (np.eye(s.dim),))


def test_constructor_validates_shapes_and_basis_map():
    s = GradedSpace(1, 1)
    with pytest.raises(ValueError):
        SpectralTripleFD(s, np.zeros((3, 3)), (np.eye(2),))
    with pytest.raises(ValueError):
        SpectralTripleFD(s, np.zeros((2, 2)), (np.eye(3),))
    with pytest.raises(ValueError):
        SpectralTripleFD(s, np.zeros((2, 2)), (np.eye(2),), basis_map=[0, 0])
    t = SpectralTripleFD(s, X, (np.eye(2),), basis_map=[1, 0])
    assert t.hilbert_dim == 2


def test_represent_round_trip_with_basis_map():
    rng = np.random.default_rng(0)
    s = GradedSpace(2, 2)
    t = SpectralTripleFD(s, np.zeros((4, 4)), (np.eye(4),),
                         basis_map=[2, 0, 3, 1])
    a = rng.standard_normal((4, 4))
    assert np.array_equal(t.unrepresent(t.represent(a)), a)


def test_diagnose_flags_even_dirac():
    s = GradedSpace(1, 1)
    diag = diagnose(SpectralTripleFD(s, np.eye(2), (np.eye(2),)))
    assert diag.dirac_oddness == pytest.approx(2.0)
    assert diag.dirac_hermiticity == pytest.approx(0.0)


def test_validate_triple_raises_on_bad_inputs():
    s = GradedSpace(1, 1)
    good = SpectralTripleFD(s, 0.3 * X, (np.diag([1.0, 2.0]),))
    validate_triple(good)
    with pytest.raises(NotSelfAdjointError):
        validate_triple(SpectralTripleFD(s, np.array([[0, 1], [0, 0]]),
                                         (np.eye(2),)))
    with pytest.raises(ParityError):
        validate_triple(SpectralTripleFD(s, np.eye(2), (np.eye(2),)))
    with pytest.raises(ParityError):
        validate_triple(SpectralTripleFD(s, 0.3 * X, (X,)))


def test_heat_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    t = random_triple(rng, 2, 2)
    for time in (0.0, 0.5, 2.0):
        assert np.allclose(t.heat(time), expm(-time * t.delta), atol=1e-12)
    with pytest.raises(ValueError):
        t.heat(-0.1)


def test_heat_supertrace_equals_kernel_index():
    # supersymmetric cancellation: nonzero modes pair off, so the heat
    # supertrace is time-independent and integer
    rng = np.random.default_rng(2)
    for de, do in [(1, 1), (2, 1), (3, 2)]:
        t = random_triple(rng, de, do)
        idx = mckean_singer_index(t)
        for time in (0.3, 1.0, 4.0):
            assert t.supertrace(t.heat(time)) == pytest.approx(idx, abs=1e-10)


def test_mckean_singer_flat_counts_dimensions():
    assert mckean_singer_index(_flat(2, 1)) == 1
    assert mckean_singer_index(_flat(1, 4)) == -3


def test_kernel_projection_cases():
    assert np.allclose(kernel_projection(np.zeros((3, 3))), np.eye(3))
    h = np.diag([0.0, 2.0, -1.0])
    p = kernel_projection(h)
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))
    # an eigenvalue inside [eps, 10 eps) makes the rank cutoff-sensitive
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        kernel_projection(np.diag([5e-9, 1.0]))
    assert any(issubclass(x.category, SpectralGapWarning) for x in w)


def test_commutator_d_is_odd_derivation_witness():
    rng = np.random.default_rng(3)
    t = random_triple(rng, 2, 1)
    a = random_even(rng, t.space)
    da = commutator_d(t, a)
    assert np.allclose(da, t.dirac @ a - a @ t.dirac, atol=1e-12)


def test_product_triple_grading_and_dims():
    rng = np.random.default_rng(4)
    t1 = random_triple(rng, 1, 1)
    t2 = random_triple(rng, 2, 1)
    prod = product_triple(t1, t2)
    assert prod.space.dim_even == 1 * 2 + 1 * 1
    assert prod.space.dim_odd == 1 * 1 + 1 * 2
    assert prod.hilbert_dim == 6
    # canonical grading on the product equals the sorted kron grading
    gk = np.kron(t1.space.gamma_diag, t2.space.gamma_diag)
    assert np.array_equal(np.sort(gk)[::-1], prod.space.gamma_diag)


def test_product_triple_dirac_summands_anticommute():
    # the Koszul sign sits in the gamma1 (x) D2 summand: without it the two
    # summands would commute instead
    rng = np.random.default_rng(5)
    t1, t2 = random_triple(rng, 2, 1), random_triple(rng, 1, 1)
    prod = product_triple(t1, t2)
    left = prod.represent(np.kron(t1.dirac, np.eye(t2.hilbert_dim)))
    right = prod.dirac - left
    assert opnorm(left @ right) > 0.1
    assert opnorm(left @ right + right @ left) < 1e-12


def test_product_triple_heat_factorizes():
    rng = np.random.default_rng(5)
    t1 = random_triple(rng, 2, 1)
    t2 = random_triple(rng, 1, 1)
    prod = product_triple(t1, t2)
    for time in (0.25, 1.0):
        expected = prod.represent(np.kron(t1.heat(time), t2.heat(time)))
        assert opnorm(prod.heat(time) - expected) < 1e-12


def test_product_triple_derivation_formula():
    rng = np.random.default_rng(6)
    t1 = random_triple(rng, 1, 1)
    t2 = random_triple(rng, 2, 1)
    prod = product_triple(t1, t2)
    a = random_even(rng, t1.space)
    c = random_even(rng, t2.space)
    lhs = commutator_d(prod, np.kron(a, c))
    g1 = t1.space.gamma_diag
    rhs = np.kron(commutator_d(t1, a), c) \
        + np.kron(g1[:, None] * a, commutator_d(t2, c))
    assert opnorm(lhs - rhs) < 1e-12


def test_product_triple_associativity_of_heat():
    rng = np.random.default_rng(7)
    ts = [random_triple(rng, 1, 1) for _ in range(3)]
    left = product_triple(product_triple(ts[0], ts[1]), ts[2])
    right = product_triple(ts[0], product_triple(ts[1], ts[2]))
    for time in (0.5, 2.0):
        assert opnorm(left.heat(time) - right.heat(time)) < 1e-12
    assert abs(left.supertrace(left.heat(1.0))
               - right.supertrace(right.heat(1.0))) < 1e-12


def test_idempotent_validation_and_blocks():
    e = Idempotent(np.diag([1.0, 0.0]))
    assert e.blocks == 1 and e.base_dim == 2
    e2 = Idempotent(np.eye(4), blocks=2)
    assert e2.base_dim == 2
    with pytest.raises(ValueError):
        Idempotent(np.eye(4), blocks=3)
    with pytest.raises(ValueError):
        Idempotent(np.ones((2, 3)))


def test_ampliate_scales_everything_but_index():
    rng = np.random.default_rng(8)
    t = random_triple(rng, 2, 1)
    assert ampliate(t, 1) is t
    t2 = ampliate(t, 2)
    assert t2.hilbert_dim == 6
    assert mckean_singer_index(t2) == 2 * mckean_singer_index(t)


def test_compress_by_identity_preserves_heat_supertrace():
    rng = np.random.default_rng(9)
    t = random_triple(rng, 2, 2)
    comp = compress_by_idempotent(t, Idempotent(np.eye(4)))
    assert comp.hilbert_dim == 4
    for time in (0.5, 1.5):
        assert abs(comp.supertrace(comp.heat(time))
                   - t.supertrace(t.heat(time))) < 1e-9


def test_compress_by_projection_counts_ranks():
    rng = np.random.default_rng(10)
    t = _flat(2, 2)
    e = random_even_projection(rng, t.space, rank_even=1, rank_odd=1)
    comp = compress_by_idempotent(t, Idempotent(e))
    assert (comp.space.dim_even, comp.space.dim_odd) == (1, 1)
    assert mckean_singer_index(comp) == 0


def test_compress_rejects_bad_idempotents():
    t = _flat(1, 1)
    with pytest.raises(NotIdempotentError):
        compress_by_idempotent(t, Idempotent(0.5 * np.eye(2)))
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSelfAdjointError):
        compress_by_idempotent(t, Idempotent(skew))
    mixed = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ParityError):
        compress_by_idempotent(t, Idempotent(mixed))


def test_index_of_pair_flat_cases():
    assert index_of_pair(_flat(1, 1), Idempotent(np.diag([1.0, 0.0]))) == 1
    assert index_of_pair(_flat(1, 1), Idempotent(np.eye(2))) == 0
    assert index_of_pair(_flat(2, 1), Idempotent(np.eye(3))) == 1


def test_index_multiplicative_on_product():
    rng = np.random.default_rng(11)
    t1 = SpectralTripleFD(GradedSpace(1, 1), 0.4 * X, (np.eye(2),))
    t2 = _flat(2, 1)
    e1 = Idempotent(np.diag([1.0, 0.0]))
    e2 = Idempotent(np.eye(3))
    prod = product_triple(t1, t2)
    e12 = Idempotent(np.kron(e1.matrix, e2.matrix))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        i1 = index_of_pair(t1, e1)
        i2 = index_of_pair(t2, e2)
        i12 = index_of_pair(prod, e12)
    assert i12 == i1 * i2 == 1


def test_random_generators_have_declared_structure():
    rng = np.random.default_rng(12)
    s = GradedSpace(3, 2)
    a = random_even(rng, s)
    assert np.allclose(a * (s.gamma_diag[:, None] != s.gamma_diag[None, :]), 0)
    d = random_odd_hermitian(rng, s, scale=0.7)
    assert np.allclose(d, d.conj().T)
    assert opnorm(d) == pytest.approx(0.7)
    e = random_even_projection(rng, s, rank_even=2, rank_odd=1)
    assert np.allclose(e @ e, e, atol=1e-12)
    assert np.allclose(e, e.conj().T)
    assert np.trace(e).real == pytest.approx(3.0)
