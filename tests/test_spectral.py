import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from jlolab import spectral
from jlolab.jlo import index_pairing
from jlolab.linalg import (
    DEFAULT_TOL,
    GradedSpace,
    NonHermitianError,
    Parity,
    ParityError,
    check_hermitian,
    opnorm,
    parity_of,
    supertrace,
)
from jlolab.randomgen import random_even, random_odd_hermitian, random_triple
from jlolab.spectral import (
    IDEMPOTENT_TOL,
    Idempotent,
    NonIntegerIndexError,
    NotIdempotentError,
    NotSelfAdjointError,
    SpectralGapWarning,
    SpectralTripleFD,
    commutator_d,
    index_of_pair,
    kernel_projection,
    product_triple,
    validate_idempotent,
    validate_triple,
)
from jlolab.suites import curated_index_pairs

from kernel_index_oracle import kernel_index_of_pair
from random_projection import random_even_projection

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


def test_a_plain_triple_records_the_identity_basis_map():
    t = _flat(2, 1)
    assert t.basis_map.tolist() == [0, 1, 2]
    assert not t.basis_map.flags.writeable
    a = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(t.represent(a), a)
    assert np.array_equal(t.unrepresent(a), a)


def test_stacked_conversions_match_one_matrix_at_a_time():
    rng = np.random.default_rng(30)
    prod = product_triple(random_triple(rng, 2, 1), random_triple(rng, 1, 1))
    d = prod.hilbert_dim
    assert not np.array_equal(prod.basis_map, np.arange(d))
    # algebra-basis matrices that are even once represented, as a (2, 3)
    # stack, so that every leading axis is walked
    stack = np.array([prod.unrepresent(random_even(rng, prod.space))
                      for _ in range(6)]).reshape(2, 3, d, d)
    for convert in (prod.represent, prod.unrepresent,
                    lambda a: commutator_d(prod, a)):
        one_at_a_time = np.array([convert(a) for a in stack.reshape(-1, d, d)])
        assert np.array_equal(convert(stack),
                              one_at_a_time.reshape(stack.shape))


def _residuals(s, dirac, gens):
    """opnorm of each axiom's residual: Dirac hermiticity, Dirac oddness,
    the largest generator evenness."""
    g = s.gamma_diag
    return (opnorm(dirac - dirac.conj().T),
            opnorm(g[:, None] * dirac * g[None, :] + dirac),
            max((opnorm(g[:, None] * a * g[None, :] - a) for a in gens),
                default=0.0))


def _rejects(s, dirac, gens, error, axiom, residual):
    message = f"{axiom} residual {residual:.3g} > 1e-10"
    with pytest.raises(error) as exc:
        validate_triple(SpectralTripleFD(s, dirac, gens))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_validate_triple_checks_each_axiom_alone():
    # each triple fails one axiom by 1e-6 and passes the other two
    rng = np.random.default_rng(16)
    s = GradedSpace(3, 2)
    dirac = random_odd_hermitian(rng, s)
    gens = [random_even(rng, s) for _ in range(2)]
    validate_triple(SpectralTripleFD(s, dirac, gens))
    odd_skew = dirac + 1e-6j * random_odd_hermitian(rng, s)
    even_part = dirac + 1e-6 * random_even(rng, s, hermitian=True)
    mixed_gen = gens[1] + 1e-6 * random_odd_hermitian(rng, s)
    for bad, error, axiom, k in (
            ((odd_skew, gens), NotSelfAdjointError, "Dirac hermiticity", 0),
            ((even_part, gens), ParityError, "Dirac oddness", 1),
            ((dirac, [gens[0], mixed_gen]), ParityError,
             "generator evenness", 2)):
        residuals = _residuals(s, *bad)
        assert [r > DEFAULT_TOL for r in residuals] == [
            i == k for i in range(3)]
        _rejects(s, *bad, error, axiom, residuals[k])


def test_validate_triple_reads_the_largest_generator_residual():
    # four generators fail evenness by residuals of very different size;
    # the largest is the third
    rng = np.random.default_rng(16)
    s = GradedSpace(3, 2)
    g = s.gamma_diag
    dirac = random_odd_hermitian(rng, s)
    gens = [random_even(rng, s) + size * random_odd_hermitian(rng, s)
            for size in (1e-12, 1e-3, 0.5, 1e-7)]
    largest = opnorm(g[:, None] * gens[2] * g[None, :] - gens[2])
    assert _residuals(s, dirac, gens)[2] == largest
    _rejects(s, dirac, gens, ParityError, "generator evenness", largest)


def test_validate_triple_checks_hermiticity_first():
    # every axiom fails, the Dirac operator by a generic 1e-9 defect
    rng = np.random.default_rng(16)
    s = GradedSpace(3, 2)
    noise = 1e-9 * (rng.standard_normal((5, 5))
                    + 1j * rng.standard_normal((5, 5)))
    dirac = random_odd_hermitian(rng, s) + noise
    gens = [random_odd_hermitian(rng, s)]
    residuals = _residuals(s, dirac, gens)
    assert min(residuals) > DEFAULT_TOL
    _rejects(s, dirac, gens, NotSelfAdjointError, "Dirac hermiticity",
             residuals[0])


def test_validate_triple_passes_a_triple_without_generators():
    rng = np.random.default_rng(16)
    s = GradedSpace(3, 2)
    assert validate_triple(
        SpectralTripleFD(s, random_odd_hermitian(rng, s), ())) is None


def test_validate_triple_switches_at_the_tolerance():
    # on 1|1 each defect below has residual exactly `size` in operator norm
    s = GradedSpace(1, 1)
    skew = np.array([[0.0, 0.5], [-0.5, 0.0]])
    for size in (0.99 * DEFAULT_TOL, 1.01 * DEFAULT_TOL):
        for (dirac, gen), error, axiom, k in (
                ((X + size * skew, np.eye(2)), NotSelfAdjointError,
                 "Dirac hermiticity", 0),
                ((X + size / 2 * np.eye(2), np.eye(2)), ParityError,
                 "Dirac oddness", 1),
                ((X, np.eye(2) + size / 2 * X), ParityError,
                 "generator evenness", 2)):
            residual = _residuals(s, dirac, [gen])[k]
            assert residual == pytest.approx(size, rel=1e-12)
            if size < DEFAULT_TOL:
                validate_triple(SpectralTripleFD(s, dirac, (gen,)))
            else:
                _rejects(s, dirac, (gen,), error, axiom, residual)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_validate_triple_takes_the_svd_only_past_a_frobenius_norm(
        monkeypatch):
    # the skew defect's residual has operator norm `size` and Frobenius
    # norm sqrt(2) size, so at 0.9e-10 only the SVD tells it is within
    # DEFAULT_TOL; every residual of the 0.5e-10 triple is within it by
    # Frobenius norm alone
    calls = _count_svds(monkeypatch)
    s = GradedSpace(1, 1)
    skew = np.array([[0.0, 0.5], [-0.5, 0.0]])
    for size, svds in ((0.5e-10, 0), (0.9e-10, 1)):
        validate_triple(SpectralTripleFD(
            s, X + size * skew, (np.eye(2) + size / 2 * X,)))
        assert len(calls) == svds
    # an overflowed residual still reaches the SVD, which reads it as NaN
    with pytest.raises(ParityError,
                       match=r"^Dirac oddness residual nan > 1e-10$"):
        validate_triple(SpectralTripleFD(s, np.diag([1e308, 0.0]), ()))
    assert len(calls) == 2


def test_a_validated_triple_skips_the_dirac_checks_of_its_eigensystem(
        monkeypatch):
    # validate_triple's rules for D imply both of delta_eigensystem's;
    # an unchecked copy still makes them, and both read the same bits
    rng = np.random.default_rng(36)
    t = random_triple(rng, 2, 3)
    copy = SpectralTripleFD(t.space, t.dirac, t.generators)
    validate_triple(t)
    calls = _count_svds(monkeypatch)
    hermitian = []
    monkeypatch.setattr(spectral, "check_hermitian", hermitian.append)
    t.delta_eigensystem()
    assert hermitian == []
    copy.delta_eigensystem()
    assert len(hermitian) == 1 and calls == []
    for got, want in zip(t.delta_eigensystem(), copy.delta_eigensystem()):
        assert np.array_equal(got, want)


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
        assert np.allclose(t.heat(time), expm(-time * (t.dirac @ t.dirac)),
                           atol=1e-12)
    with pytest.raises(ValueError):
        t.heat(-0.1)


def test_heat_supertrace_equals_kernel_index():
    # supersymmetric cancellation: nonzero modes pair off, so the heat
    # supertrace is the kernel's, dim_even - dim_odd, at every time
    rng = np.random.default_rng(2)
    for de, do in [(1, 1), (2, 1), (3, 2)]:
        t = random_triple(rng, de, do)
        for time in (0.3, 1.0, 4.0):
            assert supertrace(t.heat(time), t.space) == pytest.approx(
                de - do, abs=1e-10)


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


def test_product_triple_is_np_kron_bit_for_bit():
    # D1 (x) 1 + gamma1 (x) D2, a (x) 1 and 1 (x) b, gathered even-first,
    # down to the sign of each zero
    rng = np.random.default_rng(12)
    flat = SpectralTripleFD(GradedSpace(2, 0), np.zeros((2, 2)), ())
    for t1, t2 in [(random_triple(rng, 1, 1), random_triple(rng, 2, 1)),
                   (random_triple(rng, 2, 2), flat),
                   (flat, random_triple(rng, 1, 2))]:
        prod = product_triple(t1, t2)
        i1, i2 = np.eye(t1.hilbert_dim), np.eye(t2.hilbert_dim)
        g1 = t1.space.gamma_diag
        q = np.argsort(np.kron(g1, t2.space.gamma_diag) < 0, kind="stable")
        ix = np.ix_(q, q)
        dirac = np.kron(t1.dirac, i2) + np.kron(
            np.diag(g1).astype(np.complex128), t2.dirac)
        gens = [np.kron(a, i2) for a in t1.generators] + [
            np.kron(i1, b) for b in t2.generators]
        assert prod.dirac.tobytes() == dirac[ix].tobytes()
        assert [g.tobytes() for g in prod.generators] == [
            g[ix].tobytes() for g in gens]


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
    assert abs(supertrace(left.heat(1.0), left.space)
               - supertrace(right.heat(1.0), right.space)) < 1e-12


def test_idempotent_validation_and_blocks():
    e = Idempotent(np.diag([1.0, 0.0]))
    assert e.blocks == 1 and e.matrix.shape[0] // e.blocks == 2
    e2 = Idempotent(np.eye(4), blocks=2)
    assert e2.matrix.shape[0] // e2.blocks == 2
    with pytest.raises(ValueError):
        Idempotent(np.eye(4), blocks=3)
    with pytest.raises(ValueError):
        Idempotent(np.ones((2, 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: Idempotent(np.eye(4), blocks=2.0), "blocks must be an integer"),
    (lambda: Idempotent(np.eye(2), blocks=True), "blocks must be an integer"),
    (lambda: SpectralTripleFD(GradedSpace(1, 1), X, (np.eye(2),),
                              basis_map=[1.5, 0.2]),
     "basis_map entries must be an integer"),
    (lambda: SpectralTripleFD(GradedSpace(1, 1), X, (np.eye(2),),
                              basis_map=np.array([1.0, 0.0])),
     "basis_map entries must be an integer"),
    (lambda: SpectralTripleFD(GradedSpace(1, 1), X, (np.eye(2),),
                              basis_map=[1, False]),
     "basis_map entries must be an integer"),
    (lambda: GradedSpace(1.5, 1), "dim_even must be an integer"),
    (lambda: GradedSpace(1, True), "dim_odd must be an integer"),
], ids=["float blocks", "bool blocks", "float basis_map",
        "float-array basis_map", "bool basis_map entry", "float dim_even",
        "bool dim_odd"])
def test_integer_fields_are_checked_where_they_are_stored(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_integer_fields_store_numpy_integers_as_int():
    s = GradedSpace(np.int64(1), np.int32(1))
    assert s == GradedSpace(1, 1)
    assert type(s.dim_even) is int and type(s.dim_odd) is int
    assert type(Idempotent(np.eye(4), blocks=np.int64(2)).blocks) is int
    t = SpectralTripleFD(s, X, (np.eye(2),), basis_map=np.array([1, 0]))
    assert t.basis_map.tolist() == [1, 0]


def _amp(t, k):
    """The triple validate_idempotent pairs an idempotent of k blocks with,
    read off the unit of A (x) M_k."""
    return validate_idempotent(
        t, Idempotent(np.eye(t.hilbert_dim * k), blocks=k))[0]


def test_ampliate_scales_everything_but_index():
    rng = np.random.default_rng(8)
    t = random_triple(rng, 2, 1)
    assert _amp(t, 1) is t
    t2 = _amp(t, 2)
    assert t2.hilbert_dim == 6
    # the unit's index doubles with the space: dim_even - dim_odd = 1 -> 2
    unit = _index(t, Idempotent(np.eye(3)))
    assert _index(t2, Idempotent(np.eye(6))) == 2 * unit == 2


@pytest.mark.parametrize("k", [2, 3])
def test_ampliation_is_the_product_with_a_flat_ungraded_triple(k):
    # the amplified triple is D (x) 1 on C^{kp|kq}, generators g (x) 1, and
    # the algebra basis of A (x) M_k in Kronecker order
    ik = np.eye(k)
    for _, t, _, _ in curated_index_pairs():
        assert _amp(t, 1) is t
        amp = _amp(t, k)
        p, q = t.space.dim_even, t.space.dim_odd
        assert amp.space == GradedSpace(k * p, k * q)
        assert np.array_equal(amp.dirac, np.kron(t.dirac, ik))
        assert np.array_equal(amp.basis_map, (
            t.basis_map[:, None] * k + np.arange(k)).ravel())
        assert len(amp.generators) == len(t.generators)
        for g_amp, g in zip(amp.generators, t.generators):
            assert np.array_equal(g_amp, np.kron(g, ik))


def test_identity_basis_spans_the_space_and_keeps_the_index():
    rng = np.random.default_rng(9)
    t = random_triple(rng, 2, 2)
    amp, e = validate_idempotent(t, Idempotent(np.eye(4)))
    assert index_of_pair(amp, e) == t.space.dim_even - t.space.dim_odd


def test_projection_basis_counts_ranks():
    rng = np.random.default_rng(10)
    t = _flat(2, 2)
    e = random_even_projection(rng, t.space, rank_even=1, rank_odd=1)
    assert index_of_pair(*validate_idempotent(t, Idempotent(e))) == 0


def test_validate_idempotent_rejects_bad_idempotents():
    t = _flat(1, 1)
    with pytest.raises(NotIdempotentError):
        validate_idempotent(t, Idempotent(0.5 * np.eye(2)))
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSelfAdjointError):
        validate_idempotent(t, Idempotent(skew))
    mixed = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ParityError):
        validate_idempotent(t, Idempotent(mixed))
    # self-adjoint, mixed and not idempotent: idempotence is checked first
    with pytest.raises(NotIdempotentError):
        validate_idempotent(t, Idempotent([[0.3, 0.2], [0.2, 0.1]]))


def _index(t, e):
    return index_of_pair(*validate_idempotent(t, e))


def test_index_of_pair_flat_cases():
    assert _index(_flat(1, 1), Idempotent(np.diag([1.0, 0.0]))) == 1
    assert _index(_flat(1, 1), Idempotent(np.eye(2))) == 0
    assert _index(_flat(2, 1), Idempotent(np.eye(3))) == 1


def test_index_of_pair_zero_idempotent_is_zero():
    for t in (_flat(1, 1), _flat(2, 1)):
        d = t.hilbert_dim
        assert _index(t, Idempotent(np.zeros((d, d)))) == 0
        assert _index(t, Idempotent(np.zeros((2 * d, 2 * d)), blocks=2)) == 0


def test_idempotent_checks_switch_between_half_and_twice_the_tolerance():
    # an imaginary diagonal defect has equal Frobenius and operator norms,
    # so |e - e^*| = defect decides alone; a shifted eigenvalue 1 + defect
    # leaves |e^2 - e| = defect (1 + defect) against tol (1 + defect)
    t = _flat(1, 1)
    for defect in (IDEMPOTENT_TOL / 2, 2 * IDEMPOTENT_TOL):
        adjoint = Idempotent(np.diag([1.0, 0.5j * defect]))
        shifted = Idempotent(np.diag([1.0 + defect, 0.0]))
        if defect < IDEMPOTENT_TOL:
            assert _index(t, adjoint) == _index(t, shifted) == 1
        else:
            with pytest.raises(NotSelfAdjointError):
                validate_idempotent(t, adjoint)
            with pytest.raises(NotIdempotentError):
                validate_idempotent(t, shifted)


def test_defects_inside_tolerance_can_add_up_to_a_rejection():
    # eigenvalue 1 + 0.95 tol and |e - e^*| = 0.9 tol each pass alone, but
    # |e^2 - e| is then about 1.05 tol: both rules reject as not idempotent
    t = _flat(1, 1)
    both = Idempotent(np.diag([1.0 + (0.95 + 0.45j) * IDEMPOTENT_TOL, 0.0]))
    assert _old_rule_index(t, both) is None
    with pytest.raises(NotIdempotentError):
        validate_idempotent(t, both)


def test_index_of_pair_refuses_an_ungraded_basis():
    # tr(gamma e) = cos(1) for the unchecked projection e = B B^* onto
    # this ungraded line of a flat triple
    basis = np.array([[np.cos(0.5)], [np.sin(0.5)]], dtype=complex)
    with pytest.raises(NonIntegerIndexError, match=r"^supertrace of e "
                       r"0\.540302 is not within 0\.01 of an integer$"):
        index_of_pair(_flat(1, 1), basis @ basis.conj().T)


def test_kernel_index_reference_takes_the_hermitian_part_of_the_compression():
    # D is Hermitian within validate_triple's absolute tolerance but not
    # relative to its own small norm; the reference's eigendecomposition
    # reads the compression's Hermitian part
    t = SpectralTripleFD(GradedSpace(1, 1),
                         1e-3 * X + np.array([[0, 1e-11], [0, 0]]),
                         (np.eye(2),))
    validate_triple(t)
    amp, e = validate_idempotent(t, Idempotent(np.eye(2)))
    assert kernel_index_of_pair(amp, e) == index_of_pair(amp, e) == 0


def test_every_index_route_reads_a_small_dirac_that_validation_accepts():
    # |D - D^*| = 1e-11 passes validate_triple; so must the kernel
    # projection, the index and the heat kernel
    t = SpectralTripleFD(GradedSpace(1, 1),
                         np.array([[0, 1e-3 + 1e-11j], [1e-3, 0]]),
                         (np.eye(2),))
    validate_triple(t)
    assert not kernel_projection(t.dirac).any()
    assert _index(t, Idempotent(np.eye(2))) == 0
    amp, e = validate_idempotent(t, Idempotent(np.eye(2)))
    assert index_pairing(amp, e).integer == 0


def test_heat_checks_the_dirac_operator_not_its_square():
    # |D - D^*| = 0.9e-10 with |D| = 1 passes validate_triple, while the
    # anti-Hermitian part of D^2 is twice that: the rule is read on D
    t = SpectralTripleFD(GradedSpace(1, 1),
                         X + np.array([[0, 0.45e-10j], [0.45e-10j, 0]]),
                         (np.eye(2),))
    validate_triple(t)
    with pytest.raises(NonHermitianError):
        check_hermitian(t.dirac @ t.dirac)
    assert abs(t.heat(1.0)[0, 0] - np.exp(-1.0)) < 1e-12
    assert not kernel_projection(t.dirac).any()


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_delta_eigensystem_refuses_an_overflowing_square(scale):
    # D^2 + (D^2)^* overflows at 1e154, D^2 itself at 1e200
    t = SpectralTripleFD(GradedSpace(1, 1), scale * X, (np.eye(2),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Delta = D\\^2 overflows"):
            t.delta_eigensystem()
        with pytest.raises(ValueError, match="overflows"):
            t.heat(1.0)
    # a finite square keeps the eigensystem of its Hermitian part, bit for bit
    t = SpectralTripleFD(GradedSpace(1, 1), 1e-200 * X, (np.eye(2),))
    d = t.dirac @ t.dirac
    for got, want in zip(t.delta_eigensystem(),
                         np.linalg.eigh((d + d.conj().T) / 2.0)):
        assert np.array_equal(got, want)


def test_heat_refuses_an_anti_hermitian_dirac():
    # D = iX squares to the Hermitian -1, but D itself is far from Hermitian
    t = SpectralTripleFD(GradedSpace(1, 1), 1j * X, (np.eye(2),))
    with pytest.raises(NonHermitianError):
        t.heat(1.0)
    with pytest.raises(NonHermitianError):
        kernel_projection(t.dirac)


def test_near_zero_imaginary_block_keeps_its_index():
    # the odd block of e is 1e-12j: within tolerance of the zero block, so
    # the range is the even line and the index is +1
    assert _index(_flat(1, 1), Idempotent(np.diag([1.0, 1e-12j]))) == 1


def _old_rule_index(t, idem):
    """The operator-norm rule the eigenvalue checks replaced: three norms
    and parity_of, then an eigenbasis per parity block and the kernel
    route's index of the projection onto it; None on rejection."""
    amp = _amp(t, idem.blocks)
    e = amp.represent(idem.matrix)
    scale = max(1.0, opnorm(e))
    if (opnorm(e - e.conj().T) > IDEMPOTENT_TOL * scale
            or opnorm(e @ e - e) > IDEMPOTENT_TOL * scale
            or parity_of(e, amp.space) is not Parity.EVEN):
        return None
    de = amp.space.dim_even
    cols = []
    for block in (slice(0, de), slice(de, None)):
        w, v = np.linalg.eigh(0.5 * (e[block, block] + e[block, block].conj().T))
        frame = np.zeros((amp.hilbert_dim, int(np.sum(w > 0.5))), complex)
        frame[block] = v[:, w > 0.5]
        cols.append(frame)
    frame = np.hstack(cols)
    return kernel_index_of_pair(amp, frame @ frame.conj().T)


def _rule_sweep():
    """(old index or None, new index or None) on seeded even projections,
    blocks 1-3, perturbed by 1e-10 to 1e-7 in an anti-Hermitian even, a
    Hermitian even, a mixed even (both at once) and a Hermitian odd
    direction."""
    rng = np.random.default_rng(23)
    out = []
    for case in range(12):
        t = random_triple(rng, *rng.integers(1, 3, size=2), dirac_scale=0.3)
        amp = _amp(t, 1 + case % 3)
        s = amp.space
        base = random_even_projection(rng, s, rng.integers(0, s.dim_even + 1),
                                      rng.integers(0, s.dim_odd + 1))
        even = random_even(rng, s, hermitian=True)
        odd = random_odd_hermitian(rng, s)
        for direction in (1j * even, even, (1 + 1j) * even, odd):
            for size in np.logspace(-10, -7, 7):
                m = base + size / opnorm(direction) * direction
                idem = Idempotent(amp.unrepresent(m), blocks=1 + case % 3)
                try:
                    new = _index(t, idem)
                except ValueError:
                    new = None
                out.append((_old_rule_index(t, idem), new))
    return out


def test_eigendecomposition_rule_is_no_looser_than_operator_norms():
    sweep = _rule_sweep()
    assert len(sweep) == 336
    for old, new in sweep:
        if new is not None:
            assert old == new
    # the sweep reaches both sides of both rules
    assert {old is None for old, _ in sweep} == {True, False}
    assert {new is None for _, new in sweep} == {True, False}


def _conjugated(rng, t, e):
    """(t, e) conjugated by a seeded unitary that commutes with the grading,
    a QR frame per parity block; the index does not change."""
    u = np.zeros((t.hilbert_dim, t.hilbert_dim), dtype=np.complex128)
    de = t.space.dim_even
    for block in (slice(0, de), slice(de, None)):
        n = len(u[block])
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        u[block, block] = q
    d = u @ t.dirac @ u.conj().T
    conj = SpectralTripleFD(t.space, 0.5 * (d + d.conj().T),
                            [u @ g @ u.conj().T for g in t.generators],
                            basis_map=t.basis_map)
    ua = np.kron(t.unrepresent(u), np.eye(e.blocks))
    return conj, Idempotent(ua @ e.matrix @ ua.conj().T, blocks=e.blocks)


def _both_routes(t, e):
    amp, op = validate_idempotent(t, e)
    return index_of_pair(amp, op), kernel_index_of_pair(amp, op)


def test_supertrace_of_e_is_the_kernel_routes_index():
    # the index is dim eH+ - dim eH- = tr(gamma e) by rank-nullity; the
    # kernel of the compressed Dirac operator gives the same integer on the
    # catalogue, on each pair conjugated by an even unitary (with and
    # without a random projection in M_2 or M_3 tensored on) and on random
    # even projections of every rank pair at Dirac norms 1e-6 to 10
    rng = np.random.default_rng(2026)
    for i, (_, t, e, expected) in enumerate(curated_index_pairs()):
        conj, ce = _conjugated(rng, t, e)
        assert _both_routes(t, e) == _both_routes(conj, ce) \
            == (expected, expected)
        if e.blocks == 1:
            k, rank = 2 + i % 2, 1 + i % 2
            p = random_even_projection(rng, GradedSpace(k, 0), rank)
            amped = Idempotent(np.kron(ce.matrix, p), blocks=k)
            assert _both_routes(conj, amped) == (rank * expected,) * 2
    pairs = 0
    for de in (1, 2, 3):
        for do in (1, 2, 3):
            for re in range(de + 1):
                for ro in range(do + 1):
                    for _ in range(5):
                        t = random_triple(rng, de, do, dirac_scale=10 **
                                          rng.uniform(-6, 1))
                        e = random_even_projection(rng, t.space, re, ro)
                        assert _both_routes(t, Idempotent(e)) \
                            == (re - ro, re - ro), (de, do, re, ro)
                        pairs += 1
    assert pairs == 405


def test_index_multiplicative_on_product():
    rng = np.random.default_rng(11)
    t1 = SpectralTripleFD(GradedSpace(1, 1), 0.4 * X, (np.eye(2),))
    t2 = _flat(2, 1)
    e1 = Idempotent(np.diag([1.0, 0.0]))
    e2 = Idempotent(np.eye(3))
    prod = product_triple(t1, t2)
    e12 = Idempotent(np.kron(e1.matrix, e2.matrix))
    i1 = _index(t1, e1)
    i2 = _index(t2, e2)
    i12 = _index(prod, e12)
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


def _collision_triples():
    """Triples whose Delta has paired and repeated eigenvalues: random 1|1,
    2|1, 2|2, 5|4 and 4|1, the flat 2|1 (Delta = 0), the square of a 2|1
    triple and a 2|1 triple ampliated by C^{3|0}."""
    rng = np.random.default_rng(3_501)
    t21 = random_triple(rng, 2, 1)
    flat = SpectralTripleFD(GradedSpace(3, 0), np.zeros((3, 3)), ())
    return [random_triple(rng, p, q) for p, q in ((1, 1), (2, 2), (5, 4),
                                                  (4, 1))] + [
        t21, _flat(2, 1), product_triple(t21, t21), product_triple(t21, flat)]


def test_delta_eigensystem_is_even_first_with_pure_columns():
    # eigh per parity block: the even block's eigenvalues, ascending, then
    # the odd block's, and a unitary u with exact zero off-parity blocks
    # that diagonalizes Delta; the eigenvalues match the full eigh's
    for t in _collision_triples():
        w, u = t.delta_eigensystem()
        de, d = t.space.dim_even, t.hilbert_dim
        assert not u[:de, de:].any() and not u[de:, :de].any()
        assert np.all(np.diff(w[:de]) >= 0) and np.all(np.diff(w[de:]) >= 0)
        delta = t.dirac @ t.dirac
        scale = max(1.0, np.abs(w).max())
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), rtol=0,
                                   atol=64 * 2.0 ** -53)
        np.testing.assert_allclose(u.conj().T @ delta @ u, np.diag(w),
                                   rtol=0, atol=64 * 2.0 ** -53 * scale)
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(delta),
                                   rtol=0, atol=8 * 2.0 ** -53 * scale)


@pytest.mark.parametrize("even_part, refused", [(6e-11, True),
                                                (4e-11, False)])
def test_delta_eigensystem_refuses_a_dirac_that_is_not_odd(even_part,
                                                           refused):
    # |g D g + D| = 2 |E| for D's even part E, validate_triple's oddness
    # residual: 1.2e-10 is over DEFAULT_TOL and 0.8e-10 under it; the heat
    # flow and the cochains read the eigensystem, so they refuse alike
    from jlolab.chains import Chain
    from jlolab.jlo import jlo_cochain
    dirac = 0.5 * X + even_part * np.diag([1.0, -1.0])
    t = SpectralTripleFD(GradedSpace(1, 1), dirac, (np.eye(2),))
    chain = Chain.elementary(1.0, (np.diag([1.0, 2.0]),) * 3)
    if refused:
        with pytest.raises(ParityError, match="Dirac oddness residual 1.2e-10"):
            validate_triple(t)
        for call in (lambda: t.heat(1.0), lambda: jlo_cochain(t, chain),
                     t.delta_eigensystem):
            with pytest.raises(ParityError,
                               match="Dirac oddness residual 1.2e-10"):
                call()
    else:
        validate_triple(t)
        assert abs(t.heat(1.0)[0, 0] - np.exp(-0.25)) < 1e-12
        assert jlo_cochain(t, chain) != 0
