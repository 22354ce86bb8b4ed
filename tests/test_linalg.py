import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.linalg import (
    PARITY_TOL,
    GradedSpace,
    _grading,
    NonHermitianError,
    Parity,
    check_hermitian,
    frob,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    parity_codes,
    parity_of,
    supertrace,
)
from jlolab.spectral import kernel_projection


def _rand(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_graded_space_basics():
    s = GradedSpace(2, 3)
    assert s.dim == 5
    assert np.array_equal(s.gamma_diag, [1, 1, -1, -1, -1])
    with pytest.raises(ValueError):
        GradedSpace(-1, 2)
    with pytest.raises(ValueError):
        GradedSpace(0, 0)


def test_equal_spaces_share_their_grading_constants():
    a, b = GradedSpace(2, 3), GradedSpace(2, 3)
    assert a is not b
    for name in ("gamma_diag", "_parity_weights"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable
    assert GradedSpace(3, 2).gamma_diag is not a.gamma_diag
    # the arrays each space used to build for itself, bit for bit
    g = np.ones(5)
    g[2:] = -1.0
    split = np.not_equal.outer(g, g).ravel()
    for got, want in ((a.gamma_diag, g), (a._parity_weights, np.stack(
            [split, ~split], axis=1).astype(float))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the shared cache is bounded
    assert isinstance(_grading.cache_info().maxsize, int)


def test_supertrace_of_identity_counts_signed_dimensions():
    # Str(I) on C^{p|q} is p - q
    assert supertrace(np.eye(5), GradedSpace(2, 3)) == 2 - 3
    assert supertrace(np.eye(5), GradedSpace(4, 1)) == 3


def test_supertrace_rejects_a_grading_of_another_size():
    rng = np.random.default_rng(0)
    x = _rand(rng, 4)
    with pytest.raises(ValueError):
        supertrace(x, GradedSpace(2, 1))


def test_supertrace_kills_odd_operators():
    rng = np.random.default_rng(1)
    s = GradedSpace(3, 2)
    x = _rand(rng, s.dim)
    odd = x - s.gamma_diag[:, None] * x * s.gamma_diag[None, :]
    assert parity_of(odd, s) is Parity.ODD
    assert abs(supertrace(odd, s)) < 1e-12


def test_parity_classification():
    s = GradedSpace(1, 1)
    assert parity_of(np.diag([2.0, 3.0]), s) is Parity.EVEN
    assert parity_of(np.array([[0, 1], [1j, 0]]), s) is Parity.ODD
    assert parity_of(np.array([[1, 1], [0, 0]]), s) is Parity.MIXED


def test_parity_codes_match_parity_of_entry_for_entry():
    # parity_of is the one-matrix case of parity_codes; a stack must give
    # each matrix the code parity_of gives it alone, on both sides of the
    # threshold PARITY_TOL * max(1, |m|) and for norms below and above 1
    rng = np.random.default_rng(3)
    s = GradedSpace(2, 3)
    g = s.gamma_diag
    x = _rand(rng, s.dim)
    even = (x + g[:, None] * x * g[None, :]) / 2
    odd = x - even
    mats, want = [np.zeros((s.dim, s.dim)), x], [0, 2]
    for norm in (0.3, 7.0):
        e, o = even * norm / frob(even), odd * norm / frob(odd)
        mats += [e, o, e + o]
        want += [0, 1, 2]
        for part, off, code in ((e, odd, 0), (o, even, 1)):
            # |conj -/+ m| is 2 |off part|, compared with PARITY_TOL * scale
            for factor, code_at in ((1 - 1e-3, code), (1 + 1e-3, 2)):
                size = factor * PARITY_TOL * max(1.0, norm) / 2
                mats.append(part + off * size / frob(off))
                want.append(code_at)
    codes = parity_codes(np.array(mats, dtype=np.complex128), s)
    assert codes.tolist() == want
    assert [tuple(Parity).index(parity_of(m, s)) for m in mats] == want
    assert parity_codes(np.array(mats), s).tolist() == want


def test_parity_codes_are_scale_free_past_the_float_range():
    # at norm 7 the bound scales with |m|, so scaling a matrix by 2^j keeps
    # its code on both sides of the threshold, also where |m|^2 overflows
    rng = np.random.default_rng(3)
    s = GradedSpace(2, 3)
    g = s.gamma_diag
    x = _rand(rng, s.dim)
    even = (x + g[:, None] * x * g[None, :]) / 2
    e, o = even * 7 / frob(even), (x - even) * 7 / frob(x - even)
    mats, want = [e, o, e + o], [0, 1, 2]
    for part, off, code in ((e, o, 0), (o, e, 1)):
        for factor, code_at in ((1 - 1e-3, code), (1 + 1e-3, 2)):
            size = factor * PARITY_TOL * 7 / 2
            mats.append(part + off * size / frob(off))
            want.append(code_at)
    for j in (0, 100, 500, 511, 512, 600, 1000):
        assert parity_codes(np.array(mats) * 2.0 ** j, s).tolist() == want
    odd = np.array([[0, 1e155], [1e155, 0]])
    assert parity_of(odd, GradedSpace(1, 1)) is Parity.ODD


def test_check_hermitian_returns_a_hermitian_matrix_as_is():
    rng = np.random.default_rng(2)
    x = _rand(rng, 6)
    h = x + x.conj().T
    a = check_hermitian(h)
    assert a.dtype == np.complex128
    assert np.array_equal(a, h)


def test_check_hermitian_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermiticity_rule_is_absolute_below_norm_one_relative_above():
    # opnorm(m - m^*) <= DEFAULT_TOL * max(1, opnorm(m)); frob(m - m^*) is
    # 1.8e-10 for the accepted small matrix, only its opnorm counts; the
    # kernel projection reads the same rule, and the Hermitian part of m
    for scale, defect, ok in [(1e-3, 0.45e-10, True), (1e-3, 1.5e-10, False),
                              (1e3, 0.45e-7, True), (1e3, 1.5e-7, False)]:
        m = scale * np.diag([1.0, 1.0, 0.0, 0.0]) + 1j * defect * np.eye(4)
        if ok:
            assert np.array_equal(check_hermitian(m), m)
            assert np.allclose(kernel_projection(m),
                               np.diag([0.0, 0.0, 1.0, 1.0]))
        else:
            for check in (check_hermitian, kernel_projection):
                with pytest.raises(NonHermitianError):
                    check(m)
    with pytest.raises(ValueError):
        check_hermitian(np.zeros((1, 2)))


def test_norms_on_known_matrix():
    m = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert frob(m) == pytest.approx(5.0)
    assert opnorm(m) == pytest.approx(4.0)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(6)
    m = _rand(rng, 2, 3)
    back = matrix_from_json(matrix_to_json(m))
    assert back.shape == (2, 3)
    assert np.array_equal(back, m)


@pytest.mark.parametrize("bad", [
    {},
    {"rows": 2, "cols": 2, "data": [[0.0, 0.0]]},
    {"rows": 1, "cols": 1, "data": [[0.0]]},
    {"rows": 1, "cols": 1, "data": "nope"},
    {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
    {"rows": 1, "cols": 1, "data": [[0.0, float("inf")]]},
    {"rows": 1, "cols": 1, "data": 5},
    {"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]},
])
def test_matrix_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        matrix_from_json(bad)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 31 - 1))
def test_supertrace_is_linear_and_grading_signed(p, q, seed):
    if p + q == 0:
        return
    rng = np.random.default_rng(seed)
    s = GradedSpace(p, q)
    x, y = _rand(rng, s.dim), _rand(rng, s.dim)
    lhs = supertrace(2.0 * x + 1j * y, s)
    rhs = 2.0 * supertrace(x, s) + 1j * supertrace(y, s)
    assert lhs == pytest.approx(rhs)
    # Str is a trace on even operators: Str(ab) = Str(ba)
    xe = x * (s.gamma_diag[:, None] == s.gamma_diag[None, :])
    ye = y * (s.gamma_diag[:, None] == s.gamma_diag[None, :])
    assert supertrace(xe @ ye, s) == pytest.approx(supertrace(ye @ xe, s))
