import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlolab.linalg import (
    PARITY_TOL,
    GradedSpace,
    NonHermitianError,
    Parity,
    frob,
    hermitian_eigen,
    matrix_from_json,
    matrix_to_json,
    opnorm,
    parity_codes,
    parity_of,
    supertrace,
)


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


def test_supertrace_of_identity_counts_signed_dimensions():
    # Str(I) on C^{p|q} is p - q
    assert supertrace(np.eye(5), GradedSpace(2, 3).gamma_diag) == 2 - 3
    assert GradedSpace(4, 1).supertrace(np.eye(5)) == 3


def test_supertrace_accepts_matrix_or_diagonal_grading():
    rng = np.random.default_rng(0)
    s = GradedSpace(2, 2)
    x = _rand(rng, 4)
    assert supertrace(x, s) == supertrace(x, s.gamma_diag)
    with pytest.raises(ValueError):
        supertrace(x, np.ones(3))


def test_supertrace_kills_odd_operators():
    rng = np.random.default_rng(1)
    s = GradedSpace(3, 2)
    x = _rand(rng, s.dim)
    odd = x - s.gamma_diag[:, None] * x * s.gamma_diag[None, :]
    assert parity_of(odd, s) is Parity.ODD
    assert abs(supertrace(odd, s.gamma_diag)) < 1e-12


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
    assert parity_codes(np.array(mats), s.gamma_diag).tolist() == want


def test_hermitian_eigen_reconstructs_and_sorts():
    rng = np.random.default_rng(2)
    x = _rand(rng, 6)
    h = x + x.conj().T
    w, u = hermitian_eigen(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(u @ np.diag(w) @ u.conj().T, h, atol=1e-12)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    lhs = supertrace(2.0 * x + 1j * y, s.gamma_diag)
    rhs = 2.0 * supertrace(x, s.gamma_diag) + 1j * supertrace(y, s.gamma_diag)
    assert lhs == pytest.approx(rhs)
    # Str is a trace on even operators: Str(ab) = Str(ba)
    xe = x * (s.gamma_diag[:, None] == s.gamma_diag[None, :])
    ye = y * (s.gamma_diag[:, None] == s.gamma_diag[None, :])
    assert supertrace(xe @ ye, s.gamma_diag) == pytest.approx(
        supertrace(ye @ xe, s.gamma_diag))
