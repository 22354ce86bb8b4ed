"""Refusals that no other test reaches, each pinned by its error class and
message, or by the exit code and last output line of a `jlolab` command."""

import numpy as np
import pytest

from jlolab.chains import Chain, ElementaryChain, br_operation, probe_distance
from jlolab.cli import main
from jlolab.jlo import DegreeCapError, jlo_integrand
from jlolab.linalg import GradedSpace, ParityError, as_matrix, parity_codes
from jlolab.shuffles import cyclic_region_locate, enumerate_shuffles
from jlolab.spectral import (
    Idempotent,
    NotIdempotentError,
    SpectralTripleFD,
    commutator_d,
    product_triple,
    validate_idempotent,
    validate_triple,
)
from jlolab.suites import RunConfig

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
KICK = SpectralTripleFD(GradedSpace(1, 1), 0.1 * X, (np.eye(2),))
SWAP = SpectralTripleFD(GradedSpace(1, 1), 0.1 * X, (), basis_map=[1, 0])


def _config_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return main(["verify", "--config", str(path)])


# name: (call on a scratch directory, error class or exit code, message or
# last line of stdout and stderr together)
CASES = {
    "Chain term that is no ElementaryChain": (
        lambda _: Chain(2, [object()]), TypeError,
        "terms must be ElementaryChain instances"),
    "Chain term of another dimension": (
        lambda _: Chain(2, [ElementaryChain(1.0, (np.eye(3),))]), ValueError,
        "term dimension disagrees with the algebra dimension"),
    "Chain plus a number": (
        lambda _: Chain.zero(2) + 1, TypeError,
        "unsupported operand type(s) for +: 'Chain' and 'int'"),
    "br_operation of no chain": (
        lambda _: br_operation([]), ValueError, "need at least one chain"),
    "probe_distance across algebra dimensions": (
        lambda _: probe_distance(Chain.zero(2), Chain.zero(3),
                                 np.random.default_rng(0)),
        ValueError, "chains live over different algebra dimensions"),
    "jlo_integrand factors of another size": (
        lambda _: jlo_integrand(KICK, [np.eye(3)] * 2, [0.5]), ValueError,
        "factor shape disagrees with the Hilbert space"),
    "jlo_integrand of one matrix in place of a factor list": (
        lambda _: jlo_integrand(KICK, np.eye(2), [0.5]), ValueError,
        "factor shape disagrees with the Hilbert space"),
    "jlo_integrand above the degree cap": (
        lambda _: jlo_integrand(KICK, [np.eye(2)] * 14,
                                np.linspace(0.0, 1.0, 13)),
        DegreeCapError, "degree 13 exceeds the cap 12"),
    "as_matrix of a 3-d array": (
        lambda _: as_matrix(np.zeros((2, 2, 2))), ValueError,
        "expected a matrix, got array of shape (2, 2, 2)"),
    "parity_codes on another grading": (
        lambda _: parity_codes(np.eye(3), GradedSpace(1, 1)), ValueError,
        "grading and matrix dimensions disagree"),
    "enumerate_shuffles of a negative block": (
        lambda _: enumerate_shuffles(-1, 2), ValueError,
        "block sizes must be non-negative"),
    "cyclic_region_locate with one offset for two blocks": (
        lambda _: cyclic_region_locate((1, 1), [0.1], [[0.2], [0.3]]),
        ValueError, "need one offset per block"),
    "commutator_d of an odd element": (
        lambda _: commutator_d(KICK, X), ParityError,
        "commutator_d expects an even algebra element"),
    "commutator_d of an odd element whose squares overflow": (
        lambda _: commutator_d(KICK, 1e155 * X), ParityError,
        "commutator_d expects an even algebra element"),
    "represent of a 3 x 3 matrix over a 1|1 triple with a basis map": (
        lambda _: SWAP.represent(np.arange(9.0).reshape(3, 3)), ValueError,
        "factor shape disagrees with the Hilbert space"),
    "unrepresent of a 3 x 3 matrix over a 1|1 triple with a basis map": (
        lambda _: SWAP.unrepresent(np.arange(9.0).reshape(3, 3)), ValueError,
        "factor shape disagrees with the Hilbert space"),
    "commutator_d of a 5 x 5 matrix over a product of 1|1 triples": (
        lambda _: commutator_d(product_triple(KICK, KICK),
                               np.diag([1.0, 2.0, 3.0, 4.0, 5.0])),
        ValueError, "factor shape disagrees with the Hilbert space"),
    "validate_triple of a generator whose residual overflows": (
        lambda _: validate_triple(SpectralTripleFD(
            GradedSpace(1, 1), np.zeros((2, 2)), (1e308 * X,))),
        ParityError, "generator evenness residual nan > 1e-10"),
    "validate_idempotent of a matrix whose eigenvalues overflow": (
        lambda _: validate_idempotent(KICK, Idempotent(np.full((2, 2), 1e308))),
        NotIdempotentError, "matrix is not idempotent within tolerance"),
    "Idempotent of no blocks": (
        lambda _: Idempotent(np.eye(2), blocks=0), ValueError,
        "blocks must be >= 1"),
    "RunConfig dims triple": (
        lambda _: RunConfig(dims=((1, 1, 1),)), ValueError,
        "bad dimension pair (1, 1, 1)"),
    "verify --config holding a JSON list": (
        _config_list, 2,
        "error: invalid configuration: config file must hold a JSON object"),
    "index --times with three files": (
        lambda _: main(["index", "t.json", "e.json",
                        "--times", "a.json", "b.json", "c.json"]), 2,
        "error: --times takes a triple file and at most one idempotent file"),
    "decompose --shuffle 0 0 has no point to sample": (
        lambda _: main(["decompose", "--shuffle", "0", "0"]), 0,
        "  closed form binomial(0, 0): 1"),
    "decompose --samples 0 samples nothing": (
        lambda _: main(["decompose", "--shuffle", "2", "1",
                        "--samples", "0"]), 0,
        "  closed form binomial(3, 2): 3"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_each_refusal_pins_its_class_and_message(name, tmp_path, capsys):
    call, outcome, message = CASES[name]
    if isinstance(outcome, int):
        assert call(tmp_path) == outcome
        out, err = capsys.readouterr()
        assert (out + err).splitlines()[-1] == message
    else:
        with pytest.raises(outcome) as info:
            call(tmp_path)
        assert type(info.value) is outcome
        assert str(info.value) == message
