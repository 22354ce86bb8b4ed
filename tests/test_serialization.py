import json

import numpy as np
import pytest

from jlolab.chains import chain_from_json, chain_to_json
from jlolab.jlo import jlo_cochain
from jlolab.linalg import matrix_from_json, matrix_to_json
from jlolab.randomgen import random_chain, random_triple
from jlolab.spectral import (
    Idempotent,
    idempotent_from_json,
    idempotent_to_json,
    product_triple,
    triple_from_json,
    triple_to_json,
)


def _through_wire(obj):
    return json.loads(json.dumps(obj))


def test_matrix_wire_format_is_json_clean():
    m = np.array([[1 + 2j, 0.5], [0.0, -1j]])
    wire = _through_wire(matrix_to_json(m))
    assert wire["rows"] == 2 and wire["cols"] == 2
    assert np.array_equal(matrix_from_json(wire), m)


def test_triple_round_trip_preserves_evaluation():
    rng = np.random.default_rng(0)
    t = random_triple(rng, 2, 1, label="probe")
    chain = random_chain(rng, t.space, (0, 2))
    back = triple_from_json(_through_wire(triple_to_json(t)))
    assert back.label == "probe"
    assert back.space == t.space
    assert np.array_equal(back.dirac, t.dirac)
    assert len(back.generators) == len(t.generators)
    assert jlo_cochain(back, chain) == jlo_cochain(t, chain)


def test_triple_round_trip_keeps_basis_map():
    rng = np.random.default_rng(1)
    prod = product_triple(random_triple(rng, 1, 1), random_triple(rng, 2, 1))
    back = triple_from_json(_through_wire(triple_to_json(prod)))
    assert np.array_equal(back.basis_map, prod.basis_map)
    a = rng.standard_normal((6, 6))
    assert np.array_equal(back.represent(a), prod.represent(a))


def test_triple_json_rejects_malformed():
    with pytest.raises(ValueError):
        triple_from_json({"dim_even": 1})
    good = triple_to_json(random_triple(np.random.default_rng(2), 1, 1))
    bad = dict(good)
    bad["dirac"] = {"rows": 2, "cols": 2, "data": [[0.0, 0.0]]}
    with pytest.raises(ValueError):
        triple_from_json(bad)
    bad2 = dict(good)
    bad2["basis_map"] = [0, 0]
    with pytest.raises(ValueError):
        triple_from_json(bad2)


def test_idempotent_round_trip_with_blocks():
    e = Idempotent(np.eye(4), blocks=2)
    back = idempotent_from_json(_through_wire(idempotent_to_json(e)))
    assert back.blocks == 2
    assert np.array_equal(back.matrix, e.matrix)
    with pytest.raises(ValueError):
        idempotent_from_json({"blocks": 1})


def test_chain_round_trip_preserves_complex_coefficients():
    rng = np.random.default_rng(3)
    t = random_triple(rng, 1, 1)
    chain = random_chain(rng, t.space, (0, 1, 2))
    back = chain_from_json(_through_wire(chain_to_json(chain)))
    assert back.num_terms == chain.num_terms
    for a, b in zip(back.terms, chain.terms):
        assert a.coeff == b.coeff
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)
    assert jlo_cochain(t, back) == jlo_cochain(t, chain)


def test_chain_json_rejects_malformed():
    with pytest.raises(ValueError):
        chain_from_json({"terms": []})
    with pytest.raises(ValueError):
        chain_from_json({"algebra_dim": 2, "terms": [{"coeff": [1.0, 0.0]}]})
    wrong_dim = {
        "algebra_dim": 2,
        "terms": [{
            "coeff": [1.0, 0.0],
            "factors": [matrix_to_json(np.eye(3))],
        }],
    }
    with pytest.raises(ValueError):
        chain_from_json(wrong_dim)
    nan_coeff = {
        "algebra_dim": 2,
        "terms": [{
            "coeff": [float("nan"), 0.0],
            "factors": [matrix_to_json(np.eye(2))],
        }],
    }
    with pytest.raises(ValueError):
        chain_from_json(nan_coeff)
    with pytest.raises(ValueError):
        chain_from_json({"algebra_dim": -1, "terms": []})
