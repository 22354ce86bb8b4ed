import json

import numpy as np
import pytest

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


def test_matrix_json_rejects_boolean_entries():
    # bool is an int subclass, so complex(True, False) would read as 1 + 0j
    for data in ([[True, False]], [[1.0, False]], [[True, 0.0]]):
        with pytest.raises(ValueError, match="booleans"):
            matrix_from_json({"rows": 1, "cols": 1, "data": data})
    assert matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0]]})[0, 0] == 1


@pytest.mark.parametrize("entry, message", [
    ('["1.0", 0.0]', "malformed matrix entries: complex() can't take second "
     "arg if first is a string"),
    ("[null, 0.0]", "malformed matrix entries: complex() first argument "
     "must be a string or a number, not 'NoneType'"),
    ("null", "malformed matrix entries: cannot unpack non-iterable NoneType "
     "object"),
    ("[1.0]", "malformed matrix entries: not enough values to unpack "
     "(expected 2, got 1)"),
    ("[1.0, 0.0, 0.0]", "malformed matrix entries: too many values to "
     "unpack (expected 2)"),
    ("1.0", "malformed matrix entries: cannot unpack non-iterable float "
     "object"),
    ("[[1.0, 0.0], 0.0]", "malformed matrix entries: complex() first "
     "argument must be a string or a number, not 'list'"),
    # tokens that Python's json reads, though JSON has no such numbers
    ("[NaN, 0.0]", "matrix entries must be finite"),
    ("[0.0, Infinity]", "matrix entries must be finite"),
    ("[-Infinity, 0.0]", "matrix entries must be finite"),
    ("[1" + "0" * 400 + ", 0]", "malformed matrix entries: int too large to "
     "convert to float"),
])
def test_matrix_json_refuses_each_malformed_entry(entry, message):
    obj = json.loads(f'{{"rows": 1, "cols": 1, "data": [{entry}]}}')
    with pytest.raises(ValueError) as info:
        matrix_from_json(obj)
    assert str(info.value) == message


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


def test_plain_triple_reads_the_same_in_every_wire_form():
    # the identity list is what triple_to_json writes for a plain triple;
    # files with the key missing or null, as older writers left them, load
    # to the same triple
    t = random_triple(np.random.default_rng(5), 2, 1, label="plain")
    wire = _through_wire(triple_to_json(t))
    assert wire["basis_map"] == [0, 1, 2]
    missing = {k: v for k, v in wire.items() if k != "basis_map"}
    for obj in (wire, dict(wire, basis_map=None), missing):
        back = triple_from_json(obj)
        assert back.basis_map.tolist() == [0, 1, 2]
        assert back.space == t.space and back.label == t.label
        assert np.array_equal(back.dirac, t.dirac)
        assert all(map(np.array_equal, back.generators, t.generators))
        assert triple_to_json(back) == triple_to_json(t)


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


def _with(obj, path, value):
    """Deep copy of a wire object with the entry at path replaced."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    inner = obj
    for key in head:
        inner = inner[key]
    inner[last] = value
    return obj


_TRIPLE = triple_to_json(product_triple(
    random_triple(np.random.default_rng(3), 1, 1),
    random_triple(np.random.default_rng(4), 1, 1)))
_IDEM = idempotent_to_json(Idempotent(np.eye(4), blocks=2))


@pytest.mark.parametrize("load, obj, path, bad", [
    (idempotent_from_json, _IDEM, ("blocks",), 2.9),
    (idempotent_from_json, _IDEM, ("blocks",), True),
    (idempotent_from_json, _IDEM, ("blocks",), "2"),
    (idempotent_from_json, _IDEM, ("matrix", "rows"), "4"),
    (idempotent_from_json, _IDEM, ("matrix", "cols"), 4.0),
    (triple_from_json, _TRIPLE, ("dim_even",), 2.5),
    (triple_from_json, _TRIPLE, ("dim_odd",), True),
    (triple_from_json, _TRIPLE, ("basis_map", 1), 1.0),
    (triple_from_json, _TRIPLE, ("dirac", "rows"), "4"),
    (matrix_from_json, matrix_to_json(np.eye(2)), ("rows",), "2"),
    (matrix_from_json, matrix_to_json(np.eye(2)), ("cols",), 2.0),
])
def test_json_integer_fields_reject_non_integers(load, obj, path, bad):
    load(obj)
    with pytest.raises(ValueError, match="must be an integer"):
        load(_with(obj, path, bad))


def test_json_integer_fields_accept_numpy_integers():
    back = idempotent_from_json(dict(_IDEM, blocks=np.int64(2)))
    assert back.blocks == 2 and type(back.blocks) is int
    obj = dict(_TRIPLE, dim_even=np.int32(2), dim_odd=np.int64(2),
               basis_map=np.array(_TRIPLE["basis_map"]))
    assert triple_from_json(obj).space == triple_from_json(_TRIPLE).space
