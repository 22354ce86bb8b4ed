import json

import numpy as np
import pytest

from jlolab.cli import RunConfig, main
from jlolab.linalg import GradedSpace
from jlolab.spectral import (
    Idempotent,
    SpectralTripleFD,
    idempotent_to_json,
    triple_to_json,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 1, "mc_samples": 2000}))
    return str(path)


def _write_pair(tmp_path, scale=0.1):
    t = SpectralTripleFD(GradedSpace(1, 1), scale * X, (np.eye(2),))
    e = Idempotent(np.diag([1.0, 0.0]).astype(np.complex128))
    tp = tmp_path / "t.json"
    ep = tmp_path / "e.json"
    tp.write_text(json.dumps(triple_to_json(t)))
    ep.write_text(json.dumps(idempotent_to_json(e)))
    return str(tp), str(ep)


def test_run_config_validation():
    cfg = RunConfig()
    assert cfg.seed == 42 and cfg.max_degree <= 4
    with pytest.raises(ValueError):
        RunConfig(max_degree=5)
    with pytest.raises(ValueError):
        RunConfig(dims=((10, 7),))
    with pytest.raises(ValueError):
        RunConfig(dims=())
    with pytest.raises(ValueError):
        RunConfig(trials=-1)
    with pytest.raises(ValueError):
        RunConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        RunConfig(seed=-3)
    for field, bad in [("seed", 1.5), ("trials", "1"), ("max_degree", 1.5),
                       ("mc_samples", 2.5), ("trials", True),
                       ("tolerance", "1e-3"), ("tolerance", True)]:
        with pytest.raises(ValueError):
            RunConfig(**{field: bad})
    for bad in ((1.5, 1), ("2", 1), (True, 1)):
        with pytest.raises(ValueError):
            RunConfig(dims=(bad,))
    assert RunConfig(dims=((np.int64(2), np.int32(1)),)).dims == ((2, 1),)
    cfg = RunConfig(seed=np.int64(7), trials=np.int32(2))
    assert type(cfg.seed) is int and type(cfg.trials) is int


def test_verify_passes_and_writes_versioned_report(tmp_path, fast_cfg, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--config", fast_cfg, "--seed", "7",
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "identities passed" in out
    data = json.loads(report.read_text())
    assert data["schema"] == 1
    assert "timestamp" in data
    assert len(data["identities"]) >= 10
    assert all(row["pass"] for row in data["identities"])
    assert data["summary"]["all_pass"] is True
    assert data["config"]["seed"] == 7
    assert data["config"]["mc_samples"] == 2000


def test_verify_reports_are_deterministic_modulo_timestamp(tmp_path, fast_cfg):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--config", fast_cfg, "--report", str(r1)]) == 0
    assert main(["verify", "--config", fast_cfg, "--report", str(r2)]) == 0

    def strip(path):
        return [line for line in path.read_text().splitlines()
                if '"timestamp"' not in line]

    assert strip(r1) == strip(r2)


def test_verify_zero_trials_warns_and_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 0}))
    report = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 0
    assert "no identity checks" in captured.err
    data = json.loads(report.read_text())
    assert data["summary"]["checks"] == 0


def test_verify_unattainable_tolerance_fails(fast_cfg):
    assert main(["verify", "--config", fast_cfg,
                 "--tolerance", "1e-30"]) == 1


def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"max_degree": 9}))
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"dims": [[12, 9]]}))
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    for raw in ({"seed": 1.5}, {"trials": "1"}, {"max_degree": 1.5},
                {"mc_samples": 2.5}, {"seed": -3}, {"tolerance": "1e-3"},
                {"dims": [[1.5, 1]]}):
        bad.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(bad)]) == 2
        # decompose takes no --config: argparse rejects the flag itself
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--shuffle", "1", "1", "--config", str(bad)])
        assert exc.value.code == 2
    assert main(["verify", "--seed", "-3"]) == 2
    assert main(["decompose", "--cyclic", "1", "--seed", "-3"]) == 2


def test_index_agreement_exits_zero(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    code = main(["index", tp, ep])
    out = capsys.readouterr().out
    assert code == 0
    assert "character pairing" in out
    assert "fredholm index" in out
    assert "+1" in out


def test_index_times_prints_product_law(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    code = main(["index", tp, ep, "--times", tp])
    out = capsys.readouterr().out
    assert code == 0
    assert "product law" in out
    # second factor defaults to the unit idempotent, whose index is 0 here
    assert "+0 vs +1 * +0 = +0" in out


def test_index_times_accepts_second_idempotent(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    code = main(["index", tp, ep, "--times", tp, ep])
    out = capsys.readouterr().out
    assert code == 0
    assert "product law" in out


def test_index_malformed_file_exits_two(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    assert main(["index", str(broken), ep]) == 2
    assert main(["index", tp, str(tmp_path / "missing.json")]) == 2
    # a Hermitian but even Dirac operator, and a NaN Dirac entry
    even = SpectralTripleFD(GradedSpace(1, 1), np.diag([0.3, -0.2]),
                            (np.eye(2),))
    even_path = tmp_path / "even.json"
    even_path.write_text(json.dumps(triple_to_json(even)))
    assert main(["index", str(even_path), ep]) == 2
    nan = json.loads((tmp_path / "t.json").read_text())
    nan["dirac"]["data"][1] = [float("nan"), 0.0]
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps(nan))
    assert main(["index", str(nan_path), ep]) == 2
    capsys.readouterr()


def test_index_non_integer_pairing_exits_one(tmp_path, capsys):
    tp, _ = _write_pair(tmp_path)
    import math
    c, s = math.cos(0.5), math.sin(0.5)
    tilted = np.array([[c * c, c * s], [c * s, s * s]])
    ep = tmp_path / "tilted.json"
    ep.write_text(json.dumps(idempotent_to_json(Idempotent(tilted))))
    code = main(["index", tp, str(ep)])
    err = capsys.readouterr().err
    assert code == 1
    assert "check failed" in err


def test_decompose_shuffle_counts(capsys):
    code = main(["decompose", "--shuffle", "2", "2", "--samples", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "enumerated regions: 6" in out
    assert "binomial(4, 2): 6" in out


def test_decompose_cyclic_counts(capsys):
    code = main(["decompose", "--cyclic", "1", "1", "--samples", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "enumerated regions: 12" in out
    assert "4!/(2!*1!*1!): 12" in out


def test_decompose_degree_overflow_exits_two(capsys):
    assert main(["decompose", "--shuffle", "7", "1"]) == 2
    assert main(["decompose", "--cyclic", "-1"]) == 2
    assert main(["decompose", "--shuffle", "2", "2", "--samples", "-1"]) == 2
    assert main(["decompose", "--cyclic", "1", "1", "--samples", "-1"]) == 2
    assert capsys.readouterr().err.count(
        "error: --samples must be non-negative") == 2


def test_decompose_requires_exactly_one_mode():
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--shuffle", "1", "1", "--cyclic", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    assert exc.value.code == 2


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (["index", "t", "e", "--report", "x"],
                 ["index", "t", "e", "--seed", "1"],
                 ["index", "t", "e", "--config", "f"],
                 ["decompose", "--shuffle", "1", "1", "--tolerance", "1e-3"],
                 ["decompose", "--shuffle", "1", "1", "--config", "f"],
                 ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
