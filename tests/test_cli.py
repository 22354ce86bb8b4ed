import dataclasses
import json
import math
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

import jlolab
from jlolab import cli, suites
from jlolab.cli import _sample_regions, main
from jlolab.linalg import GradedSpace
from jlolab.spectral import (
    Idempotent,
    SpectralTripleFD,
    idempotent_to_json,
    triple_to_json,
)
from jlolab.suites import MAX_MC_SAMPLES, RunConfig, run_suite

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
        RunConfig(seed=-3)
    # one sample's standard error is 0, which exact_vs_mc divides by
    with pytest.raises(ValueError, match="mc_samples must be at least 2"):
        RunConfig(mc_samples=1)
    assert RunConfig(mc_samples=2).mc_samples == 2
    for field, bad in [("seed", 1.5), ("trials", "1"), ("max_degree", 1.5),
                       ("mc_samples", 2.5), ("trials", True)]:
        with pytest.raises(ValueError):
            RunConfig(**{field: bad})
    # exactly the settings run_suite reads
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "seed", "dims", "max_degree", "trials", "mc_samples"]
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


@pytest.mark.parametrize("seed", [3, 11])
def test_run_suite_returns_the_rows_verify_reports(tmp_path, seed):
    small = {"trials": 1, "dims": [[1, 1]], "max_degree": 1,
             "mc_samples": 500}
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(small))
    assert main(["verify", "--seed", str(seed), "--config", str(cfg),
                 "--report", str(report)]) == 0
    rows = json.loads(report.read_text())["identities"]
    assert run_suite(RunConfig(seed=seed, **small)) == rows


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


def test_verify_a_row_over_its_tolerance_fails(tmp_path, fast_cfg,
                                               monkeypatch, capsys):
    name, tol, _ = suites.IDENTITIES[0]
    monkeypatch.setattr(suites, "IDENTITIES", (
        (name, tol, lambda rng, dims, **kw: 10 * tol),
        *suites.IDENTITIES[1:]))
    report = tmp_path / "report.json"
    assert main(["verify", "--config", fast_cfg,
                 "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()
            if line.endswith("FAIL")] == [name]
    summary = json.loads(report.read_text())["summary"]
    assert summary["failed"] == 1 and summary["all_pass"] is False


@pytest.mark.parametrize("trials", [
    (np.nan, np.nan, np.nan), (1e-20, np.nan, 1e-20)])
def test_verify_a_nan_residual_fails_its_row(tmp_path, monkeypatch, capsys,
                                             trials):
    # a NaN in any trial is the row's residual: printed, reported, failed
    name, tol, _ = suites.IDENTITIES[0]
    values = iter(trials)
    monkeypatch.setattr(suites, "IDENTITIES", (
        (name, tol, lambda rng, dims, **kw: next(values)),))
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"trials": 3}))
    assert main(["verify", "--config", str(cfg),
                 "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == [name, "nan", f"{tol:.1e}", "FAIL"]
    assert '"residual": NaN' in report.read_text()
    data = json.loads(report.read_text())
    assert data["identities"][0]["pass"] is False
    assert data["summary"] == {"checks": 1, "passed": 0, "failed": 1,
                               "all_pass": False}


@pytest.mark.parametrize("where, error", [
    ("a directory", IsADirectoryError),
    ("a missing directory", FileNotFoundError)])
def test_verify_refuses_an_unwritable_report_before_any_identity(
        tmp_path, monkeypatch, capsys, where, error):
    def refuse(config):
        raise AssertionError("ran the suite")

    monkeypatch.setattr(cli, "run_suite", refuse)
    path = tmp_path if where == "a directory" else tmp_path / "no" / "r.json"
    with pytest.raises(error) as exc:
        open(path, "w")
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write the report: {exc.value}\n"
    assert not (tmp_path / "no").exists()


def test_space_over_the_memory_bound_exits_two_before_any_identity(
        tmp_path, monkeypatch, capsys):
    # cyclic_shuffle_triple's degree-6 block, 120 rows x 7 slots x s^6
    # complex entries on three spaces of total s, stays under 1 GB
    assert 120 * 7 * suites.MAX_SPACE_DIM ** 6 * 16 < 1e9
    assert RunConfig(dims=((3, 3), (6, 0))).dims == ((3, 3), (6, 0))

    def refuse(config):
        raise AssertionError("ran the suite")

    monkeypatch.setattr(cli, "run_suite", refuse)
    path = tmp_path / "big.json"
    for pair in ([16, 0], [4, 3], [0, 7]):
        path.write_text(json.dumps(
            {"dims": [pair], "trials": 1, "max_degree": 1}))
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: invalid configuration: dimension pair "
                       f"{tuple(pair)} exceeds total dimension 6\n")


def test_mc_samples_over_the_bound_exit_two(tmp_path, capsys):
    assert RunConfig(mc_samples=MAX_MC_SAMPLES).mc_samples == MAX_MC_SAMPLES
    message = f"mc_samples must be at most {MAX_MC_SAMPLES}"
    with pytest.raises(ValueError, match=message):
        RunConfig(mc_samples=MAX_MC_SAMPLES + 1)
    # trials 0 keeps short a run that took the count
    cfg = tmp_path / "cfg.json"
    for raw, flags in (({"trials": 0}, ["--mc-samples", "100000000000"]),
                       ({"trials": 0, "mc_samples": 10 ** 400}, [])):
        cfg.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(cfg), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: invalid configuration: {message}\n"


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
                {"mc_samples": 2.5}, {"mc_samples": 1}, {"seed": -3},
                {"tolerance": "1e-3"}, {"dims": [[1.5, 1]]}):
        bad.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(bad)]) == 2
        # decompose takes no --config: argparse rejects the flag itself
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--shuffle", "1", "1", "--config", str(bad)])
        assert exc.value.code == 2
    assert main(["verify", "--seed", "-3"]) == 2
    assert main(["decompose", "--cyclic", "1", "--seed", "-3"]) == 2


def test_config_file_cannot_name_a_report(tmp_path, capsys):
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    for path in (str(report), "", 2):
        cfg.write_text(json.dumps({"trials": 0, "report_path": path}))
        assert main(["verify", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: invalid configuration: unknown config keys: "
                       "['report_path']\n")
        assert not report.exists()


def test_report_flag_writes_the_report(tmp_path, capsys):
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"trials": 0}))
    assert main(["verify", "--config", str(cfg),
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["config"] == {"seed": 42, "dims": [[1, 1], [2, 1]],
                              "max_degree": 3, "trials": 0,
                              "mc_samples": 20_000}
    assert data["summary"]["checks"] == 0


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


def _write_amplified(tmp_path, k=2):
    """An idempotent over M_k: the rank-1 even projection (x) diag(1, 0, ...)."""
    path = tmp_path / f"amplified{k}.json"
    path.write_text(json.dumps(idempotent_to_json(Idempotent(
        np.kron(np.diag([1.0, 0.0]), np.diag([1.0] + [0.0] * (k - 1))),
        blocks=k))))
    return str(path)


@pytest.mark.parametrize("case", ["plain times amplified",
                                  "amplified times the unit",
                                  "amplified times amplified"])
def test_index_times_with_an_amplified_idempotent_checks_the_product(
        tmp_path, capsys, case):
    # the product pair is the product of the two checked (ampliated)
    # triples, so the product law holds for amplified factors too; the
    # unit of C^{1|1} has index 0, each rank-1 even projection +1
    tp, ep = _write_pair(tmp_path)
    a2, a3 = _write_amplified(tmp_path, 2), _write_amplified(tmp_path, 3)
    argv, (i1, i2) = {
        "plain times amplified": ([tp, ep, "--times", tp, a2], (1, 1)),
        "amplified times the unit": ([tp, a2, "--times", tp], (1, 0)),
        "amplified times amplified": ([tp, a2, "--times", tp, a3], (1, 1)),
    }[case]
    assert main(["index", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == [
        "factor 1:", "factor 2:", "product:"]
    assert [line for line in lines if line.startswith("  fredholm")] == [
        f"  fredholm index    : {i:+d}" for i in (i1, i2, i1 * i2)]
    assert lines[-1] == (f"  product law       : {i1 * i2:+d} vs "
                         f"{i1:+d} * {i2:+d} = {i1 * i2:+d}")


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


def test_index_reads_a_small_complex_dirac_that_validation_accepts(
        tmp_path, capsys):
    # |D - D^*| = 1e-11 passes validate_triple; the heat kernel and the
    # kernel projection must read the same D, not refuse it for being small
    dirac = np.array([[0, 1e-3 + 1e-11j], [1e-3, 0]])
    t = SpectralTripleFD(GradedSpace(1, 1), dirac, (np.eye(2),))
    tp, ep = tmp_path / "t.json", tmp_path / "e.json"
    tp.write_text(json.dumps(triple_to_json(t)))
    ep.write_text(json.dumps(idempotent_to_json(Idempotent(np.eye(2)))))
    assert main(["index", str(tp), str(ep)]) == 0
    out, err = capsys.readouterr()
    assert "fredholm index    : +0" in out
    assert err == ""


def test_index_tilted_idempotent_exits_two(tmp_path, capsys):
    # a projection that is not even is rejected before any pairing, as the
    # first factor and as the second
    tp, ep = _write_pair(tmp_path)
    import math
    c, s = math.cos(0.5), math.sin(0.5)
    tilted = np.array([[c * c, c * s], [c * s, s * s]])
    bad = tmp_path / "tilted.json"
    bad.write_text(json.dumps(idempotent_to_json(Idempotent(tilted))))
    for argv in ([tp, str(bad)], [tp, ep, "--times", tp, str(bad)]):
        code = main(["index"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error: idempotent must be even" in captured.err
        assert captured.out == ""


def test_index_non_integer_fields_exit_two(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    triple, idem = (json.loads((tmp_path / name).read_text())
                    for name in ("t.json", "e.json"))
    bad = tmp_path / "bad.json"
    for path, obj in ((tp, dict(triple, dim_even=1.5)),
                      (tp, dict(triple, dim_odd=True)),
                      (ep, dict(idem, blocks=1.0)),
                      (ep, dict(idem, matrix=dict(idem["matrix"], rows="2")))):
        bad.write_text(json.dumps(obj))
        argv = [str(bad), ep] if path == tp else [tp, str(bad)]
        assert main(["index"] + argv) == 2
        captured = capsys.readouterr()
        assert "must be an integer" in captured.err
        assert captured.out == ""


def test_index_boolean_matrix_entries_exit_two(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path)
    triple, idem = (json.loads((tmp_path / name).read_text())
                    for name in ("t.json", "e.json"))
    bad = tmp_path / "bad.json"
    for path, obj, key in ((tp, triple, "dirac"), (ep, idem, "matrix")):
        data = [list(x) for x in obj[key]["data"]]
        data[0] = [True, False]
        bad.write_text(json.dumps(dict(obj, **{key: dict(obj[key], data=data)})))
        argv = [str(bad), ep] if path == tp else [tp, str(bad)]
        assert main(["index"] + argv) == 2
        captured = capsys.readouterr()
        assert "booleans" in captured.err
        assert captured.out == ""


def test_index_zero_idempotent_is_zero_both_ways(tmp_path, capsys):
    # rank 0: the compression is empty and both sides read +0, as the first
    # factor and as the second
    tp, ep = _write_pair(tmp_path)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(idempotent_to_json(
        Idempotent(np.zeros((2, 2))))))
    assert main(["index", tp, str(zero)]) == 0
    out = capsys.readouterr().out
    assert "character pairing : +0.000000000" in out
    assert "fredholm index    : +0" in out
    assert main(["index", tp, ep, "--times", tp, str(zero)]) == 0
    out = capsys.readouterr().out
    assert out.count("fredholm index    : +0") == 2
    assert out.count("character pairing : +0.000000000") == 2
    assert "+0 vs +1 * +0 = +0" in out


def test_index_near_zero_imaginary_block_reads_plus_one(tmp_path, capsys):
    # diag(1, 1e-12j) passes the idempotent checks; its range is the even
    # line of the flat 1|1 triple, so both sides read +1
    tp, _ = _write_pair(tmp_path, scale=0.0)
    ep = tmp_path / "noisy.json"
    ep.write_text(json.dumps(idempotent_to_json(
        Idempotent(np.diag([1.0, 1e-12j])))))
    assert main(["index", tp, str(ep)]) == 0
    out = capsys.readouterr().out
    assert "character pairing : +1.000000000" in out
    assert "fredholm index    : +1" in out


def test_index_validates_each_pair_once(tmp_path, monkeypatch, capsys):
    # one check per factor and one for the product, and no index route
    # behind them checks again
    from jlolab import cli, spectral

    tp, ep = _write_pair(tmp_path)
    calls = []
    check = spectral.validate_idempotent

    def counted(triple, idem):
        calls.append(idem.blocks)
        return check(triple, idem)

    monkeypatch.setattr(cli, "validate_idempotent", counted)
    monkeypatch.setattr(spectral, "validate_idempotent", counted)
    assert main(["index", tp, ep, "--times", tp, ep]) == 0
    assert "product law" in capsys.readouterr().out
    assert len(calls) == 3


def test_index_refuses_a_pair_over_the_dimension_bound(tmp_path, monkeypatch,
                                                      capsys):
    # every pair counts, ampliation and product included, and the bound is
    # checked before any pair is validated or any product built
    def refuse(*args):
        raise AssertionError("built a pair past the bound")

    tp, ep = _write_pair(tmp_path)
    amplified = _write_amplified(tmp_path)
    monkeypatch.setattr(cli, "INDEX_DIM_LIMIT", 3)
    monkeypatch.setattr(cli, "validate_idempotent", refuse)
    monkeypatch.setattr(cli, "product_triple", refuse)
    # the amplified product is 2 x 4
    for argv, dim in (([tp, ep, "--times", tp], 4), ([tp, amplified], 4),
                      ([tp, ep, "--times", tp, amplified], 8)):
        assert main(["index", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: Hilbert dimension {dim} is over the bound of 3\n"
    monkeypatch.undo()
    # the bound is inclusive
    monkeypatch.setattr(cli, "INDEX_DIM_LIMIT", 4)
    assert main(["index", tp, ep, "--times", tp]) == 0
    assert "product law" in capsys.readouterr().out


def test_index_refuses_an_oversize_file_before_decoding_it(tmp_path,
                                                          monkeypatch, capsys):
    # the declared sizes are checked as soon as the files are loaded: no
    # triple is decoded and validated past the bound
    from jlolab import spectral

    def refuse(*args):
        raise AssertionError("validated a triple past the bound")

    tp, ep = _write_pair(tmp_path)
    amplified = _write_amplified(tmp_path)
    wide = tmp_path / "wide.json"
    d = cli.INDEX_DIM_LIMIT + 1
    wide.write_text(json.dumps(triple_to_json(SpectralTripleFD(
        GradedSpace(d // 2 + 1, d // 2), np.zeros((d, d)), ()))))
    monkeypatch.setattr(spectral, "validate_triple", refuse)
    assert main(["index", str(wide), ep]) == 2
    assert capsys.readouterr() == (
        "", f"error: Hilbert dimension {d} is over the bound of {d - 1}\n")
    monkeypatch.setattr(cli, "INDEX_DIM_LIMIT", 3)
    for argv, dim in (([tp, ep, "--times", tp], 4), ([tp, amplified], 4),
                      ([tp, ep, "--times", tp, amplified], 8)):
        assert main(["index", *argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: Hilbert dimension {dim} is over the bound of 3\n")
    # a size field that is not a plain integer in range is decoding's to
    # refuse, with its own message
    obj = json.loads(wide.read_text())
    for key, value, message in (("dim_even", str(d), "dim_even must be an "
                                 "integer"),
                                ("dim_odd", -1, "dimensions must be "
                                 "non-negative")):
        wide.write_text(json.dumps(dict(obj, **{key: value})))
        assert main(["index", str(wide), ep]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_index_kick_whose_tail_is_under_the_threshold_exits_zero(tmp_path,
                                                                capsys):
    # the pairing terms at kick 0.2 reach degree 12 over the truncation
    # threshold, but the bound's tail past it is under it
    tp, ep = _write_pair(tmp_path, scale=0.2)
    assert main(["index", tp, ep]) == 0
    out = capsys.readouterr().out
    assert "character pairing : +1.000000000  (truncated at degree 12," in out
    assert "fredholm index    : +1" in out


def test_index_kick_beyond_degree_cap_exits_one(tmp_path, capsys):
    tp, ep = _write_pair(tmp_path, scale=1.0)
    code = main(["index", tp, ep])
    err = capsys.readouterr().err
    assert code == 1
    assert "check failed: pairing terms still at" in err
    # at 6 the terms stop at degree 2 on values near e^{-36}, before the peak
    tp, ep = _write_pair(tmp_path, scale=6.0)
    assert main(["index", tp, ep]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("check failed: pairing terms stopped at degree 2")


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_index_dirac_whose_square_overflows_exits_two(tmp_path, capsys,
                                                     scale):
    # D^2 + (D^2)^* overflows at 1e154, D^2 itself at 1e200: refused
    # before any pairing degree runs, with no numpy warning
    tp, ep = _write_pair(tmp_path, scale=scale)
    assert main(["index", tp, ep]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Delta = D^2 overflows the float range\n"


def test_index_integer_past_the_float_range_exits_two(tmp_path, capsys):
    # complex() of a JSON integer with 401 digits raises OverflowError
    tp, ep = _write_pair(tmp_path)
    big = tmp_path / "big.json"
    big.write_text((tmp_path / "t.json").read_text().replace(
        "[0.1, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1))
    assert main(["index", str(big), ep]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: malformed matrix entries: int too large to "
                   "convert to float\n")


@pytest.mark.parametrize("command", ["index", "verify"])
def test_json_nested_past_the_recursion_limit_exits_two(tmp_path, capsys,
                                                        command):
    # json.load raises RecursionError on it; the one reader refuses that
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if command == "index":
        argv, prefix = ["index", str(deep), _write_pair(tmp_path)[1]], ""
    else:
        argv, prefix = (["verify", "--config", str(deep)],
                        "invalid configuration: ")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {prefix}JSON nesting is too deep to decode\n"


def _write_labelled_triple(tmp_path, prefix=b""):
    """The kick-0.1 triple of `_write_pair`, labelled "kick \u00e9" and
    written as UTF-8 after prefix."""
    t = SpectralTripleFD(GradedSpace(1, 1), 0.1 * X, (np.eye(2),),
                         label="kick \u00e9")
    path = tmp_path / "labelled.json"
    path.write_bytes(prefix + json.dumps(triple_to_json(t),
                                         ensure_ascii=False).encode("utf-8"))
    return str(path)


def test_index_reads_utf8_json_under_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259 section 8.1); under the POSIX locale, with
    # neither locale coercion nor UTF-8 mode, Python's default text
    # encoding is ASCII, which cannot read the label's two-byte character
    tp = _write_labelled_triple(tmp_path)
    ep = _write_pair(tmp_path)[1]
    env = dict(os.environ, LC_ALL="POSIX", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(jlolab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "jlolab", "index", tp, ep],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert b"character pairing : +1.000000000" in proc.stdout
    assert b"fredholm index    : +1" in proc.stdout


@pytest.mark.parametrize("prefix, raw, message", [
    (b"\xef\xbb\xbf", None, "Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (b"", b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (b"", "{}".encode("utf-16"), "'utf-8' codec can't decode byte 0xff in "
     "position 0: invalid start byte"),
])
def test_index_refuses_json_that_is_not_plain_utf8(tmp_path, capsys, prefix,
                                                   raw, message):
    # a BOM, an invalid UTF-8 byte and UTF-16 are refused, not guessed at
    tp = _write_labelled_triple(tmp_path, prefix)
    if raw is not None:
        (tmp_path / "labelled.json").write_bytes(raw)
    assert main(["index", tp, _write_pair(tmp_path)[1]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_json_errors_count_each_line_break_once(tmp_path, capsys, newline):
    # the reader takes \r\n and \r as one line break each, as a text-mode
    # read does, so an error's line, column and position count them so
    bad = tmp_path / "bad.json"
    bad.write_bytes(newline.join([b"{", b'"dim_even": 1,', b' "x": }', b""]))
    assert main(["index", str(bad), _write_pair(tmp_path)[1]]) == 2
    assert capsys.readouterr().err == (
        "error: Expecting value: line 3 column 7 (char 23)\n")


def test_main_calls_in_one_process_share_no_state(tmp_path, monkeypatch,
                                                   capsys):
    import argparse

    from jlolab import cli, suites

    tp, ep = _write_pair(tmp_path)
    seen = []
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch",
                        lambda args: seen.append(args) or dispatch(args))
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or
                        init(self, *a, **kw))
    with pytest.raises(SystemExit) as exc:
        main(["index", tp, ep, "--seed", "1"])
    assert exc.value.code == 2
    assert main(["index", tp, ep, "--times", tp]) == 0
    assert "product law" in capsys.readouterr().out
    assert main(["index", tp, ep]) == 0
    assert "product law" not in capsys.readouterr().out
    assert main(["decompose", "--cyclic", "1", "1", "--samples", "10"]) == 0
    assert "enumerated regions: 12" in capsys.readouterr().out
    times, plain, decompose = seen
    assert times.times == [tp] and plain.times is None
    assert vars(plain) == {"command": "index", "triple": tp,
                           "idempotent": ep, "times": None}
    assert vars(decompose) == {"command": "decompose", "shuffle": None,
                               "cyclic": [1, 1], "samples": 10, "seed": 42}
    assert built == []


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


# stdout of the decompose calls perfbench's `algebra` workload makes, plus
# a cyclic table and a sparse cyclic run, at --seed 7; frozen from the
# dict-based region lookup that the byte-key search replaced, and held
# unchanged by the integer order keys and whole-array statistics that
# replaced the byte keys and the per-region loop.  The two runs
# with a degree-0 block were frozen from the separate shuffle and cyclic
# routines that cmd_decompose replaced.
DECOMPOSE_STDOUT = {
    "--shuffle 3 2 --samples 4000": """\
shuffle decomposition, degrees (3, 2)
  enumerated regions: 10
  closed form binomial(5, 3): 10
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.100000
    region      hits   fraction       z
         0       372    0.09300   -1.48
         1       401    0.10025    0.05
         2       403    0.10075    0.16
         3       419    0.10475    1.00
         4       448    0.11200    2.53
         5       371    0.09275   -1.53
         6       413    0.10325    0.69
         7       409    0.10225    0.47
         8       386    0.09650   -0.74
         9       378    0.09450   -1.16
  max |z| over 10 populated regions: 2.53
""",
    "--shuffle 4 4 --samples 4000": """\
shuffle decomposition, degrees (4, 4)
  enumerated regions: 70
  closed form binomial(8, 4): 70
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.014286
  max |z| over 70 populated regions: 3.18
""",
    "--cyclic 1 2 1 --samples 4000": """\
cyclic-shuffle decomposition, 3 blocks of degrees (1, 2, 1)
  enumerated regions: 420
  closed form 7!/(3!*1!*2!*1!): 420
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.002381
  max |z| over 420 populated regions: 2.75
""",
    "--cyclic 1 3 --samples 4000": """\
cyclic-shuffle decomposition, 2 blocks of degrees (1, 3)
  enumerated regions: 60
  closed form 6!/(2!*1!*3!): 60
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.016667
  max |z| over 60 populated regions: 2.31
""",
    "--cyclic 1 1 --samples 4000": """\
cyclic-shuffle decomposition, 2 blocks of degrees (1, 1)
  enumerated regions: 12
  closed form 4!/(2!*1!*1!): 12
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.083333
    region      hits   fraction       z
         0       330    0.08250   -0.19
         1       343    0.08575    0.55
         2       342    0.08550    0.50
         3       353    0.08825    1.13
         4       294    0.07350   -2.25
         5       325    0.08125   -0.48
         6       337    0.08425    0.21
         7       330    0.08250   -0.19
         8       328    0.08200   -0.31
         9       349    0.08725    0.90
        10       309    0.07725   -1.39
        11       360    0.09000    1.53
  max |z| over 12 populated regions: 2.25
""",
    "--cyclic 2 0 1 --samples 4000": """\
cyclic-shuffle decomposition, 3 blocks of degrees (2, 0, 1)
  enumerated regions: 60
  closed form 6!/(3!*2!*0!*1!): 60
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 0.016667
  max |z| over 60 populated regions: 2.39
""",
    "--shuffle 0 3 --samples 4000": """\
shuffle decomposition, degrees (0, 3)
  enumerated regions: 1
  closed form binomial(3, 0): 1
  samples: 4000 located, 4000 used, 0 tied/skipped
  expected volume fraction per region: 1.000000
    region      hits   fraction       z
         0      4000    1.00000    0.00
  max |z| over 1 populated regions: 0.00
""",
    "--cyclic 2 1 1 --samples 300": """\
cyclic-shuffle decomposition, 3 blocks of degrees (2, 1, 1)
  enumerated regions: 420
  closed form 7!/(3!*2!*1!*1!): 420
  samples: 300 located, 300 used, 0 tied/skipped
  expected volume fraction per region: 0.002381
  WARNING: 217 regions received no samples
  max |z| over 203 populated regions: 3.89
""",
}


@pytest.mark.parametrize("args", sorted(DECOMPOSE_STDOUT))
def test_decompose_stdout_is_frozen(args, capsys):
    assert main(["decompose", *args.split(), "--seed", "7"]) == 0
    out, err = capsys.readouterr()
    assert out == DECOMPOSE_STDOUT[args]
    assert err == ""


def test_sample_regions_counts_strays_and_ties(capsys):
    perms = jlolab.enumerate_shuffles(1, 1)
    # row 0 sorts as (1, 2), row 2 as (2, 1); row 1 is an exact tie
    values = np.array([[0.1, 0.2], [0.3, 0.3], [0.5, 0.4], [0.2, 0.7]])
    assert _sample_regions(perms, values) == 0
    out, err = capsys.readouterr()
    assert "samples: 4 located, 3 used, 1 tied/skipped" in out
    assert "         0         2    0.66667" in out
    assert "         1         1    0.33333" in out
    assert err == ""
    # without the row (2, 1), the sample sorted by it falls outside
    assert _sample_regions(perms[:1], values) == 1
    out, err = capsys.readouterr()
    assert "samples: 4 located, 2 used, 1 tied/skipped" in out
    assert "         0         2    1.00000" in out
    assert err == "  WARNING: 1 samples fell outside every region\n"



def _image_of(order):
    """The 1-based image row of a sorting order: item order[pos] lands in
    slot pos + 1."""
    image = [0] * len(order)
    for pos, item in enumerate(order):
        image[item] = pos + 1
    return image


def test_sample_regions_keys_are_exact_at_the_widest_width(monkeypatch,
                                                            capsys):
    # width-16 sorting orders that lead with 15, 14, ...: read as base 16
    # over all 16 entries they pass 2**63; a and b differ only in their
    # last two entries, so a float64 key (exact to 2**53) merges them
    a = tuple(range(15, -1, -1))
    b = a[:14] + (a[15], a[14])
    assert sum(d * 16 ** (15 - j) for j, d in enumerate(a)) >= 2 ** 63
    assert float(sum(d * 16 ** (14 - j) for j, d in enumerate(a[:15]))) \
        == float(sum(d * 16 ** (14 - j) for j, d in enumerate(b[:15])))
    rng = np.random.default_rng(34)
    others = [(15, 14, *rng.permutation(14).tolist()) for _ in range(4)]
    stray = a[:12] + (a[13], a[12]) + a[14:]
    # others[0] is a region twice: of equal rows the last one counts
    perms = np.array([_image_of(o) for o in (a, b, *others, others[0])])
    picks = ([a] * 3 + [b] * 5 + [o for k, o in enumerate(others)
                                   for _ in range(k + 1)] + [stray] * 2)
    rows = []
    for order in picks:
        row = np.empty(16)
        row[list(order)] = np.arange(16) / 16.0
        rows.append(row)
    rows += [np.full(16, 0.5), np.r_[np.arange(15) / 16.0, 0.0]]
    values = np.array(rows)[rng.permutation(len(rows))]

    region_of = {tuple(p): k for k, p in enumerate(perms.tolist())}
    expected, strays, tied = [0] * len(perms), 0, 0
    for row in values.tolist():
        if len(set(row)) < len(row):
            tied += 1
            continue
        image = _image_of(sorted(range(16), key=row.__getitem__))
        k = region_of.get(tuple(image))
        if k is None:
            strays += 1
        else:
            expected[k] += 1
    assert (expected[:2], expected[2], expected[-1], strays, tied) \
        == ([3, 5], 0, 1, 2, 2)

    seen = []
    monkeypatch.setattr(cli, "_print_volume_stats",
                        lambda *args: seen.append(args))
    assert _sample_regions(perms, values) == 1
    (counts, located, skipped), = seen
    assert counts.tolist() == expected
    assert (located, skipped) == (len(values), tied)
    assert capsys.readouterr().err == \
        f"  WARNING: {strays} samples fell outside every region\n"


def test_decompose_admits_no_family_wider_than_sixteen():
    # the width bound _order_keys states.  A shuffle pair is at most
    # 2 * DECOMPOSE_DEGREE_LIMIT wide.  A cyclic enumeration holds at
    # least its first rows (the ordered partitions) and its last (the
    # regions); adding a block never lowers the first, so the search ends
    limit, budget = cli.DECOMPOSE_DEGREE_LIMIT, cli.DECOMPOSE_ROW_BUDGET
    assert 2 * limit <= 16
    widest, stack = 0, [()]
    while stack:
        ps = stack.pop()
        r, n = len(ps), len(ps) + sum(ps)
        first = math.factorial(n) // math.prod(
            math.factorial(p + 1) for p in ps)
        if first > budget:
            continue
        last = math.factorial(n) // (math.factorial(r) * math.prod(
            math.factorial(p) for p in ps))
        if ps and last <= budget:
            widest = max(widest, n)
        stack += [ps + (p,) for p in range(ps[-1] if ps else 0, limit + 1)]
    assert widest == 16
    assert jlolab.cyclic_shuffle_peak_rows((0, 0, 6, 6)) <= budget
    assert 16 ** 15 < 2 ** 63


def test_decompose_budget_counts_rows_before_enumerating(monkeypatch, capsys):
    # 665,280 regions fit the budget, but the enumeration would first build
    # 12!/(2!)^6 = 7,484,400 ordered partitions and keep twice as many rows
    # after choosing the first lead
    def refuse(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(cli, "enumerate_cyclic_shuffles", refuse)
    monkeypatch.setattr(jlolab.shuffles, "_ordered_partitions", refuse)
    assert main(["decompose", "--cyclic", "1", "1", "1", "1", "1", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 665280 regions take 14968800 rows to enumerate, "
                   f"over the budget of {cli.DECOMPOSE_ROW_BUDGET}\n")


def test_decompose_refuses_samples_over_the_row_budget(monkeypatch, capsys):
    # 10^12 samples would be 10^12 rows; nothing is drawn or enumerated
    def refuse(*args):
        raise AssertionError("drew or enumerated past the budget")

    for name in ("sample_simplex_batch", "enumerate_shuffles",
                 "enumerate_cyclic_shuffles"):
        monkeypatch.setattr(cli, name, refuse)
    for mode in (["--shuffle", "2", "2"], ["--cyclic", "1", "1"]):
        assert main(["decompose", *mode,
                     "--samples", "1000000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --samples 1000000000000 is over the budget "
                       f"of {cli.DECOMPOSE_ROW_BUDGET}\n")


def test_decompose_samples_budget_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "DECOMPOSE_ROW_BUDGET", 50)
    for mode in (["--shuffle", "2", "2"], ["--cyclic", "1", "1"]):
        assert main(["decompose", *mode, "--samples", "50"]) == 0
        assert "samples: 50 located" in capsys.readouterr().out
        assert main(["decompose", *mode, "--samples", "51"]) == 2
        assert capsys.readouterr().err == (
            "error: --samples 51 is over the budget of 50\n")


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


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["python -m jlolab", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("jlolab", run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(cmd in out for cmd in ("verify", "index", "decompose"))


def test_closed_stdout_exits_one_without_traceback():
    # the reader closes the pipe before the command writes anything
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(jlolab.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "jlolab", "decompose", "--shuffle", "2", "2",
         "--samples", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a full device")
@pytest.mark.parametrize("args, to_full", [
    (["verify", "--config", "SMALL", "--report", "/dev/full"], False),
    (["decompose", "--shuffle", "2", "2", "--samples", "100"], True)])
def test_write_to_a_full_device_exits_one_with_one_error_line(
        tmp_path, args, to_full):
    # the report, or stdout itself, is a device that refuses every write;
    # a subprocess, so that the flush at interpreter exit counts as well
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"trials": 1, "dims": [[1, 1]],
                                 "max_degree": 1, "mc_samples": 500}))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(jlolab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "jlolab",
             *[str(small) if a == "SMALL" else a for a in args]],
            stdout=full if to_full else subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == (b"error: cannot write the output: "
                           b"[Errno 28] No space left on device\n")
    if not to_full:
        assert proc.stdout.endswith(b"identities passed\n")
