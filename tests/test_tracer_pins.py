"""perfbench's tracer still finds every name it pins in the package, and
its uninstall restores every binding it changed; perfbench's workloads
still run on the package's calling conventions, and one full-size unit of
each workload BENCHMARK.json gates passes perfbench's own checks."""

import importlib
import json
import pathlib
import sys

import pytest

import jlolab.cli  # noqa: F401  (the tracer rebinds names in every module)

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GATED = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "tracer"):
        sys.modules.pop(name, None)


def _bindings(tracer):
    """Every module-level binding in jlolab, and every traced method."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "jlolab"
                                or modname.startswith("jlolab.")):
            for attr, value in vars(mod).items():
                out[modname, attr] = value
    for _layer, modname, clsname, attr in tracer.METHODS:
        cls = getattr(sys.modules[modname], clsname)
        out[modname, clsname, attr] = cls.__dict__[attr]
    return out


def test_install_finds_every_pin_and_uninstall_restores_it(tracer):
    before = _bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings(tracer)
    finally:
        t.uninstall()
    changed = {key for key in before if during[key] is not before[key]}
    assert {("jlolab.jlo", "index_pairing"), ("jlolab.cli", "main"),
            ("jlolab.jlo", "JLOEvaluator", "term_exact"),
            ("jlolab.suites", "IDENTITIES")} <= changed
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["algebra", "cochain", "index", "verify"])
def test_one_small_unit_of_each_workload_runs_clean(workloads, tmp_path,
                                                    name):
    # the unedited perfbench relies on 3-tuple IDENTITIES rows, trial(prng,
    # dims), ElementaryChain and Chain(dim, terms), and basis_map /
    # represent / unrepresent; a unit that runs clean uses all of them
    rec = workloads.Recorder()
    undo = workloads.install_trial_timer(rec) if name == "verify" else None
    try:
        workload = workloads.WORKLOADS[name](0, str(tmp_path), small=True)
        workload.warm_up()
        workload.unit(0, rec)
    finally:
        if undo is not None:
            undo()
    assert rec.latencies
    assert rec.failures == []


@pytest.mark.parametrize("name", GATED)
def test_one_full_size_unit_of_each_gated_workload_runs_clean(
        workloads, tmp_path, name):
    # the units the benchmark times, which the small ones cut short:
    # `decompose` at 4,000 samples, every cyclic tuple and chain law,
    # every `index` call and every cochain triple; about 0.3 s in all
    rec = workloads.Recorder()
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.warm_up()
    workload.unit(0, rec)
    assert rec.latencies
    assert rec.failures == []
