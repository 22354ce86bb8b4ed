import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_accepts_one_value(bench_pairs):
    assert bench_pairs.spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert bench_pairs.spread([1.0, 2.0, 3.0]) == {
        "median": 2.0, "q1": 1.5, "q3": 2.5}


def test_summary_of_a_single_pair(bench_pairs):
    def result(wall):
        return {"failed": 0, "metrics": {"wall_s": {"value": wall}}}
    runs = [{"side": "parent", "workload": "cochain", "seed": 7,
             "result": result(2.0)},
            {"side": "change", "workload": "cochain", "seed": 7,
             "result": result(1.5)}]
    wall = bench_pairs.summarize(runs, "cochain")["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 2.0
    assert wall["change_better_pairs"] == 1
    assert wall["relative_median_change"] == -0.25


def _pair(parent, change):
    """One parent/change pair of runs whose metrics read the given values."""
    return [{"side": side, "workload": "cochain", "seed": 7,
             "result": {"failed": 0, "metrics": {
                 name: {"value": value} for name, value in values.items()}}}
            for side, values in (("parent", parent), ("change", change))]


def test_summary_counts_a_rise_by_the_metric_direction(bench_pairs):
    runs = _pair({"ops_per_s": 10.0, "wall_s": 1.0},
                 {"ops_per_s": 12.0, "wall_s": 1.2})
    metrics = bench_pairs.summarize(runs, "cochain")["metrics"]
    assert metrics["ops_per_s"]["change_better_pairs"] == 1
    assert metrics["wall_s"]["change_better_pairs"] == 0


def test_summary_directions_and_run_length_are_the_benchmarks(bench_pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = _pair(dict.fromkeys(names, 1.0), dict.fromkeys(names, 2.0))
    metrics = bench_pairs.summarize(runs, "cochain")["metrics"]
    assert {name: m["change_better_pairs"] for name, m in metrics.items()} \
        == {m["name"]: int(m["better"] == "higher") for m in spec["end_to_end"]}
    assert bench_pairs.PAIR_SECONDS == spec["run_seconds"]



def _pairs(parent, change):
    """Pairs of runs whose wall_s reads parent[k] and change[k]."""
    return [run for p, c in zip(parent, change)
            for run in _pair({"wall_s": p}, {"wall_s": c})]


def test_summary_states_the_claim_rule(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    rules = ("won_nine_tenths", "gain_beyond_parent_iqr", "gain_claimable")

    def rule(change):
        wall = bench_pairs.summarize(_pairs(parent, change),
                                     "cochain")["metrics"]["wall_s"]
        return tuple(wall[k] for k in rules)
    # 9 of 10 pairs won, but the medians (1.45 and 1.40) lie closer than
    # the parent's quartiles (1.225 and 1.675)
    assert rule([p - 0.05 for p in parent[:9]] + [2.0]) == \
        (True, False, False)
    # every pair won by more than the parent's spread
    assert rule([p - 0.5 for p in parent]) == (True, True, True)
    # far ahead in the median, but 8 of 10 pairs
    assert rule([p - 0.5 for p in parent[:8]] + [3.0, 3.0]) == \
        (False, True, False)
    # far behind: a rise is no gain, however wide
    assert rule([p + 0.5 for p in parent]) == (False, False, False)
    # ties count for neither side
    assert rule(parent) == (False, False, False)


@pytest.mark.parametrize("script, code, stderr", [
    ("import sys; sys.stderr.write('boom\\n'); sys.exit(3)", 3, "boom\n"),
    ("print('== cochain'); print('not json')", 0, "")])
def test_run_without_a_result_line_raises(bench_pairs, tmp_path, script,
                                          code, stderr):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script)
    with pytest.raises(RuntimeError, match=f"exited {code} with no result") \
            as exc:
        bench_pairs.run(str(tmp_path), "cochain", 1, 1, 0)
    assert str(exc.value).endswith(f"stderr ends:\n{stderr}")


def test_run_returns_the_last_line(bench_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('== cochain'); print('{\"failed\": 0}')")
    assert bench_pairs.run(str(tmp_path), "cochain", 1, 1, 0) == {"failed": 0}



def test_cpu_run_reads_the_child_cpu_time(bench_pairs, tmp_path):
    # the stub spins in pure Python, then reports the user CPU it has used
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "x = 0\n"
        "for i in range(3_000_000):\n"
        "    x += i\n"
        "print(json.dumps({'user': os.times().user}))\n")
    result, cpu = bench_pairs.cpu_run(str(tmp_path), "cochain", 1, 1, 0)
    assert cpu["user"] >= result["user"] > 0.0
    assert cpu["system"] >= 0.0


def test_cpu_medians_are_per_side(bench_pairs):
    runs = [{"side": side, "workload": "cochain",
             "cpu_s": {"user": user, "system": user / 10}}
            for side, user in (("parent", 1.0), ("change", 0.5),
                               ("parent", 3.0), ("change", 0.7),
                               ("parent", 2.0), ("change", 0.6))]
    runs.append({"side": "parent", "workload": "index",
                 "cpu_s": {"user": 9.0, "system": 9.0}})
    assert bench_pairs.cpu_medians(runs, "cochain") == {
        "parent": {"user": 2.0, "system": 0.2},
        "change": {"user": 0.6, "system": 0.06}}

def test_src_lines_counts_the_python_files_under_src(bench_pairs, tmp_path):
    files = {"src/pkg/__init__.py": "", "src/pkg/a.py": "x = 1\ny = 2\n",
             "src/pkg/sub/b.py": "z = 3\n\n\n", "src/pkg/notes.txt": "a\nb\n",
             "tests/test_a.py": "assert 1\n", "setup.py": "pass\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bench_pairs.src_lines(tmp_path) == 5


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INDEX_STDOUT = """pair:
  character pairing : +1.000000000  (truncated at degree 4, last term 1.2e-13)
  fredholm index    : +1
  difference        : 4.441e-16
"""


def test_same_outputs_reads_identical_outputs_as_identical(same_outputs):
    outputs = {"index 0: stdout": INDEX_STDOUT, "index 0: exit": "0\n"}
    stream = io.StringIO()
    assert same_outputs.report(outputs, dict(outputs), stream) == 0
    assert stream.getvalue() == "identical\n"


def test_same_outputs_names_a_changed_difference_line(same_outputs):
    parent = {"index 0: stdout": INDEX_STDOUT, "index 0: exit": "0\n"}
    change = dict(parent, **{"index 0: stdout": INDEX_STDOUT.replace(
        "4.441e-16", "6.661e-16")})
    stream = io.StringIO()
    assert same_outputs.report(parent, change, stream) == 1
    diff = stream.getvalue()
    assert "--- parent/index 0: stdout\n+++ change/index 0: stdout\n" in diff
    assert "-  difference        : 4.441e-16\n" in diff
    assert "+  difference        : 6.661e-16\n" in diff
    assert "exit" not in diff


def test_same_outputs_rejected_pairs_each_fail_their_own_check(
        same_outputs, tmp_path, capsys):
    # every rejected `index` input exits 2 on the axiom it is named after,
    # not on a malformed file
    from jlolab import cli
    messages = {"non-Hermitian Dirac": "Dirac hermiticity residual 1.37e-10",
                "even Dirac": "Dirac oddness residual 0.0434",
                "odd generator": "generator evenness residual 0.0622",
                "every triple axiom": "Dirac hermiticity residual 0.0123",
                "non-idempotent": "matrix is not idempotent",
                "non-self-adjoint idempotent": "idempotent is not self-adjoint",
                "odd idempotent": "idempotent must be even",
                "Dirac whose square overflows": "Delta = D^2 overflows",
                "odd generator past the float range":
                    "generator evenness residual nan",
                "Dirac diagonal past the float range":
                    "Dirac oddness residual nan",
                "non-self-adjoint idempotent past the float range":
                    "idempotent is not self-adjoint",
                "Hermitian idempotent past the float range":
                    "matrix is not idempotent"}
    jobs = dict(same_outputs.jobs(str(tmp_path), []))
    for what, message in messages.items():
        assert cli.main(jobs[f"index, {what}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert len(same_outputs.BAD_PAIRS) == len(messages)


def test_same_outputs_random_pairs_reach_degree_eight(same_outputs,
                                                      tmp_path, capsys):
    # the mid-dimension `index` jobs run the pairing's kernel to degree 8 or
    # more, so a change in it shows in their printed values
    from jlolab import cli
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = json.loads(subprocess.run(
        [sys.executable, "-c", same_outputs.WRITE_RANDOM_PAIRS,
         str(same_outputs.INDEX_SEED), str(tmp_path),
         json.dumps(same_outputs.RANDOM_PAIRS)], env=env,
        capture_output=True, text=True, check=True).stdout)
    assert [name for name, _ in calls] == [
        "index, random 4|4 at 0.05", "index, random 8|8 at 0.05"]
    jobs = dict(same_outputs.jobs(str(tmp_path), calls))
    for name, _ in calls:
        assert cli.main(jobs[name]) == 0
        out = capsys.readouterr().out
        degree = int(re.search(r"truncated at degree (\d+)", out).group(1))
        assert degree >= 8, name


def test_same_outputs_edge_pairs_run_the_dense_kernel(same_outputs, tmp_path,
                                                     monkeypatch, capsys):
    # each tolerance-edge idempotent is accepted, and its pairing opens its
    # strings in one half of d = 4 rows, not in two halves of 2
    from jlolab import cli
    from jlolab.jlo import JLOEvaluator
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    calls = json.loads(subprocess.run(
        [sys.executable, "-c", same_outputs.WRITE_EDGE_PAIRS,
         str(same_outputs.INDEX_SEED), str(tmp_path),
         json.dumps(same_outputs.EDGE_EPSILONS)], env=env,
        capture_output=True, text=True, check=True).stdout)
    assert [name for name, _ in calls] == [
        "index, tolerance-edge idempotent at 5.5e-13",
        "index, tolerance-edge idempotent at 6.5e-13"]
    opened, open_ = set(), JLOEvaluator._string_open

    def spy_open(slots, swapped, weights):
        opened.add(slots.shape[2:4])
        return open_(slots, swapped, weights)

    monkeypatch.setattr(JLOEvaluator, "_string_open", staticmethod(spy_open))
    jobs = dict(same_outputs.jobs(str(tmp_path), calls))
    for name, _ in calls:
        assert cli.main(jobs[name]) == 0
        out = capsys.readouterr().out
        assert "truncated at degree 8" in out and "index    : +2" in out
    assert opened == {(1, 4)}


def test_same_outputs_encoding_jobs_read_or_refuse(same_outputs, tmp_path,
                                                   capsys):
    from jlolab import cli
    jobs = dict(same_outputs.jobs(str(tmp_path), []))
    assert cli.main(jobs["index, non-ASCII UTF-8 label"]) == 0
    assert "fredholm index    : +1" in capsys.readouterr().out
    for what, message in (
            ("UTF-8 BOM", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ("invalid UTF-8 byte",
             "'utf-8' codec can't decode byte 0xe9 in position"),
            ("string matrix entry", "malformed matrix entries: complex() "
             "can't take second arg if first is a string")):
        assert cli.main(jobs[f"index, {what}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


LIBRARY_STDOUT = """\
jlo_cochain flat 2|1 degrees (2,) jlo_cochain (-0.43+0.25j)
jlo_cochain flat 2|1 degrees (2,) perturbed_cochain (-0.43+0.25j)
generic 2|1 jlo_integrand [0.25, 0.5] (-0.0024-0.0741j)
"""


def test_same_outputs_names_a_changed_library_call(same_outputs):
    parent = {"library calls: stdout": LIBRARY_STDOUT,
              "library calls: stderr": "", "library calls: exit": "0\n"}
    stream = io.StringIO()
    assert same_outputs.report(parent, dict(parent), stream) == 0
    change = dict(parent, **{"library calls: stdout": LIBRARY_STDOUT.replace(
        "(-0.0024-0.0741j)", "(-0.0024000000000000002-0.0741j)")})
    stream = io.StringIO()
    assert same_outputs.report(parent, change, stream) == 1
    diff = stream.getvalue()
    assert ("--- parent/library calls: stdout\n"
            "+++ change/library calls: stdout\n") in diff
    assert "-generic 2|1 jlo_integrand [0.25, 0.5] (-0.0024-0.0741j)\n" in diff
    assert "+generic 2|1 jlo_integrand [0.25, 0.5] " \
        "(-0.0024000000000000002-0.0741j)\n" in diff
    # the unchanged calls show only as context
    assert "-jlo_cochain" not in diff and "+jlo_cochain" not in diff


def test_same_outputs_says_how_far_each_diff_moved(same_outputs):
    parent = {"index 0: stdout": INDEX_STDOUT, "index 0: exit": "0\n"}
    moved = INDEX_STDOUT.replace("4.441e-16", "6.661e-16")
    renamed = INDEX_STDOUT.replace("fredholm index", "fredholm value")
    added = INDEX_STDOUT + "  product law       : +1\n"
    for text, line in (
            (moved, "moved 1 line(s); largest relative change between "
                    "paired numbers 0.33; other tokens unchanged"),
            (renamed, "moved 1 line(s); largest relative change between "
                      "paired numbers 0; other tokens changed"),
            (added, "moved 1 line(s); largest relative change between "
                    "paired numbers 0; other tokens changed")):
        stream = io.StringIO()
        change = dict(parent, **{"index 0: stdout": text})
        assert same_outputs.report(parent, change, stream) == 1
        assert stream.getvalue().endswith(f"\n{line}\n\n")
    # two numbers on one line, the largest change of the pair counts
    old = ["generic 2|1 jlo_integrand (-0.0024-0.0741j)\n"]
    new = ["generic 2|1 jlo_integrand (-0.0024000000000000002-0.0742j)\n"]
    assert same_outputs.movement(old, new).startswith(
        "moved 1 line(s); largest relative change between paired numbers "
        "0.0013;")


def test_same_outputs_kernel_routes_run_both_kernels(same_outputs,
                                                     monkeypatch, capsys):
    # the job's chains open strings in both routes: the dense kernel (one
    # half of d rows) and the halves, padded to 4 rows on 4|1
    from jlolab.jlo import JLOEvaluator
    opened, open_ = set(), JLOEvaluator._string_open

    def spy_open(slots, swapped, weights):
        opened.add(slots.shape[2:4])
        return open_(slots, swapped, weights)

    monkeypatch.setattr(JLOEvaluator, "_string_open", staticmethod(spy_open))
    monkeypatch.setattr(sys, "argv", ["-c", str(same_outputs.LIBRARY_SEED)])
    exec(same_outputs.ROUTE_CALLS, {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        f"{dims} {name}" for dims in ("4|1", "2|1")
        for name in ("jlo_cochain", "bch_cochain")]
    assert {(1, 5), (2, 4), (1, 3), (2, 2)} <= opened
