"""Alternating parent/change pairs of perfbench runs, written as one JSON file.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \
        --pairs algebra=1201-1210 --pairs index=1211-1213 \
        --trace algebra=1221

Run from the root of a git checkout.  Each side is exported into its own
temporary directory: the parent revision through `git archive`, the change
as the working tree's tracked and untracked, not ignored files.  Every seed
of a `--pairs W=A-B` range is one pair of 30-second
`perfbench/run.py --workload W --seed S` runs, one per side; even pairs run
the parent first, odd pairs the change first.  A `--trace W=S` run is one
10-second `--trace 1` run per side.  The output holds every run's
result (the last stdout line of perfbench) and the user and system CPU
seconds of its processes, from `getrusage(RUSAGE_CHILDREN)` before and
after it; per workload and metric, each side's median and quartiles, the
number of pairs the change won, the relative change of the medians and
the claim rule: whether the change won at least 9/10 of the pairs (ties
count for neither side), whether its median is better than the parent's
by more than the parent's interquartile distance, and whether both hold,
so that a gain may be claimed; per workload, each side's median CPU
seconds; and the line count of each side's `src/**/*.py`.  Nothing else runs meanwhile, and the BLAS thread
count is whatever the environment gives.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

# run length and metric directions are the benchmark's own, read from the
# BENCHMARK.json of the checkout that holds this tool
_SPEC = json.loads((pathlib.Path(__file__).resolve().parents[1]
                    / "BENCHMARK.json").read_text())
LOWER_IS_BETTER = {m["name"] for m in _SPEC["end_to_end"]
                   if m["better"] == "lower"}
PAIR_SECONDS = _SPEC["run_seconds"]
TRACE_SECONDS = 10


def export(rev, dest):
    """Write the files of rev (or of the working tree, for None) to dest."""
    if rev is None:
        names = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], capture_output=True, check=True
        ).stdout.decode().split("\0")
        for name in filter(os.path.isfile, names):
            os.makedirs(os.path.join(dest, os.path.dirname(name)),
                        exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))
        return
    tar = subprocess.run(["git", "archive", rev], capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def src_lines(root):
    """Lines in the Python files under root/src, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in pathlib.Path(root, "src").rglob("*.py"))


def run(root, workload, seed, seconds, trace):
    """The result of one perfbench run; a RuntimeError naming the exit code
    and the tail of stderr when its last stdout line is not one."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"perfbench {workload} seed {seed} exited {out.returncode} with "
            f"no result line; stderr ends:\n{out.stderr[-2000:]}") from None


def cpu_run(root, workload, seed, seconds, trace):
    """run's result and the user and system CPU seconds its processes
    took, read from RUSAGE_CHILDREN before and after it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = run(root, workload, seed, seconds, trace)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, {"user": after.ru_utime - before.ru_utime,
                    "system": after.ru_stime - before.ru_stime}


def spread(values):
    """Median and quartiles; a single value is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs, workload):
    sides = {side: [r for r in runs if r["workload"] == workload
                    and r["side"] == side] for side in ("parent", "change")}
    summary = {"pairs": len(sides["parent"]),
               "seeds": [r["seed"] for r in sides["parent"]],
               "failed_operations": {s: sum(r["result"]["failed"] for r in rs)
                                     for s, rs in sides.items()},
               "metrics": {}}
    for name in sides["parent"][0]["result"]["metrics"]:
        vals = {s: [r["result"]["metrics"][name]["value"] for r in rs]
                for s, rs in sides.items()}
        sign = 1 if name in LOWER_IS_BETTER else -1
        better = sum(sign * (c - p) < 0
                     for p, c in zip(vals["parent"], vals["change"]))
        parent, change = spread(vals["parent"]), spread(vals["change"])
        won = 10 * better >= 9 * len(vals["parent"])
        beyond = (sign * (parent["median"] - change["median"])
                  > parent["q3"] - parent["q1"])
        summary["metrics"][name] = {
            "parent": parent, "change": change, "change_better_pairs": better,
            "relative_median_change": change["median"] / parent["median"] - 1,
            "won_nine_tenths": won, "gain_beyond_parent_iqr": beyond,
            "gain_claimable": won and beyond}
    return summary


def cpu_medians(runs, workload):
    """Each side's median user and system CPU seconds over the runs."""
    return {side: {kind: statistics.median(
        r["cpu_s"][kind] for r in runs
        if r["workload"] == workload and r["side"] == side)
        for kind in ("user", "system")} for side in ("parent", "change")}


def machine():
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def seed_range(text):
    workload, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return workload, range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", action="append", type=seed_range,
                        default=[], metavar="WORKLOAD=FIRST-LAST")
    parser.add_argument("--trace", action="append", type=seed_range,
                        default=[], metavar="WORKLOAD=SEED")
    args = parser.parse_args()
    revs = {"parent": args.parent, "change": None}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {}
        for side, rev in revs.items():
            roots[side] = os.path.join(tmp, side)
            export(rev, roots[side])
        lines = {side: src_lines(root) for side, root in roots.items()}
        runs = []
        for workload, seeds in args.pairs:
            for seed in seeds:
                pair = sum(r["side"] == "parent" for r in runs)
                order = ("parent", "change") if pair % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    result, cpu = cpu_run(roots[side], workload, seed,
                                          PAIR_SECONDS, 0)
                    runs.append({"pair": pair, "side": side,
                                 "workload": workload, "seed": seed,
                                 "result": result, "cpu_s": cpu})
                    print(workload, seed, side,
                          result["metrics"]["wall_s"]["value"],
                          file=sys.stderr)
        traces = {f"{w} {s}": {side: run(roots[side], w, s,
                                         TRACE_SECONDS, 1)
                               for side in revs}
                  for w, seeds in args.trace for s in seeds}
    report = {
        "command": " ".join(["python3", "tools/bench_pairs.py",
                             *sys.argv[1:]]),
        "revisions": {"parent": args.parent, "change": "working tree"},
        "machine": machine(),
        "src_lines": lines,
        "summary": {w: {**summarize(runs, w), "cpu_s": cpu_medians(runs, w)}
                    for w, _ in args.pairs},
        "runs": runs,
        "trace_runs": traces,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
