"""jlolab benchmark: one workload per call, or all four with --workload all.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(see perfbench/README.md).  A failed check is printed, counted in
`failed`, marks the result incorrect and makes the exit code 1.  Without
the package sources the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 5      # in-process set-ups per run; setup_s uses the median
IMPORT_CHILDREN = 4    # extra `import jlolab` timings in fresh interpreters
MIN_UNITS = 2
MIN_OPS = 100          # leaves at least 10 latency samples above p90

IMPORT_PROBE = ("import time; t = time.perf_counter(); import jlolab; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import jlolab from this checkout; returns [import seconds]."""
    if not os.path.isfile(os.path.join(SRC, "jlolab", "__init__.py")):
        fail(f"no jlolab sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import jlolab
    samples = [time.perf_counter() - t0]
    if os.path.dirname(os.path.dirname(os.path.abspath(jlolab.__file__))) != SRC:
        fail(f"imported jlolab from {jlolab.__file__}, not from {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for _ in range(IMPORT_CHILDREN):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q % of
    the samples at or below it.  Unlike interpolation it never reports a
    value from the gap between two clusters of latencies (verify's trials
    fall into a few such clusters)."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def metadata(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    commit = "unknown"  # an exported checkout has no .git
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for dirpath, _dirs, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("JLOLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return None
    libs = [p for p in paths
            if "openblas" in os.path.basename(p) and ".so" in p]
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def set_up(cls, seed, small, workdir):
    """SETUP_REPEATS fresh set-ups (inputs plus one warm-up call).

    Returns the last workload and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(seed, workdir, small=small)
        try:
            workload.warm_up()
        except Exception:  # the timed operations count and print failures
            pass
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def timed_unit(workload, rec, index):
    """(seconds, operations) of one unit of work."""
    ops = len(rec.latencies)
    t0 = time.perf_counter()
    workload.unit(index, rec)
    return time.perf_counter() - t0, len(rec.latencies) - ops


def run_units(workload, rec, seconds, small):
    """Units of work until `seconds` have passed and enough ops were seen.

    Returns the units and the speed probes: one before each unit and one
    after the last.
    """
    units, probes = [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # every unit starts with no garbage left by the last
        probes.append(speed.probe())
        units.append(timed_unit(workload, rec, len(units)))
        if small or (time.perf_counter() - start >= seconds
                     and len(units) >= MIN_UNITS
                     and len(rec.latencies) >= MIN_OPS):
            probes.append(speed.probe())
            return units, probes


def run_workload(name, seed, seconds, trace, import_s, small=False):
    """One workload; returns (result dict, extra details for the log)."""
    from workloads import WORKLOADS, Recorder, install_trial_timer

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR)
    try:
        cls = WORKLOADS[name]
        rec = Recorder()
        undo = install_trial_timer(rec) if name == "verify" else None
        try:
            workload, prepare_s = set_up(cls, seed, small, workdir)
            rec.latencies.clear()
            rec.failures.clear()
            raw = spans = None
            if trace:
                metrics, spans = traced_run(workload, rec, seconds, small)
            else:
                units, probes = run_units(workload, rec, seconds, small)
                metrics, raw = end_to_end(
                    units, probes, rec.latencies,
                    statistics.median(import_s) + prepare_s)
        finally:
            if undo is not None:
                undo()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(rec.latencies)
    failed = len(rec.failures)
    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    details = {"failures": rec.failures, "failed_frac":
               failed / max(attempted, 1), "import_s": import_s,
               "prepare_s": prepare_s, "raw": raw, "spans": spans}
    return result, details


def end_to_end(units, probes, lat, setup_s):
    """Medians over units, so that a burst of machine noise moves them less.

    Every timing but `setup_s` is scaled to the reference speed of
    `speed.py`: a unit's time and its operations' latencies by REF_PROBE_S
    over the mean of the probes taken right before and right after the
    unit.  `setup_s` is not scaled: import time is mostly file access,
    which the probe does not track.  Returns the metrics, and the unscaled
    timings with the median probe for the log.
    """
    scales = [2.0 * speed.REF_PROBE_S / (a + b)
              for a, b in zip(probes, probes[1:])]
    scaled_lat, start = [], 0
    for (_t, n), k in zip(units, scales):
        scaled_lat += [k * x for x in lat[start:start + n]]
        start += n
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(
            k * t for (t, _), k in zip(units, scales)),
        "ops_per_s": statistics.median(
            n / (k * t) for (t, n), k in zip(units, scales)),
        "op_p50_ms": 1e3 * percentile(scaled_lat, 50),
        "op_p90_ms": 1e3 * percentile(scaled_lat, 90),
        "peak_rss_mb": rss,
    }
    raw = {
        "wall_s": statistics.median(t for t, _ in units),
        "ops_per_s": statistics.median(n / t for t, n in units),
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_p90_ms": 1e3 * percentile(lat, 90),
        "probe_s": statistics.median(probes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}, raw


def traced_run(workload, rec, seconds, small):
    """Pairs of an untraced and a traced unit, units 2k and 2k + 1.

    The traced unit is not a repeat of the untraced one, so caches such as
    the heat cache are no warmer for it.  Per-layer metrics are averaged
    per traced unit; trace.overhead_frac is the median over pairs of
    traced / untraced unit time, minus one.
    """
    from tracer import Tracer, per_layer_names

    tracer = Tracer()
    ratios = []
    start = time.perf_counter()
    while True:
        pair = tracer.unit = len(ratios)
        gc.collect()
        plain, _ = timed_unit(workload, rec, 2 * pair)
        gc.collect()
        tracer.install()
        try:
            traced, _ = timed_unit(workload, rec, 2 * pair + 1)
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
        if small or (time.perf_counter() - start >= seconds
                     and len(ratios) >= MIN_UNITS):
            break
    values = tracer.metrics(units=len(ratios))
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_names()}
    return metrics, tracer


def report(name, result, details, meta, seed, trace):
    """Human-readable lines, then the result file under .bench_build."""
    print(f"== {name} (seed {seed}, trace {trace})")
    for fail_msg in details["failures"][:20]:
        print(f"FAILED {fail_msg}")
    if len(details["failures"]) > 20:
        print(f"... and {len(details['failures']) - 20} more failures")
    print(f"  {'failed_frac':<46} {details['failed_frac']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} operations)")
    raw = details["raw"] or {}
    for metric, v in result["metrics"].items():
        unscaled = (f"  (unscaled {raw[metric]:.6g})"
                    if metric in raw and raw[metric] != v["value"] else "")
        print(f"  {metric:<46} {v['value']:.6g} {v['unit']}{unscaled}")
    if raw:
        print(f"  speed probe: median {1e3 * raw['probe_s']:.4g} ms, "
              f"reference {1e3 * speed.REF_PROBE_S:.4g} ms")
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    stem = os.path.join(WORKDIR, "results",
                        f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    spans = details.pop("spans")
    if spans is not None:
        spans.write_spans(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": name, "trace": trace, "meta": meta,
                   "result": result, **details}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify", "algebra", "index", "cochain",
                                 "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    sys.path.insert(0, HERE)
    meta = metadata(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    names = (["verify", "algebra", "index", "cochain"]
             if args.workload == "all" else [args.workload])
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds,
                                       args.trace, import_s)
        report(name, result, details, meta, args.seed, args.trace)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
