"""Check that a change leaves jlolab's outputs byte-identical to a parent's.

    python3 tools/same_outputs.py --parent REV

Run from the root of a git checkout.  The parent revision and the working
tree are exported as `tools/bench_pairs.py` exports them, and each side
runs every command below in one interpreter of its own, on its own `src/`,
through `jlolab.cli.main`:

- `verify --seed 42` and `--seed 7`, with their JSON reports, which are
  compared without their `timestamp` line, and `verify --help`;
- `verify --seed 3` with reports on the `EDGE_CONFIGS`, the edges of the
  trials' degree draws: `max_degree` 0 and 4, three dims pairs, and a
  small `mc_samples`;
- `index` over every input of perfbench's `Index` workload at seed 531,
  over triples and idempotents that break each axiom `index` checks, whose
  Dirac operator squares past the float range, or whose axiom residuals
  overflow, over a triple file with an integer past the float range and
  one nested past the recursion limit, over kicks on
  each side of the pairing series' stop rules (6, 0.2 and 0.3), and over
  a kick-0.1 pair whose idempotent is amplified (`blocks` 2) under
  `--times`: times the same triple's unit, times itself, where the
  product law is checked as for any pair, and, amplified to `blocks` 9,
  times itself, where each factor is within INDEX_DIM_LIMIT but the
  product is not, so `index` exits 2, and over `RANDOM_PAIRS`: random 4|4
  and 8|8 triples at `dirac_scale` 0.05 with half-rank even projections,
  whose pairings run to degree 8 at mid dimension;
- `decompose --shuffle 3 2`, `--cyclic 1 2 1` and `--cyclic 2 1`; the
  other two calls perfbench's `Algebra` workload makes, `--shuffle 4 4`
  and `--cyclic 1 3` at 4,000 samples; the widest family the row budget
  admits, `--cyclic 0 0 6 6` (16 wide, 1,681,680 regions) at 1,000
  samples; and the runs with no point to sample (`--shuffle 0 0`), with
  degree-0 blocks (`--shuffle 0 3`, `--cyclic 0`, `--cyclic 2 0 1`) and
  over the row budget (`--cyclic 1 1 1 1 1 1`);
- `verify` and `decompose` on bad `--config` files (one nested past the
  recursion limit) and bad flags.

The input files are written once, by the parent's perfbench and `src/`,
and both sides read the same ones.  One more job per side calls the library
directly, on the inputs of perfbench's `Cochain` workload at seed 743,
built by the parent's perfbench on that side's `src/`.  It prints the
`repr` of `jlo_cochain`, `bch_cochain`, `perturbed_cochain` and
`jlo_cochain(t, delta_perturbation(t, c))` on every chain; of
`jlo_cochain_mc` at a fixed generator, on the workload's Monte Carlo
chains and on their degree-0 heads; and of `jlo_integrand` at one fixed
point of every term the workload evaluates.  A second job prints
`jlo_cochain` and `bch_cochain` of a chain with one term of even factors
and one with a mixed slot, on a 4|1 and a 2|1 triple, so that both routes
of the string kernel, and its padded halves, show.  Stdout, stderr and the
exit code of every command and of those jobs are compared, and so are
those of two last jobs: `parity_of` and `commutator_d` on an odd matrix whose
squares overflow, and `represent`, `unrepresent` and `commutator_d` on
operators of the wrong size for their triple.  A command that raises is
recorded by its exception.
Prints `identical`, or one unified diff per output that differs and exits
1.  Each diff is followed by one line that says how far it moved: the
number of lines it changed, the largest relative change between the
numbers of paired lines, and whether any other token changed.  Changed
lines pair up in order within each block of the diff; a block that removes
as many lines as it adds pairs each line with its counterpart, and any
other block counts as a changed token.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

INDEX_SEED = 531
LIBRARY_SEED = 743
# a decimal number, with its sign, fraction and exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# builds perfbench's Index inputs in a directory and prints each call's argv
WRITE_INDEX_INPUTS = """
import json, sys
from workloads import Index
calls = Index(int(sys.argv[1]), sys.argv[2]).calls
print(json.dumps([argv for _, argv, _ in calls]))
"""

# (dim_even = dim_odd, dirac_scale) of the random `index` pairs
RANDOM_PAIRS = [(4, 0.05), (8, 0.05)]

# writes a random triple and a half-rank even projection on it per entry of
# RANDOM_PAIRS in a directory, and prints each pair's (name, argv)
WRITE_RANDOM_PAIRS = """
import json, os, sys
import numpy as np
import jlolab
seed, workdir, pairs = int(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
rng = np.random.default_rng(seed)
calls = []
for half, scale in pairs:
    t = jlolab.random_triple(rng, half, half, dirac_scale=scale)
    # QR frames of rank half // 2 in each parity block
    e = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    for block in (slice(0, half), slice(half, None)):
        q, _ = np.linalg.qr(rng.standard_normal((half, half))
                            + 1j * rng.standard_normal((half, half)))
        v = q[:, :half // 2]
        e[block, block] = v @ v.conj().T
    paths = [os.path.join(workdir, f"random-{half}-{part}.json")
             for part in ("triple", "idempotent")]
    objs = (jlolab.triple_to_json(t),
            jlolab.idempotent_to_json(jlolab.Idempotent(e)))
    for path, obj in zip(paths, objs):
        with open(path, "w") as fh:
            json.dump(obj, fh)
    calls.append((f"index, random {half}|{half} at {scale}", paths))
print(json.dumps(calls))
"""

# runs the jobs of a JSON file through cli.main; writes {output: text}
RUN_JOBS = """
import contextlib, io, json, os, sys
from jlolab import cli
jobs_path, out_path = sys.argv[1:]
with open(jobs_path) as fh:
    jobs = json.load(fh)
outputs = {}
for name, argv in jobs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    outputs[f"{name}: stdout"] = out.getvalue()
    outputs[f"{name}: stderr"] = err.getvalue()
    outputs[f"{name}: exit"] = f"{code}\\n"
    if "--report" in argv and os.path.exists("report.json"):
        with open("report.json") as fh:
            outputs[f"{name}: report"] = "".join(
                line for line in fh if '"timestamp"' not in line)
        os.remove("report.json")
with open(out_path, "w") as fh:
    json.dump(outputs, fh)
"""

# prints every direct library call on perfbench's Cochain inputs, one line
# each; only names and signatures that perfbench pins
LIBRARY_CALLS = """
import sys
import numpy as np
import jlolab
from workloads import MC_SAMPLES, Cochain
w = Cochain(int(sys.argv[1]), sys.argv[2])
for label, _, t, c, _ in w.values:
    print(label, "jlo_cochain", repr(jlolab.jlo_cochain(t, c)))
    print(label, "bch_cochain", repr(jlolab.bch_cochain(t, c)))
    print(label, "perturbed_cochain", repr(jlolab.perturbed_cochain(t, c)))
    print(label, "via delta_perturbation", repr(jlolab.jlo_cochain(
        t, jlolab.delta_perturbation(t, c))))
for k, (t, c, _) in enumerate(w.mc):
    head = jlolab.Chain.elementary(1.0, c.terms[0].factors[:1])
    for chain in (c, head):
        print(t.label, "jlo_cochain_mc", repr(jlolab.jlo_cochain_mc(
            t, chain, MC_SAMPLES, np.random.default_rng(k))))
for k, (t, factors) in enumerate(w.integrand + [
        (t, c.terms[0].factors) for _, _, t, c, _ in w.values]):
    point = np.sort(np.random.default_rng(k).random(len(factors) - 1))
    print(t.label, "jlo_integrand", point.tolist(),
          repr(jlolab.jlo_integrand(t, factors, point)))
"""

# prints jlo_cochain and bch_cochain of one chain on a 4|1 and a 2|1 triple:
# in degrees 2 and 3, one term of even factors, which runs the string
# kernel's halves (on 4|1 its odd half pads 1 row to 4), and one with a mixed
# slot, which runs the dense kernel
ROUTE_CALLS = """
import sys
import numpy as np
import jlolab
rng = np.random.default_rng(int(sys.argv[1]))
for dims in ((4, 1), (2, 1)):
    t = jlolab.random_triple(rng, *dims)
    table = np.stack([jlolab.random_even(rng, t.space) for _ in range(4)] + [
        jlolab.random_even(rng, t.space)
        + jlolab.random_odd_hermitian(rng, t.space)])
    chain = jlolab.Chain.from_table(t.hilbert_dim, table, {
        n: (np.array([[0, 1, 2, 3][:n + 1], [0, 4, 2, 3][:n + 1]]),
            np.array([1.0, 0.5j])) for n in (2, 3)})
    for name in ("jlo_cochain", "bch_cochain"):
        print(f"{dims[0]}|{dims[1]}", name,
              repr(getattr(jlolab, name)(t, chain)))
"""

# prints what parity_of and commutator_d return or raise on an odd matrix
# whose squares overflow
LIBRARY_REFUSALS = """
import numpy as np
import jlolab
x = np.array([[0, 1e155], [1e155, 0]])
kick = jlolab.SpectralTripleFD(jlolab.GradedSpace(1, 1), x / 1e156, [])
for name, call in (("parity_of", lambda: jlolab.parity_of(x, kick.space)),
                   ("commutator_d", lambda: jlolab.commutator_d(kick, x))):
    try:
        print(name, repr(call()))
    except Exception as exc:
        print(name, type(exc).__name__, exc)
"""

# prints what represent, unrepresent and commutator_d return or raise on
# operators of the wrong size: 3 x 3 over a 1|1 triple whose basis_map
# swaps its vectors, and 5 x 5 over the product of two 1|1 triples
WRONG_SIZE_REFUSALS = """
import numpy as np
import jlolab
x = np.array([[0, 0.3], [0.3, 0]])
swap = jlolab.SpectralTripleFD(jlolab.GradedSpace(1, 1), x, [],
                               basis_map=[1, 0])
square = jlolab.product_triple(*[jlolab.SpectralTripleFD(
    jlolab.GradedSpace(1, 1), x, [])] * 2)
big = np.arange(9.0).reshape(3, 3)
for name, call in (
        ("represent", lambda: swap.represent(big)),
        ("unrepresent", lambda: swap.unrepresent(big)),
        ("commutator_d", lambda: jlolab.commutator_d(
            square, np.diag([1, 2, 3, 4, 5.0])))):
    try:
        print(name, repr(call()))
    except Exception as exc:
        print(name, type(exc).__name__, exc)
"""

# min(2, max_degree) and range(lowest, max_degree + 1) at their ends
EDGE_CONFIGS = [
    {"max_degree": 0, "trials": 2},
    {"max_degree": 4, "dims": [[1, 1], [2, 1], [3, 1]]},
    {"max_degree": 1, "dims": [[2, 2]], "mc_samples": 500},
]

BAD_CONFIGS = [
    {"max_degree": 9}, {"dims": [[12, 9]]}, {"no_such_key": 1},
    {"seed": 1.5}, {"trials": "1"}, {"max_degree": 1.5}, {"mc_samples": 2.5},
    {"mc_samples": 1}, {"seed": -3}, {"tolerance": "1e-3"},
    {"dims": [[1.5, 1]]}, [1, 2],
]

# 2 x 2 matrices on C^{1|1}, as rows of complex entries
GOOD_DIRAC = [[0, 0.3], [0.3, 0]]
GOOD_IDEMPOTENT = [[1, 0], [0, 0]]
# (what is broken, Dirac, generators, idempotent) of each rejected pair;
# the residuals in the messages are 1.37e-10, 0.0434, 0.0622 and 0.0123,
# D^2 + (D^2)^* overflows at 1e154, and at 1e308 g a g -/+ a, e + e^* and
# e - e^* overflow
BAD_PAIRS = [
    ("non-Hermitian Dirac", [[0, 0.3], [0.3 + 1.37e-10j, 0]],
     [[[1, 0], [0, 1]]], GOOD_IDEMPOTENT),
    ("even Dirac", [[0.0217, 0.3], [0.3, 0.0217]], [[[1, 0], [0, 1]]],
     GOOD_IDEMPOTENT),
    ("odd generator", GOOD_DIRAC, [[[1, 0.0311], [0.0311, 1]]],
     GOOD_IDEMPOTENT),
    ("every triple axiom", [[0.05, 0.3], [0.3 + 0.0123j, 0]],
     [[[0, 1], [1, 0]]], GOOD_IDEMPOTENT),
    ("non-idempotent", GOOD_DIRAC, [], [[0.5, 0], [0, 0]]),
    ("non-self-adjoint idempotent", GOOD_DIRAC, [], [[1, 1], [0, 0]]),
    ("odd idempotent", GOOD_DIRAC, [], [[0.5, 0.5], [0.5, 0.5]]),
    ("Dirac whose square overflows", [[0, 1e154], [1e154, 0]],
     [[[1, 0], [0, 1]]], GOOD_IDEMPOTENT),
    ("odd generator past the float range", [[0, 0], [0, 0]],
     [[[0, 1e308], [1e308, 0]]], GOOD_IDEMPOTENT),
    ("Dirac diagonal past the float range", [[1e308, 0], [0, 0]],
     [[[1, 0], [0, 1]]], GOOD_IDEMPOTENT),
    ("non-self-adjoint idempotent past the float range", GOOD_DIRAC, [],
     [[1e308, 1e308], [0, 0]]),
    ("Hermitian idempotent past the float range", GOOD_DIRAC, [],
     [[1e308, 1e308], [1e308, 1e308]]),
]
# valid pairs on each side of the pairing's stop rules: at kick 6 the
# terms stop at degree 2, before they peak; at 0.2 and 0.3 they reach
# degree 12 over the truncation threshold, and their bound's tail past it
# is under the threshold at 0.2 and over it at 0.3
KICKS = [(f"kick {s}", [[0, s], [s, 0]], [[[1, 0], [0, 1]]], GOOD_IDEMPOTENT)
         for s in (6, 0.2, 0.3)]


def _amplified_idempotent(k):
    """kron(diag(1, 0), diag(1, 0, ..., 0)) over M_k, as rows: the rank-1
    even projection on the kick-0.1 triple ampliated by k."""
    return [[int(i == j == 0) for j in range(2 * k)] for i in range(2 * k)]


def _matrix(rows):
    """The JSON wire form of a matrix given as rows of complex entries."""
    return {"rows": len(rows), "cols": len(rows[0]),
            "data": [[complex(z).real, complex(z).imag]
                     for row in rows for z in row]}


def jobs(inputs, index_calls):
    """(name, argv) of every command both sides run; index_calls are the
    (name, argv) of the `index` runs over written inputs, and config files
    are written to inputs."""
    out = [(f"verify --seed {seed}",
            ["verify", "--seed", str(seed), "--report", "report.json"])
           for seed in (42, 7)]
    out.append(("verify --help", ["verify", "--help"]))
    small = os.path.join(inputs, "small.json")
    with open(small, "w") as fh:
        json.dump({"trials": 1, "dims": [[1, 1]], "max_degree": 1}, fh)
    out.append(("verify, flags over a config", [
        "verify", "--config", small, "--seed", "3", "--mc-samples", "500",
        "--report", "report.json"]))
    for k, raw in enumerate(EDGE_CONFIGS):
        path = os.path.join(inputs, f"edge{k}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out.append((f"verify --seed 3, config {json.dumps(raw)}", [
            "verify", "--config", path, "--seed", "3",
            "--report", "report.json"]))
    out += [(name, ["index", *argv]) for name, argv in index_calls]
    for k, (what, dirac, gens, idem) in enumerate(BAD_PAIRS + KICKS):
        paths = [os.path.join(inputs, f"bad-{part}{k}.json")
                 for part in ("triple", "idempotent")]
        for path, obj in zip(paths, (
                {"dim_even": 1, "dim_odd": 1, "dirac": _matrix(dirac),
                 "generators": [_matrix(g) for g in gens]},
                {"matrix": _matrix(idem)})):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        out.append((f"index, {what}", ["index", *paths]))
    big, deep, unit = (os.path.join(inputs, name) for name in (
        "big-integer.json", "deep.json", "idempotent.json"))
    with open(big, "w") as fh:
        json.dump({"dim_even": 1, "dim_odd": 1, "generators": [],
                   "dirac": {"rows": 2, "cols": 2, "data": [
                       [0, 0], [10 ** 400, 0], [1, 0], [0, 0]]}}, fh)
    with open(deep, "w") as fh:
        fh.write("[" * 200_000)
    with open(unit, "w") as fh:
        json.dump({"matrix": _matrix(GOOD_IDEMPOTENT)}, fh)
    out += [("index, integer past the float range", ["index", big, unit]),
            ("index, JSON nested past the recursion limit",
             ["index", deep, unit]),
            ("verify, config nested past the recursion limit",
             ["verify", "--config", deep])]
    triple, amplified, wide = (
        os.path.join(inputs, f"amplified-{part}.json")
        for part in ("triple", "idempotent", "idempotent-9"))
    for path, obj in (
            (triple, {"dim_even": 1, "dim_odd": 1,
                      "dirac": _matrix([[0, 0.1], [0.1, 0]]),
                      "generators": [_matrix([[1, 0], [0, 1]])]}),
            (amplified, {"matrix": _matrix(_amplified_idempotent(2)),
                         "blocks": 2}),
            (wide, {"matrix": _matrix(_amplified_idempotent(9)),
                    "blocks": 9})):
        with open(path, "w") as fh:
            json.dump(obj, fh)
    out += [("index --times, amplified idempotent",
             ["index", triple, amplified, "--times", triple]),
            ("index --times, amplified times amplified",
             ["index", triple, amplified, "--times", triple, amplified]),
            ("index --times, amplified product over the size bound",
             ["index", triple, wide, "--times", triple, wide])]
    out += [(f"decompose {' '.join(args)}", ["decompose", *args])
            for args in (["--shuffle", "3", "2"], ["--cyclic", "1", "2", "1"],
                         ["--cyclic", "2", "1"],
                         ["--shuffle", "4", "4", "--samples", "4000"],
                         ["--cyclic", "1", "3", "--samples", "4000"],
                         ["--cyclic", "0", "0", "6", "6", "--samples", "1000"],
                         ["--shuffle", "0", "0", "--samples", "10"],
                         ["--shuffle", "0", "3", "--samples", "50"],
                         ["--cyclic", "0", "--samples", "100"],
                         ["--cyclic", "2", "0", "1"],
                         ["--cyclic", "1", "1", "1", "1", "1", "1"])]
    for k, raw in enumerate(BAD_CONFIGS):
        path = os.path.join(inputs, f"bad{k}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out.append((f"verify, bad config {json.dumps(raw)}",
                    ["verify", "--config", path]))
    not_json = os.path.join(inputs, "not-json.json")
    with open(not_json, "w") as fh:
        fh.write("{not json")
    out += [("verify, config not JSON", ["verify", "--config", not_json]),
            ("verify, missing config",
             ["verify", "--config", os.path.join(inputs, "missing.json")]),
            ("verify --seed -3", ["verify", "--seed", "-3"]),
            ("decompose --seed -3",
             ["decompose", "--cyclic", "1", "--seed", "-3"]),
            ("decompose --config",
             ["decompose", "--shuffle", "1", "1", "--config", small])]
    return out


def run_side(root, jobs_path, workdir):
    """{output: text} of one side, its commands run in one interpreter."""
    os.makedirs(workdir)
    out_path = os.path.join(workdir, "outputs.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", RUN_JOBS, jobs_path, out_path],
                   cwd=workdir, env=env, check=True)
    with open(out_path) as fh:
        return json.load(fh)


def run_library(root, perfbench, workdir, name, script):
    """{output: text} of one side's direct library calls in script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), perfbench]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(LIBRARY_SEED), workdir],
        cwd=workdir, env=env, capture_output=True, text=True)
    return {f"{name}: stdout": proc.stdout, f"{name}: stderr": proc.stderr,
            f"{name}: exit": f"{proc.returncode}\n"}


def movement(old, new):
    """One line on how far the lines of new moved from those of old."""
    moved, largest, other = 0, 0.0, False
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        moved += max(i2 - i1, j2 - j1)
        if i2 - i1 != j2 - j1:
            other = True
            continue
        for a, b in zip(old[i1:i2], new[j1:j2]):
            # the text around the numbers, which also counts them
            other = other or NUMBER.sub("#", a) != NUMBER.sub("#", b)
            for x, y in zip(map(float, NUMBER.findall(a)),
                            map(float, NUMBER.findall(b))):
                if x != y:
                    largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return (f"moved {moved} line(s); largest relative change between "
            f"paired numbers {largest:.2g}; other tokens "
            f"{'changed' if other else 'unchanged'}\n")


def differences(parent, change):
    """One unified diff per output whose text differs between the sides,
    each followed by its `movement` line."""
    out = []
    for name in sorted(parent.keys() | change.keys()):
        old, new = parent.get(name, ""), change.get(name, "")
        if old != new:
            old, new = (old.splitlines(keepends=True),
                        new.splitlines(keepends=True))
            diff = "".join(difflib.unified_diff(
                old, new, f"parent/{name}", f"change/{name}"))
            out.append(diff.rstrip("\n") + "\n" + movement(old, new))
    return out


def report(parent, change, stream=None) -> int:
    """Print `identical` and return 0, or print the diffs and return 1."""
    diffs = differences(parent, change)
    print("\n".join(diffs) if diffs else "identical", file=stream)
    return 1 if diffs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    args = parser.parse_args()
    # found next to this file when it runs as a script
    from bench_pairs import export
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        roots = {"parent": tmp / "parent", "change": tmp / "change"}
        export(args.parent, roots["parent"])
        export(None, roots["change"])
        inputs = tmp / "inputs"
        inputs.mkdir()
        perfbench = roots["parent"] / "perfbench"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(roots["parent"] / "src"), str(perfbench)]))
        index_calls = [(f"index {k}", argv) for k, argv in enumerate(
            json.loads(subprocess.run(
                [sys.executable, "-c", WRITE_INDEX_INPUTS, str(INDEX_SEED),
                 str(inputs)], env=env, capture_output=True, text=True,
                check=True).stdout))]
        index_calls += json.loads(subprocess.run(
            [sys.executable, "-c", WRITE_RANDOM_PAIRS, str(INDEX_SEED),
             str(inputs), json.dumps(RANDOM_PAIRS)], env=env,
            capture_output=True, text=True, check=True).stdout)
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs(str(inputs), index_calls)))
        outputs = {side: run_side(str(root), str(jobs_path),
                                  tmp / f"{side}-run")
                   for side, root in roots.items()}
        for side, root in roots.items():
            for name, script in (
                    ("library calls", LIBRARY_CALLS),
                    ("kernel routes", ROUTE_CALLS),
                    ("library refusals", LIBRARY_REFUSALS),
                    ("wrong-size refusals", WRONG_SIZE_REFUSALS)):
                outputs[side].update(run_library(
                    str(root), str(perfbench), str(tmp / f"{side}-run"),
                    name, script))
        if outputs["parent"]["library calls: exit"] != "0\n":
            raise RuntimeError("the parent's library calls failed:\n"
                               + outputs["parent"]["library calls: stderr"])
    return report(outputs["parent"], outputs["change"])


if __name__ == "__main__":
    sys.exit(main())
