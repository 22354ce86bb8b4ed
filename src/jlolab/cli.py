"""Batch front end: verification suites, index runs, simplex decompositions.

Each subcommand takes only the flags it reads: `verify` the RunConfig flags
(--seed, --tolerance, --mc-samples, --report, --config), `index` its two
files and --times, `decompose` its mode, --samples and --seed.  Exit codes
across all subcommands: 0 success, 1 a numerical check failed, 2 usage or
input-parsing failure.  Reports are deterministic for a fixed configuration
and seed up to the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .jlo import NonConvergentError, NonIntegerIndexError, index_pairing
from .shuffles import (
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    sample_simplex_batch,
    sorting_images,
)
from .spectral import (
    INDEX_INTEGER_TOL,
    Idempotent,
    SpectralGapWarning,
    idempotent_from_json,
    index_of_pair,
    product_triple,
    triple_from_json,
)
from .suites import format_report_rows, run_suite

__all__ = ["RunConfig", "main"]

MAX_DEGREE_LIMIT = 4
MAX_SPACE_DIM = 16
DECOMPOSE_DEGREE_LIMIT = 6
DECOMPOSE_REGION_BUDGET = 2_000_000


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated settings of `verify`; `decompose` reads only the seed.

    Integer fields, dims entries included, reject bools and non-integral
    values; numpy integers are stored as int.
    """

    seed: int = 42
    dims: tuple = ((1, 1), (2, 1))
    max_degree: int = 3
    trials: int = 3
    tolerance: float = None
    mc_samples: int = 20_000
    report_path: str = ""

    def __post_init__(self):
        for name in ("seed", "max_degree", "trials", "mc_samples"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        dims = tuple(tuple(_integer(x, "dims entries") for x in pair)
                     for pair in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("dims must list at least one (even, odd) pair")
        for pair in dims:
            if len(pair) != 2 or min(pair) < 0 or sum(pair) < 1:
                raise ValueError(f"bad dimension pair {pair}")
            if sum(pair) > MAX_SPACE_DIM:
                raise ValueError(
                    f"dimension pair {pair} exceeds total dimension "
                    f"{MAX_SPACE_DIM}")
        if not 0 <= self.max_degree <= MAX_DEGREE_LIMIT:
            raise ValueError(
                f"max_degree must lie in 0..{MAX_DEGREE_LIMIT}")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be positive")
        tol = self.tolerance
        if tol is not None and (isinstance(tol, bool) or not isinstance(
                tol, numbers.Real) or not tol > 0):
            raise ValueError("tolerance must be a positive number when given")

    def as_report_dict(self) -> dict:
        # report_path is deliberately excluded so reports written to
        # different destinations stay byte-comparable
        return {
            "seed": self.seed,
            "dims": [list(p) for p in self.dims],
            "max_degree": self.max_degree,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "mc_samples": self.mc_samples,
        }


CONFIG_KEYS = ("seed", "dims", "max_degree", "trials", "tolerance",
               "mc_samples", "report_path")


def load_config(args) -> RunConfig:
    """Merge defaults, an optional JSON config file, and command flags.

    A flag the subcommand does not take leaves its field at the default.
    """
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        data.update(raw)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "tolerance", None) is not None:
        data["tolerance"] = args.tolerance
    if getattr(args, "mc_samples", None) is not None:
        data["mc_samples"] = args.mc_samples
    if getattr(args, "report", None) is not None:
        data["report_path"] = args.report
    return RunConfig(**data)


# -------------------------------------------------------------------- verify

def cmd_verify(config: RunConfig) -> int:
    rows = run_suite(config.seed, dims=config.dims, trials=config.trials,
                     max_degree=config.max_degree,
                     mc_samples=config.mc_samples,
                     tolerance=config.tolerance)
    print(format_report_rows(rows), end="")
    passed = sum(1 for r in rows if r["pass"])
    ok = passed == len(rows)
    if config.trials == 0:
        print("warning: trials = 0, no identity checks were run",
              file=sys.stderr)
    else:
        print(f"{passed}/{len(rows)} identities passed")
    if config.report_path:
        report = {
            "schema": 1,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": config.as_report_dict(),
            "identities": rows,
            "summary": {"checks": len(rows), "passed": passed,
                        "failed": len(rows) - passed, "all_pass": ok},
        }
        with open(config.report_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


# --------------------------------------------------------------------- index

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _index_lines(label, triple, idem):
    """Compute both sides for one (triple, idempotent) pair."""
    rep = index_pairing(triple, idem)
    fred = index_of_pair(triple, idem)
    diff = abs(rep.value - fred)
    print(f"{label}:")
    print(f"  character pairing : {rep.value.real:+.9f}"
          f"  (truncated at degree {rep.truncation_degree},"
          f" last term {rep.last_term_magnitude:.2e})")
    print(f"  fredholm index    : {fred:+d}")
    print(f"  difference        : {diff:.3e}")
    return rep, fred, diff


def cmd_index(triple_path, idem_path, times_paths) -> int:
    if times_paths and len(times_paths) > 2:
        print("error: --times takes a triple file and at most one "
              "idempotent file", file=sys.stderr)
        return 2
    try:
        t1 = triple_from_json(_load_json(triple_path))
        e1 = idempotent_from_json(_load_json(idem_path))
        factors = [("factor 1", t1, e1)]
        if times_paths:
            t2 = triple_from_json(_load_json(times_paths[0]))
            if len(times_paths) == 2:
                e2 = idempotent_from_json(_load_json(times_paths[1]))
            else:
                e2 = Idempotent(np.eye(t2.hilbert_dim))
            factors.append(("factor 2", t2, e2))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ok = True
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        try:
            for label, t, e in factors:
                rep, fred, diff = _index_lines(label, t, e)
                results.append((rep, fred))
                ok = ok and diff <= INDEX_INTEGER_TOL
            if len(factors) == 2:
                (_, t1, e1), (_, t2, e2) = factors
                if e1.blocks == 1 and e2.blocks == 1:
                    prod = product_triple(t1, t2)
                    e12 = Idempotent(np.kron(e1.matrix, e2.matrix))
                    _, fred12, diff12 = _index_lines("product", prod, e12)
                    expected = results[0][1] * results[1][1]
                    print(f"  product law       : {fred12:+d} vs "
                          f"{results[0][1]:+d} * {results[1][1]:+d}"
                          f" = {expected:+d}")
                    ok = ok and diff12 <= INDEX_INTEGER_TOL \
                        and fred12 == expected
                else:
                    print("product law skipped: matrix-amplified idempotents")
        except (NonConvergentError, NonIntegerIndexError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


# ----------------------------------------------------------------- decompose

def _region_table(counter: Counter, n_located: int, n_regions: int):
    """Per-region hit statistics against the uniform-volume prediction."""
    expected = 1.0 / n_regions
    rows = []
    for key in sorted(counter):
        frac = counter[key] / n_located
        se = math.sqrt(expected * (1.0 - expected) / n_located)
        z = (frac - expected) / se if se else 0.0
        rows.append((key, counter[key], frac, z))
    return expected, rows


def _print_volume_stats(counter, n_located, n_regions, samples, skipped):
    expected, rows = _region_table(counter, n_located, n_regions)
    print(f"  samples: {samples} located, {n_located} used,"
          f" {skipped} tied/skipped")
    print(f"  expected volume fraction per region: {expected:.6f}")
    missing = n_regions - len(rows)
    if missing:
        print(f"  WARNING: {missing} regions received no samples")
    if n_regions <= 30:
        print(f"  {'region':>8}  {'hits':>8}  {'fraction':>9}  {'z':>6}")
        for key, hits, frac, z in rows:
            print(f"  {key:>8}  {hits:>8}  {frac:>9.5f}  {z:>6.2f}")
    zs = [abs(z) for _, _, _, z in rows]
    print(f"  max |z| over {len(rows)} populated regions:"
          f" {max(zs):.2f}" if zs else "  no populated regions")


def _sample_regions(perms, values) -> int:
    """Locate every row of values in the region of its sorting permutation
    and print the per-region counts, one region per row of the image array
    perms; exact ties are skipped.  Returns 1 when a row falls outside every
    enumerated region."""
    keys = {tuple(row): k for k, row in enumerate(perms.tolist())}
    images, tied = sorting_images(values)
    counter = Counter()
    strays = 0
    for row in images[~tied].tolist():
        key = keys.get(tuple(row))
        if key is None:
            strays += 1
        else:
            counter[key] += 1
    used = sum(counter.values())
    _print_volume_stats(counter, used, len(perms), len(values),
                        int(np.count_nonzero(tied)))
    if strays:
        print(f"  WARNING: {strays} samples fell outside every region",
              file=sys.stderr)
        return 1
    return 0


def decompose_shuffle(p: int, q: int, samples: int, rng) -> int:
    perms = enumerate_shuffles(p, q)
    closed = math.comb(p + q, p)
    print(f"shuffle decomposition, degrees ({p}, {q})")
    print(f"  enumerated regions: {len(perms)}")
    print(f"  closed form binomial({p + q}, {p}): {closed}")
    if len(perms) != closed:
        print("  COUNT MISMATCH", file=sys.stderr)
        return 1
    if p + q == 0 or samples == 0:
        return 0
    values = np.hstack([sample_simplex_batch(p, rng, samples),
                        sample_simplex_batch(q, rng, samples)])
    return _sample_regions(perms, values)


def decompose_cyclic(degrees, samples: int, rng) -> int:
    degrees = tuple(int(p) for p in degrees)
    r = len(degrees)
    n = r + sum(degrees)
    closed = math.factorial(n) // (
        math.factorial(r) * math.prod(math.factorial(p) for p in degrees))
    if closed > DECOMPOSE_REGION_BUDGET:
        print(f"error: {closed} regions exceed the enumeration budget",
              file=sys.stderr)
        return 2
    perms = enumerate_cyclic_shuffles(degrees)
    print(f"cyclic-shuffle decomposition, {r} blocks of degrees {degrees}")
    print(f"  enumerated regions: {len(perms)}")
    print(f"  closed form {n}!/({r}!*{'*'.join(f'{p}!' for p in degrees)}):"
          f" {closed}")
    if len(perms) != closed:
        print("  COUNT MISMATCH", file=sys.stderr)
        return 1
    if samples == 0:
        return 0
    s = sample_simplex_batch(r, rng, samples)
    cols = []
    for i, p in enumerate(degrees):
        cols.append(s[:, i:i + 1])
        if p:
            t = sample_simplex_batch(p, rng, samples)
            cols.append((s[:, i:i + 1] + t) % 1.0)
    return _sample_regions(perms, np.hstack(cols))


def cmd_decompose(args, seed: int) -> int:
    degrees = args.shuffle if args.shuffle is not None else args.cyclic
    if args.samples < 0:
        print("error: --samples must be non-negative", file=sys.stderr)
        return 2
    if any(p < 0 for p in degrees):
        print("error: degrees must be non-negative", file=sys.stderr)
        return 2
    if max(degrees) > DECOMPOSE_DEGREE_LIMIT:
        print(f"error: degrees above {DECOMPOSE_DEGREE_LIMIT} are not "
              f"supported", file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    if args.shuffle is not None:
        return decompose_shuffle(degrees[0], degrees[1], args.samples, rng)
    return decompose_cyclic(degrees, args.samples, rng)


# ---------------------------------------------------------------- entrypoint

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlolab",
        description="Numerical laboratory for graded spectral triples: "
                    "heat-kernel cochains, shuffle operations, and index "
                    "pairings.")
    sub = parser.add_subparsers(dest="command", required=True)

    vf = sub.add_parser("verify",
                        help="run every identity suite and report residuals")
    vf.add_argument("--seed", type=int, default=None,
                    help="master seed for all randomness")
    vf.add_argument("--tolerance", type=float, default=None,
                    help="override every per-identity tolerance")
    vf.add_argument("--mc-samples", type=int, default=None, dest="mc_samples",
                    help="Monte Carlo sample count per estimate")
    vf.add_argument("--report", default=None, metavar="PATH",
                    help="write a JSON report to PATH")
    vf.add_argument("--config", default=None, metavar="PATH",
                    help="JSON file with RunConfig fields")

    ix = sub.add_parser("index",
                        help="pair a triple with an idempotent both ways")
    ix.add_argument("triple", help="JSON file holding the triple")
    ix.add_argument("idempotent", help="JSON file holding the idempotent")
    ix.add_argument("--times", nargs="+", metavar="FILE", default=None,
                    help="second triple file, optionally followed by its "
                         "idempotent file (defaults to the unit)")

    dc = sub.add_parser("decompose",
                        help="check simplex decompositions by enumeration "
                             "and sampling")
    group = dc.add_mutually_exclusive_group(required=True)
    group.add_argument("--shuffle", nargs=2, type=int, metavar=("P", "Q"))
    group.add_argument("--cyclic", nargs="+", type=int, metavar="P")
    dc.add_argument("--samples", type=int, default=100_000,
                    help="Monte Carlo sample count (default 100000)")
    dc.add_argument("--seed", type=int, default=None,
                    help="seed for the samples (default 42)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "index":
            return cmd_index(args.triple, args.idempotent, args.times)
        try:
            config = load_config(args)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return 2
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_decompose(args, config.seed)
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
