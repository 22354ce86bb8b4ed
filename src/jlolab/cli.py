"""Batch front end: verification suites, index runs, simplex decompositions.

Each subcommand takes only the flags it reads: `verify` the RunConfig flags
(--seed, --mc-samples, --config) and --report, the report's path, `index`
its two files and --times, `decompose` its mode, --samples and --seed.
`verify` runs `suites.run_suite` on the RunConfig it builds, so its report
rows are exactly what the library call returns for that config; `index`
refuses a pair over INDEX_DIM_LIMIT before it builds any; `decompose`
runs one count-then-sample sequence for its shuffle and cyclic modes.  Exit
codes: 0 success, 1 a failed check or write (one `error:` line; none when
stdout was closed early), 2 usage, input-parsing or size-bound failure.
Reports are deterministic for a fixed configuration and seed up to the
timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .jlo import NonConvergentError, index_pairing
from .shuffles import (
    _cyclic_coordinates,
    cyclic_shuffle_peak_rows,
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    sample_simplex_batch,
    sorting_images,
)
from .spectral import (
    INDEX_INTEGER_TOL,
    Idempotent,
    NonIntegerIndexError,
    idempotent_from_json,
    index_of_pair,
    product_triple,
    triple_from_json,
    validate_idempotent,
)
from .suites import RunConfig, format_report_rows, run_suite

__all__ = ["main"]

DECOMPOSE_DEGREE_LIMIT = 6
DECOMPOSE_ROW_BUDGET = 2_000_000
# the largest Hilbert dimension of a pair `index` checks, ampliation and
# product included: a 256-dimensional pair, as one factor or as a 16 x 16
# product, took 3.1-4.5 s and peaked at 138-151 MB on one BLAS thread of a
# 2-core Xeon; time grows as d^3
INDEX_DIM_LIMIT = 256


def load_config(args) -> RunConfig:
    """Merge RunConfig's defaults, an optional JSON config file, and the
    flags of `verify`."""
    data, names = {}, {f.name for f in fields(RunConfig)}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - names)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        data.update(raw)
    # each RunConfig flag's dest is the field it sets; --report's is no field
    data.update((k, v) for k, v in vars(args).items()
                if k in names and v is not None)
    return RunConfig(**data)


# -------------------------------------------------------------------- verify

def cmd_verify(config: RunConfig, report_path) -> int:
    # the report file opens before any identity runs, so a path that cannot
    # be written is bad input, not a failed check after the whole suite
    try:
        fh = open(report_path, "w") if report_path else None
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    with fh or contextlib.nullcontext():
        rows = run_suite(config)
        print(format_report_rows(rows), end="")
        passed = sum(1 for r in rows if r["pass"])
        ok = passed == len(rows)
        if config.trials == 0:
            print("warning: trials = 0, no identity checks were run",
                  file=sys.stderr)
        else:
            print(f"{passed}/{len(rows)} identities passed")
        if fh is not None:
            report = {
                "schema": 1,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "config": asdict(config),
                "identities": rows,
                "summary": {"checks": len(rows), "passed": passed,
                            "failed": len(rows) - passed, "all_pass": ok},
            }
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


# --------------------------------------------------------------------- index

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _index_lines(label, amp, e, basis):
    """Print the character pairing and the Fredholm index of one pair
    (amp, e, basis) checked by validate_idempotent; return the index and
    the gap between the two."""
    rep = index_pairing(amp, e)
    fred = index_of_pair(amp, basis)
    diff = abs(rep.value - fred)
    print(f"{label}:")
    print(f"  character pairing : {rep.value.real:+.9f}"
          f"  (truncated at degree {rep.truncation_degree},"
          f" last term {rep.last_term_magnitude:.2e})")
    print(f"  fredholm index    : {fred:+d}")
    print(f"  difference        : {diff:.3e}")
    return fred, diff


def cmd_index(triple_path, idem_path, times_paths) -> int:
    if times_paths and len(times_paths) > 2:
        print("error: --times takes a triple file and at most one "
              "idempotent file", file=sys.stderr)
        return 2
    try:
        t1 = triple_from_json(_load_json(triple_path))
        e1 = idempotent_from_json(_load_json(idem_path))
        factors = [(t1, e1)]
        if times_paths:
            t2 = triple_from_json(_load_json(times_paths[0]))
            if len(times_paths) == 2:
                e2 = idempotent_from_json(_load_json(times_paths[1]))
            else:
                e2 = Idempotent(np.eye(t2.hilbert_dim))
            factors.append((t2, e2))
        # every pair's size is known before any pair is built
        dims = [t.hilbert_dim * e.blocks for t, e in factors]
        product = len(factors) == 2 and e1.blocks == e2.blocks == 1
        if product:
            dims.append(dims[0] * dims[1])
        if max(dims) > INDEX_DIM_LIMIT:
            raise ValueError(f"Hilbert dimension {max(dims)} is over the "
                             f"bound of {INDEX_DIM_LIMIT}")
        pairs = [validate_idempotent(t, e) for t, e in factors]
        if product:
            pairs.append(validate_idempotent(
                product_triple(t1, t2),
                Idempotent(np.kron(e1.matrix, e2.matrix))))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ok = True
    freds = []
    try:
        for label, pair in zip(("factor 1", "factor 2", "product"), pairs):
            fred, diff = _index_lines(label, *pair)
            freds.append(fred)
            ok = ok and diff <= INDEX_INTEGER_TOL
    except (NonConvergentError, NonIntegerIndexError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(freds) == 3:
        expected = freds[0] * freds[1]
        print(f"  product law       : {freds[2]:+d} vs "
              f"{freds[0]:+d} * {freds[1]:+d} = {expected:+d}")
        ok = ok and freds[2] == expected
    elif times_paths:
        print("product law skipped: matrix-amplified idempotents")
    return 0 if ok else 1


# ----------------------------------------------------------------- decompose

def _print_volume_stats(counts, samples, skipped):
    # per-region hit statistics against the uniform-volume prediction;
    # counts[k] is the number of samples located in region k
    n_regions = len(counts)
    n_located = int(counts.sum())
    expected = 1.0 / n_regions
    rows = []
    for key in np.flatnonzero(counts).tolist():
        hits = int(counts[key])
        frac = hits / n_located
        se = math.sqrt(expected * (1.0 - expected) / n_located)
        z = (frac - expected) / se if se else 0.0
        rows.append((key, hits, frac, z))
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


def _row_keys(rows) -> np.ndarray:
    """One fixed-width byte key per row of an integer array, equal exactly
    when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _sample_regions(perms, values) -> int:
    """Locate every row of values in the region of its sorting permutation
    and print the per-region counts, one region per row of the image array
    perms; exact ties are skipped.  Returns 1 when a row falls outside every
    enumerated region.

    Rows are compared as byte keys: one sort of the region keys, one
    binary search for all samples, one bincount of the hits."""
    images, tied = sorting_images(values)
    images = images[~tied]
    keys, found = _row_keys(perms), _row_keys(images)
    order = np.argsort(keys, kind="stable")
    # the last region key at or below each sample key (of equal region
    # rows the last one counts); a sample below every key reads the first
    at = np.searchsorted(keys[order], found, side="right") - 1
    region = order[np.maximum(at, 0)]
    hit = keys[region] == found
    counts = np.bincount(region[hit], minlength=len(perms))
    strays = len(images) - int(np.count_nonzero(hit))
    _print_volume_stats(counts, len(values), int(np.count_nonzero(tied)))
    if strays:
        print(f"  WARNING: {strays} samples fell outside every region",
              file=sys.stderr)
        return 1
    return 0


def cmd_decompose(args) -> int:
    degrees = tuple(args.shuffle if args.shuffle is not None else args.cyclic)
    if args.seed < 0:
        print("error: invalid configuration: seed must be non-negative",
              file=sys.stderr)
        return 2
    if args.samples < 0:
        print("error: --samples must be non-negative", file=sys.stderr)
        return 2
    # samples are rows as wide as the enumeration's, under the same budget
    if args.samples > DECOMPOSE_ROW_BUDGET:
        print(f"error: --samples {args.samples} is over the budget of "
              f"{DECOMPOSE_ROW_BUDGET}", file=sys.stderr)
        return 2
    if any(p < 0 for p in degrees):
        print("error: degrees must be non-negative", file=sys.stderr)
        return 2
    if max(degrees) > DECOMPOSE_DEGREE_LIMIT:
        print(f"error: degrees above {DECOMPOSE_DEGREE_LIMIT} are not "
              f"supported", file=sys.stderr)
        return 2
    # each mode gives its regions, their closed-form count and the widths of
    # the simplex samples that make one point: (p, q), or (r, p_1, ..., p_r)
    if args.shuffle is not None:
        p, q = degrees
        widths = degrees
        closed = math.comb(p + q, p)
        perms = enumerate_shuffles(p, q)
        title = "shuffle decomposition, degrees"
        formula = f"binomial({p + q}, {p})"
    else:
        widths = (len(degrees), *degrees)
        n = sum(widths)
        closed = math.factorial(n) // math.prod(map(math.factorial, widths))
        rows = cyclic_shuffle_peak_rows(degrees)
        if rows > DECOMPOSE_ROW_BUDGET:
            print(f"error: {closed} regions take {rows} rows to enumerate, "
                  f"over the budget of {DECOMPOSE_ROW_BUDGET}",
                  file=sys.stderr)
            return 2
        perms = enumerate_cyclic_shuffles(degrees)
        title = f"cyclic-shuffle decomposition, {widths[0]} blocks of degrees"
        formula = f"{n}!/({'*'.join(f'{k}!' for k in widths)})"
    print(f"{title} {degrees}")
    print(f"  enumerated regions: {len(perms)}")
    print(f"  closed form {formula}: {closed}")
    if len(perms) != closed:
        print("  COUNT MISMATCH", file=sys.stderr)
        return 1
    if perms.shape[1] == 0 or args.samples == 0:  # no point, or none asked
        return 0
    # a degree-0 block's zero-width draw takes nothing from the generator
    rng = np.random.default_rng(args.seed)
    blocks = [sample_simplex_batch(k, rng, args.samples) for k in widths]
    if args.shuffle is not None:
        return _sample_regions(perms, np.hstack(blocks))
    return _sample_regions(perms, _cyclic_coordinates(blocks[0], blocks[1:]))


# ---------------------------------------------------------------- entrypoint

def _build_parser() -> argparse.ArgumentParser:
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
    vf.add_argument("--mc-samples", type=int, default=None, dest="mc_samples",
                    help="Monte Carlo sample count per estimate")
    vf.add_argument("--report", default=None, dest="report_path",
                    metavar="PATH", help="write a JSON report to PATH")
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
    dc.add_argument("--seed", type=int, default=42,
                    help="seed for the samples (default 42)")
    return parser


# built once per process; parse_args returns a fresh namespace per call
_PARSER = _build_parser()


def _dispatch(args) -> int:
    if args.command == "index":
        return cmd_index(args.triple, args.idempotent, args.times)
    if args.command == "decompose":
        return cmd_decompose(args)
    try:
        config = load_config(args)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return cmd_verify(config, args.report_path)


def main(argv=None) -> int:
    try:
        code = _dispatch(_PARSER.parse_args(argv))
        sys.stdout.flush()
    except KeyboardInterrupt:
        return 1
    except OSError as exc:
        # input errors return 2 inside each command, so a write to stdout
        # or the report failed; a reader that closed stdout ends it quietly
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout to devnull: the flush at exit raises no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
