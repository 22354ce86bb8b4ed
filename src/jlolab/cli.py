"""Batch front end: verification suites, index runs, simplex decompositions.

Each subcommand takes only the flags it reads: `verify` the RunConfig flags
(--seed, --mc-samples, --config) and --report, the report's path, `index`
its two files and --times, `decompose` its mode, --samples and --seed.
`verify` runs `suites.run_suite` on the RunConfig it builds, so its report
rows are exactly what the library call returns for that config; `index`
refuses a pair over INDEX_DIM_LIMIT from the sizes its files declare,
before it decodes any matrix, and with --times
checks the product law on the product of the two checked (ampliated)
triples, whatever their blocks; `decompose` runs one count-then-sample
sequence for its shuffle and cyclic modes, and locates its samples by
exact int64 keys of their sorting orders, below 16 ** 15 = 2 ** 60 since
no family it admits is wider than 16.  One reader, `_load_json`,
reads every JSON file, as UTF-8 under any locale.  Exit codes: 0
success, 1 a failed check or write (one `error:` line; none when stdout
was closed early), 2 usage, input or
size-bound failure, which each command raises as `_Refused` and `main`
alone prints as one `error:` line.  Reports are deterministic for a fixed
configuration and seed up to the timestamp field.
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
    _sorting_order,
    cyclic_shuffle_peak_rows,
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    sample_simplex_batch,
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
# product included: a 256-dimensional pair at dirac_scale 0.05 took
# 1.8-2.7 s and peaked at 138 MB as a 16 x 16 product, and 2.1-2.9 s and
# 181 MB as one factor read from 7.7 MB of JSON, on one BLAS thread of a
# shared 2-core Xeon; time grows as d^3.  The bound is read from the sizes
# the decoded files declare, so an oversize file is still read and decoded
# whole first (0.5 s and 160 MB for a refused 512-dimensional pair): no
# byte size bounds d, because a valid file may carry many generators or
# long number strings
INDEX_DIM_LIMIT = 256
# what reading and checking an input file or the config may raise
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError)


class _Refused(Exception):
    """Bad input: `main` prints `error: <message>` and exits 2."""


def _load_json(path):
    """The JSON value in a file, read once and decoded as UTF-8 (RFC 8259
    section 8.1) under any locale; a BOM, another encoding or too deep a
    nesting is a ValueError."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    # line breaks as a text-mode read gives them, so a JSON error's line,
    # column and position count each break as one character
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting is too deep to decode") from None


def load_config(args) -> RunConfig:
    """Merge RunConfig's defaults, an optional JSON config file, and the
    flags of `verify`."""
    data, names = {}, {f.name for f in fields(RunConfig)}
    if args.config:
        raw = _load_json(args.config)
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
        raise _Refused(f"cannot write the report: {exc}") from exc
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

def _index_lines(label, amp, e):
    """Print the character pairing and the Fredholm index of one pair
    (amp, e) checked by validate_idempotent; return the index and the gap
    between the two."""
    rep = index_pairing(amp, e)
    fred = index_of_pair(amp, e)
    diff = abs(rep.value - fred)
    print(f"{label}:")
    print(f"  character pairing : {rep.value.real:+.9f}"
          f"  (truncated at degree {rep.truncation_degree},"
          f" last term {rep.last_term_magnitude:.2e})")
    print(f"  fredholm index    : {fred:+d}")
    print(f"  difference        : {diff:.3e}")
    return fred, diff


def _declared_dims(objs):
    """The Hilbert dimension of each pair, and of their product when there
    are two, as the loaded files (triple, idempotent, triple, idempotent)
    declare them, before any matrix is decoded; None when a size field is
    missing or not a plain integer in range, so decoding refuses that file
    with its own message."""
    def size(obj, key, least, default=None):
        value = obj.get(key, default) if isinstance(obj, dict) else None
        return value if type(value) is int and value >= least else None

    dims = []
    # a --times triple without an idempotent file pairs with {}: blocks 1
    for triple, idem in zip(objs[0::2], objs[1::2] + [{}]):
        sizes = (size(triple, "dim_even", 0), size(triple, "dim_odd", 0),
                 size(idem, "blocks", 1, default=1))
        if None in sizes:
            return None
        dims.append((sizes[0] + sizes[1]) * sizes[2])
    return dims + [math.prod(dims)] if len(dims) == 2 else dims


def cmd_index(triple_path, idem_path, times_paths) -> int:
    if times_paths and len(times_paths) > 2:
        raise _Refused("--times takes a triple file and at most one "
                       "idempotent file")
    try:
        objs = [_load_json(p)
                for p in (triple_path, idem_path, *(times_paths or ()))]
        # every pair's size is known before any matrix is decoded
        dims = _declared_dims(objs)
        if dims and max(dims) > INDEX_DIM_LIMIT:
            raise ValueError(f"Hilbert dimension {max(dims)} is over the "
                             f"bound of {INDEX_DIM_LIMIT}")
        t1, e1 = triple_from_json(objs[0]), idempotent_from_json(objs[1])
        factors = [(t1, e1)]
        if times_paths:
            t2 = triple_from_json(objs[2])
            e2 = (idempotent_from_json(objs[3]) if objs[3:]
                  else Idempotent(np.eye(t2.hilbert_dim)))
            factors.append((t2, e2))
        pairs = [validate_idempotent(t, e) for t, e in factors]
        if times_paths:
            # the product of the two checked (ampliated) triples
            pairs.append(validate_idempotent(
                product_triple(pairs[0][0], pairs[1][0]),
                Idempotent(np.kron(e1.matrix, e2.matrix))))
    except _BAD_INPUT as exc:
        raise _Refused(exc) from exc

    ok, freds = True, []
    try:
        for label, pair in zip(("factor 1", "factor 2", "product"), pairs):
            fred, diff = _index_lines(label, *pair)
            freds.append(fred)
            ok = ok and diff <= INDEX_INTEGER_TOL
    except (NonConvergentError, NonIntegerIndexError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        raise _Refused(exc) from exc
    if times_paths:
        expected = freds[0] * freds[1]
        print(f"  product law       : {freds[2]:+d} vs "
              f"{freds[0]:+d} * {freds[1]:+d} = {expected:+d}")
        ok = ok and freds[2] == expected
    return 0 if ok else 1


# ----------------------------------------------------------------- decompose

def _print_volume_stats(counts, samples, skipped):
    # per-region hit statistics against the uniform-volume prediction;
    # counts[k] is the number of samples located in region k.  Fractions
    # and z scores are whole-array float64 operations, the same IEEE steps
    # a per-region loop of Python floats takes, so they print alike.
    n_regions = len(counts)
    n_located = int(counts.sum())
    expected = 1.0 / n_regions
    regions = np.flatnonzero(counts)
    hits = counts[regions]
    frac = z = np.zeros(len(regions))
    if n_located:
        frac = hits / n_located
        se = math.sqrt(expected * (1.0 - expected) / n_located)
        if se:
            z = (frac - expected) / se
    print(f"  samples: {samples} located, {n_located} used,"
          f" {skipped} tied/skipped")
    print(f"  expected volume fraction per region: {expected:.6f}")
    missing = n_regions - len(regions)
    if missing:
        print(f"  WARNING: {missing} regions received no samples")
    if n_regions <= 30:
        print(f"  {'region':>8}  {'hits':>8}  {'fraction':>9}  {'z':>6}")
        for row in zip(regions.tolist(), hits.tolist(), frac.tolist(),
                       z.tolist()):
            print("  {:>8}  {:>8}  {:>9.5f}  {:>6.2f}".format(*row))
    print(f"  max |z| over {len(regions)} populated regions:"
          f" {np.abs(z).max():.2f}" if len(regions)
          else "  no populated regions")


def _order_keys(orders) -> np.ndarray:
    """One int64 per row of an (N, n) array of 0-based permutations, equal
    exactly when the rows are equal: entries 0 .. n - 2, which fix the
    last, read as base-n digits, so every key is below n ** (n - 1).

    decompose admits no family wider than 16: a shuffle pair is at most
    2 * DECOMPOSE_DEGREE_LIMIT = 12 wide, and a cyclic family r + sum p_i
    >= 17 wide starts from n!/prod (p_i + 1)! or ends at n!/(r! prod p_i!)
    rows, one of them over DECOMPOSE_ROW_BUDGET.  So keys stay below
    16 ** 15 = 2 ** 60, where int64 arithmetic is exact."""
    n = orders.shape[1]
    return orders[:, :-1] @ n ** np.arange(n - 2, -1, -1, dtype=np.int64)


def _sample_regions(perms, values) -> int:
    """Locate every row of values in the region of its sorting permutation
    and print the per-region counts, one region per row of the image array
    perms, each a permutation of 1..n; exact ties are skipped.  Returns 1
    when a row falls outside every enumerated region.

    A sample lies in region k when its sorting order (the stable argsort
    of its row) is the inverse of perms[k].  Both are compared as exact
    integer keys: one sort of the region keys and one of the sample keys,
    then two binary searches per region count the samples on its key."""
    order, tied = _sorting_order(values)
    # the argsort of a permutation row is its inverse, 0-based
    keys = _order_keys(np.argsort(perms, axis=1))
    found = np.sort(_order_keys(order)[~tied])
    rank = np.argsort(keys, kind="stable")
    ranked = keys[rank]
    hits = (np.searchsorted(found, ranked, side="right")
            - np.searchsorted(found, ranked, side="left"))
    # of equal region rows the last one counts: the stable sort lists
    # them in row order, so every one but the last of a run reads 0
    hits[:-1][ranked[1:] == ranked[:-1]] = 0
    counts = np.empty(len(perms), dtype=np.intp)
    counts[rank] = hits
    strays = len(found) - int(hits.sum())
    _print_volume_stats(counts, len(values), int(np.count_nonzero(tied)))
    if strays:
        print(f"  WARNING: {strays} samples fell outside every region",
              file=sys.stderr)
        return 1
    return 0


def cmd_decompose(args) -> int:
    degrees = tuple(args.shuffle if args.shuffle is not None else args.cyclic)
    if args.seed < 0:
        raise _Refused("invalid configuration: seed must be non-negative")
    if args.samples < 0:
        raise _Refused("--samples must be non-negative")
    # samples are rows as wide as the enumeration's, under the same budget
    if args.samples > DECOMPOSE_ROW_BUDGET:
        raise _Refused(f"--samples {args.samples} is over the budget of "
                       f"{DECOMPOSE_ROW_BUDGET}")
    if any(p < 0 for p in degrees):
        raise _Refused("degrees must be non-negative")
    if max(degrees) > DECOMPOSE_DEGREE_LIMIT:
        raise _Refused(f"degrees above {DECOMPOSE_DEGREE_LIMIT} are not "
                       "supported")
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
            raise _Refused(f"{closed} regions take {rows} rows to enumerate, "
                           f"over the budget of {DECOMPOSE_ROW_BUDGET}")
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
    values = (np.hstack(blocks) if args.shuffle is not None
              else _cyclic_coordinates(blocks[0], blocks[1:]))
    del blocks  # only the point rows stay in memory while they are located
    return _sample_regions(perms, values)


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
    except _BAD_INPUT as exc:
        raise _Refused(f"invalid configuration: {exc}") from exc
    return cmd_verify(config, args.report_path)


def main(argv=None) -> int:
    try:
        try:
            code = _dispatch(_PARSER.parse_args(argv))
        except _Refused as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()
    except KeyboardInterrupt:
        return 1
    except OSError as exc:
        # bad input is _Refused above, so a write to stdout or the report
        # failed; a reader that closed stdout ends it quietly
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
