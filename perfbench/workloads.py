"""The four benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (part of the
timed set-up), makes one unchecked warm-up call in `warm_up`, and then
performs one unit of work per `unit(index, rec)` call.  Every operation
inside a unit is timed on its own and checked; `Recorder` keeps the
latency and, for a failed check or an exception, a message.  A failure is
never retried or re-drawn.

Workloads call the package through module attributes (`jlolab.x`,
`cli.main`) so that the tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import threading
import time

import numpy as np
from scipy.linalg import expm as reference_expm

import jlolab
from jlolab import cli, suites
from tracer import rebind_everywhere, restore

clock = time.perf_counter


class Recorder:
    """Per-operation latencies and failure messages; thread-safe appends."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self._lock = threading.Lock()

    def add(self, latency, problem=None):
        with self._lock:
            self.latencies.append(latency)
            if problem:
                self.failures.append(problem)

    def op(self, label, fn, check):
        """Time fn(); then check(value) returns None or a problem string."""
        t0 = clock()
        try:
            value = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.add(clock() - t0, f"{label}: {type(exc).__name__}: {exc}")
            return
        latency = clock() - t0
        try:
            problem = check(value)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.add(latency, f"{label}: {problem}" if problem else None)


def _quiet_main(argv):
    """cli.main with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue().strip()


def _exit_problem(rc, err):
    return None if rc == 0 else f"exit code {rc}: {err[-200:]}"


def _close(value, ref, tol):
    err = abs(value - ref)
    if not err <= tol * (1.0 + abs(ref)):
        return f"value {value:.12g} differs from reference {ref:.12g} by {err:.3g}"
    return None


def _even_unitary(rng, space):
    u = np.zeros((space.dim, space.dim), dtype=np.complex128)
    de = space.dim_even
    for lo, n in ((0, de), (de, space.dim_odd)):
        if n:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(z)
            u[lo:lo + n, lo:lo + n] = q
    return u


def _random_projection(rng, k, rank):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, _ = np.linalg.qr(z)
    v = q[:, :rank]
    return v @ v.conj().T


# ------------------------------------------------------------------ verify

def install_trial_timer(rec):
    """Swap `suites.IDENTITIES` for trial functions that time themselves
    into rec and flag a residual above the identity's tolerance.
    Returns a function that restores the original tuple."""
    original = suites.IDENTITIES

    def timed(ident, tol, fn):
        def trial(*args, **kwargs):
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            except Exception as exc:
                rec.add(clock() - t0,
                        f"verify {ident}: {type(exc).__name__}: {exc}")
                raise
            latency = clock() - t0
            bad = not float(r) <= tol
            rec.add(latency, f"verify {ident}: residual {float(r):.3e} > "
                             f"{tol:.1e}" if bad else None)
            return r
        return trial

    patches = rebind_everywhere(original, tuple(
        (ident, tol, timed(ident, tol, fn)) for ident, tol, fn in original))
    return lambda: restore(patches)


class Verify:
    """`jlolab verify --seed S` through cli.main; one unit is one report.

    Each unit uses the next seed drawn from the benchmark seed, so a run
    averages over several reports.  The operation is one identity trial,
    timed by `install_trial_timer`.
    """

    name = "verify"
    SMALL_CONFIG = {"trials": 1, "dims": [[1, 1]], "max_degree": 1,
                    "mc_samples": 500}

    def __init__(self, seed, workdir, small=False):
        self.seeds = [int(s) for s in
                      np.random.SeedSequence(seed).generate_state(64)]
        self.report = os.path.join(workdir, "verify-report.json")
        self.small_config = os.path.join(workdir, "verify-small.json")
        with open(self.small_config, "w") as fh:
            json.dump(self.SMALL_CONFIG, fh)
        self.small = small

    def warm_up(self):
        _quiet_main(["verify", "--seed", str(self.seeds[-1]),
                     "--config", self.small_config])

    def unit(self, index, rec):
        argv = ["verify", "--seed", str(self.seeds[index % len(self.seeds)]),
                "--report", self.report]
        if self.small:
            argv += ["--config", self.small_config]
        before = len(rec.failures)
        try:
            rc, _, err = _quiet_main(argv)
            with open(self.report) as fh:
                rows = json.load(fh)["identities"]
            failed_rows = [r["identity"] for r in rows if not r["pass"]]
            problem = _exit_problem(rc, err) or (
                f"failed rows {failed_rows}" if failed_rows else None)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        # a failed trial is already counted; record only what no trial showed
        if problem and len(rec.failures) == before:
            rec.failures.append(f"verify: {problem}")


# ----------------------------------------------------------------- algebra

# Twelve distinct degree tuples: more than the lru_cache(8) on
# enumerate_cyclic_shuffles holds, so a round never hits that cache.  The
# cyclic `decompose` calls below use tuples outside this list.
CYCLIC_TUPLES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2),
                 (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (1, 1, 1, 1))
SHUFFLE_PAIRS = ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (5, 5))
# Chain laws are the suite's own trials (so the `suites` layer is traced
# here too), run once over 2|1 and once over 1|1; br([a]) = B(a) is not in
# the suite and is checked at the suite's chain-law tolerance.
SUITE_LAWS = ("hochschild_square_zero", "connes_square_zero",
              "boundaries_anticommute", "shuffle_associativity")
LAW_SPACES = (((2, 1),), ((1, 1),))
BR_TOL = 1e-10
# 45 operations a unit, so that the 50th and 90th percentile ranks fall in
# the middle of one operation's latencies (ranks 22.5 and 40.5), not on the
# edge between two operations of different cost.
LOCATE_BATCHES = 13
LOCATE_POINTS = 7


class Algebra:
    """Combinatorics and chain algebra only: no cochain is evaluated.

    The operation is one checked enumeration, chain law, region-location
    batch or `decompose` call; one unit is one round over all of them.
    Chain laws run through the suite's trial functions, looked up in
    `suites.IDENTITIES` at call time.
    """

    name = "algebra"

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        self.seed = seed
        # a fixed order: where the garbage collector runs inside a unit
        # depends on it, and with it the latency of each enumeration
        self.cyclic = list(CYCLIC_TUPLES)
        self.shuffles = list(SHUFFLE_PAIRS)
        if small:
            self.cyclic = self.cyclic[:2]
            self.shuffles = self.shuffles[:2]
        rc = jlolab.random_chain
        self.br_chains = [rc(rng, jlolab.GradedSpace(*d[0]), range(0, 5))
                          for d in LAW_SPACES]
        self.law_spaces, self.suite_laws = LAW_SPACES, SUITE_LAWS
        if small:
            self.law_spaces, self.suite_laws = LAW_SPACES[1:], SUITE_LAWS[:1]
        samples = "200" if small else "4000"
        self.decompose = [
            ["decompose", "--shuffle", "3", "2", "--samples", samples],
            ["decompose", "--shuffle", "4", "4", "--samples", samples],
            ["decompose", "--cyclic", "1", "2", "1", "--samples", samples],
            ["decompose", "--cyclic", "1", "3", "--samples", samples],
        ]
        self.locate_degrees = (2, 1, 1)
        self.locate_points = []
        for _ in range(LOCATE_BATCHES):
            batch = []
            for _ in range(LOCATE_POINTS):
                s = np.sort(rng.random(3))
                ts = [np.sort(rng.random(p)) for p in self.locate_degrees]
                batch.append((s, ts))
            self.locate_points.append(batch)

    def _br_law(self, a, rng):
        return jlolab.probe_distance(jlolab.br_operation([a]),
                                     jlolab.connes_B(a), rng)

    def warm_up(self):
        self._br_law(self.br_chains[-1], np.random.default_rng(0))

    def unit(self, index, rec):
        prng = np.random.default_rng([self.seed, index])
        for degs in self.cyclic:
            n = len(degs) + sum(degs)
            count = math.factorial(n) // (math.factorial(len(degs)) * math.prod(
                math.factorial(p) for p in degs))
            rec.op(f"cyclic shuffles {degs}",
                   lambda: jlolab.enumerate_cyclic_shuffles(degs),
                   lambda out: None if len(out) == count
                   else f"{len(out)} regions, closed form {count}")
        for p, q in self.shuffles:
            count = math.comb(p + q, p)
            rec.op(f"shuffles {(p, q)}",
                   lambda: jlolab.enumerate_shuffles(p, q),
                   lambda out: None if len(out) == count
                   else f"{len(out)} shuffles, closed form {count}")
        laws = {name: (tol, fn) for name, tol, fn in suites.IDENTITIES}
        for dims in self.law_spaces:
            for name in self.suite_laws:
                tol, trial = laws[name]
                rec.op(f"{name} over {dims[0]}", lambda: trial(prng, dims),
                       lambda r: None if r <= tol
                       else f"residual {r:.3e} > {tol:.1e}")
        for a in self.br_chains:
            rec.op(f"br([a]) = B(a) over dim {a.algebra_dim}",
                   lambda: self._br_law(a, prng),
                   lambda r: None if r <= BR_TOL else f"residual {r:.3e}")
        for argv in self.decompose:
            sample_seed = str(int(prng.integers(2 ** 31)))
            rec.op(" ".join(argv),
                   lambda: _quiet_main(argv + ["--seed", sample_seed]),
                   lambda result: _exit_problem(result[0], result[2]))
        degs = self.locate_degrees
        for batch in self.locate_points:
            def locate():
                return [jlolab.cyclic_region_locate(degs, s, ts)
                        for s, ts in batch]
            rec.op(f"locate {degs}", locate, lambda perms: None if all(
                p is not None and jlolab.is_cyclic_shuffle(p, degs)
                for p in perms) else "a point was not located in a region")


# ------------------------------------------------------------------- index

# Pairs of blocks-1 catalogue entries (by index) whose product triple keeps
# the degree-capped pairing series convergent.
PRODUCT_PAIRS = ((0, 4), (2, 0), (5, 7), (3, 1), (9, 5), (4, 10), (2, 3),
                 (7, 7))
_PAIRING = re.compile(r"character pairing : ([-+0-9.eE]+)")
_FREDHOLM = re.compile(r"fredholm index    : ([-+0-9]+)")


class Index:
    """`jlolab index` through cli.main on JSON files written in set-up.

    Inputs: the curated catalogue, one ampliated variant of each blocks-1
    entry, and `--times` products, each conjugated by a seeded even
    unitary (which leaves every index unchanged).  The operation is one
    invocation; one unit is one pass over all of them.
    """

    name = "index"

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        catalogue = jlolab.curated_index_pairs()
        entries = []
        for label, t, e, expected in catalogue:
            u = _even_unitary(rng, t.space)
            d = u @ t.dirac @ u.conj().T
            t2 = jlolab.SpectralTripleFD(
                t.space, 0.5 * (d + d.conj().T),
                [u @ g @ u.conj().T for g in t.generators],
                basis_map=t.basis_map, label=t.label)
            ua = np.kron(t.unrepresent(u), np.eye(e.blocks))
            e2 = jlolab.Idempotent(ua @ e.matrix @ ua.conj().T,
                                   blocks=e.blocks)
            entries.append((label, t2, e2, expected))
        self.calls = []

        def write(tag, obj):
            path = os.path.join(workdir, f"index-{tag}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return path

        files = []
        for i, (label, t, e, expected) in enumerate(entries):
            files.append((write(f"t{i}", jlolab.triple_to_json(t)),
                          write(f"e{i}", jlolab.idempotent_to_json(e))))
            self.calls.append((label, [files[i][0], files[i][1]], [expected]))
        for i, (label, t, e, expected) in enumerate(entries):
            if e.blocks != 1:
                continue
            k, rank = 2 + i % 2, 1 + i % 2
            amp = jlolab.Idempotent(
                np.kron(e.matrix, _random_projection(rng, k, rank)), blocks=k)
            path = write(f"a{i}", jlolab.idempotent_to_json(amp))
            self.calls.append((f"{label} (x) rank {rank} in M_{k}",
                               [files[i][0], path], [expected * rank]))
        for i, j in PRODUCT_PAIRS:
            ei, ej = entries[i][3], entries[j][3]
            self.calls.append((f"{entries[i][0]} times {entries[j][0]}",
                               [files[i][0], files[i][1], "--times",
                                files[j][0], files[j][1]], [ei, ej, ei * ej]))
        order = rng.permutation(len(self.calls))
        self.calls = [self.calls[k] for k in order]
        if small:
            self.calls = self.calls[:3]

    def warm_up(self):
        _quiet_main(["index"] + self.calls[0][1])

    @staticmethod
    def _check(result, expected):
        rc, text, err = result
        if rc != 0:
            return _exit_problem(rc, err)
        pairings = [float(x) for x in _PAIRING.findall(text)]
        freds = [int(x) for x in _FREDHOLM.findall(text)]
        if len(pairings) != len(expected) or len(freds) != len(expected):
            return f"expected {len(expected)} pairings in the output"
        for p, f, x in zip(pairings, freds, expected):
            if not (round(p) == f == x):
                return f"pairing {p:+.9f}, fredholm {f:+d}, expected {x:+d}"
        return None

    def unit(self, index, rec):
        for label, argv, expected in self.calls:
            rec.op(f"index {label}", lambda: _quiet_main(["index"] + argv),
                   lambda result: self._check(result, expected))


# ----------------------------------------------------------------- cochain

CHAIN_TOL = 1e-10
MC_SAMPLES = 10_000
# A correct estimate lies beyond 4 standard errors about once in 10^4
# calls, and a set of runs makes about 10^4 of them; beyond 6, about once
# in 10^9.  A wrong weight or volume factor misses by far more.
MC_SE_TOL = 6.0
TERMS_PER_DEGREE = 3
# 35 cochain values, one MC estimate and 9 integrand points: 45 operations
# a unit, for the reason given at LOCATE_BATCHES.
INTEGRAND_POINTS = 9


def _slots(t, factors, first_slot_d):
    reps = [t.represent(f) for f in factors]
    dm = t.dirac
    head = dm @ reps[0] - reps[0] @ dm if first_slot_d else reps[0]
    return [head] + [dm @ r - r @ dm for r in reps[1:]]


def reference_term(t, factors, first_slot_d=False):
    """Simplex integral by the Van Loan block exponential (scipy's expm),
    computed in the benchmark as an oracle independent of jlolab's kernel."""
    ops = _slots(t, factors, first_slot_d)
    g = t.space.gamma_diag
    n, d = len(ops) - 1, t.hilbert_dim
    delta = t.dirac @ t.dirac
    m = np.zeros(((n + 1) * d, (n + 1) * d), dtype=np.complex128)
    for k in range(n + 1):
        m[k * d:(k + 1) * d, k * d:(k + 1) * d] = -delta
    for k in range(1, n + 1):
        m[(k - 1) * d:k * d, k * d:(k + 1) * d] = ops[k]
    kernel = reference_expm(m)[:d, n * d:]
    return complex(np.sum(g * np.diagonal(ops[0] @ kernel)))


def reference_cochain(t, chain, first_slot_d=False):
    return sum(term.coeff * reference_term(t, term.factors, first_slot_d)
               for term in chain.normalized().terms)


def reference_integrand(t, factors, point):
    ops = _slots(t, factors, False)
    gaps = np.diff(np.concatenate([[0.0], point, [1.0]]))
    delta = t.dirac @ t.dirac
    cur = ops[0] @ reference_expm(-gaps[0] * delta)
    for k in range(1, len(ops)):
        cur = cur @ ops[k] @ reference_expm(-gaps[k] * delta)
    return complex(np.sum(t.space.gamma_diag * np.diagonal(cur)))


def _even_chain(rng, t, degrees, terms_per_degree=1):
    """Random chain whose factors are even once represented on the triple."""
    terms = []
    for n in [n for n in degrees for _ in range(terms_per_degree)]:
        coeff = complex(*rng.standard_normal(2))
        factors = [t.unrepresent(jlolab.random_even(rng, t.space))
                   for _ in range(n + 1)]
        terms.append(jlolab.ElementaryChain(coeff, tuple(factors)))
    return jlolab.Chain(t.hilbert_dim, tuple(terms))


class Cochain:
    """Direct cochain calls, as in the README quick tour.

    Triples: generic random (2|1 and 1|1), flat (D = 0, 2|1), and products
    of identical factors (1|1 and 2|1 squared, whose D^2 has repeated
    eigenvalues).  `jlo_cochain` takes even degrees and `bch_cochain` odd
    degrees, so no timed value is zero by parity; `perturbed_cochain` is
    timed on degrees {1, 2}, half of whose terms the kernel skips by parity.
    The operation is one cochain value; one unit is one round.
    """

    name = "cochain"

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        self.seed = seed
        a21 = jlolab.random_triple(rng, 2, 1, label="generic 2|1")
        a11 = jlolab.random_triple(rng, 1, 1, label="generic 1|1")
        flat = jlolab.SpectralTripleFD(
            jlolab.GradedSpace(2, 1), np.zeros((3, 3)),
            [jlolab.random_even(rng, jlolab.GradedSpace(2, 1), hermitian=True)],
            label="flat 2|1")
        p11 = jlolab.product_triple(a11, a11)
        p21 = jlolab.product_triple(a21, a21)
        triples = [a21, a11, flat, p11, p21]
        plan = [("jlo_cochain", False, (2,)), ("jlo_cochain", False, (4,)),
                ("jlo_cochain", False, (6,)), ("bch_cochain", True, (1,)),
                ("bch_cochain", True, (3,)), ("bch_cochain", True, (5,)),
                ("perturbed_cochain", None, (1, 2))]
        if small:
            triples, plan = triples[:2], plan[:2]
        self.values = []
        for t in triples:
            for fn, first, degs in plan:
                chain = _even_chain(rng, t, degs, TERMS_PER_DEGREE)
                if first is None:
                    ref = reference_cochain(t, chain) + reference_cochain(
                        t, chain, True) / math.sqrt(2.0)
                else:
                    ref = reference_cochain(t, chain, first)
                self.values.append((f"{fn} {t.label} degrees {degs}",
                                    getattr(jlolab, fn), t, chain, ref))
        self.mc = []
        for t in ([a21, p11] if not small else [a21]):
            chain = _even_chain(rng, t, (2,))
            self.mc.append((t, chain, reference_cochain(t, chain)))
        self.integrand = [(a21, _even_chain(rng, a21, (4,)).terms[0].factors),
                          (p11, _even_chain(rng, p11, (3,)).terms[0].factors)]

    def warm_up(self):
        _label, fn, t, chain, _ref = self.values[0]
        fn(t, chain)

    def unit(self, index, rec):
        rng = np.random.default_rng([self.seed, index])
        for label, fn, t, chain, ref in self.values:
            rec.op(label, lambda: fn(t, chain),
                   lambda v: _close(v, ref, CHAIN_TOL))
        t, chain, exact = self.mc[index % len(self.mc)]

        def within_mc_error(result):
            est, se = result
            if abs(est - exact) <= MC_SE_TOL * se + 1e-12 * (1 + abs(exact)):
                return None
            return f"estimate {est:.6g} is {abs(est - exact) / se:.1f} se off"
        rec.op(f"jlo_cochain_mc {t.label}",
               lambda: jlolab.jlo_cochain_mc(t, chain, MC_SAMPLES, rng),
               within_mc_error)
        for k in range(INTEGRAND_POINTS):
            t, factors = self.integrand[k % len(self.integrand)]
            point = np.sort(rng.random(len(factors) - 1))
            rec.op(f"jlo_integrand {t.label}",
                   lambda: jlolab.jlo_integrand(t, factors, point),
                   lambda v: _close(v, reference_integrand(t, factors, point),
                                    CHAIN_TOL))


WORKLOADS = {w.name: w for w in (Verify, Algebra, Index, Cochain)}
