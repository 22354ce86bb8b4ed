"""Randomized verification suites for every identity the package computes.

Each trial function draws fresh data from an explicit Generator and returns
a normalized residual; `run_suite` wraps them into report rows with
per-identity tolerances.  Each product identity is computed in its own
trial, both sides from the public cochain, chain and product-triple
calls.  Each draw recipe is written once: `_one_triple`
draws a triple on one dims pair and a chain over it, `_triples` draws
several triples, and the three vanishing chain laws share one trial,
`_vanishing_law`, whose rows carry the law, its lowest degree and its
`max_degree` default.  A suite run is one `RunConfig`, the same object
`jlolab verify` builds from its flags and config file, so the library and
the command run the same suite.  Identities run one after another in
IDENTITIES order, each on its own seed stream spawned from the master
seed, so reports are reproducible for a fixed master seed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chains import (
    Chain,
    br_operation,
    connes_B,
    hochschild_b,
    probe_distance,
    shuffle_product,
)
from .jlo import (
    bch_cochain,
    delta_perturbation,
    index_pairing,
    jlo_cochain,
    jlo_cochain_mc,
    perturbed_cochain,
)
from .linalg import GradedSpace, _integer, opnorm
from .randomgen import random_chain, random_even, random_triple
from .spectral import (
    INDEX_INTEGER_TOL,
    Idempotent,
    SpectralGapWarning,
    SpectralTripleFD,
    commutator_d,
    index_of_pair,
    kernel_projection,
    product_triple,
    validate_idempotent,
)

__all__ = [
    "IDENTITIES",
    "RunConfig",
    "curated_index_pairs",
    "format_report_rows",
    "run_suite",
]

HEAT_TIMES = (0.1, 1.0, 3.0)
MAX_DEGREE_LIMIT = 4
# jlo_cochain_mc, 3|3 triple, degrees (1, 2): 0.80 us per sample on one BLAS
# thread of a 2-core Xeon, numpy 2.4, so one trial stays near 8 s
MAX_MC_SAMPLES = 10_000_000
# cyclic_shuffle_triple's degree-6 block on three spaces of total s holds
# 120 rows x 7 slots x s^6 complex entries: 0.63 GB at 6, 225 GB at 16
MAX_SPACE_DIM = 6


def _pick_dims(rng, dim_pairs, k):
    idx = rng.integers(0, len(dim_pairs), size=k)
    return [tuple(dim_pairs[i]) for i in idx]


def _norm_res(lhs, rhs) -> float:
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _worst(values) -> float:
    """The largest of some nonnegative residuals as a float, NaN when any
    is NaN (Python's max drops a NaN that does not come first)."""
    return float(np.max(list(values)))


def _one_triple(rng, dim_pairs, degrees):
    """A triple on one drawn dims pair, then a chain of the given degrees
    over it."""
    t = random_triple(rng, *_pick_dims(rng, dim_pairs, 1)[0])
    return t, random_chain(rng, t.space, degrees)


def _triples(rng, dims, scale=None):
    """One triple per dims pair, each Dirac norm drawn from U(*scale) just
    before its triple when scale is given, else 1."""
    return [random_triple(rng, *d, dirac_scale=(
        float(rng.uniform(*scale)) if scale else 1.0)) for d in dims]


# --------------------------------------------------------------- cochain laws

def trial_shuffle_multiplicativity(rng, dim_pairs, max_degree=2,
                                   mc_samples=None) -> float:
    t1, t2 = _triples(rng, _pick_dims(rng, dim_pairs, 2), (0.4, 1.2))
    degs = range(0, min(2, max_degree) + 1)
    a = random_chain(rng, t1.space, degs)
    b = random_chain(rng, t2.space, degs)
    lhs = jlo_cochain(product_triple(t1, t2), shuffle_product(a, b))
    return _norm_res(lhs, jlo_cochain(t1, a) * jlo_cochain(t2, b))


def trial_cyclic_shuffle(rng, dim_pairs, r=2, max_degree=2,
                         mc_samples=None) -> float:
    # contraction cochains vanish identically when the even subalgebra is
    # commutative (total dimension 2), so use the largest listed space to
    # keep the right-hand side nonvacuous
    dims = [tuple(max(dim_pairs, key=sum))] * r
    triples = _triples(rng, dims, (0.4, 1.0))
    chains = [random_chain(rng, t.space, [1]) for t in triples]
    lhs = jlo_cochain(functools.reduce(product_triple, triples),
                      br_operation(chains))
    rhs = math.prod(map(bch_cochain, triples, chains),
                    start=1.0 / math.factorial(r))
    return _norm_res(lhs, rhs)


def trial_contraction_boundary(rng, dim_pairs, max_degree=3,
                               mc_samples=None) -> float:
    t, a = _one_triple(rng, dim_pairs, range(0, max_degree + 1))
    lhs = bch_cochain(t, a)
    rhs = jlo_cochain(t, connes_B(a))
    return _norm_res(lhs, rhs)


def trial_perturbed_cocycle(rng, dim_pairs, max_degree=3,
                            mc_samples=None) -> float:
    t, a = _one_triple(rng, dim_pairs, range(0, max_degree + 1))
    boundary = hochschild_b(a) + connes_B(a)
    return abs(perturbed_cochain(t, boundary))


def trial_perturbed_forms(rng, dim_pairs, max_degree=3,
                          mc_samples=None) -> float:
    t, a = _one_triple(rng, dim_pairs, range(0, max_degree + 1))
    via_delta = jlo_cochain(t, a) + jlo_cochain(t, delta_perturbation(t, a))
    return abs(perturbed_cochain(t, a) - via_delta)


def trial_perturbed_multiplicativity(rng, dim_pairs, max_degree=2,
                                     mc_samples=None) -> float:
    t1, t2 = _triples(rng, _pick_dims(rng, dim_pairs, 2), (0.4, 1.0))
    a = random_chain(rng, t1.space, range(0, min(2, max_degree) + 1))
    b = random_chain(rng, t2.space, range(0, min(1, max_degree) + 1))
    prod = product_triple(t1, t2)
    combined = shuffle_product(a, b) + br_operation([a, b])
    lhs = perturbed_cochain(prod, combined)
    rhs = perturbed_cochain(t1, a) * perturbed_cochain(t2, b)
    return _norm_res(lhs, rhs)


# ------------------------------------------------------------- triple algebra

def trial_heat_factorization(rng, dim_pairs, max_degree=None,
                             mc_samples=None) -> float:
    t1, t2 = _triples(rng, _pick_dims(rng, dim_pairs, 2))
    prod = product_triple(t1, t2)
    return _worst(opnorm(prod.heat(t) - prod.represent(
        np.kron(t1.heat(t), t2.heat(t)))) for t in HEAT_TIMES)


def trial_derivation_product(rng, dim_pairs, max_degree=None,
                             mc_samples=None) -> float:
    t1, t2 = _triples(rng, _pick_dims(rng, dim_pairs, 2))
    prod = product_triple(t1, t2)
    a = random_even(rng, t1.space)
    c = random_even(rng, t2.space)
    lhs = commutator_d(prod, np.kron(a, c))
    g1 = t1.space.gamma_diag
    rhs = np.kron(commutator_d(t1, a), c) \
        + np.kron(g1[:, None] * a, commutator_d(t2, c))
    return opnorm(lhs - rhs)


def trial_kernel_projection_product(rng, dim_pairs, max_degree=None,
                                    mc_samples=None) -> float:
    t1, t2 = _triples(rng, _pick_dims(rng, dim_pairs, 2))
    prod = product_triple(t1, t2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        p1 = kernel_projection(t1.dirac)
        p2 = kernel_projection(t2.dirac)
        p12 = kernel_projection(prod.dirac)
    return opnorm(p12 - prod.represent(np.kron(p1, p2)))


# ----------------------------------------------------------------- chain laws

def _vanishing_law(law, lowest, rng, dim_pairs, max_degree,
                   mc_samples=None) -> float:
    """Probe distance from zero of law(a), for a chain a of degrees lowest
    to max_degree on a space of one drawn total dimension, split evenly."""
    d = sum(_pick_dims(rng, dim_pairs, 1)[0])
    space = GradedSpace(d - d // 2, d // 2)
    c = law(random_chain(rng, space, range(lowest, max_degree + 1)))
    return probe_distance(c, Chain.zero(space.dim), rng)


def trial_shuffle_associativity(rng, dim_pairs, max_degree=2,
                                mc_samples=None) -> float:
    spaces = [GradedSpace(*d) for d in _pick_dims(rng, dim_pairs, 3)]
    a, b, c = (random_chain(rng, s, range(0, min(2, max_degree) + 1))
               for s in spaces)
    lhs = shuffle_product(shuffle_product(a, b), c)
    rhs = shuffle_product(a, shuffle_product(b, c))
    return probe_distance(lhs, rhs, rng)


def trial_hochschild_derivation(rng, dim_pairs, max_degree=2,
                                mc_samples=None) -> float:
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    s1, s2 = GradedSpace(*d1), GradedSpace(*d2)
    p = int(rng.integers(1, 3))
    a = random_chain(rng, s1, [p])
    b = random_chain(rng, s2, range(0, min(2, max_degree) + 1))
    lhs = hochschild_b(shuffle_product(a, b))
    rhs = shuffle_product(hochschild_b(a), b) \
        + (-1.0) ** p * shuffle_product(a, hochschild_b(b))
    return probe_distance(lhs, rhs, rng)


def trial_scalar_slot_invariance(rng, dim_pairs, max_degree=2,
                                 mc_samples=None) -> float:
    t, a = _one_triple(rng, dim_pairs, (1, 2))
    lam = complex(*rng.standard_normal(2))
    eye = np.eye(t.hilbert_dim, dtype=np.complex128)
    # each row, in order, points one drawn slot >= 1 at a new table entry:
    # the entry it read, plus lam
    src, blocks = [], {}
    for n, (rows, coeffs) in a.blocks.items():
        rows = rows.copy()
        for row in rows:
            slot = 1 + int(rng.integers(0, n))
            src.append(row[slot])
            row[slot] = len(a.table) + len(src) - 1
        blocks[n] = (rows, coeffs)
    shifted = Chain.from_table(a.algebra_dim, np.concatenate(
        [a.table, a.table[src] + lam * eye]), blocks)
    return abs(jlo_cochain(t, a) - jlo_cochain(t, shifted))


# --------------------------------------------------------------------- oracle

def trial_exact_vs_mc(rng, dim_pairs, max_degree=2,
                      mc_samples=20_000) -> float:
    """Exact-versus-sampled ratio in units of four standard errors."""
    t, a = _one_triple(rng, dim_pairs, (1, 2))
    exact = jlo_cochain(t, a)
    est, se = jlo_cochain_mc(t, a, mc_samples, rng)
    return abs(exact - est) / (4.0 * se + 1e-12 * (1.0 + abs(exact)))


# ---------------------------------------------------------------- index suite

def curated_index_pairs():
    """Hand-built (label, triple, idempotent, expected_index) catalog.

    Dirac norms are kept small so the degree-capped pairing series
    converges; expected values are dimension counts done by hand.
    """
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    e_even = np.diag([1.0, 0.0]).astype(np.complex128)
    e_odd = np.diag([0.0, 1.0]).astype(np.complex128)
    s11 = GradedSpace(1, 1)
    flat11 = SpectralTripleFD(s11, np.zeros((2, 2)), (np.eye(2),),
                              label="flat 1|1")
    flat21 = SpectralTripleFD(GradedSpace(2, 1), np.zeros((3, 3)),
                              (np.eye(3),), label="flat 2|1")
    flat22 = SpectralTripleFD(GradedSpace(2, 2), np.zeros((4, 4)),
                              (np.eye(4),), label="flat 2|2")

    def kicked(s):
        return SpectralTripleFD(s11, s * x, (np.eye(2),), label=f"kick {s}")

    rng = np.random.default_rng(71_543)
    b = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    d21 = np.zeros((3, 3), dtype=np.complex128)
    d21[:2, 2:] = 0.7 * b / opnorm(b)
    d21[2:, :2] = d21[:2, 2:].conj().T
    open21 = SpectralTripleFD(GradedSpace(2, 1), d21, (np.eye(3),),
                              label="open kernel 2|1")

    return [
        ("flat rank-1 even projection", flat11, Idempotent(e_even), 1),
        ("flat full unit on 1|1", flat11, Idempotent(np.eye(2)), 0),
        ("flat full unit on 2|1", flat21, Idempotent(np.eye(3)), 1),
        ("flat rank-2 even projection", flat22,
         Idempotent(np.diag([1.0, 1.0, 0.0, 0.0])), 2),
        ("even projection, kick 0.05", kicked(0.05), Idempotent(e_even), 1),
        ("even projection, kick 0.10", kicked(0.10), Idempotent(e_even), 1),
        ("even projection, kick 0.15", kicked(0.15), Idempotent(e_even), 1),
        ("odd projection, kick 0.12", kicked(0.12), Idempotent(e_odd), -1),
        ("amplified rank-1 projection", flat11,
         Idempotent(np.kron(e_even, np.diag([1.0, 0.0])), blocks=2), 1),
        ("unit against open kernel", open21, Idempotent(np.eye(3)), 1),
        ("product of two kicks", product_triple(kicked(0.1), kicked(0.1)),
         Idempotent(np.kron(e_even, e_even)), 1),
    ]


def trial_index_pairing(rng=None, dim_pairs=None, max_degree=None,
                        mc_samples=None) -> float:
    """Worst deviation of the pairing from the Fredholm index over the
    curated catalog; deterministic."""
    devs = []
    for _name, t, e, expected in curated_index_pairs():
        amp, op = validate_idempotent(t, e)
        rep = index_pairing(amp, op)
        fred = index_of_pair(amp, op)
        devs += [abs(rep.value - expected), abs(fred - expected),
                 abs(rep.integer - fred)]
    return _worst(devs)


def trial_index_product(rng=None, dim_pairs=None, max_degree=None,
                        mc_samples=None) -> float:
    """Worst |index(e1 (x) e2) - index(e1) index(e2)| over curated factor
    pairs; deterministic."""
    base = curated_index_pairs()
    devs = []
    for i, j in [(0, 4), (2, 0), (5, 7), (3, 1)]:
        (_, t1, e1, _), (_, t2, e2, _) = base[i], base[j]
        e12 = Idempotent(np.kron(e1.matrix, e2.matrix))
        i1, i2, i12 = (index_of_pair(*validate_idempotent(t, e)) for t, e in
                       ((t1, e1), (t2, e2), (product_triple(t1, t2), e12)))
        devs.append(abs(i12 - i1 * i2))
    return _worst(devs)


# --------------------------------------------------------------------- runner

IDENTITIES = (
    ("shuffle_multiplicativity", 1e-8, trial_shuffle_multiplicativity),
    ("cyclic_shuffle_pair", 1e-8,
     functools.partial(trial_cyclic_shuffle, r=2)),
    ("cyclic_shuffle_triple", 1e-8,
     functools.partial(trial_cyclic_shuffle, r=3)),
    ("contraction_is_boundary", 1e-9, trial_contraction_boundary),
    ("perturbed_cocycle", 1e-9, trial_perturbed_cocycle),
    ("perturbed_forms_agree", 1e-10, trial_perturbed_forms),
    ("perturbed_multiplicativity", 1e-8, trial_perturbed_multiplicativity),
    ("heat_factorization", 1e-10, trial_heat_factorization),
    ("derivation_on_products", 1e-10, trial_derivation_product),
    ("kernel_projection_product", 1e-10, trial_kernel_projection_product),
    ("hochschild_square_zero", 1e-10, functools.partial(
        _vanishing_law, lambda a: hochschild_b(hochschild_b(a)), 1,
        max_degree=4)),
    ("connes_square_zero", 1e-10, functools.partial(
        _vanishing_law, lambda a: connes_B(connes_B(a)), 0, max_degree=4)),
    ("boundaries_anticommute", 1e-10, functools.partial(
        _vanishing_law,
        lambda a: hochschild_b(connes_B(a)) + connes_B(hochschild_b(a)), 0,
        max_degree=3)),
    ("shuffle_associativity", 1e-10, trial_shuffle_associativity),
    ("hochschild_derivation_shuffle", 1e-10, trial_hochschild_derivation),
    ("scalar_slot_invariance", 1e-10, trial_scalar_slot_invariance),
    ("exact_vs_mc", 1.0, trial_exact_vs_mc),
    ("index_pairing_vs_fredholm", INDEX_INTEGER_TOL, trial_index_pairing),
    ("index_multiplicativity", 0.5, trial_index_product),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated settings of one suite run, the run `jlolab verify` makes.

    Integer fields, dims entries included, reject bools and non-integral
    values; numpy integers are stored as int.
    """

    seed: int = 42
    dims: tuple = ((1, 1), (2, 1))
    max_degree: int = 3
    trials: int = 3
    mc_samples: int = 20_000

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
        # one sample's standard error is 0, which exact_vs_mc divides by
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be at least 2")
        if self.mc_samples > MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples must be at most {MAX_MC_SAMPLES}")


def run_suite(config: RunConfig):
    """Run every identity config.trials times; returns one report row each.

    A row's residual is the worst over its trials, checked against the
    identity's own tolerance in IDENTITIES; a NaN residual is the row's
    residual and fails it.
    """
    if config.trials == 0:
        return []
    streams = np.random.SeedSequence(config.seed).spawn(len(IDENTITIES))
    rows = []
    for (name, tol, fn), stream in zip(IDENTITIES, streams):
        rng = np.random.default_rng(stream)
        worst = _worst(fn(rng, config.dims, max_degree=config.max_degree,
                          mc_samples=config.mc_samples)
                       for _ in range(config.trials))
        rows.append({
            "identity": name,
            "residual": worst,
            "tolerance": tol,
            "pass": bool(worst <= tol),
            "seed": config.seed,
            "params": {"trials": config.trials,
                       "dims": [list(d) for d in config.dims],
                       "max_degree": config.max_degree,
                       "mc_samples": config.mc_samples},
        })
    return rows


def format_report_rows(rows) -> str:
    """Fixed-width text table of suite results."""
    if not rows:
        return "no checks run\n"
    width = max(len(r["identity"]) for r in rows)
    lines = [f"{'identity':<{width}}  {'residual':>12}  {'tolerance':>10}  status"]
    for r in rows:
        status = "pass" if r["pass"] else "FAIL"
        lines.append(f"{r['identity']:<{width}}  {r['residual']:>12.3e}"
                     f"  {r['tolerance']:>10.1e}  {status}")
    return "\n".join(lines) + "\n"
