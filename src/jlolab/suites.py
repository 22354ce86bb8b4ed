"""Randomized verification suites for every identity the package computes.

Each trial function draws fresh data from an explicit Generator and returns
a normalized residual; `run_suite` wraps them into report rows with
per-identity tolerances.  Identities run one after another in IDENTITIES
order, each on its own seed stream spawned from the master seed, so
reports are reproducible for a fixed master seed.
"""

from __future__ import annotations

import warnings

import numpy as np

from .chains import (
    Chain,
    connes_B,
    cyclic_shuffle_product,
    hochschild_b,
    probe_distance,
    shuffle_product,
)
from .jlo import (
    bch_cochain,
    index_pairing,
    jlo_cochain,
    jlo_cochain_mc,
    perturbed_cochain,
    verify_theorem_ainf,
)
from .linalg import GradedSpace, opnorm
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
)

__all__ = [
    "IDENTITIES",
    "curated_index_pairs",
    "format_report_rows",
    "run_suite",
]

DEFAULT_DIMS = ((1, 1), (2, 1))
HEAT_TIMES = (0.1, 1.0, 3.0)


def _pick_dims(rng, dim_pairs, k):
    idx = rng.integers(0, len(dim_pairs), size=k)
    return [tuple(dim_pairs[i]) for i in idx]


def _norm_res(lhs, rhs) -> float:
    return abs(lhs - rhs) / (1.0 + abs(rhs))


# --------------------------------------------------------------- cochain laws

def trial_shuffle_multiplicativity(rng, dim_pairs, max_degree=2,
                                   mc_samples=None) -> float:
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    t1 = random_triple(rng, *d1, dirac_scale=float(rng.uniform(0.4, 1.2)))
    t2 = random_triple(rng, *d2, dirac_scale=float(rng.uniform(0.4, 1.2)))
    degs = range(0, min(2, max_degree) + 1)
    a = random_chain(rng, t1.space, degs)
    b = random_chain(rng, t2.space, degs)
    rep = verify_theorem_ainf([t1, t2], [a, b], part=1)
    return rep["normalized_residual"]


def trial_cyclic_shuffle(rng, dim_pairs, r=2, max_degree=2,
                         mc_samples=None) -> float:
    # contraction cochains vanish identically when the even subalgebra is
    # commutative (total dimension 2), so use the largest listed space to
    # keep the right-hand side nonvacuous
    dims = [tuple(max(dim_pairs, key=sum))] * r
    triples = [random_triple(rng, *d, dirac_scale=float(rng.uniform(0.4, 1.0)))
               for d in dims]
    chains = [random_chain(rng, t.space, [1]) for t in triples]
    rep = verify_theorem_ainf(triples, chains, part=2)
    return rep["normalized_residual"]


def trial_contraction_boundary(rng, dim_pairs, max_degree=3,
                               mc_samples=None) -> float:
    d = _pick_dims(rng, dim_pairs, 1)[0]
    t = random_triple(rng, *d)
    a = random_chain(rng, t.space, range(0, max_degree + 1))
    lhs = bch_cochain(t, a)
    rhs = jlo_cochain(t, connes_B(a))
    return _norm_res(lhs, rhs)


def trial_perturbed_cocycle(rng, dim_pairs, max_degree=3,
                            mc_samples=None) -> float:
    d = _pick_dims(rng, dim_pairs, 1)[0]
    t = random_triple(rng, *d)
    a = random_chain(rng, t.space, range(0, max_degree + 1))
    boundary = hochschild_b(a) + connes_B(a)
    return abs(perturbed_cochain(t, boundary))


def trial_perturbed_forms(rng, dim_pairs, max_degree=3,
                          mc_samples=None) -> float:
    d = _pick_dims(rng, dim_pairs, 1)[0]
    t = random_triple(rng, *d)
    a = random_chain(rng, t.space, range(0, max_degree + 1))
    return abs(perturbed_cochain(t, a) - perturbed_cochain(t, a, via_delta=True))


def trial_perturbed_multiplicativity(rng, dim_pairs, max_degree=2,
                                     mc_samples=None) -> float:
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    t1 = random_triple(rng, *d1, dirac_scale=float(rng.uniform(0.4, 1.0)))
    t2 = random_triple(rng, *d2, dirac_scale=float(rng.uniform(0.4, 1.0)))
    a = random_chain(rng, t1.space, range(0, min(2, max_degree) + 1))
    b = random_chain(rng, t2.space, range(0, min(1, max_degree) + 1))
    prod = product_triple(t1, t2)
    combined = shuffle_product(a, b) + cyclic_shuffle_product(a, b)
    lhs = perturbed_cochain(prod, combined)
    rhs = perturbed_cochain(t1, a) * perturbed_cochain(t2, b)
    return _norm_res(lhs, rhs)


# ------------------------------------------------------------- triple algebra

def trial_heat_factorization(rng, dim_pairs, max_degree=None,
                             mc_samples=None) -> float:
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    t1 = random_triple(rng, *d1)
    t2 = random_triple(rng, *d2)
    prod = product_triple(t1, t2)
    worst = 0.0
    for t in HEAT_TIMES:
        expected = prod.represent(np.kron(t1.heat(t), t2.heat(t)))
        worst = max(worst, opnorm(prod.heat(t) - expected))
    return worst


def trial_derivation_product(rng, dim_pairs, max_degree=None,
                             mc_samples=None) -> float:
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    t1 = random_triple(rng, *d1)
    t2 = random_triple(rng, *d2)
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
    (d1, d2) = _pick_dims(rng, dim_pairs, 2)
    t1 = random_triple(rng, *d1)
    t2 = random_triple(rng, *d2)
    prod = product_triple(t1, t2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        p1 = kernel_projection(t1.dirac)
        p2 = kernel_projection(t2.dirac)
        p12 = kernel_projection(prod.dirac)
    return opnorm(p12 - prod.represent(np.kron(p1, p2)))


# ----------------------------------------------------------------- chain laws

def trial_hochschild_square(rng, dim_pairs, max_degree=4,
                            mc_samples=None) -> float:
    d = sum(_pick_dims(rng, dim_pairs, 1)[0])
    space = GradedSpace(d - d // 2, d // 2)
    a = random_chain(rng, space, range(1, max_degree + 1))
    c = hochschild_b(hochschild_b(a))
    return probe_distance(c, Chain.zero(space.dim), rng)


def trial_connes_square(rng, dim_pairs, max_degree=4, mc_samples=None) -> float:
    d = sum(_pick_dims(rng, dim_pairs, 1)[0])
    space = GradedSpace(d - d // 2, d // 2)
    a = random_chain(rng, space, range(0, max_degree + 1))
    c = connes_B(connes_B(a))
    return probe_distance(c, Chain.zero(space.dim), rng)


def trial_boundaries_anticommute(rng, dim_pairs, max_degree=3,
                                 mc_samples=None) -> float:
    d = sum(_pick_dims(rng, dim_pairs, 1)[0])
    space = GradedSpace(d - d // 2, d // 2)
    a = random_chain(rng, space, range(0, max_degree + 1))
    c = hochschild_b(connes_B(a)) + connes_B(hochschild_b(a))
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
    d = _pick_dims(rng, dim_pairs, 1)[0]
    t = random_triple(rng, *d)
    a = random_chain(rng, t.space, (1, 2))
    lam = complex(*rng.standard_normal(2))
    eye = np.eye(t.hilbert_dim, dtype=np.complex128)
    shifted = []
    for term in a.terms:
        slot = 1 + int(rng.integers(0, term.degree))
        factors = list(term.factors)
        factors[slot] = factors[slot] + lam * eye
        shifted.append(Chain.elementary(term.coeff, factors))
    total = shifted[0]
    for c in shifted[1:]:
        total = total + c
    return abs(jlo_cochain(t, a) - jlo_cochain(t, total))


# --------------------------------------------------------------------- oracle

def trial_exact_vs_mc(rng, dim_pairs, max_degree=2,
                      mc_samples=20_000) -> float:
    """Exact-versus-sampled ratio in units of four standard errors."""
    d = _pick_dims(rng, dim_pairs, 1)[0]
    t = random_triple(rng, *d)
    a = random_chain(rng, t.space, (1, 2))
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

    pairs = [
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
    return pairs


def index_product_checks():
    """Integer multiplicativity of the index over curated factor pairs."""
    base = curated_index_pairs()
    picks = [(0, 4), (2, 0), (5, 7), (3, 1)]
    rows = []
    for i, j in picks:
        name1, t1, e1, exp1 = base[i]
        name2, t2, e2, exp2 = base[j]
        if e1.blocks != 1 or e2.blocks != 1:
            continue
        prod = product_triple(t1, t2)
        e12 = Idempotent(np.kron(e1.matrix, e2.matrix))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectralGapWarning)
            i1 = index_of_pair(t1, e1)
            i2 = index_of_pair(t2, e2)
            i12 = index_of_pair(prod, e12)
        rows.append({
            "factors": (name1, name2),
            "index_product": i1 * i2,
            "index_of_product": i12,
            "residual": float(abs(i12 - i1 * i2)),
        })
    return rows


def trial_index_pairing(rng=None, dim_pairs=None, max_degree=None,
                        mc_samples=None) -> float:
    """Worst deviation of the pairing from the Fredholm index over the
    curated catalog; deterministic."""
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        for _name, t, e, expected in curated_index_pairs():
            rep = index_pairing(t, e)
            fred = index_of_pair(t, e)
            worst = max(worst,
                        abs(rep.value - expected),
                        float(abs(fred - expected)),
                        float(abs(rep.integer - fred)))
    return worst


def trial_index_product(rng=None, dim_pairs=None, max_degree=None,
                        mc_samples=None) -> float:
    return max((row["residual"] for row in index_product_checks()), default=0.0)


# --------------------------------------------------------------------- runner

IDENTITIES = (
    ("shuffle_multiplicativity", 1e-8, trial_shuffle_multiplicativity),
    ("cyclic_shuffle_pair", 1e-8,
     lambda rng, dims, **kw: trial_cyclic_shuffle(rng, dims, r=2, **kw)),
    ("cyclic_shuffle_triple", 1e-8,
     lambda rng, dims, **kw: trial_cyclic_shuffle(rng, dims, r=3, **kw)),
    ("contraction_is_boundary", 1e-9, trial_contraction_boundary),
    ("perturbed_cocycle", 1e-9, trial_perturbed_cocycle),
    ("perturbed_forms_agree", 1e-10, trial_perturbed_forms),
    ("perturbed_multiplicativity", 1e-8, trial_perturbed_multiplicativity),
    ("heat_factorization", 1e-10, trial_heat_factorization),
    ("derivation_on_products", 1e-10, trial_derivation_product),
    ("kernel_projection_product", 1e-10, trial_kernel_projection_product),
    ("hochschild_square_zero", 1e-10, trial_hochschild_square),
    ("connes_square_zero", 1e-10, trial_connes_square),
    ("boundaries_anticommute", 1e-10, trial_boundaries_anticommute),
    ("shuffle_associativity", 1e-10, trial_shuffle_associativity),
    ("hochschild_derivation_shuffle", 1e-10, trial_hochschild_derivation),
    ("scalar_slot_invariance", 1e-10, trial_scalar_slot_invariance),
    ("exact_vs_mc", 1.0, trial_exact_vs_mc),
    ("index_pairing_vs_fredholm", INDEX_INTEGER_TOL, trial_index_pairing),
    ("index_multiplicativity", 0.5, trial_index_product),
)


def run_suite(seed: int, dims=DEFAULT_DIMS, trials: int = 3,
              max_degree: int = 2, mc_samples: int = 20_000,
              tolerance: float = None):
    """Run every identity `trials` times; returns one report row each.

    A row's residual is the worst over its trials.  `tolerance` overrides
    every per-identity default when given.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if trials == 0:
        return []
    dims = tuple(tuple(d) for d in dims)
    streams = np.random.SeedSequence(seed).spawn(len(IDENTITIES))
    rows = []
    for (name, default_tol, fn), stream in zip(IDENTITIES, streams):
        tol = default_tol if tolerance is None else tolerance
        rng = np.random.default_rng(stream)
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, float(fn(rng, dims, max_degree=max_degree,
                                        mc_samples=mc_samples)))
        rows.append({
            "identity": name,
            "residual": worst,
            "tolerance": tol,
            "pass": bool(worst <= tol),
            "seed": int(seed),
            "params": {"trials": trials, "dims": [list(d) for d in dims],
                       "max_degree": max_degree, "mc_samples": mc_samples},
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
