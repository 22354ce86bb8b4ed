"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints exactly one verdict line '[criterion N] name: PASS/FAIL'
with a short numeric summary; run pytest with -s to see them on a green
run.  Tolerances are absolute contract values, not tuned to the data.
"""

import functools
import math
import time
import warnings

import numpy as np

from jlolab.chains import (
    Chain,
    br_operation,
    connes_B,
    hochschild_b,
    probe_distance,
    shuffle_product,
)
from jlolab.jlo import (
    JLOEvaluator,
    bch_cochain,
    index_pairing,
    jlo_cochain,
    jlo_cochain_mc,
    perturbed_cochain,
)
from jlolab.linalg import GradedSpace, opnorm
from jlolab.randomgen import random_chain, random_even, random_triple
from jlolab.shuffles import (
    enumerate_cyclic_shuffles,
    enumerate_shuffles,
    sorting_images,
)
from jlolab.spectral import (
    Idempotent,
    SpectralGapWarning,
    commutator_d,
    index_of_pair,
    kernel_projection,
    product_triple,
    validate_idempotent,
)
from jlolab.suites import curated_index_pairs, trial_index_product

from eigensum_oracle import cochain_eigensum


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {name}: {status}{tail}"
    print(line)
    assert ok, line


def _dims(rng, lo, hi):
    total = int(rng.integers(lo, hi + 1))
    de = int(rng.integers(1, total))
    return de, total - de


def test_criterion_1_shuffle_multiplicativity():
    rng = np.random.default_rng(20_260_823)
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        span = (2, 4) if k < 45 else (5, 8)
        triples = [
            random_triple(rng, *_dims(rng, *span),
                          dirac_scale=float(rng.uniform(0.4, 1.2)))
            for _ in range(2)
        ]
        a, b = (random_chain(rng, t.space, (0, 1, 2)) for t in triples)
        lhs = jlo_cochain(product_triple(*triples), shuffle_product(a, b))
        rhs = jlo_cochain(triples[0], a) * jlo_cochain(triples[1], b)
        resid = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 60.0
    _verdict(1, "shuffle product multiplies the cochain", ok,
             f"worst residual {worst:.2e} over 50 pairs, {elapsed:.1f}s")


def test_criterion_2_cyclic_shuffle_raising():
    rng = np.random.default_rng(20_260_824)
    worst = 0.0
    nonvacuous = 0

    # two factors, written out with the explicit one-half factor; spaces of
    # total dimension 2 have commutative even parts and contraction cochains
    # vanish on them, so draw from dimension >= 3 to keep both sides live
    for _ in range(8):
        t1 = random_triple(rng, *_dims(rng, 3, 4),
                           dirac_scale=float(rng.uniform(0.4, 1.0)))
        t2 = random_triple(rng, *_dims(rng, 3, 4),
                           dirac_scale=float(rng.uniform(0.4, 1.0)))
        a = random_chain(rng, t1.space, [int(rng.integers(1, 3))])
        b = random_chain(rng, t2.space, [int(rng.integers(1, 3))])
        prod = product_triple(t1, t2)
        lhs = jlo_cochain(prod, br_operation([a, b]))
        rhs = 0.5 * bch_cochain(t1, a) * bch_cochain(t2, b)
        worst = max(worst, abs(lhs - rhs))
        nonvacuous += abs(rhs) > 1e-6

    # three factors through the general operation
    for degs in [(1, 1, 1), (1, 1, 1), (1, 2, 1)]:
        triples = [random_triple(rng, 2, 1,
                                 dirac_scale=float(rng.uniform(0.4, 1.0)))
                   for _ in degs]
        chains = [random_chain(rng, t.space, [p])
                  for t, p in zip(triples, degs)]
        lhs = jlo_cochain(functools.reduce(product_triple, triples),
                          br_operation(chains))
        rhs = math.prod(map(bch_cochain, triples, chains),
                        start=1.0 / math.factorial(len(triples)))
        worst = max(worst, abs(lhs - rhs))
        nonvacuous += abs(rhs) > 1e-6

    ok = worst <= 1e-8 and nonvacuous >= 4
    _verdict(2, "cyclic-shuffle raising matches scaled contractions", ok,
             f"worst residual {worst:.2e}, {nonvacuous} nonvacuous cases")


def test_criterion_3_contraction_is_cyclic_boundary():
    rng = np.random.default_rng(20_260_825)
    worst = 0.0
    for _ in range(50):
        t = random_triple(rng, *_dims(rng, 2, 4))
        a = random_chain(rng, t.space, range(0, 4))
        resid = abs(bch_cochain(t, a) - jlo_cochain(t, connes_B(a)))
        worst = max(worst, resid)
    ok = worst <= 1e-9
    _verdict(3, "first-slot contraction equals boundary pullback", ok,
             f"worst residual {worst:.2e} over 50 chains")


def test_criterion_4_perturbed_cocycle_and_multiplicativity():
    rng = np.random.default_rng(20_260_826)
    worst_cocycle = 0.0
    for _ in range(50):
        t = random_triple(rng, *_dims(rng, 2, 4))
        a = random_chain(rng, t.space, range(0, 4))
        boundary = hochschild_b(a) + connes_B(a)
        worst_cocycle = max(worst_cocycle, abs(perturbed_cochain(t, boundary)))

    worst_mult = 0.0
    for k in range(46):
        span = (2, 3) if k < 45 else (3, 4)
        degs = (0, 1, 2) if k < 45 else (1,)
        t1 = random_triple(rng, *_dims(rng, *span),
                           dirac_scale=float(rng.uniform(0.4, 1.0)))
        t2 = random_triple(rng, *_dims(rng, *span),
                           dirac_scale=float(rng.uniform(0.4, 1.0)))
        a = random_chain(rng, t1.space, degs)
        b = random_chain(rng, t2.space, degs)
        prod = product_triple(t1, t2)
        combined = shuffle_product(a, b) + br_operation([a, b])
        lhs = perturbed_cochain(prod, combined)
        rhs = perturbed_cochain(t1, a) * perturbed_cochain(t2, b)
        worst_mult = max(worst_mult, abs(lhs - rhs) / (1.0 + abs(rhs)))

    ok = worst_cocycle <= 1e-9 and worst_mult <= 1e-8
    _verdict(4, "perturbed cochain is a multiplicative cocycle", ok,
             f"cocycle {worst_cocycle:.2e}, product {worst_mult:.2e}")


def test_criterion_5_index_pairing_and_multiplicativity():
    pairs = curated_index_pairs()
    worst_gap = 0.0
    ok = len(pairs) >= 10
    for _name, t, e, expected in pairs:
        amp, op = validate_idempotent(t, e)
        rep = index_pairing(amp, op)
        fred = index_of_pair(amp, op)
        worst_gap = max(worst_gap, abs(rep.value - rep.integer))
        ok = ok and rep.integer == expected == fred

    ok = ok and trial_index_product() == 0.0

    # kernel projection of the product as a matrix identity
    worst_kernel = 0.0
    base = curated_index_pairs()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralGapWarning)
        for i, j in [(0, 4), (2, 0), (5, 7), (3, 1)]:
            t1, t2 = base[i][1], base[j][1]
            prod = product_triple(t1, t2)
            p1 = kernel_projection(t1.dirac)
            p2 = kernel_projection(t2.dirac)
            p12 = kernel_projection(prod.dirac)
            worst_kernel = max(
                worst_kernel,
                opnorm(p12 - prod.represent(np.kron(p1, p2))))
        ok = ok and worst_kernel <= 1e-10

    _verdict(5, "pairing is the integer index and multiplies", ok,
             f"{len(pairs)} pairs, fuzz {worst_gap:.1e}, "
             f"kernel identity {worst_kernel:.1e}")


def test_criterion_6_heat_and_derivation_on_products():
    rng = np.random.default_rng(20_260_827)
    worst = 0.0
    for _ in range(100):
        t1 = random_triple(rng, *_dims(rng, 2, 4))
        t2 = random_triple(rng, *_dims(rng, 2, 4))
        prod = product_triple(t1, t2)
        for time_ in (0.1, 1.0, 3.0):
            expected = prod.represent(np.kron(t1.heat(time_), t2.heat(time_)))
            worst = max(worst, opnorm(prod.heat(time_) - expected))
        a = random_even(rng, t1.space)
        c = random_even(rng, t2.space)
        lhs = commutator_d(prod, np.kron(a, c))
        g1 = t1.space.gamma_diag
        rhs = np.kron(commutator_d(t1, a), c) \
            + np.kron(g1[:, None] * a, commutator_d(t2, c))
        worst = max(worst, opnorm(lhs - rhs))
    ok = worst <= 1e-10
    _verdict(6, "product heat flow factorizes and the bracket derives", ok,
             f"worst residual {worst:.2e} over 100 products")


def test_criterion_7_combinatorics():
    ok = True
    for p in range(0, 9):
        for q in range(0, 9 - p):
            ok = ok and len(enumerate_shuffles(p, q)) == math.comb(p + q, p)

    for r in (1, 2, 3):
        for degrees in _degree_tuples(r, 3):
            n = r + sum(degrees)
            want = math.factorial(n) // (
                math.factorial(r)
                * math.prod(math.factorial(p) for p in degrees))
            ok = ok and len(enumerate_cyclic_shuffles(degrees)) == want

    rng = np.random.default_rng(20_260_828)
    worst_b1 = 0.0
    for _ in range(5):
        space = GradedSpace(2, 1)
        a = random_chain(rng, space, range(0, 5))
        worst_b1 = max(worst_b1,
                       probe_distance(br_operation([a]), connes_B(a), rng))
    ok = ok and worst_b1 <= 1e-12

    worst_z = _partition_volume_worst_z(rng, samples=100_000)
    ok = ok and worst_z <= 3.0
    _verdict(7, "shuffle combinatorics and simplex decomposition", ok,
             f"single-argument residual {worst_b1:.1e}, "
             f"volume max |z| {worst_z:.2f}")


def _degree_tuples(r, cap):
    if r == 0:
        yield ()
        return
    for head in range(0, cap + 1):
        for tail in _degree_tuples(r - 1, cap):
            yield (head,) + tail


def _partition_volume_worst_z(rng, samples):
    worst = 0.0

    shuffles = enumerate_shuffles(2, 2)
    counts = {tuple(row): 0 for row in shuffles.tolist()}
    # each sample is two sorted uniform pairs, drawn consecutively
    u = rng.random((samples, 4))
    rows = np.hstack([np.sort(u[:, :2], axis=1), np.sort(u[:, 2:], axis=1)])
    # the stable sort keeps each block's order through exact ties, so every
    # sample lands in one shuffle region
    images, _ = sorting_images(rows)
    for row in images.tolist():
        counts[tuple(row)] += 1
    f = 1.0 / len(shuffles)
    sigma = math.sqrt(samples * f * (1.0 - f))
    for c in counts.values():
        worst = max(worst, abs(c - samples * f) / sigma)

    degrees = (1, 1)
    members = {tuple(row): 0
               for row in enumerate_cyclic_shuffles(degrees).tolist()}
    # each sample is two sorted offsets, then one coordinate per block
    u = rng.random((samples, 4))
    s, t = np.sort(u[:, :2], axis=1), u[:, 2:]
    rows = np.column_stack([s[:, 0], (s[:, 0] + t[:, 0]) % 1.0,
                            s[:, 1], (s[:, 1] + t[:, 1]) % 1.0])
    images, tied = sorting_images(rows)
    for row in images[~tied].tolist():
        members[tuple(row)] += 1
    located = int(np.count_nonzero(~tied))
    f = 1.0 / len(members)
    sigma = math.sqrt(located * f * (1.0 - f))
    for c in members.values():
        worst = max(worst, abs(c - located * f) / sigma)
    return worst


def test_criterion_8_exact_versus_monte_carlo():
    rng = np.random.default_rng(20_260_829)
    worst_ratio = 0.0
    for _ in range(20):
        t = random_triple(rng, *_dims(rng, 2, 4))
        a = random_chain(rng, t.space, (1, 2))
        exact = jlo_cochain(t, a)
        est, se = jlo_cochain_mc(t, a, 100_000, rng)
        gap = abs(exact - est)
        slack = 4.0 * se + 1e-12 * (1.0 + abs(exact))
        worst_ratio = max(worst_ratio, gap / slack)
    ok = worst_ratio <= 1.0
    _verdict(8, "contour and sampled quadrature agree", ok,
             f"worst gap at {worst_ratio:.2f} of the 4-sigma allowance")


def test_criterion_9_chain_complex_axioms():
    rng = np.random.default_rng(20_260_830)
    worst = 0.0
    for _ in range(6):
        space = GradedSpace(*_dims(rng, 2, 3))
        a = random_chain(rng, space, range(0, 5))
        zero = Chain.zero(space.dim)
        worst = max(worst, probe_distance(hochschild_b(hochschild_b(a)),
                                          zero, rng))
        worst = max(worst, probe_distance(connes_B(connes_B(a)), zero, rng))
        mixed = hochschild_b(connes_B(a)) + connes_B(hochschild_b(a))
        worst = max(worst, probe_distance(mixed, zero, rng))

    for _ in range(4):
        spaces = [GradedSpace(*_dims(rng, 2, 3)) for _ in range(3)]
        x, y, z = (random_chain(rng, s, (0, 1, 2)) for s in spaces)
        lhs = shuffle_product(shuffle_product(x, y), z)
        rhs = shuffle_product(x, shuffle_product(y, z))
        worst = max(worst, probe_distance(lhs, rhs, rng))

        p = int(rng.integers(1, 4))
        hom = random_chain(rng, spaces[0], [p])
        other = random_chain(rng, spaces[1], range(0, 3))
        lhs = hochschild_b(shuffle_product(hom, other))
        rhs = shuffle_product(hochschild_b(hom), other) \
            + (-1.0) ** p * shuffle_product(hom, hochschild_b(other))
        worst = max(worst, probe_distance(lhs, rhs, rng))

    ok = worst <= 1e-10
    _verdict(9, "boundary and shuffle axioms after normalization", ok,
             f"worst probe residual {worst:.2e}")


def test_cochain_routes_cross_validate():
    # supporting dual-route spot check: the exact evaluator, the eigensum
    # oracle and the sampler agree on one fixed instance
    rng = np.random.default_rng(20_260_831)
    t = random_triple(rng, 2, 1)
    a = random_chain(rng, t.space, (2,))
    ev = JLOEvaluator(t)
    exact = ev.cochain(a)
    eig = cochain_eigensum(t, a)
    est, se = ev.cochain_mc(a, 50_000, rng)
    assert abs(exact - eig) <= 1e-12
    assert abs(exact - est) <= 4.0 * se + 1e-12
