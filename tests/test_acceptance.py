"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line."""

import math
import time

import numpy as np
import pytest

from lattice_recon import (CbcTask, IndexSet, Rank1Lattice,
                           WeightedSetRule, basis_matrix, cbc_construct,
                           coeffs_from_values, dft, difference_set,
                           make_weighted_set, mirrored,
                           plan_a_least_squares_check,
                           random_downward_closed, random_series,
                           required_n, sample_values, stability_constant,
                           sum_set, verify_fourier, verify_plan_a,
                           verify_plan_b, verify_plan_c, zero_count)
from lattice_recon.approx import KIND_FOR_SPACE
from reference import dct_i, dct_v, dft_direct, unique_tent_point_count

SETTINGS = [
    ("fourier", None),
    ("cosine", "A"), ("cosine", "B"), ("cosine", "C"),
    ("chebyshev", "A"), ("chebyshev", "B"), ("chebyshev", "C"),
]

LOG32 = math.log(3) / math.log(2)


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def _draw_set(rng, d):
    """Index set from one of the three weighted rules or a random downward
    closed set, size capped at 40."""
    choice = int(rng.integers(0, 4))
    if choice < 3:
        kind = ("max", "sum", "product")[choice]
        betas = tuple(sorted((1.0,) + tuple(
            rng.choice([0.25, 0.5, 0.75, 1.0]) for _ in range(d - 1)),
            reverse=True))
        for degree in (int(rng.integers(2, 7)), 2, 1):
            L = make_weighted_set(WeightedSetRule(kind, betas, degree), d)
            if len(L) <= 40:
                return L
    return random_downward_closed(rng, d, int(rng.integers(2, 41)))


def _cases(count=203, seed=20260809):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        space, plan = SETTINGS[i % len(SETTINGS)]
        d = int(rng.integers(1, 5))
        cases.append((space, plan, _draw_set(rng, d), rng.integers(2**31)))
    return cases


@pytest.fixture(scope="module")
def reconstruction_cases():
    return _cases()


def test_criterion_01_exact_reconstruction(reconstruction_cases):
    # warm the kernels outside the timed region
    warm = IndexSet([(0,), (1,)], domain="nonneg")
    cbc_construct(CbcTask("cosine", "reconstruction", warm, plan="B"))
    start = time.perf_counter()
    worst = 0.0
    for space, plan, L, fseed in reconstruction_cases:
        task = CbcTask(space, "reconstruction", L, plan=plan)
        result = cbc_construct(task)
        lat = result.lattice()
        f = random_series(space, L, np.random.default_rng(fseed))
        values = sample_values(f, lat, KIND_FOR_SPACE[space])
        table = coeffs_from_values(space, lat, L, values, plan)
        truth = f.reference_coeffs
        worst = max(worst, max(abs(table[k] - truth[k]) for k in L))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-11 and elapsed < 60.0
    _report(ok, f"criterion 1: exact reconstruction in all 7 settings over "
                f"{len(reconstruction_cases)} functions "
                f"(max error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_integral_exactness(reconstruction_cases):
    worst = 0.0
    for space, plan, L, fseed in reconstruction_cases[:70]:
        task = CbcTask(space, "integration", L)
        result = cbc_construct(task)
        lat = result.lattice()
        f = random_series(space, L, np.random.default_rng(fseed))
        zero = (0,) * L.dimension
        exact = f.reference_coeffs.get(zero, 0.0)
        quad = lat.cubature(f, KIND_FOR_SPACE[space])
        worst = max(worst, abs(quad - exact))
    _report(worst < 1e-12,
            f"criterion 2: integral exactness Q_n(f) = f_0 "
            f"(max deviation {worst:.2e})")


def test_criterion_03_cbc_existence_bounds():
    rng = np.random.default_rng(3)
    kinds = [("fourier", "integration", None),
             ("fourier", "reconstruction", None),
             ("cosine", "integration", None),
             ("cosine", "reconstruction", "A"),
             ("cosine", "reconstruction", "B"),
             ("cosine", "reconstruction", "C")]
    failures = 0
    total = 0
    for space, goal, plan in kinds:
        for _ in range(500):
            d = int(rng.integers(1, 6))
            L = random_downward_closed(rng, d, int(rng.integers(1, 31)))
            task = CbcTask(space, goal, L, plan=plan,
                           strategy="elimination")
            result = cbc_construct(task)
            total += 1
            if result.stats.restarts != 0 or result.n != required_n(task):
                failures += 1
    _report(failures == 0,
            f"criterion 3: construction at n = required_n never fails "
            f"({total} tasks, {failures} failures)")


@pytest.fixture(scope="module")
def verifier_triples():
    rng = np.random.default_rng(4)
    triples = []
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        size = int(rng.integers(1, 11))
        rows = {tuple(int(v) for v in rng.integers(0, 5, size=d))
                for _ in range(size)}
        L = IndexSet(sorted(rows), dimension=d, domain="nonneg")
        n = int(rng.integers(2, 102))
        z = tuple(int(v) for v in rng.integers(1, n, size=d))
        triples.append((L, n, z))
    return triples


def test_criterion_04_verifier_oracle_equivalence(verifier_triples):
    mismatches = 0
    for L, n, z in verifier_triples:
        lat = Rank1Lattice(n, z)
        M = mirrored(L)
        if verify_fourier(z, n, L).ok != lat.dual_check(difference_set(L)):
            mismatches += 1
        if verify_plan_a(z, n, L).ok != lat.dual_check(sum_set(M, M)):
            mismatches += 1
        if verify_plan_b(z, n, L).ok != lat.dual_check(sum_set(L, M)):
            mismatches += 1
        fast = verify_plan_c(z, n, L)
        naive_ok, naive_c = lat.plan_c_check_naive(L)
        if fast.ok != naive_ok or (fast.ok and fast.c_table != naive_c):
            mismatches += 1
    _report(mismatches == 0,
            f"criterion 4: verifier/oracle equivalence on "
            f"{len(verifier_triples)} triples ({mismatches} mismatches)")


def test_criterion_05_condition_nesting(verifier_triples):
    violations = 0
    for L, n, z in verifier_triples:
        a = verify_plan_a(z, n, L).ok
        b = verify_plan_b(z, n, L).ok
        c = verify_plan_c(z, n, L)
        if a and not b:
            violations += 1
        if b and not c.ok:
            violations += 1
        if b and c.ok and any(v != 1 for v in c.c_table.values()):
            violations += 1
    _report(violations == 0,
            f"criterion 5: plan A => plan B => plan C nesting "
            f"({violations} violations)")


def test_criterion_06_unique_tent_points():
    from lattice_recon import next_prime
    rng = np.random.default_rng(6)
    bad = 0
    for _ in range(200):
        n = next_prime(int(rng.integers(4, 10007)))
        d = int(rng.integers(1, 5))
        z = (1,) + tuple(int(v) for v in rng.integers(1, n, size=d - 1))
        if unique_tent_point_count(Rank1Lattice(n, z)) != n // 2 + 1:
            bad += 1
    _report(bad == 0,
            f"criterion 6: floor(n/2+1) unique tent points on 200 lattices "
            f"({bad} failures)")


def test_criterion_07_fft_dct_equivalence():
    rng = np.random.default_rng(7)
    worst_dct = 0.0
    for _ in range(100):
        for parity in (0, 1):
            n = int(rng.integers(2, 2049)) * 2 - parity
            if n > 4096:
                n -= 2
            v = np.empty(n)
            half = n // 2
            v[:half + 1] = rng.standard_normal(half + 1)
            v[half + 1:] = v[1:n - half][::-1]
            spectrum = dft(v, "forward").real
            if n % 2 == 0:
                m = n // 2
                err = np.max(np.abs(dct_i(v[:m + 1]) - spectrum[:m + 1]))
            else:
                m = (n + 1) // 2
                err = np.max(np.abs(dct_v(v[:m]) - spectrum[:m]))
            worst_dct = max(worst_dct, float(err))
    worst_fft = 0.0
    for n in range(1, 513):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        err = np.max(np.abs(dft(x, "forward") - dft_direct(x, "forward")))
        err_inv = np.max(np.abs(dft(x, "inverse")
                                - dft_direct(x, "inverse"))) / n
        worst_fft = max(worst_fft, float(err), float(err_inv))
    ok = worst_dct < 1e-12 and worst_fft < 1e-12
    _report(ok, f"criterion 7: FFT/DCT paths agree (dct {worst_dct:.2e}, "
                f"fft-vs-direct {worst_fft:.2e})")


def test_criterion_08_stability(reconstruction_cases):
    rng = np.random.default_rng(8)
    worst_ratio = 0.0
    worst_plan_a = 0.0
    for space, plan, L, fseed in reconstruction_cases[:56]:
        task = CbcTask(space, "reconstruction", L, plan=plan)
        result = cbc_construct(task)
        lat = result.lattice()
        f = random_series(space, L, np.random.default_rng(fseed))
        values = sample_values(f, lat, KIND_FOR_SPACE[space])
        noise = rng.standard_normal(lat.n)
        if space == "fourier":
            noise = noise + 1j * rng.standard_normal(lat.n)
        noise *= 1e-3 / math.sqrt(np.mean(np.abs(noise) ** 2))
        clean = coeffs_from_values(space, lat, L, values, plan)
        noisy = coeffs_from_values(space, lat, L, values + noise, plan)
        shift = math.sqrt(sum(abs(noisy[k] - clean[k]) ** 2 for k in L))
        plan_label = plan if plan is not None else "A"
        rho = stability_constant(L, plan_label, result.c_table).rho
        worst_ratio = max(worst_ratio,
                          shift / (math.sqrt(rho) * 1e-3))
        if plan_label == "A":
            worst_plan_a = max(worst_plan_a, shift / 1e-3)
    ok = worst_ratio <= 1 + 1e-6 and worst_plan_a <= 1 + 1e-6
    _report(ok, f"criterion 8: noise amplification within sqrt(rho) "
                f"(worst ratio {worst_ratio:.6f}, plan A "
                f"{worst_plan_a:.6f})")


def test_criterion_09_plan_a_least_squares():
    rng = np.random.default_rng(9)
    gram_worst = 0.0
    ok_all = True
    for case in range(50):
        space = ("fourier", "cosine", "chebyshev")[case % 3]
        d = int(rng.integers(1, 4))
        L = random_downward_closed(rng, d, int(rng.integers(2, 13)))
        plan = None if space == "fourier" else "A"
        result = cbc_construct(CbcTask(space, "reconstruction", L,
                                       plan=plan))
        lat = result.lattice()
        if lat.n * len(L) > 10**5:
            continue
        f_values = rng.standard_normal(lat.n)
        if space == "fourier":
            f_values = f_values + 1j * rng.standard_normal(lat.n)
        ok_all &= plan_a_least_squares_check(f_values, lat, L, space)
        U = basis_matrix(lat, L, space, "u")
        gram = U.conj().T @ U / lat.n
        gram_worst = max(gram_worst, float(np.max(np.abs(
            gram - np.eye(len(L))))))
    ok = ok_all and gram_worst < 1e-12
    _report(ok, f"criterion 9: plan A solves the least-squares problem "
                f"(gram deviation {gram_worst:.2e})")


def test_criterion_10_combinatorial_bounds():
    rng = np.random.default_rng(10)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        size = int(rng.integers(1, 201))
        L = random_downward_closed(rng, d, size)
        card = len(L)
        power = card ** LOG32 + 1e-9
        if max(2 ** zero_count(k) for k in L) > card:
            violations += 1
        if L.sum_two_pow() > power:
            violations += 1
        if len(mirrored(L)) > min(2**d * card, power):
            violations += 1
    closed_form_ok = True
    for betas, m, d in (((1.0, 1.0), 3, 2), ((1.0, 0.5), 4, 2),
                        ((1.0, 0.5, 0.25), 6, 3), ((1.0,), 7, 1)):
        L = make_weighted_set(WeightedSetRule("max", betas, m), d)
        card = 1
        mcard = 1
        for j in range(d):
            card *= 1 + int(betas[j] * m)
            mcard *= 1 + 2 * int(betas[j] * m)
        closed_form_ok &= len(L) == card and len(mirrored(L)) == mcard
    ok = violations == 0 and closed_form_ok
    _report(ok, f"criterion 10: downward-closed set bounds on 1000 sets "
                f"({violations} violations; closed forms "
                f"{'match' if closed_form_ok else 'differ'})")


def test_criterion_11_cost_instrumentation():
    rng = np.random.default_rng(11)
    count_ok = True
    for _ in range(20):
        d = int(rng.integers(1, 5))
        L = random_downward_closed(rng, d, int(rng.integers(2, 20)))
        task = CbcTask("fourier", "reconstruction", L)
        lat = cbc_construct(task).lattice()
        r = verify_fourier(lat.z, lat.n, L)
        count_ok &= r.ok and r.visits == len(L)
        task = CbcTask("cosine", "reconstruction", L, plan="A")
        lat = cbc_construct(task).lattice()
        mirror_size = L.sum_two_pow()
        r = verify_plan_a(lat.z, lat.n, L)
        count_ok &= r.ok and r.visits == mirror_size
        task = CbcTask("cosine", "reconstruction", L, plan="B")
        lat = cbc_construct(task).lattice()
        r = verify_plan_b(lat.z, lat.n, L)
        count_ok &= r.ok and r.visits == mirror_size
        task = CbcTask("cosine", "reconstruction", L, plan="C")
        lat = cbc_construct(task).lattice()
        r = verify_plan_c(lat.z, lat.n, L)
        count_ok &= r.ok and r.visits == mirror_size

    # a mixed run that records a switch step and still validates
    L = random_downward_closed(np.random.default_rng(0), 3, 14)
    task = CbcTask("cosine", "reconstruction", L, plan="B",
                   strategy="mixed", mixed_switch_factor=0.0)
    result = cbc_construct(task)
    switched = result.stats.switch_step is not None
    valid = result.lattice().dual_check(sum_set(L, mirrored(L)))
    ok = count_ok and switched and valid
    _report(ok, f"criterion 11: visit counters exact and mixed switch "
                f"recorded (switch at step {result.stats.switch_step})")
