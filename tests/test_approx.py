import math

import numpy as np
import pytest

from lattice_recon import (CbcTask, CoefficientTable, IndexSet,
                           MissingCTable, Rank1Lattice, SizeLimit,
                           TransformKind, approx_coeffs, basis_matrix,
                           cbc_construct, coeffs_from_values,
                           discrete_seminorm,
                           error_decomposition, make_weighted_set,
                           plan_a_least_squares_check, random_series,
                           sample_values, series_function,
                           stability_constant,
                           with_reference, zero_count, WeightedSetRule)
from lattice_recon.approx import KIND_FOR_SPACE, MissingReference
from lattice_recon.testfunctions import geometric_decay, smooth_function
from conftest import random_downward

SETTINGS = [
    ("fourier", None),
    ("cosine", "A"), ("cosine", "B"), ("cosine", "C"),
    ("chebyshev", "A"), ("chebyshev", "B"), ("chebyshev", "C"),
]


def _build(space, plan, L, n=0):
    task = CbcTask(space, "reconstruction", L, plan=plan, n=n)
    result = cbc_construct(task)
    return result.lattice(), result.c_table


# ---------------------------------------------------------------------------
# approx_coeffs

@pytest.mark.parametrize("space,plan", SETTINGS)
def test_exact_recovery_of_supported_functions(space, plan, rng):
    for _ in range(5):
        d = int(rng.integers(1, 4))
        L = random_downward(rng, d, int(rng.integers(2, 12)))
        lat, _ = _build(space, plan, L)
        f = random_series(space, L, rng)
        table = approx_coeffs(f, lat, L, space, plan)
        truth = f.reference_coeffs
        worst = max(abs(table[k] - truth[k]) for k in L)
        assert worst < 1e-11


def test_zero_function_gives_zero_table(rng):
    L = random_downward(rng, 2, 6)
    lat, _ = _build("cosine", "B", L)
    f = series_function("cosine",
                        CoefficientTable("cosine", 2, {k: 0.0 for k in L}))
    table = approx_coeffs(f, lat, L, "cosine", "B")
    assert all(abs(v) < 1e-13 for _, v in table.items())


def test_fourier_aliasing_is_predicted_by_residues(rng):
    # one out-of-set term contaminates exactly the index sharing its slot
    L = IndexSet([(0, 0), (1, 0), (0, 1), (1, 1)], domain="nonneg")
    lat, _ = _build("fourier", None, L)
    n, z = lat.n, lat.z
    outside = (2, 3)
    assert outside not in L
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in L}
    tail = complex(rng.standard_normal(), rng.standard_normal())

    def f(x):
        out = np.zeros(len(x), dtype=complex)
        for k, c in coeffs.items():
            out += c * np.exp(2j * np.pi * (x @ np.array(k)))
        return out + tail * np.exp(2j * np.pi * (x @ np.array(outside)))

    table = approx_coeffs(f, lat, L, "fourier")
    slot_out = sum(a * b for a, b in zip(outside, z)) % n
    for k in L:
        slot_k = sum(a * b for a, b in zip(k, z)) % n
        expected = coeffs[k] + (tail if slot_k == slot_out else 0.0)
        assert abs(table[k] - expected) < 1e-11


# ---------------------------------------------------------------------------
# stability constants

def test_stability_plan_a_is_one(rng):
    L = random_downward(rng, 3, 9)
    report = stability_constant(L, "A")
    assert report.rho == 1.0


def test_stability_plan_b_formula():
    L = IndexSet([(0, 0), (1, 0), (1, 1)], domain="nonneg")
    report = stability_constant(L, "B")
    assert report.rho == 2.0  # 2^(2-1)
    assert report.per_index_terms[(1, 1)] == 2.0
    assert report.per_index_terms[(0, 0)] == 1.0


def test_stability_plan_c_with_aliasing():
    L = IndexSet([(1,)], domain="nonneg")
    report = stability_constant(L, "C", {(1,): 2})
    assert report.rho == 0.25  # 2^0 / 4, no zero index
    with pytest.raises(MissingCTable):
        stability_constant(L, "C")


def test_stability_rho_c_below_rho_b(rng):
    for _ in range(10):
        L = random_downward(rng, 3, 10)
        lat, c_table = _build("cosine", "C", L)
        rho_b = stability_constant(L, "B").rho
        rho_c = stability_constant(L, "C", c_table).rho
        assert rho_c <= rho_b


# ---------------------------------------------------------------------------
# discrete seminorm

def test_seminorm_constant_and_unimodular():
    lat = Rank1Lattice(13, (1, 5))
    assert abs(discrete_seminorm(lambda x: np.full(len(x), -2.5), lat,
                                 TransformKind.TENT) - 2.5) < 1e-14
    value = discrete_seminorm(
        lambda x: np.exp(2j * np.pi * x[:, 0]), lat, TransformKind.IDENTITY)
    assert abs(value - 1.0) < 1e-14


def test_seminorm_matches_direct_sum(rng):
    L = random_downward(rng, 2, 8)
    lat, _ = _build("cosine", "B", L)
    f = geometric_decay("cosine", 2, rng, ratio=0.3, degree=6)
    truth = f.reference_coeffs
    kept = {k: truth.get(k, 0.0) for k in L}

    def residual(x):
        total = np.asarray(f(x), dtype=float)
        for k, c in kept.items():
            k = np.asarray(k)
            total -= (c * math.sqrt(2.0) ** np.count_nonzero(k)
                      * np.prod(np.cos(np.pi * k * x), axis=1))
        return total

    direct = math.sqrt(np.mean(np.abs(
        residual(lat.points(TransformKind.TENT))) ** 2))
    assert abs(discrete_seminorm(residual, lat, TransformKind.TENT)
               - direct) < 1e-12


# ---------------------------------------------------------------------------
# error decomposition

@pytest.mark.parametrize("space,plan", SETTINGS)
def test_error_decomposition_supported_function(space, plan, rng):
    L = random_downward(rng, 2, 8)
    lat, _ = _build(space, plan, L)
    f = random_series(space, L, rng)
    report = error_decomposition(f, lat, L, space, plan)
    assert report.truncation_err == 0.0
    assert report.approximation_err < 1e-11
    assert report.bound_ok


def test_error_decomposition_with_tail(rng):
    d = 2
    L = make_weighted_set(WeightedSetRule("product", (1.0, 1.0), 3), d)
    for space, plan in (("cosine", "B"), ("fourier", None),
                        ("chebyshev", "A")):
        lat, _ = _build(space, plan, L)
        f = geometric_decay(space, d, rng, ratio=0.35, degree=8)
        report = error_decomposition(f, lat, L, space, plan)
        assert report.truncation_err > 0
        assert report.approximation_err > 0
        assert report.bound_ok
        # Parseval split: total^2 = truncation^2 + approximation^2
        lhs = report.total_err ** 2
        rhs = report.truncation_err ** 2 + report.approximation_err ** 2
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)
        assert report.loose_bound >= 0.0


def test_error_decomposition_needs_reference(rng):
    L = random_downward(rng, 2, 5)
    lat, _ = _build("cosine", "B", L)
    f = smooth_function("cosine", 2)
    with pytest.raises(MissingReference):
        error_decomposition(f, lat, L, "cosine", "B")


def test_with_reference_attaches_high_resolution_truth(rng):
    L = make_weighted_set(WeightedSetRule("product", (1.0, 1.0), 2), 2)
    lat, _ = _build("cosine", "B", L)
    ref_set = make_weighted_set(WeightedSetRule("product", (1.0, 1.0), 6), 2)
    f = with_reference(smooth_function("cosine", 2), ref_set, lat.n,
                       n_factor=4)
    assert f.reference_coeffs is not None
    report = error_decomposition(f, lat, L, "cosine", "B")
    assert report.bound_ok
    assert report.truncation_err > 0


# ---------------------------------------------------------------------------
# perturbation stability

@pytest.mark.parametrize("space,plan", SETTINGS)
def test_noise_amplification_bounded_by_rho(space, plan, rng):
    for _ in range(3):
        d = int(rng.integers(1, 4))
        L = random_downward(rng, d, int(rng.integers(2, 10)))
        lat, c_table = _build(space, plan, L)
        f = random_series(space, L, rng)
        kind = KIND_FOR_SPACE[space]
        values = sample_values(f, lat, kind)
        noise = rng.standard_normal(lat.n)
        if space == "fourier":
            noise = noise + 1j * rng.standard_normal(lat.n)
        rms = math.sqrt(np.mean(np.abs(noise) ** 2))
        noise *= 1e-3 / rms

        clean = coeffs_from_values(space, lat, L, values, plan)
        noisy = coeffs_from_values(space, lat, L, values + noise, plan)
        shift = math.sqrt(sum(abs(noisy[k] - clean[k]) ** 2 for k in L))
        plan_label = plan if plan is not None else "A"
        rho = stability_constant(L, plan_label, c_table).rho
        assert shift <= math.sqrt(rho) * 1e-3 * (1 + 1e-6)


def test_plan_a_noise_is_not_amplified(rng):
    L = random_downward(rng, 2, 8)
    lat, _ = _build("cosine", "A", L)
    f = random_series("cosine", L, rng)
    values = sample_values(f, lat, TransformKind.TENT)
    noise = rng.standard_normal(lat.n)
    noise *= 1e-3 / math.sqrt(np.mean(noise**2))
    from lattice_recon.transform import cosine_coeffs_from_values
    clean = cosine_coeffs_from_values(lat, L, "A", values)
    noisy = cosine_coeffs_from_values(lat, L, "A", values + noise)
    shift = math.sqrt(sum(abs(noisy[k] - clean[k]) ** 2 for k in L))
    assert shift <= 1e-3 * (1 + 1e-6)


# ---------------------------------------------------------------------------
# least squares and Gram identities

def test_plan_a_solves_least_squares(rng):
    for space in ("fourier", "cosine", "chebyshev"):
        L = random_downward(rng, 2, 7)
        plan = None if space == "fourier" else "A"
        lat, _ = _build(space, plan, L)
        f_values = rng.standard_normal(lat.n)
        if space == "fourier":
            f_values = f_values + 1j * rng.standard_normal(lat.n)
        assert plan_a_least_squares_check(f_values, lat, L, space)


def test_gram_identity_u(rng):
    L = random_downward(rng, 2, 7)
    lat, _ = _build("cosine", "A", L)
    U = basis_matrix(lat, L, "cosine", "u")
    gram = U.conj().T @ U / lat.n
    assert np.max(np.abs(gram - np.eye(len(L)))) < 1e-12


def test_gram_identities_plans_b_c(rng):
    for plan in ("B", "C"):
        L = random_downward(rng, 3, 9)
        lat, c_table = _build("cosine", plan, L)
        U = basis_matrix(lat, L, "cosine", "u")
        V = basis_matrix(lat, L, "cosine", "v")
        vwu = V.conj().T @ U / lat.n
        expected_c = np.diag([c_table[k] if plan == "C" else 1.0 for k in L])
        assert np.max(np.abs(vwu - expected_c)) < 1e-12
        vwv = V.conj().T @ V / lat.n
        d_diag = []
        for k in L:
            if zero_count(k) == 0:
                d_diag.append(1.0)
            else:
                d_k = 2.0 ** (zero_count(k) - 1)
                # self-aliasing of the full sign flip doubles the diagonal
                d_k *= 1 + lat.character(tuple(2 * v for v in k))
                d_diag.append(d_k)
        assert np.max(np.abs(vwv - np.diag(d_diag))) < 1e-12
        if plan == "C" and all(v == 1 for v in c_table.values()):
            plain_d = [1.0 if zero_count(k) == 0
                       else 2.0 ** (zero_count(k) - 1) for k in L]
            assert np.max(np.abs(vwv - np.diag(plain_d))) < 1e-12


def test_plan_b_is_not_the_least_squares_minimizer(rng):
    # negative control: plan-B coefficients differ from the dense solve
    # whenever a sign-structure index is present
    L = IndexSet([(0, 0), (1, 0), (0, 1), (1, 1)], domain="nonneg")
    lat, _ = _build("cosine", "B", L)
    from lattice_recon.transform import cosine_coeffs_from_values
    rngl = np.random.default_rng(5)
    f_values = rngl.standard_normal(lat.n)
    table_b = cosine_coeffs_from_values(lat, L, "B", f_values, unsafe=True)
    U = basis_matrix(lat, L, "cosine", "u")
    gram = U.T @ U / lat.n
    rhs = U.T @ f_values / lat.n
    solved = np.linalg.solve(gram, rhs)
    diff = np.max(np.abs(solved - np.asarray([table_b[k] for k in L])))
    assert diff > 1e-6


def test_size_limit(rng):
    L = random_downward(rng, 2, 5)
    lat, _ = _build("cosine", "A", L)
    with pytest.raises(SizeLimit):
        plan_a_least_squares_check(np.zeros(lat.n), lat, L, "cosine",
                                   size_limit=10)


def test_plan_a_least_squares_on_in_span_values(rng):
    L = random_downward(rng, 2, 6)
    lat, _ = _build("cosine", "A", L)
    f = random_series("cosine", L, rng)
    values = sample_values(f, lat, TransformKind.TENT)
    assert plan_a_least_squares_check(values, lat, L, "cosine")
    # in-span data leaves no least-squares residual
    U = basis_matrix(lat, L, "cosine", "u")
    coeffs = np.linalg.lstsq(U, values, rcond=None)[0]
    residual = np.max(np.abs(U @ coeffs - values))
    assert residual < 1e-11
