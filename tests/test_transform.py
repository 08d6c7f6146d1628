import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_recon import (AliasingDetected, CbcTask, CoefficientTable,
                           IndexSet, Rank1Lattice,
                           TransformKind, cbc_construct, coeffs_from_values,
                           dft, fourier_coeffs_from_values,
                           fourier_values_from_coeffs, read_coefficients,
                           read_values, sample_values, smooth_function,
                           values_from_coeffs, verify_plan_b,
                           verify_plan_c, write_coefficients, write_values,
                           zero_count)
import lattice_recon.cbc as cbc_module
import lattice_recon.indexset as indexset_module
import lattice_recon.kernels as kernels_module
import lattice_recon.lattice as lattice_module
import lattice_recon.transform as transform_module
from lattice_recon.transform import (chebyshev_coeffs_from_values,
                                     chebyshev_values_from_coeffs,
                                     cosine_coeffs_from_values,
                                     cosine_values_from_coeffs)
from conftest import random_downward, random_nonneg_set
from reference import (cosine_values_loop, dct_i, dct_v, dft_direct,
                       fourier_values_loop, unique_sign_changes)


# ---------------------------------------------------------------------------
# 1-d transforms

def test_dft_constant_and_impulse():
    np.testing.assert_allclose(dft([1, 1, 1, 1]), [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(dft([1, 0, 0, 0]), [0.25] * 4, atol=1e-15)


def test_dft_roundtrip_prime_length(rng):
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    back = dft(dft(x, "forward"), "inverse")
    assert np.max(np.abs(back - x)) < 1e-12


def test_dft_matches_direct_oracle(rng):
    for n in (1, 2, 3, 31, 64, 65, 97, 128, 200, 509):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = dft(x, "forward")
        slow = dft_direct(x, "forward")
        assert np.max(np.abs(fast - slow)) < 1e-12
        fast_inv = dft(x, "inverse")
        slow_inv = dft_direct(x, "inverse")
        assert np.max(np.abs(fast_inv - slow_inv)) < 1e-12 * n


def test_dct_examples():
    np.testing.assert_allclose(dct_i([1, 1, 1]), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(dct_v([1, 0]), [1 / 3, 1 / 3], atol=1e-15)


def _symmetric_vector(rng, n):
    v = np.empty(n)
    half = n // 2
    v[:half + 1] = rng.standard_normal(half + 1)
    v[half + 1:] = v[1:n - half][::-1]
    return v


@pytest.mark.parametrize("n", [2, 4, 16, 100, 256])
def test_dct_i_matches_fft_on_symmetric_input(rng, n):
    v = _symmetric_vector(rng, n)
    m = n // 2
    spectrum = dft(v, "forward").real
    half = dct_i(v[:m + 1])
    assert np.max(np.abs(half - spectrum[:m + 1])) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 17, 99, 255])
def test_dct_v_matches_fft_on_symmetric_input(rng, n):
    v = _symmetric_vector(rng, n)
    m = (n + 1) // 2
    spectrum = dft(v, "forward").real
    half = dct_v(v[:m])
    assert np.max(np.abs(half - spectrum[:m])) < 1e-12


def test_spectrum_symmetry_on_symmetric_input(rng):
    for n in (12, 13):
        v = _symmetric_vector(rng, n)
        spectrum = dft(v, "forward")
        assert np.max(np.abs(spectrum.imag)) < 1e-13
        for kappa in range(1, n):
            assert abs(spectrum[kappa] - spectrum[n - kappa]) < 1e-12


# ---------------------------------------------------------------------------
# Fourier maps

def _fourier_setup():
    L = IndexSet(list(itertools.product((0, 1), repeat=2)), domain="nonneg")
    result = cbc_construct(CbcTask("fourier", "reconstruction", L, n=17))
    return L, result.lattice()


def test_fourier_single_basis_function():
    L, lat = _fourier_setup()
    h0 = (1, 1)
    values = np.exp(2j * np.pi * (lat.points() @ np.array(h0)))
    table = fourier_coeffs_from_values(lat, L, values)
    assert abs(table[h0] - 1.0) < 1e-12
    for k in L:
        if k != h0:
            assert abs(table[k]) < 1e-12


def test_fourier_roundtrip_random_coeffs(rng):
    L, lat = _fourier_setup()
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in L}
    values = fourier_values_from_coeffs(lat, L, coeffs)
    back = fourier_coeffs_from_values(lat, L, values)
    for k in L:
        assert abs(back[k] - coeffs[k]) < 1e-12


def test_fourier_aliasing_detected():
    lat = Rank1Lattice(5, (1,))
    L = IndexSet([(0,), (5,)])  # both hit residue 0
    with pytest.raises(AliasingDetected):
        fourier_coeffs_from_values(lat, L, np.zeros(5, dtype=complex))
    # unsafe skips the check
    fourier_coeffs_from_values(lat, L, np.zeros(5, dtype=complex),
                               unsafe=True)


def test_fourier_matches_naive_cubature(rng):
    L, lat = _fourier_setup()
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in L}

    def f(x):
        out = np.zeros(len(x), dtype=complex)
        for k, c in coeffs.items():
            out += c * np.exp(2j * np.pi * (x @ np.array(k)))
        return out

    values = sample_values(f, lat, TransformKind.IDENTITY)
    table = fourier_coeffs_from_values(lat, L, values)
    for h in L:
        naive = lat.cubature(
            lambda x: f(x) * np.exp(-2j * np.pi * (x @ np.array(h))),
            TransformKind.IDENTITY)
        assert abs(table[h] - naive) < 1e-12


# ---------------------------------------------------------------------------
# cosine / Chebyshev maps

def _phi(k, x):
    """Half-period cosine basis, vectorized over rows of x."""
    k = np.asarray(k)
    return (math.sqrt(2.0) ** np.count_nonzero(k)
            * np.prod(np.cos(np.pi * k * x), axis=1))


def test_cosine_constant_function():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    lat = Rank1Lattice(5, (1,))
    values = sample_values(lambda x: np.ones(len(x)), lat,
                           TransformKind.TENT)
    table = cosine_coeffs_from_values(lat, L, "B", values)
    assert abs(table[(0,)] - 1.0) < 1e-12
    assert abs(table[(1,)]) < 1e-12


def test_cosine_first_mode_n5():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    lat = Rank1Lattice(5, (1,))
    values = sample_values(lambda x: _phi((1,), x), lat, TransformKind.TENT)
    np.testing.assert_allclose(values,
                               math.sqrt(2) * np.cos(2 * np.pi
                                                     * np.arange(5) / 5),
                               atol=1e-14)
    table = cosine_coeffs_from_values(lat, L, "B", values)
    assert abs(table[(1,)] - 1.0) < 1e-12


def test_plan_c_normalization_divides_by_c():
    # at n = 2 both signs of (1,) sit in slot 1: the map counts c = 2 on
    # the slots, as the verifier does, and divides by it
    L = IndexSet([(1,)], domain="nonneg")
    lat = Rank1Lattice(2, (1,))
    assert verify_plan_c((1,), 2, L).c_table == {(1,): 2}
    values = sample_values(lambda x: _phi((1,), x), lat, TransformKind.TENT)
    table = cosine_coeffs_from_values(lat, L, "C", values)
    assert abs(table[(1,)] - 1.0) < 1e-12
    # the bindings' c_table is not read, so it cannot override the count
    ones = cosine_coeffs_from_values(lat, L, "C", values, {(1,): 1})
    assert ones[(1,)] == table[(1,)]
    # without dividing by c the value would be 2
    raw = cosine_coeffs_from_values(lat, L, "B", values, unsafe=True)
    assert abs(raw[(1,)] - 2.0) < 1e-12


def test_missing_c_table():
    # plan C needs no table: values 1, -1 at n = 2 give 1 / sqrt(2) in
    # both spaces, and the round trip is exact
    L = IndexSet([(1,)], domain="nonneg")
    lat = Rank1Lattice(2, (1,))
    values = np.array([1.0, -1.0])
    for space in ("cosine", "chebyshev"):
        table = coeffs_from_values(space, lat, L, values, "C")
        assert abs(table[(1,)] - 1 / math.sqrt(2)) < 1e-15
        back = values_from_coeffs(space, lat, L, table)
        assert np.max(np.abs(back - values)) < 1e-15


def test_chebyshev_basis_modes():
    L = IndexSet([(0,), (1,), (2,)], domain="nonneg")
    task = CbcTask("chebyshev", "reconstruction", L, plan="B")
    result = cbc_construct(task)
    lat = result.lattice()

    def eta(k, x):
        return (math.sqrt(2.0) ** (1 if k else 0)
                * np.cos(k * np.arccos(np.clip(x[:, 0], -1, 1))))

    for mode in (0, 1, 2):
        values = sample_values(lambda x: eta(mode, x), lat,
                               TransformKind.COSINE_OF_TENT)
        table = chebyshev_coeffs_from_values(lat, L, "B", values)
        for k in L:
            expected = 1.0 if k == (mode,) else 0.0
            assert abs(table[k] - expected) < 1e-12


def test_chebyshev_matches_folded_cubature_oracle(rng):
    # oracle: eta_2 coefficient as Q_n(f(cos 2 pi .) sqrt(2) cos(2 pi 2 .))
    L = IndexSet([(0,), (1,), (2,)], domain="nonneg")
    result = cbc_construct(CbcTask("chebyshev", "reconstruction", L,
                                   plan="B"))
    lat = result.lattice()
    coeffs = {k: float(rng.standard_normal()) for k in L}

    def f(x):
        theta = np.arccos(np.clip(x[:, 0], -1, 1))
        out = np.zeros(len(x))
        for (k,), c in coeffs.items():
            scale = math.sqrt(2.0) if k else 1.0
            out += c * scale * np.cos(k * theta)
        return out

    values = sample_values(f, lat, TransformKind.COSINE_OF_TENT)
    table = chebyshev_coeffs_from_values(lat, L, "B", values)
    t = lat.points(TransformKind.IDENTITY)[:, 0]
    for (k,) in L:
        scale = math.sqrt(2.0) if k else 1.0
        naive = np.mean(values * scale * np.cos(2 * np.pi * k * t))
        assert abs(table[(k,)] - naive) < 1e-12
        assert abs(table[(k,)] - coeffs[(k,)]) < 1e-12


@pytest.mark.parametrize("space,plan", [
    ("fourier", None),
    ("cosine", "A"), ("cosine", "B"), ("cosine", "C"),
    ("chebyshev", "A"), ("chebyshev", "B"), ("chebyshev", "C"),
])
def test_roundtrip_every_space_and_plan(space, plan, rng):
    for trial in range(5):
        d = int(rng.integers(1, 4))
        L = random_downward(rng, d, int(rng.integers(2, 12)))
        task = CbcTask(space, "reconstruction", L, plan=plan)
        result = cbc_construct(task)
        lat = result.lattice()
        if space == "fourier":
            coeffs = {k: complex(rng.standard_normal(),
                                 rng.standard_normal()) for k in L}
            values = fourier_values_from_coeffs(lat, L, coeffs)
            back = fourier_coeffs_from_values(lat, L, values)
        else:
            coeffs = {k: float(rng.standard_normal()) for k in L}
            synth = cosine_values_from_coeffs if space == "cosine" \
                else chebyshev_values_from_coeffs
            analyze = cosine_coeffs_from_values if space == "cosine" \
                else chebyshev_coeffs_from_values
            values = synth(lat, L, coeffs)
            back = analyze(lat, L, plan, values)
        worst = max(abs(back[k] - coeffs[k]) for k in L)
        scale = max(1.0, max(abs(v) for v in coeffs.values()))
        assert worst < 1e-11 * scale
        # the space dispatch gives the same values and coefficients
        dispatched = values_from_coeffs(space, lat, L, coeffs)
        assert np.array_equal(dispatched, values)
        again = coeffs_from_values(space, lat, L, dispatched, plan)
        assert again.space == space
        assert all(again[k] == back[k] for k in L)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 12))
def test_vectorized_synthesis_matches_loops(seed, d, size):
    # the smallest plan-C lattice a random walk up from n = 2 finds; at
    # such n, sign orbits often share a slot (c_k > 1) and Fourier indices
    # collide, so the scatter must accumulate
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size)
    for n in itertools.count(2):
        z = tuple(int(v) for v in rng.integers(1, n, size=d))
        if verify_plan_c(z, n, L).ok:
            break
    lat = Rank1Lattice(n, z)
    real = {k: float(rng.standard_normal()) for k in L}
    cplx = {k: complex(rng.standard_normal(), rng.standard_normal())
            for k in L}
    assert np.max(np.abs(cosine_values_from_coeffs(lat, L, real)
                         - cosine_values_loop(lat, L, real))) < 1e-12
    assert np.max(np.abs(fourier_values_from_coeffs(lat, L, cplx)
                         - fourier_values_loop(lat, L, cplx))) < 1e-12


def test_multiway_coefficient_identity(rng):
    # cubature against sqrt(2)^|k|_0 cos(2 pi sigma(k).x) is independent of
    # the sign change sigma on a plan-B lattice
    L = random_downward(rng, 3, 8)
    result = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="B"))
    lat = result.lattice()
    coeffs = {k: float(rng.standard_normal()) for k in L}
    values = cosine_values_from_coeffs(lat, L, coeffs)
    t = lat.points(TransformKind.IDENTITY)
    for k in list(L)[:5]:
        scale = math.sqrt(2.0) ** zero_count(k)
        reference = None
        for sk in unique_sign_changes(k):
            value = np.mean(values * scale
                            * np.cos(2 * np.pi * (t @ np.array(sk))))
            if reference is None:
                reference = value
            assert abs(value - reference) < 1e-12
        assert abs(reference - coeffs[k]) < 1e-11


def test_aliasing_detected_for_all_plans():
    # n = 3 is far too small for this set under any plan
    L = IndexSet([(0,), (1,), (2,), (3,)], domain="nonneg")
    lat = Rank1Lattice(3, (1,))
    for plan in ("A", "B", "C"):
        with pytest.raises(AliasingDetected):
            cosine_coeffs_from_values(lat, L, plan, np.zeros(3),
                                      {k: 1 for k in L})


SPACE_PLANS = [("fourier", None), ("cosine", "A"), ("cosine", "B"),
               ("cosine", "C"), ("chebyshev", "A"), ("chebyshev", "B"),
               ("chebyshev", "C")]


@pytest.mark.parametrize("space,plan", SPACE_PLANS)
def test_forward_map_expands_and_reduces_once(space, plan, monkeypatch):
    # the aliasing check and the coefficient lookup read the same slot
    # residues, and so does synthesis: one walk of the step chain per map,
    # which carries the sign orbits itself, so no map sign-expands a set
    L = random_downward(np.random.default_rng(2), 3, 10)
    result = cbc_construct(CbcTask(space, "reconstruction", L, plan=plan))
    lat = result.lattice()
    calls = []
    for module, name in ((cbc_module, "_step_chain"),
                         (indexset_module, "mirror_expand")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original,
                            _name=name: calls.append(_name) or _f(*args))
    values = values_from_coeffs(space, lat, L, {k: 1.0 for k in L})
    assert calls == ["_step_chain"]
    coeffs_from_values(space, lat, L, values, plan)
    assert calls == ["_step_chain"] * 2


def test_empty_sets_pass_every_lookup_and_map_to_nothing():
    # an empty set walks a step chain without rows: every lookup passes
    # without visits, synthesis gives n zeros and the forward map an empty
    # table, in every space and under every plan
    lat = Rank1Lattice(11, (1, 3, 5))
    empty = IndexSet([], dimension=3, domain="nonneg")
    codes = (kernels_module.COND_NONZERO, kernels_module.COND_DISTINCT,
             kernels_module.COND_PLAN_B, kernels_module.COND_PLAN_C)
    for space in ("fourier", "cosine", "chebyshev"):
        for code in codes:
            result = cbc_module._lookup(code, space, empty, lat.z, lat.n)
            assert (result.ok, result.visits, result.c_table) == (
                True, 0, {} if code == kernels_module.COND_PLAN_C else None)
    for space, plan in SPACE_PLANS:
        values = values_from_coeffs(space, lat, empty, {})
        assert values.shape == (lat.n,) and not values.any()
        table = coeffs_from_values(space, lat, empty, values, plan)
        assert (table.space, table.dimension, len(table)) == (space, 3, 0)


def test_lattice_and_set_of_different_dimension():
    L = IndexSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], domain="nonneg")
    lat = Rank1Lattice(11, (1, 3, 5))
    message = "lattice dimension 3 differs from index set dimension 2"
    with pytest.raises(ValueError, match=message):
        verify_plan_b(lat.z, lat.n, L)
    for space, plan in (("fourier", None), ("cosine", "B")):
        with pytest.raises(ValueError, match=message):
            coeffs_from_values(space, lat, L, np.zeros(lat.n), plan)
        with pytest.raises(ValueError, match=message):
            values_from_coeffs(space, lat, L, {})


# ---------------------------------------------------------------------------
# files

def test_value_file_roundtrip(tmp_path, rng):
    path = tmp_path / "v.txt"
    real = rng.standard_normal(9)
    write_values(real, path)
    assert np.array_equal(read_values(path), real)

    cplx = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    write_values(cplx, path)
    assert np.array_equal(read_values(path), cplx)


def test_value_file_length_check(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("n=3\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_values(path)


def test_value_file_rejects_ragged_rows(tmp_path):
    # the columns past each row's first would vanish without a word
    path = tmp_path / "v.txt"
    path.write_text("n=3\n1.0\n2.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(ValueError, match="value row 2 has 2 columns"):
        read_values(path)


def test_coefficient_table_checks_its_key_length(tmp_path):
    # a short key would reach a file that read_coefficients cannot read
    with pytest.raises(ValueError, match="every key needs 2 components"):
        CoefficientTable("cosine", 2, {(1,): 1.0, (0, 2): 0.5})
    table = CoefficientTable("cosine", 2, {(np.int64(1), 2): 0.5})
    assert [type(c) for c in next(iter(table))] == [int, int]
    write_coefficients(table, tmp_path / "c.txt")
    assert read_coefficients(tmp_path / "c.txt").entries == {(1, 2): 0.5}


def test_coefficient_file_roundtrip(tmp_path, rng):
    path = tmp_path / "c.txt"
    table = CoefficientTable("fourier", 2, {
        (0, 1): 0.5 - 0.25j, (2, -3): complex(rng.standard_normal(), 0.125)})
    write_coefficients(table, path)
    back = read_coefficients(path)
    assert back.space == "fourier" and back.dimension == 2
    assert back.entries == table.entries

    table2 = CoefficientTable("cosine", 1, {(0,): 1.25, (3,): -0.75})
    write_coefficients(table2, path)
    back2 = read_coefficients(path)
    assert back2.entries == table2.entries


def test_plan_c_forward_matches_naive_dual_cubature(rng):
    # eq-for-eq agreement with the bi-orthonormal cubature: coefficient k is
    # the lattice average of f against sqrt(2)^|k|_0 cos(2 pi k.x), divided
    # by the self-aliasing count; also for values of no series on L (random
    # and not even symmetric), where the slots of an orbit such as that of
    # (1, 1) differ
    L = IndexSet(list(itertools.product(range(3), repeat=2)),
                 domain="nonneg")
    result = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="C"))
    lat = result.lattice()
    coeffs = {k: float(rng.standard_normal()) for k in L}
    t = lat.points(TransformKind.IDENTITY)
    for values in (cosine_values_from_coeffs(lat, L, coeffs),
                   rng.standard_normal(lat.n)):
        table = cosine_coeffs_from_values(lat, L, "C", values)
        for k in L:
            scale = math.sqrt(2.0) ** zero_count(k)
            naive = np.mean(values * scale
                            * np.cos(2 * np.pi * (t @ np.array(k))))
            naive /= result.c_table[k]
            assert abs(table[k] - naive) < 1e-12


def test_plan_c_shared_slot_synthesis_roundtrip(rng):
    # n=2, z=(1,): both signs of (1,) land in slot 1, so synthesis must
    # accumulate; the c=2 division then makes the roundtrip exact
    L = IndexSet([(0,), (1,)], domain="nonneg")
    lat = Rank1Lattice(3, (1,))
    check = verify_plan_c((1,), 3, L)
    assert check.ok
    single = IndexSet([(1,)], domain="nonneg")
    lat2 = Rank1Lattice(2, (1,))
    coeffs = {(1,): 1.75}
    values = cosine_values_from_coeffs(lat2, single, coeffs)
    np.testing.assert_allclose(
        values, [1.75 * math.sqrt(2), -1.75 * math.sqrt(2)], atol=1e-14)
    back = cosine_coeffs_from_values(lat2, single, "C", values)
    assert abs(back[(1,)] - 1.75) < 1e-13


def test_plan_c_counts_come_from_the_slots():
    # on random downward-closed and scattered sets, at the plan-C lattice
    # the construction returns from n = 3 up, the forward map with no
    # table recovers random coefficients, and the verifier's counts are
    # the naive oracle's; scattered sets at such small prime n give
    # c_k > 1, so the division is exercised
    seen = []

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           size=st.integers(1, 9), scattered=st.booleans(),
           space=st.sampled_from(["cosine", "chebyshev"]))
    def check(seed, d, size, scattered, space):
        rng = np.random.default_rng(seed)
        L = (random_nonneg_set(rng, d, size, 3) if scattered
             else random_downward(rng, d, size))
        result = cbc_construct(CbcTask(space, "reconstruction", L,
                                       plan="C", n=3))
        lat = result.lattice()
        counts = verify_plan_c(lat.z, lat.n, L).c_table
        assert counts == lat.plan_c_check_naive(L)[1] == result.c_table
        coeffs = {k: float(rng.standard_normal()) for k in L}
        values = values_from_coeffs(space, lat, L, coeffs)
        back = coeffs_from_values(space, lat, L, values, "C")
        assert max(abs(back[k] - coeffs[k]) for k in L) < 1e-12
        seen.append(max(counts.values()))

    check()
    assert max(seen) > 1


def test_real_space_maps_refuse_complex_values():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    lat = Rank1Lattice(5, (1,))
    for space in ("cosine", "chebyshev"):
        with pytest.raises(ValueError, match=f"{space} values must be real"):
            coeffs_from_values(space, lat, L, np.full(5, 1 + 1e-9j), "B")
        # a zero imaginary part is a real vector
        real = coeffs_from_values(space, lat, L, np.arange(5.0), "B")
        same = coeffs_from_values(space, lat, L, np.arange(5) + 0j, "B")
        assert same.entries == real.entries


def test_negative_cosine_index_is_refused_by_every_map_and_verifier():
    L = IndexSet([(-1,), (0,)])
    lat = Rank1Lattice(5, (1,))
    for space in ("cosine", "chebyshev"):
        with pytest.raises(ValueError, match=f"{space} indices must be "
                                             "nonnegative"):
            values_from_coeffs(space, lat, L, {(-1,): 1.0, (0,): 1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            coeffs_from_values(space, lat, L, np.ones(5), "B")
    with pytest.raises(ValueError, match="nonnegative"):
        verify_plan_b((1,), 5, L)
    # the Fourier space takes signed indices
    assert values_from_coeffs("fourier", lat, L, {(-1,): 1.0}).shape == (5,)


def test_read_coefficients_names_a_missing_header_key(tmp_path):
    path = tmp_path / "c.txt"
    for header, key in (("dim=1", "space"), ("dim 1 space=cosine", "dim")):
        path.write_text(header + "\n1 0.5\n", encoding="ascii")
        with pytest.raises(ValueError, match=f"lacks key '{key}'"):
            read_coefficients(path)


def test_large_n_roundtrip_relaxed_tolerance(rng):
    # a large prime n, where the maps take the blocked direct DFT (110 slot
    # pairs against 2 sqrt(n) = 283); the tolerance ladder relaxes to 1e-9
    # above n = 1e4
    from lattice_recon import next_prime

    L = random_downward(rng, 3, 60)
    n = next_prime(20000)
    result = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="A",
                                   n=n))
    lat = result.lattice()
    assert lat.n == n
    coeffs = {k: float(rng.standard_normal()) for k in L}
    values = cosine_values_from_coeffs(lat, L, coeffs)
    back = cosine_coeffs_from_values(lat, L, "A", values)
    assert max(abs(back[k] - coeffs[k]) for k in L) < 1e-9


# ---------------------------------------------------------------------------
# sampling in blocks of points

@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_sample_values_in_blocks_equal_one_evaluation(kind, offset,
                                                     monkeypatch):
    # the points evaluated (all n for identity points, the n//2 + 1 up to
    # n/2 otherwise, at odd and even n) number one below, at and one above
    # three blocks; the values equal one call of f on all those points, bit
    # for bit, and f never sees more rows than a block
    block = 64
    monkeypatch.setattr(lattice_module, "POINT_BLOCK", block)
    count = 3 * block + offset
    if kind == TransformKind.IDENTITY:
        lengths = (count,)

        def f(x):
            return np.exp(2j * np.pi * (x @ [1.0, 3.0, -2.0]))
    else:
        lengths = (2 * count - 2, 2 * count - 1)
        f = smooth_function("cosine" if kind == TransformKind.TENT
                            else "chebyshev", 3)
    for n in lengths:
        lat = Rank1Lattice(n, (1, 17, 40))
        rows = []
        got = sample_values(lambda x: rows.append(len(x)) or f(x), lat, kind)
        assert sum(rows) == count and max(rows) <= block
        if kind == TransformKind.IDENTITY:
            want = f(lat.points(kind))
            assert got.dtype == np.complex128
        else:
            i = np.arange(n)
            want = f(lat.points(kind, 0, count))[np.minimum(i, n - i)]
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the blocked direct DFT against the FFT

def _block_edge_lengths(limit=3000):
    # the n whose m = n//2 + 1 points fill their last centred block: m + h
    # is a multiple of W = 2h + 1, so no zero pads the end
    edges = []
    for n in range(1, limit + 1):
        height, half = transform_module._split(n // 2 + 1)
        if height * (2 * half + 1) == n // 2 + 1 + half:
            edges.append(n)
    return edges


def _direct_and_fft(values, amps, slots, n):
    # both maps through the blocked direct DFT (a spy sees no FFT call),
    # and the FFT route's Re F at the slots and real part of the synthesis
    grid = np.zeros(n)
    np.add.at(grid, slots, amps)
    want = (dft(values, "forward").real[slots], dft(grid, "inverse").real)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform_module, "_direct_pays", lambda *args: True)
        mp.setattr(transform_module, "dft", None)  # the FFT is not called
        got = (transform_module._spectrum_at(values, slots, n, True),
               transform_module._values_at_points(amps, slots, n, True))
    assert got[0].shape == want[0].shape
    assert got[1].shape == (n,) and np.isrealobj(got[1])
    return got, want


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.one_of(st.sampled_from((1, 2, 3, 4, 5, 97, 128, 1009, 1024,
                                    2310)),
                   st.sampled_from(_block_edge_lengths()),
                   st.integers(1, 3000)),
       seed=st.integers(0, 2**32 - 1), edges=st.booleans(), data=st.data())
def test_direct_dft_matches_the_fft(n, seed, edges, data):
    # both directions at the slots a map uses, repeats included: Re F for
    # real values (not symmetric ones only) and the real part of the
    # synthesis for real amplitudes, as the cosine maps read them.  n = 1
    # to 5 give m = 1 to 3 points in blocks of one point (h = 0); the
    # block edge lengths end on a full block; ``edges`` adds slot 0 and
    # the slots next to n/2 (n/2 itself at even n)
    rng = np.random.default_rng(seed)
    count = data.draw(st.integers(0, 2 * math.isqrt(n) + 2))
    slots = rng.integers(0, n, size=count)
    if edges:
        slots = np.concatenate((slots, [0, n // 2, (n + 1) // 2 % n]))
    values = rng.standard_normal(n)
    amps = rng.standard_normal(slots.size)
    got, want = _direct_and_fft(values, amps, slots, n)
    assert np.max(np.abs(got[0] - want[0]), initial=0) < 1e-12
    assert np.max(np.abs(got[1] - want[1])) < 1e-12


def test_direct_dft_matches_the_fft_at_a_large_prime(rng):
    # n = 200,003 at 2 sqrt(n) = 894 distinct slot pairs, the most the
    # rule sends direct, over 316 centred blocks of W = 317 points.  The
    # errors of both routes grow with the sums they take, so the bounds
    # scale with the 1-norm of the values and of the amplitudes
    n = 200_003
    pairs = rng.choice(n // 2 + 1, size=2 * math.isqrt(n), replace=False)
    slots = np.where(rng.random(pairs.size) < 0.5, pairs, (n - pairs) % n)
    values = rng.standard_normal(n)
    amps = rng.standard_normal(slots.size)
    got, want = _direct_and_fft(values, amps, slots, n)
    tol = 16 * np.finfo(np.float64).eps
    assert np.max(np.abs(got[0] - want[0])) < tol * np.abs(values).sum() / n
    assert np.max(np.abs(got[1] - want[1])) < tol * np.abs(amps).sum()


def _direct_dft_slot_counts(block):
    # the counts of 0 to 3 blocks and one slot more, distinct slot pairs
    # each, the empty slot set included
    for n in (1, 5, 97, 2003):
        rng = np.random.default_rng(n)
        for count in range(min(3 * block + 2, n // 2 + 2)):
            pairs = rng.choice(n // 2 + 1, size=count, replace=False)
            values = rng.standard_normal(n)
            amps = rng.standard_normal(count)
            got, want = _direct_and_fft(values, amps, pairs, n)
            assert np.max(np.abs(got[0] - want[0]), initial=0) < 1e-12
            assert np.max(np.abs(got[1] - want[1])) < 1e-12


@pytest.mark.parametrize("block", (1, 2, 3))
def test_direct_dft_matches_the_fft_in_small_slot_blocks(block,
                                                          monkeypatch):
    # blocks of 1-3 slots: every n crosses block boundaries and the random
    # slot counts fall at, just below and just above multiples of the
    # block
    monkeypatch.setattr(transform_module, "SYNTHESIS_SLOTS", block)
    monkeypatch.setattr(transform_module, "FORWARD_SLOTS", block)
    test_direct_dft_matches_the_fft()
    _direct_dft_slot_counts(block)


@pytest.mark.parametrize("rows", (1, 2, 3))
def test_direct_dft_matches_the_fft_in_small_row_runs(rows, monkeypatch):
    # runs of 1-3 block rows: the first run starts on the padded row
    # (j < 0), the last ends past m, one holds the point n/2, and runs of
    # row tables and products cross every block row boundary; the slot
    # counts of the small slot blocks and the empty slot set as well
    monkeypatch.setattr(transform_module, "_run_rows",
                        lambda block, height: min(rows, height))
    test_direct_dft_matches_the_fft()
    _direct_dft_slot_counts(3)
    folded = []
    monkeypatch.setattr(transform_module, "_fold_rows",
                        lambda values, n, first, out, _f=
                        transform_module._fold_rows:
                        folded.append((first, len(out))) or
                        _f(values, n, first, out))
    for n in (2002, 2003):
        height, half = transform_module._split(n // 2 + 1)
        width = 2 * half + 1
        folded.clear()
        _direct_and_fft(np.ones(n), np.ones(5), np.arange(5), n)
        spans = [(first * width - half, (first + k) * width - half)
                 for first, k in folded]
        assert spans[0][0] < 0 and spans[-1][1] > n // 2 + 1
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
        assert any(lo <= n // 2 < hi for lo, hi in spans)
        assert {k for _, k in folded[:-1]} == {rows}


def test_direct_maps_hold_a_few_n_vectors():
    # at n = 1,000,003 and 2 sqrt(n) slot pairs, the most the rule sends
    # direct, synthesis allocates at most two n-vectors' bytes at once,
    # its output included, and the forward map one and a half (whole
    # factor tables took 5.9 and 6.8)
    n = 1_000_003
    rng = np.random.default_rng(5)
    slots = rng.choice(n // 2 + 1, size=2 * math.isqrt(n), replace=False)
    amps = rng.standard_normal(slots.size)
    values = rng.standard_normal(n)
    peaks = []
    for direct, data in ((transform_module._values_direct, amps),
                         (transform_module._spectrum_direct, values)):
        tracemalloc.start()
        try:
            direct(data, slots, n)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2 and peaks[1] <= 1.5, peaks


def test_direct_maps_hold_their_row_runs_and_one_slot_block():
    # at n = 1,000,003 and 2 sqrt(n) slot pairs the forward map allocates
    # at most one n-vector's bytes at once (a grid of the m folded values
    # took 1.29) and synthesis, its output included, at most 1.54
    n = 1_000_003
    rng = np.random.default_rng(5)
    slots = rng.choice(n // 2 + 1, size=2 * math.isqrt(n), replace=False)
    peaks = []
    for direct, data in ((transform_module._values_direct,
                          rng.standard_normal(slots.size)),
                         (transform_module._spectrum_direct,
                          rng.standard_normal(n))):
        tracemalloc.start()
        try:
            direct(data, slots, n)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.54 and peaks[1] <= 1.0, peaks


@pytest.mark.parametrize("space", ["cosine", "chebyshev"])
def test_fft_synthesis_returns_contiguous_real_values(space, rng,
                                                      monkeypatch):
    # the FFT route copies the real part out of the complex inverse DFT:
    # the caller gets n contiguous floats, not a view of stride 16 that
    # keeps the 16n-byte complex vector alive
    L = random_downward(rng, 3, 20)
    lat = cbc_construct(CbcTask(space, "reconstruction", L,
                                plan="B")).lattice()
    ffts = []
    monkeypatch.setattr(transform_module, "dft", lambda *args, _f=dft:
                        ffts.append(1) or _f(*args))
    monkeypatch.setattr(transform_module, "_direct_pays", lambda *args: False)
    values = values_from_coeffs(space, lat, L, {k: 1.0 for k in L})
    assert len(ffts) == 1
    assert values.dtype == np.float64 and values.shape == (lat.n,)
    assert values.flags.c_contiguous and values.base is None


def test_direct_pays_rule():
    # real spectra go direct up to 2 sqrt(n) distinct slot pairs, the FFT
    # above; complex spectra always take the FFT
    rule = transform_module._direct_pays
    assert rule("synthesis", 1_939_901, 2785, True)
    assert not rule("synthesis", 1_939_901, 2786, True)
    assert rule("forward map", 100, 20, True)
    assert not rule("forward map", 100, 21, True)
    assert not rule("forward map", 1_939_901, 1, False)


def _maps(space, plan, lat, L, coeffs):
    values = values_from_coeffs(space, lat, L, coeffs)
    return values, coeffs_from_values(space, lat, L, values, plan)


@pytest.mark.parametrize("space,plan", SPACE_PLANS[1:])
def test_direct_maps_match_the_fft_maps(space, plan, rng, monkeypatch,
                                        caplog):
    # at n = 10007 the few slots of a 20-index set take the direct route
    # (a spy sees no FFT); forcing the FFT gives the same values and tables
    L = random_downward(rng, 3, 20)
    task = CbcTask(space, "reconstruction", L, plan=plan, n=10007)
    result = cbc_construct(task)
    lat = result.lattice()
    coeffs = {k: float(rng.standard_normal()) for k in L}
    ffts = []
    monkeypatch.setattr(transform_module, "dft", lambda *args, _f=dft:
                        ffts.append(1) or _f(*args))
    with caplog.at_level("INFO", logger="lattice_recon.transform"):
        values, table = _maps(space, plan, lat, L, coeffs)
    assert ffts == []
    assert [r.getMessage().endswith("blocked direct DFT")
            for r in caplog.records] == [True, True]
    monkeypatch.setattr(transform_module, "_direct_pays", lambda *args: False)
    fft_values, fft_table = _maps(space, plan, lat, L, coeffs)
    assert len(ffts) == 2
    assert np.max(np.abs(values - fft_values)) < 1e-12
    assert max(abs(table[k] - fft_table[k]) for k in L) < 1e-12
    assert max(abs(table[k] - coeffs[k]) for k in L) < 1e-12


@pytest.mark.parametrize("space,plan", [("fourier", None), ("cosine", "A"),
                                        ("chebyshev", "A")])
def test_small_n_stays_on_the_fft(space, plan, monkeypatch, caplog):
    # the box {0..3}^3 at its required n: 64 slots (Fourier, n = 173) and
    # 172 slot pairs (plan A, n = 1103) are above 2 sqrt(n)
    L = IndexSet(list(itertools.product(range(4), repeat=3)),
                 domain="nonneg")
    result = cbc_construct(CbcTask(space, "reconstruction", L, plan=plan))
    ffts = []
    monkeypatch.setattr(transform_module, "dft", lambda *args, _f=dft:
                        ffts.append(1) or _f(*args))
    coeffs = {k: 1.0 for k in L}
    with caplog.at_level("INFO", logger="lattice_recon.transform"):
        _, table = _maps(space, plan, result.lattice(), L, coeffs)
    assert len(ffts) == 2
    assert [r.getMessage().endswith(", FFT")
            for r in caplog.records] == [True, True]
    assert max(abs(table[k] - 1.0) for k in L) < 1e-12


def test_sample_values_logs_points_and_blocks(monkeypatch, caplog):
    monkeypatch.setattr(lattice_module, "POINT_BLOCK", 16)
    lat = Rank1Lattice(101, (1, 17, 40))
    with caplog.at_level("INFO", logger="lattice_recon.transform"):
        for kind in (TransformKind.IDENTITY, TransformKind.TENT):
            sample_values(lambda x: np.ones(len(x)), lat, kind)
    assert [r.getMessage() for r in caplog.records] == [
        "sampling: n=101, identity points, 101 evaluated in 7 blocks",
        "sampling: n=101, tent points, 51 evaluated in 4 blocks"]


def test_fourier_maps_keep_the_fft(rng, monkeypatch, caplog):
    # 20 slots at n = 10007 are below 2 sqrt(n), yet complex spectra take
    # the FFT
    L = random_downward(rng, 3, 20)
    result = cbc_construct(CbcTask("fourier", "reconstruction", L, n=10007))
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in L}
    ffts = []
    monkeypatch.setattr(transform_module, "dft", lambda *args, _f=dft:
                        ffts.append(1) or _f(*args))
    with caplog.at_level("INFO", logger="lattice_recon.transform"):
        _, table = _maps("fourier", None, result.lattice(), L, coeffs)
    assert len(ffts) == 2
    assert [r.getMessage() for r in caplog.records] == [
        "synthesis: n=10007, 20 distinct slots, FFT",
        "forward map: n=10007, 20 distinct slots, FFT"]
    assert max(abs(table[k] - coeffs[k]) for k in L) < 1e-12
