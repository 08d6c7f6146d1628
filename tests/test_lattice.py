import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lattice_recon.lattice as lattice_module
from lattice_recon import (IndexSet, Rank1Lattice, TransformKind,
                           lattice_from_line, mirrored, read_lattice,
                           sample_values, tent, write_lattice)
from reference import dual_check as dual_check_reference
from reference import plan_c_check as plan_c_check_reference
from reference import unique_sign_changes, unique_tent_point_count


def test_points_identity_tent_cosine():
    lat = Rank1Lattice(4, (1,))
    assert lat.points("identity")[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]
    assert lat.points("tent")[:, 0].tolist() == [0.0, 0.5, 1.0, 0.5]
    np.testing.assert_allclose(lat.points("cosine_of_tent")[:, 0],
                               [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_points_block_and_iterator_agree():
    lat = Rank1Lattice(101, (1, 40))
    full = lat.points(TransformKind.TENT)
    blocks = np.vstack([lat.points(TransformKind.TENT, lo, min(lo + 17, 101))
                        for lo in range(0, 101, 17)])
    assert np.array_equal(full, blocks)


@settings(max_examples=100, deadline=None, database=None)
@given(half=st.integers(1, 2**30 - 1), odd=st.booleans(), data=st.data())
def test_tent_points_equal_the_absolute_value_fold(half, odd, data):
    # 2 min(r, n - r) is the integer n - |2r - n|, so both folds give the
    # same floats, at even and odd n
    n = 2 * half + odd
    z = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=5))
    lat = Rank1Lattice(n, z)
    start = data.draw(st.integers(0, n - 1))
    stop = min(n, start + 200)
    res = lat.residue_matrix(start, stop)
    assert np.array_equal(lat.points(TransformKind.TENT, start, stop),
                          (n - np.abs(2 * res - n)) / float(n))


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(2, 2**31 - 1), data=st.data())
def test_points_by_angle_addition(n, data):
    # every kind at n up to 2^31 - 1: identity and tent points are the folds
    # of Python-integer residues bit for bit, cosine-of-tent points lie
    # within 4e-15 of math.cos of the exact angle, and [a, c) split at b
    # gives the same floats
    z = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    lat = Rank1Lattice(n, z)
    a = data.draw(st.integers(0, n))
    c = data.draw(st.integers(a, min(n, a + 300)))
    b = data.draw(st.integers(a, c))
    res = np.array([[i * zj % n for zj in lat.z] for i in range(a, c)],
                   dtype=object).reshape(c - a, len(z))
    want = {TransformKind.IDENTITY: res / n,
            TransformKind.TENT: (n - abs(2 * res - n)) / n,
            TransformKind.COSINE_OF_TENT: np.vectorize(
                lambda r: math.cos(2 * math.pi * r / n), otypes=[float])(res)}
    for kind in TransformKind:
        got = lat.points(kind, a, c)
        assert got.shape == (c - a, len(z)) and got.flags.c_contiguous
        assert np.array_equal(got, np.vstack((lat.points(kind, a, b),
                                              lat.points(kind, b, c))))
        if kind == TransformKind.COSINE_OF_TENT:
            assert np.max(np.abs(got - want[kind]), initial=0) < 4e-15
        else:
            assert np.array_equal(got, want[kind].astype(float))


def _root(r, n):
    # e^(2 pi i r / n) of a Python-integer residue at its centred value
    return cmath.exp(2j * math.pi * ((r - n if 2 * r > n else r) / n))


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(2, 2**31 - 1), data=st.data())
def test_root_tables_match_exact_residue_roots(n, data):
    # the tables of root_runs (rows [0, stop) in runs of ``width``) at n up
    # to 2^31 - 1, with row counts and run widths just below, at and above
    # powers of two, in one run of all rows (width >= stop, as the direct
    # DFT's (b, slot) tables take them) or in several, and one scale per
    # column, lie within 1e-15 times the scale of the scale times
    # e^(2 pi i r / n), r = i * m mod n
    def near_a_power_of_two():
        return max(1, (1 << data.draw(st.integers(0, 8)))
                   + data.draw(st.sampled_from((-1, 0, 1))))

    mults = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    scale = np.asarray(data.draw(st.lists(
        st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
        min_size=len(mults), max_size=len(mults))))
    stop = near_a_power_of_two()
    width = (data.draw(st.integers(stop, stop + 2))
             if data.draw(st.booleans()) else near_a_power_of_two())
    first = 0
    for cos, sin in lattice_module.root_runs(n, mults, stop, width, scale):
        assert cos.shape == sin.shape == (min(width, stop - first),
                                          len(mults))
        for i in range(cos.shape[0]):
            for j, m in enumerate(mults):
                want = scale[j] * _root((first + i) * m % n, n)
                assert abs(complex(cos[i, j], sin[i, j]) - want) \
                    < 1e-15 * abs(scale[j])
        first += width
    assert first >= stop > first - width


def test_angle_sums_near_the_int32_limit():
    # at n close to 2^31 - 1 the coarse residues times slots near n come
    # near 2^62: residues of a few rows and slots, also rows just below n,
    # equal Python-integer ones, and so do the residues behind the root
    # tables of root_runs at those slots, in one run and in runs of 3: the
    # tables lie within 1e-15 of e^(2 pi i r / n)
    n = 2_147_483_629
    slots = [1, 2, 46_341, n // 2, n - 2, n - 1]
    for start, stop in ((0, 7), (n - 9, n), (n - 300, n - 290)):
        res = lattice_module.angle_sums(n, slots, start, stop)
        assert res.tolist() == [[i * m % n for m in slots]
                                for i in range(start, stop)]
    for width in (3, 40):
        first = 0
        for cos, sin in lattice_module.root_runs(n, slots, 40, width):
            for i in range(cos.shape[0]):
                for j, m in enumerate(slots):
                    assert abs(complex(cos[i, j], sin[i, j])
                               - _root((first + i) * m % n, n)) < 1e-15
            first += width


@pytest.mark.parametrize("kind", list(TransformKind))
def test_sampling_and_cubature_hand_f_a_fresh_array_per_block(kind,
                                                             monkeypatch):
    # f keeps every array it gets; after the call each still holds the
    # points of its own block, so no block's array was reused
    monkeypatch.setattr(lattice_module, "POINT_BLOCK", 16)
    lat = Rank1Lattice(101, (1, 17, 40))
    count = 101 if kind == TransformKind.IDENTITY else 51
    for call in (lambda f: sample_values(f, lat, kind),
                 lambda f: lat.cubature(f, kind)):
        seen = []
        call(lambda x: seen.append(x) or np.ones(len(x)))
        blocks = range(0, count, 16)
        assert len(seen) == len(blocks)
        for lo, x in zip(blocks, seen):
            assert np.array_equal(x, lat.points(kind, lo, min(lo + 16, count)))


def test_tent_symmetry_is_exact():
    for n, z in ((12, (1, 5)), (31, (1, 7, 11)), (100, (3, 17))):
        lat = Rank1Lattice(n, z)
        pts = lat.points(TransformKind.TENT)
        for i in range(1, (n - 1) // 2 + 1):
            assert np.array_equal(pts[i], pts[n - i])


def test_invalid_lattice_parameters():
    with pytest.raises(ValueError):
        Rank1Lattice(1, (1,))
    with pytest.raises(ValueError):
        Rank1Lattice(10, (5, 10))  # second component reduces to 0
    with pytest.raises(ValueError):
        Rank1Lattice(10, ())


def test_character_examples():
    lat = Rank1Lattice(5, (1, 2))
    assert lat.character((3, 1)) == 1  # 3 + 2 = 5
    assert lat.character((1, 1)) == 0
    assert lat.character((0, 0)) == 1


def test_character_symmetries(rng):
    lat = Rank1Lattice(13, (1, 5, 8))
    for _ in range(50):
        h = tuple(int(v) for v in rng.integers(-30, 31, size=3))
        minus = tuple(-v for v in h)
        assert lat.character(h) == lat.character(minus)
        for j in range(3):
            shifted = tuple(v + (13 if i == j else 0)
                            for i, v in enumerate(h))
            assert lat.character(h) == lat.character(shifted)


def test_cubature_constant_is_exact():
    lat = Rank1Lattice(7, (1, 3))
    for kind in TransformKind:
        assert lat.cubature(lambda x: np.ones(len(x)), kind) == 1.0


def test_cubature_exponential_matches_character(rng):
    lat = Rank1Lattice(31, (1, 12))
    for _ in range(25):
        h = rng.integers(-2 * 31, 2 * 31 + 1, size=2)
        result = lat.cubature(
            lambda x: np.exp(2j * np.pi * (x @ h)), TransformKind.IDENTITY)
        assert abs(result - lat.character(tuple(int(v) for v in h))) < 1e-12


def test_cubature_chebyshev_linear_function():
    # d=1, n=4, z=1: mean of cos(2 pi i / 4) = (1 + 0 - 1 + 0)/4 = 0,
    # matching the Chebyshev-measure integral of x by symmetry
    lat = Rank1Lattice(4, (1,))
    value = lat.cubature(lambda x: x[:, 0], TransformKind.COSINE_OF_TENT)
    assert abs(value) < 1e-15


def test_folded_cubature_matches_naive(rng):
    # the tent and cosine-of-tent kinds sum the floor(n/2)+1 distinct
    # points; the plain mean over all n points agrees
    for n in (8, 9, 31, 64):
        lat = Rank1Lattice(n, (1, int(rng.integers(1, n))))
        coeff = rng.standard_normal(4)

        def poly(x):
            return (coeff[0] + coeff[1] * x[:, 0] + coeff[2] * x[:, 1] ** 2
                    + coeff[3] * x[:, 0] * x[:, 1])

        for kind in (TransformKind.TENT, TransformKind.COSINE_OF_TENT):
            naive = poly(lat.points(kind)).mean()
            folded = lat.cubature(poly, kind)
            assert abs(naive - folded) <= 1e-13 * max(1.0, abs(naive))


def test_tent_transform_preserves_integrals():
    # composite trapezoid on a 1e5 grid: integral of f(tent(x)) vs f(x)
    grid = np.linspace(0.0, 1.0, 100_001)

    def f(x):
        return np.exp(np.sin(2 * np.pi * x)) + x**2

    direct = np.trapezoid(f(grid), grid)
    folded = np.trapezoid(f(tent(grid)), grid)
    assert abs(direct - folded) < 1e-10


def test_evaluate_no_points_is_an_empty_float_vector():
    def f(points):
        raise AssertionError("f was called")

    for kind in TransformKind:
        values = Rank1Lattice(7, (1, 3)).evaluate(f, kind, 0)
        assert values.shape == (0,) and values.dtype == np.float64


def test_unique_tent_point_count_examples():
    assert unique_tent_point_count(Rank1Lattice(5, (1, 2))) == 3
    assert unique_tent_point_count(Rank1Lattice(4, (1,))) == 3


def test_unique_tent_points_with_shared_factors():
    lat = Rank1Lattice(6, (2, 4))  # gcd(n, z_j) > 1 everywhere
    count = unique_tent_point_count(lat)
    # oracle: deduplicate the floating-point tent points themselves
    pts = lat.points(TransformKind.TENT)
    expected = np.unique(pts, axis=0).shape[0]
    assert count == expected
    assert count < 6 // 2 + 1


def test_unique_tent_point_count_formula(rng):
    from lattice_recon import next_prime
    for _ in range(20):
        n = next_prime(int(rng.integers(10, 2000)))
        d = int(rng.integers(1, 4))
        z = (1,) + tuple(int(v) for v in rng.integers(1, n, size=d - 1))
        lat = Rank1Lattice(n, z)
        assert unique_tent_point_count(lat) == n // 2 + 1


def test_dual_check_examples():
    lat = Rank1Lattice(5, (1,))
    assert lat.dual_check(IndexSet([(-2,), (-1,), (1,), (2,)]))
    lat2 = Rank1Lattice(2, (1,))
    assert not lat2.dual_check(IndexSet([(2,)]))
    assert lat2.dual_check(IndexSet([(0,)]))  # only the excluded zero



@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(2, 200), data=st.data(), alias=st.booleans(),
       block=st.sampled_from((1, 3, lattice_module.ORACLE_BLOCK)))
def test_dual_check_matches_pure_python_oracle(n, data, alias, block):
    # the blocked int64 oracle agrees with the pure-Python one, also with
    # components far beyond n and on lattices that alias an index of A
    d = data.draw(st.integers(1, 4))
    z = data.draw(st.lists(st.integers(1, n - 1), min_size=d, max_size=d))
    comp = st.integers(-2**40, 2**40) | st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(comp, min_size=d, max_size=d),
                              max_size=20))
    lat = Rank1Lattice(n, z)
    if alias:
        # a nonzero index of the dual lattice: n e_1, or z_2 e_1 - z_1 e_2
        rows.append([lat.z[1], -lat.z[0]] + [0] * (d - 2) if d > 1
                    else [n * data.draw(st.integers(-3, 3).filter(bool))])
    A = IndexSet(rows, dimension=d)
    expected = dual_check_reference(lat, A)
    if alias:
        assert not expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_module, "ORACLE_BLOCK", block)
        assert lat.dual_check(A) == expected


def test_orbit_dual_check_matches_the_check_of_the_mirrored_set():
    # the orbit oracle, which builds half of every sign orbit of L itself,
    # agrees with the pure-Python dual-lattice check of M(L) on accepted
    # and on rejected lattices, in every block size and with rows of 8
    # columns.  M(L) = -M(L), so the half whose first nonzero component
    # is positive decides the verdict; those residues, which the plan-C
    # oracle completes, are compared in full
    rng = np.random.default_rng(12)
    verdicts = []
    for trial in range(400):
        d = int(rng.integers(1, 10))
        n = int(rng.integers(2, 120))
        rows = rng.integers(0, 4, size=(int(rng.integers(1, 8)), d))
        if trial % 4 == 0:
            rows[0, 0] = int(rng.integers(0, 2**31))  # far beyond n
        L = IndexSet(rows, domain="nonneg")
        lat = Rank1Lattice(n, rng.integers(1, n, size=d) if n > 2 else
                           np.ones(d, dtype=np.int64))
        expected = dual_check_reference(lat, mirrored(L))
        arr = L.as_array()
        orbit, owner = lattice_module._orbit_residues(
            arr, arr % n * np.asarray(lat.z) % n, n)
        assert sorted(zip(owner.tolist(), orbit.tolist())) == sorted(
            (i, sum(hj * zj for hj, zj in zip(h, lat.z)) % n)
            for i, k in enumerate(L) for h in unique_sign_changes(k)
            if next((hj for hj in h if hj), 1) > 0)
        block = (1, 3, 7, lattice_module.ORACLE_BLOCK)[trial % 4]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_module, "ORACLE_BLOCK", block)
            assert lat.orbit_dual_check(L) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_orbit_dual_check_examples():
    # (1, 1) passes at n = 5 with z = (1, 2): residues 3, 1, 4, 2; its sign
    # change (1, -1) is in the dual lattice of z = (1, 1)
    L = IndexSet([(0, 0), (1, 1)], domain="nonneg")
    assert Rank1Lattice(5, (1, 2)).orbit_dual_check(L)
    assert not Rank1Lattice(5, (1, 1)).orbit_dual_check(L)
    assert Rank1Lattice(2, (1, 1)).orbit_dual_check(
        IndexSet([(0, 0)], domain="nonneg"))  # only the excluded zero
    with pytest.raises(ValueError, match="dimension"):
        Rank1Lattice(5, (1,)).orbit_dual_check(L)


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(2, 200), data=st.data(), alias=st.booleans(),
       block=st.sampled_from((1, 5, lattice_module.ORACLE_BLOCK)))
def test_plan_c_check_matches_pure_python_oracle(n, data, alias, block):
    # the blocked int64 plan-C oracle returns the verdict and the c table
    # of the pure-Python one, also on lattices where another index aliases
    d = data.draw(st.integers(1, 4))
    z = data.draw(st.lists(st.integers(1, n - 1), min_size=d, max_size=d))
    comp = st.integers(0, 2**31 - 1) | st.integers(0, 4)
    rows = data.draw(st.lists(st.lists(comp, min_size=d, max_size=d),
                              min_size=1, max_size=12))
    if alias:
        # k + n e_1 has the plain residue of k
        rows.append([rows[0][0] + n] + rows[0][1:])
    L = IndexSet(rows, dimension=d, domain="nonneg")
    lat = Rank1Lattice(n, z)
    expected = plan_c_check_reference(lat, L)
    if alias:
        assert expected == (False, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_module, "ORACLE_BLOCK", block)
        assert lat.plan_c_check_naive(L) == expected


def test_lattice_file_roundtrip(tmp_path):
    lat = Rank1Lattice(17, (1, 4, 13))
    assert lattice_from_line(lat.to_line()) == lat

    path = tmp_path / "a.lat"
    write_lattice(lat, path, {(1, 0, 2): 2, (0, 0, 0): 1})
    back, c_table = read_lattice(path)
    assert back == lat
    assert c_table == {(1, 0, 2): 2, (0, 0, 0): 1}

    write_lattice(lat, path)
    back, c_table = read_lattice(path)
    assert back == lat and c_table is None


def test_cubature_block_size_invariance(monkeypatch):
    lat = Rank1Lattice(37, (1, 9))

    def f(x):
        return np.cos(x[:, 0]) + x[:, 1] ** 2

    for kind in TransformKind:
        monkeypatch.setattr(lattice_module, "POINT_BLOCK", 10**6)
        reference = lat.cubature(f, kind)
        for block in (1, 3, 7, 36, 37, 38):
            monkeypatch.setattr(lattice_module, "POINT_BLOCK", block)
            assert abs(lat.cubature(f, kind) - reference) < 1e-14
