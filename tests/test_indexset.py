import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lattice_recon.indexset as indexset_module
from lattice_recon import (IndexSet, WeightedSetRule, difference_set,
                           is_downward_closed, make_weighted_set,
                           mirror_expand, mirrored, project, properties,
                           random_downward_closed, read_indexset, sum_set,
                           write_indexset, zero_count)
from conftest import random_downward, random_nonneg_set, random_signed_set
from reference import (difference_set_tuples, is_downward_closed_tuples,
                       project_tuples, random_downward_closed_growth,
                       sorted_tuples, sum_set_tuples, unique_sign_changes)

LOG32 = math.log(3) / math.log(2)


# ---------------------------------------------------------------------------
# weighted sets

def test_max_rule_is_tensor_box():
    rule = WeightedSetRule("max", (1.0, 1.0), 2)
    L = make_weighted_set(rule, 2)
    assert L.indices == tuple(itertools.product(range(3), range(3)))
    assert len(L) == 9


def test_product_rule_matches_exhaustive_filter():
    rule = WeightedSetRule("product", (1.0, 1.0), 3)
    L = make_weighted_set(rule, 2)
    # oracle: enumerate {0..3}^2 and filter by the product rule
    expected = sorted(
        k for k in itertools.product(range(4), range(4))
        if max(1, k[0]) * max(1, k[1]) <= 3)
    assert list(L) == expected
    assert len(L) == 12


def test_sum_rule_forces_small_weighted_coordinate():
    rule = WeightedSetRule("sum", (1.0, 0.5), 1)
    L = make_weighted_set(rule, 2)
    # oracle: exhaustive filter over {0,1}^2
    expected = sorted(k for k in itertools.product(range(2), range(2))
                      if k[0] / 1.0 + k[1] / 0.5 <= 1)
    assert list(L) == expected == [(0, 0), (1, 0)]


@pytest.mark.parametrize("betas,m,d", [
    ((1.0, 1.0), 2, 2),
    ((1.0, 0.5), 3, 2),
    ((1.0, 0.5, 0.25), 4, 3),
])
def test_max_rule_cardinality_identities(betas, m, d):
    rule = WeightedSetRule("max", betas, m)
    L = make_weighted_set(rule, d)
    expected = 1
    expected_mirror = 1
    for j in range(d):
        limit = int(betas[j] * m)
        expected *= 1 + limit
        expected_mirror *= 1 + 2 * limit
    assert len(L) == expected
    assert len(mirrored(L)) == expected_mirror


def test_weighted_sets_are_downward_closed():
    rng = np.random.default_rng(3)
    for kind in ("max", "sum", "product"):
        rule = WeightedSetRule(kind, (1.0, 0.75, 0.5), 4)
        L = make_weighted_set(rule, 3)
        assert is_downward_closed(L)


def test_enumeration_cap():
    # the count is checked as each coordinate's prefixes grow, so an
    # over-cap rule raises holding less than twice the int64 rows of a set
    # at the cap
    for kind, d, degree, cap in (("max", 3, 100, 1000),
                                 ("max", 12, 3, 10**6),
                                 ("sum", 12, 20, 10**6),
                                 ("product", 12, 20, 10**6)):
        rule = WeightedSetRule(kind, (1.0,) * d, degree)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"weighted set exceeds cap "
                                                 f"of {cap} indices"):
                make_weighted_set(rule, d, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * d * cap


_BETAS = st.one_of(st.sampled_from((1.0, 0.75, 0.5, 0.3, 0.25, 0.2, 0.1)),
                   st.floats(0.05, 1.0))


@settings(max_examples=300, deadline=None, database=None)
@given(kind=st.sampled_from(("max", "sum", "product")), d=st.integers(1, 4),
       degree=st.integers(1, 10),
       betas=st.lists(_BETAS, min_size=3, max_size=3))
def test_weighted_set_matches_filter_of_its_box(kind, d, degree, betas):
    # round weights such as 0.3 put beta_j m on an integer up to rounding
    betas = (1.0,) + tuple(sorted(betas, reverse=True))[:d - 1]
    rule = WeightedSetRule(kind, betas, degree)
    tol = 1e-9
    box = [range(int(math.floor(rule.beta(j) * degree + tol)) + 1)
           for j in range(d)]
    expected = []
    for k in itertools.product(*box):
        value = 0.0 if kind in ("max", "sum") else 1.0
        for j, kj in enumerate(k):
            if kind == "max":
                value = max(value, kj / rule.beta(j))
            elif kind == "sum":
                value = value + kj / rule.beta(j)
            else:
                value = value * max(1.0, kj / rule.beta(j))
        if value <= degree * (1.0 + tol):
            expected.append(k)
    L = make_weighted_set(rule, d)
    assert list(L) == expected
    assert L.domain == "nonneg"


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
       size=st.integers(1, 200))
def test_random_downward_closed_matches_reference_growth(seed, d, size):
    # the same set from the same draws, and the generator left at the same
    # next draw
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    L = random_downward_closed(rng, d, size)
    assert list(L) == random_downward_closed_growth(ref_rng, d, size)
    assert L.domain == "nonneg" and L.dimension == d
    assert rng.integers(2**62) == ref_rng.integers(2**62)



def test_weighted_set_leaves_no_reference_cycle():
    # the enumerated indices are freed by reference counting, not held
    # until the cyclic garbage collector runs
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        make_weighted_set(WeightedSetRule("sum", (1.0, 0.5), 6), 2)
        make_weighted_set(WeightedSetRule("product", (1.0, 1.0), 5), 3)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

def test_rule_validation():
    with pytest.raises(ValueError):
        WeightedSetRule("max", (0.5,), 2)  # first weight must be 1
    with pytest.raises(ValueError):
        WeightedSetRule("max", (1.0, 1.5), 2)  # not non-increasing
    with pytest.raises(ValueError):
        WeightedSetRule("max", (1.0, -0.5), 2)
    with pytest.raises(ValueError):
        WeightedSetRule("hyperbolic", (1.0,), 2)


# ---------------------------------------------------------------------------
# mirrored / sum / difference

def test_mirrored_unit_box():
    L = IndexSet([(0, 0), (1, 0), (0, 1), (1, 1)], domain="nonneg")
    M = mirrored(L)
    assert set(M) == set(itertools.product((-1, 0, 1), repeat=2))
    assert len(M) == 9


def test_mirrored_zero_and_single_index():
    assert list(mirrored(IndexSet([(0,)]))) == [(0,)]
    M = mirrored(IndexSet([(1, 2)]))
    assert set(M) == {(1, 2), (-1, 2), (1, -2), (-1, -2)}


def test_mirrored_idempotent_and_fully_symmetric(rng):
    for _ in range(10):
        L = random_signed_set(rng, 3, 8)
        M = mirrored(L)
        assert properties(M).fully_sign_symmetric
        assert mirrored(M) == M


def test_mirrored_matches_sign_orbit_union(rng):
    # the hashing construction must equal the union of per-index orbits
    for _ in range(10):
        L = random_signed_set(rng, 3, 10)
        orbit_union = set()
        for k in L:
            orbit_union.update(unique_sign_changes(k))
        assert set(mirrored(L)) == orbit_union


def test_mirrored_size_bounds(rng):
    for _ in range(10):
        L = random_nonneg_set(rng, 3, 12)
        M = mirrored(L)
        assert len(M) <= L.sum_two_pow() <= 2**L.dimension * len(L)


def test_sum_set_examples():
    box = IndexSet(list(itertools.product((-1, 0, 1), repeat=2)))
    S = sum_set(box, box)
    assert set(S) == set(itertools.product(range(-2, 3), repeat=2))
    assert len(S) == 25

    assert list(sum_set(IndexSet([(0,)]), IndexSet([(3,)]))) == [(3,)]

    A = IndexSet([(0, 0), (1, 0)], domain="nonneg")
    B = IndexSet([(0, 0), (0, 1)], domain="nonneg")
    assert set(sum_set(A, B)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_sum_set_dimension_mismatch():
    with pytest.raises(ValueError):
        sum_set(IndexSet([(1,)]), IndexSet([(1, 2)]))


def test_sum_and_difference_size_bounds(rng):
    for _ in range(8):
        L = random_signed_set(rng, 2, 9)
        assert len(sum_set(L, L)) <= len(L) ** 2
        assert len(difference_set(L)) <= len(L) ** 2


def test_difference_set_examples():
    box = IndexSet([(0, 0), (0, 1), (1, 0), (1, 1)], domain="nonneg")
    assert set(difference_set(box)) == set(
        itertools.product((-1, 0, 1), repeat=2))
    assert set(difference_set(IndexSet([(0,), (2,)]))) == {(-2,), (0,), (2,)}


def test_difference_set_of_product_rule_set():
    L = make_weighted_set(WeightedSetRule("product", (1.0, 1.0), 3), 2)
    D = difference_set(L)
    # double-loop oracle
    expected = {tuple(a - b for a, b in zip(k, kp)) for k in L for kp in L}
    assert set(D) == expected
    # always centrally symmetric and contains zero
    assert (0, 0) in D
    assert properties(D).centrally_symmetric


# ---------------------------------------------------------------------------
# sign changes

def test_unique_sign_changes_examples():
    assert unique_sign_changes((0, 0)) == [(0, 0)]
    assert unique_sign_changes((1, 0)) == [(1, 0), (-1, 0)]
    assert unique_sign_changes((2, 3)) == [(2, 3), (2, -3), (-2, 3), (-2, -3)]


def test_unique_sign_changes_count_and_head(rng):
    for _ in range(20):
        k = tuple(int(v) for v in rng.integers(-3, 4, size=4))
        changes = unique_sign_changes(k)
        assert changes[0] == k
        assert len(changes) == 2 ** zero_count(k)
        assert len(set(changes)) == len(changes)


def test_mirror_expand_groups():
    L = IndexSet([(0, 0), (1, 2)], domain="nonneg")
    rows, starts = mirror_expand(L)
    assert starts.tolist() == [0, 1, 5]
    assert rows[:1].tolist() == [[0, 0]]
    assert rows[1].tolist() == [1, 2]  # identity sign first


@settings(max_examples=200, deadline=None, database=None)
@given(d=st.integers(1, 9),
       rows=st.lists(st.lists(st.integers(-3, 3), min_size=9, max_size=9),
                     max_size=12),
       with_zero=st.booleans())
def test_mirror_expand_matches_unique_sign_changes(d, rows, with_zero):
    # the vectorized expansion stacks the orbits of unique_sign_changes in
    # set order, with int64 group offsets; the empty set included.  d runs
    # past 8, where int64 rows have a stride of 8 elements
    arr = [r[:d] for r in rows] + ([[0] * d] if with_zero else [])
    L = IndexSet(arr, dimension=d)
    expanded, starts = mirror_expand(L)
    orbits = [unique_sign_changes(k) for k in L]
    assert expanded.dtype == np.int64 and starts.dtype == np.int64
    assert expanded.shape == (sum(map(len, orbits)), d)
    assert [tuple(r) for r in expanded.tolist()] == [
        h for orbit in orbits for h in orbit]
    assert starts.tolist() == [0] + list(
        itertools.accumulate(map(len, orbits)))


# ---------------------------------------------------------------------------
# projections

def test_project_examples():
    L = IndexSet([(1, 2), (3, 0)])
    assert list(project(L, 1, "full")) == [(1,), (3,)]

    box = IndexSet([(0, 0), (0, 1), (1, 0), (1, 1)], domain="nonneg")
    assert list(project(box, 1, "full")) == [(0,), (1,)]


def test_project_identity_at_full_dimension(rng):
    L = random_signed_set(rng, 3, 10)
    assert project(L, 3, "full") == L


def test_project_out_of_range():
    L = IndexSet([(1, 2)])
    with pytest.raises(ValueError):
        project(L, 0, "full")
    with pytest.raises(ValueError):
        project(L, 3, "full")
    with pytest.raises(ValueError):
        project(L, 1, "zero")


# ---------------------------------------------------------------------------
# properties and bounds

def test_properties_tensor_box():
    L = IndexSet(list(itertools.product(range(3), range(3))),
                 domain="nonneg")
    rep = properties(L)
    assert rep.downward_closed
    assert rep.tensor_product
    assert rep.max_abs == 2
    assert rep.cardinality == 9
    assert rep.sum_two_pow == 25
    assert rep.sum_two_pow <= 9 ** LOG32 + 1e-9
    assert rep.bound_violations == ()


def test_properties_negative_cases():
    rep = properties(IndexSet([(1, 1)], domain="nonneg"))
    assert not rep.downward_closed
    assert not rep.centrally_symmetric

    rep2 = properties(IndexSet(list(itertools.product((-1, 0, 1), repeat=2))))
    assert rep2.fully_sign_symmetric
    assert rep2.centrally_symmetric


@settings(max_examples=100, deadline=None, database=None)
@given(d=st.integers(1, 5), data=st.data())
def test_mirrored_size_counts_orbits_of_the_absolute_values(d, data):
    # properties counts M(L) without building it; the sets hold sign
    # changes of their own indices, so orbits overlap within L
    comp = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(comp, min_size=d, max_size=d),
                              min_size=1, max_size=10))
    signs = data.draw(st.lists(st.lists(st.sampled_from((1, -1)),
                                        min_size=d, max_size=d),
                               min_size=len(rows), max_size=len(rows)))
    rows += [[s * v for s, v in zip(sk, k)] for sk, k in zip(signs, rows)]
    L = IndexSet(rows, dimension=d)
    rep = properties(L)
    assert rep.mirrored_size == len(mirrored(L))
    assert rep.fully_sign_symmetric == (mirrored(L) == L)


def test_downward_closed_bounds_on_random_sets(rng):
    for _ in range(50):
        d = int(rng.integers(1, 6))
        size = int(rng.integers(1, 60))
        L = random_downward(rng, d, size)
        rep = properties(L)
        assert rep.downward_closed
        assert rep.bound_violations == ()
        assert max(2 ** zero_count(k) for k in L) <= len(L)
        assert L.sum_two_pow() <= len(L) ** LOG32 + 1e-9
        assert len(mirrored(L)) <= min(2**d * len(L),
                                       len(L) ** LOG32 + 1e-9)


# ---------------------------------------------------------------------------
# container behaviour and files

def test_indexset_dedup_and_order():
    L = IndexSet([(2, 1), (0, 0), (2, 1), (-1, 3)])
    assert L.indices == ((-1, 3), (0, 0), (2, 1))
    assert (2, 1) in L
    assert (5, 5) not in L


def test_indexset_rejects_bad_input():
    with pytest.raises(ValueError):
        IndexSet([(1, 2), (1,)])
    with pytest.raises(ValueError):
        IndexSet([(-1, 0)], domain="nonneg")
    with pytest.raises(ValueError):
        IndexSet([], domain="nonneg")  # needs dimension
    assert len(IndexSet([], dimension=3)) == 0


def test_file_roundtrip(tmp_path, rng):
    for domain, maker in (("signed", random_signed_set),
                          ("nonneg", random_nonneg_set)):
        L = maker(rng, 3, 15)
        path = tmp_path / f"{domain}.idx"
        write_indexset(L, path)
        back = read_indexset(path)
        assert back == L
        assert back.domain == L.domain


# ---------------------------------------------------------------------------
# key algebra against the tuple algebra

def _raw_rows(kind, seed, d, size, scale):
    """Rows with duplicates, in random order: a downward-closed set, or
    scattered nonneg or signed rows times ``scale``."""
    rng = np.random.default_rng(seed)
    if kind == "downward":
        rows = list(random_downward(rng, d, size))
        rows += [rows[i] for i in rng.integers(len(rows), size=len(rows))]
    else:
        low = 0 if kind == "nonneg" else -5
        rows = [tuple(r) for r in
                (rng.integers(low, 6, size=(size, d)) * scale).tolist()]
    return [rows[i] for i in rng.permutation(len(rows))]


@settings(max_examples=150, deadline=None, database=None)
@given(kind=st.sampled_from(("downward", "nonneg", "signed")),
       other=st.sampled_from(("downward", "nonneg", "signed")),
       seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 16), scale=st.sampled_from((1, 1, 1 << 21)))
def test_key_algebra_matches_tuple_algebra(kind, other, seed, d, size,
                                           scale):
    # a scale of 2^21 makes boxes of more than 2^62 points from d = 3 on,
    # keyed by several runs of coordinates
    rows = _raw_rows(kind, seed, d, size, scale)
    domain = "signed" if kind == "signed" else "nonneg"
    L = IndexSet(rows, dimension=d, domain=domain)
    members = sorted_tuples(rows)
    assert list(L) == members
    assert L.as_array().tolist() == [list(k) for k in members]
    probes = {tuple(k[:j] + (k[j] + step,) + k[j + 1:])
              for k in members for j in range(d) for step in (-1, 1)}
    probes |= {(7 * scale,) * d, (-7 * scale,) * d}
    for k in probes | set(members):
        assert (k in L) == (k in set(members))
    assert (1,) * (d + 1) not in L
    for empty in ([], np.zeros((0, d), dtype=np.int64)):
        found = L.contains_rows(empty)
        assert found.dtype == bool and found.shape == (0,)
    assert is_downward_closed(L) == is_downward_closed_tuples(members)
    for s in range(1, d + 1):
        assert list(project(L, s)) == project_tuples(members, s)
    B = IndexSet(_raw_rows(other, seed + 1, d, size, 1), dimension=d,
                 domain="signed" if other == "signed" else "nonneg")
    assert list(sum_set(L, B)) == sum_set_tuples(members, list(B))
    assert list(difference_set(L)) == difference_set_tuples(members)


def test_contains_rows_rejects_a_flat_row():
    # one row must come as a (1, d) array; a flat (d,) row names the shape
    L = IndexSet([(0, 0), (1, 2)], domain="nonneg")
    assert L.contains_rows([[1, 2]]).tolist() == [True]
    with pytest.raises(ValueError, match=r"\(m, d\) array of rows, got "
                                         r"shape \(2,\)"):
        L.contains_rows([1, 2])


def _box_set(rng, d):
    # every point of a random box: dense in its own box, so its sum and
    # difference sets are marked in the byte bitmap
    lo = rng.integers(-3, 3, size=d)
    widths = rng.integers(1, 5, size=d)
    grid = np.meshgrid(*[np.arange(l, l + w) for l, w in zip(lo, widths)],
                       indexing="ij")
    return IndexSet(np.stack(grid, axis=-1).reshape(-1, d))


def test_bitmap_and_sort_paths_agree(rng, monkeypatch):
    # the sum-set byte bitmap and the blocked sort and merge give the same
    # sets; a tiny block forces several merges
    cases = []
    for i in range(16):
        d = int(rng.integers(1, 5))
        L = (_box_set(rng, d) if i % 2 else
             random_signed_set(rng, d, int(rng.integers(1, 25))))
        M = mirrored(random_nonneg_set(rng, d, int(rng.integers(1, 10))))
        cases.append((L, M, sum_set(L, M), difference_set(L)))
    monkeypatch.setattr(indexset_module, "BITMAP_BYTES", 0)
    monkeypatch.setattr(indexset_module, "SUM_BLOCK", 7)
    for L, M, S, D in cases:
        assert sum_set(L, M) == S
        assert difference_set(L) == D
        assert list(S) == sum_set_tuples(list(L), list(M))
        assert list(D) == difference_set_tuples(list(L))


def test_sparse_sum_set_skips_the_bitmap():
    # 300 scattered rows in [0, 300]^3: the difference set's box holds
    # 601^3 (about 2^27.7) points for 90,000 pairs, so the bitmap would
    # take over 200 MB where the sort path needs about 2 MB
    L = IndexSet(np.random.default_rng(5).integers(0, 301, size=(300, 3)),
                 domain="nonneg")
    tracemalloc.start()
    try:
        D = difference_set(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert list(D) == difference_set_tuples(list(L))


def test_box_beyond_key_limit():
    # the widened box of this set holds (2^22 + 1)^3 > 2^62 points, and
    # the set's own box (2^21 + 1)^3 does too
    big = 2**21
    L = IndexSet([(0, 0, 0), (big, big, big)], domain="nonneg")
    assert (big + 1) ** 3 > indexset_module.KEY_LIMIT
    members = list(L)
    assert members == [(0, 0, 0), (big, big, big)]
    assert (big, big, big) in L and (big, 0, 0) not in L
    S = sum_set(L, L)
    assert list(S) == sum_set_tuples(members, members)
    assert (2 * big,) * 3 in S and (2 * big, big, 0) not in S
    D = difference_set(L)
    assert list(D) == difference_set_tuples(members)
    assert (-big,) * 3 in D and (-big, big, -big) not in D
    assert list(project(D, 2)) == project_tuples(list(D), 2)
    # a coordinate wider than the key limit is keyed by its value
    W = IndexSet([(-2**62, 1), (2**62, 0), (0, 5)])
    assert list(W) == [(-2**62, 1), (0, 5), (2**62, 0)]
    assert (2**62, 0) in W and (2**62, 1) not in W
    assert list(project(W, 1)) == [(-2**62,), (0,), (2**62,)]
