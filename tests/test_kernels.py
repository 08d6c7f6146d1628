"""The vectorized kernels must agree exactly with plain loop references that
follow the canonical scans of the lookup algorithms; the references below
are test-local and deliberately naive."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from lattice_recon import mirror_expand, next_prime
from lattice_recon import kernels as K
from conftest import random_nonneg_set


# ---------------------------------------------------------------------------
# loop references

def _dot_mod_ref(rows, z, n):
    out = np.empty(rows.shape[0], dtype=np.int64)
    for i in range(rows.shape[0]):
        acc = np.int64(0)
        for j in range(rows.shape[1]):
            acc = (acc + (rows[i, j] % n) * z[j]) % n
        out[i] = acc
    return out


def _check_nonzero_ref(res):
    for i in range(res.shape[0]):
        if res[i] == 0:
            return False
    return True


def _check_distinct_ref(res, n):
    seen = np.zeros(n, dtype=np.uint8)
    for i in range(res.shape[0]):
        a = res[i]
        if seen[a]:
            return False
        seen[a] = 1
    return True


def _check_plan_b_ref(res, group_start, n):
    # s1 marks plain-index residues, s2 marks every residue (s1 is a subset
    # of s2).  s1[a] is set before the sign rows are scanned, so a sign row
    # may not collide with its own plain residue: no self-aliasing.
    s1 = np.zeros(n, dtype=np.uint8)
    s2 = np.zeros(n, dtype=np.uint8)
    for g in range(group_start.shape[0] - 1):
        lo = group_start[g]
        hi = group_start[g + 1]
        a = res[lo]
        if s2[a]:
            return False
        s2[a] = 1
        s1[a] = 1
        for r in range(lo + 1, hi):
            a2 = res[r]
            if s1[a2]:
                return False
            s2[a2] = 1
    return True


def _check_plan_c_ref(res, group_start, n):
    # Same two bit strings as plan B, but s1[a] is set only after the sign
    # rows are scanned: a sign residue may equal its own plain residue
    # (self-aliasing) and c counts how often that happens.
    ngroups = group_start.shape[0] - 1
    c = np.ones(ngroups, dtype=np.int64)
    s1 = np.zeros(n, dtype=np.uint8)
    s2 = np.zeros(n, dtype=np.uint8)
    for g in range(ngroups):
        lo = group_start[g]
        hi = group_start[g + 1]
        a = res[lo]
        if s2[a]:
            return False, c
        s2[a] = 1
        for r in range(lo + 1, hi):
            a2 = res[r]
            if a2 == a:
                c[g] += 1
            if s1[a2]:
                return False, c
            s2[a2] = 1
        s1[a] = 1
    return True, c


def _check_ref(res, group_start, n, cond):
    if cond == K.COND_NONZERO:
        return _check_nonzero_ref(res)
    if cond == K.COND_DISTINCT:
        return _check_distinct_ref(res, n)
    if cond == K.COND_PLAN_B:
        return _check_plan_b_ref(res, group_start, n)
    return _check_plan_c_ref(res, group_start, n)[0]


def _brute_force_step_ref(prefix, last, group_start, n, start, max_fail,
                          cond):
    n_fail = 0
    for t in range(n - 1):
        zs = (start - 1 + t) % (n - 1) + 1
        res = np.array([(prefix[i] + last[i] * zs) % n
                        for i in range(prefix.shape[0])], dtype=np.int64)
        if _check_ref(res, group_start, n, cond):
            return zs, n_fail
        n_fail += 1
        if n_fail > max_fail:
            return -1, n_fail
    return -1, n_fail


def _mod_pow_scalar(base, exp, n):
    result = 1
    b = base % n
    e = exp
    while e > 0:
        if e & 1:
            result = result * b % n
        b = b * b % n
        e >>= 1
    return result


def _mark_bad_generic_ref(prefix, last, n, bad):
    for i in range(prefix.shape[0]):
        l = int(last[i])
        p = int(prefix[i])
        if l == 0 or p == 0:
            continue
        bad[(n - p) * _mod_pow_scalar(l, n - 2, n) % n] = True


def _mark_pairs_ref(p_prefix, p_last, q_prefix, q_last, n, bad, q_lead=None,
                    p_key=None, q_key=None):
    # every pair by itself, with its own Fermat inverse
    marked = 0
    for i in range(p_prefix.shape[0]):
        for j in range(q_prefix.shape[0]):
            if p_key is not None and p_key[i] == q_key[j]:
                continue
            if q_lead is not None and q_lead[j] <= i:
                continue
            beta = (int(q_last[j]) - int(p_last[i])) % n
            gamma = (int(q_prefix[j]) - int(p_prefix[i])) % n
            if beta == 0 or gamma == 0:
                continue
            bad[(n - gamma) * _mod_pow_scalar(beta, n - 2, n) % n] = True
            marked += 1
    return marked


def _mark_coded(p_prefix, p_last, q_prefix, q_last, n, bad, q_lead=None,
                p_key=None, q_key=None):
    # the kernel on codes into the distinct lead and row components
    p_values, p_code = np.unique(p_last, return_inverse=True)
    q_values, q_code = np.unique(q_last, return_inverse=True)
    inverses = K.inverse_table(p_values, q_values, n)
    assert inverses.shape == (p_values.shape[0], q_values.shape[0])
    return K.mark_bad_pairs(p_prefix, p_code, q_prefix, q_code, inverses, n,
                            bad, q_lead, p_key, q_key)


# ---------------------------------------------------------------------------
# comparisons on random inputs

def _residue_fixture(rng):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(2, 120))
    L = random_nonneg_set(rng, d, int(rng.integers(1, 10)), 4)
    rows, group_start = mirror_expand(L)
    z = np.asarray(rng.integers(1, n, size=d), dtype=np.int64)
    return rows, group_start, z, n


def test_check_kernels_match_reference(rng):
    for _ in range(300):
        rows, group_start, z, n = _residue_fixture(rng)
        res = _dot_mod_ref(rows, z, n)
        ok_k, c_k = K.check_plan_c(res, group_start)
        ok_r, c_r = _check_plan_c_ref(res, group_start, n)
        assert ok_k is ok_r
        if ok_r:
            assert np.array_equal(c_k, c_r)
        for cond in (K.COND_NONZERO, K.COND_DISTINCT, K.COND_PLAN_B,
                     K.COND_PLAN_C):
            assert (K.check_condition(res, group_start, cond)
                    is _check_ref(res, group_start, n, cond))


def test_brute_force_step_matches_reference(rng):
    for _ in range(60):
        rows, group_start, z, n = _residue_fixture(rng)
        if rows.shape[1] < 2:
            continue
        prefix = _dot_mod_ref(rows[:, :-1], z[:-1], n)
        last = rows[:, -1] % n
        start = int(rng.integers(1, n))
        for cond in (K.COND_NONZERO, K.COND_DISTINCT, K.COND_PLAN_B,
                     K.COND_PLAN_C):
            use_rows = ~np.all(rows == 0, axis=1) \
                if cond == K.COND_NONZERO else slice(None)
            p = np.ascontiguousarray(prefix[use_rows])
            l = np.ascontiguousarray(last[use_rows])
            max_fail = int(rng.integers(0, n + 2))
            a = K.brute_force_step(p, l, group_start, n, start, max_fail,
                                   cond)
            b = _brute_force_step_ref(p, l, group_start, n, start,
                                      max_fail, cond)
            assert a == b


def test_mod_pow_matches_reference(rng):
    for _ in range(50):
        n = next_prime(int(rng.integers(3, 10**6)))
        base = np.asarray(rng.integers(1, n, size=20), dtype=np.int64)
        vec = K._mod_pow(base, n - 2, n)
        for b, v in zip(base.tolist(), vec.tolist()):
            assert _mod_pow_scalar(b, n - 2, n) == v
            assert v == pow(b, n - 2, n)  # Python oracle
            assert b * v % n == 1


def test_mark_bad_generic_matches_reference(rng):
    # the nonzero condition: one zero lead row, no keys
    zero = np.zeros(1, dtype=np.int64)
    for _ in range(50):
        n = next_prime(int(rng.integers(5, 150)))
        m = int(rng.integers(1, 40))
        prefix = np.asarray(rng.integers(0, n, size=m), dtype=np.int64)
        last = np.asarray(rng.integers(0, n, size=m), dtype=np.int64)
        bad_k = np.zeros(n, dtype=bool)
        bad_r = np.zeros(n, dtype=bool)
        _mark_coded(zero, zero, prefix, last, n, bad_k)
        _mark_bad_generic_ref(prefix, last, n, bad_r)
        assert np.array_equal(bad_k, bad_r)


def _plan_c_pairs(rng):
    n = next_prime(int(rng.integers(10, 300)))
    G = int(rng.integers(1, 8))
    R = int(rng.integers(G, 25))
    lead_prefix = np.asarray(rng.integers(0, n, size=G), dtype=np.int64)
    lead_last = np.asarray(rng.integers(-9, 10, size=G), dtype=np.int64)
    mir_prefix = np.asarray(rng.integers(0, n, size=R), dtype=np.int64)
    mir_last = np.asarray(rng.integers(-9, 10, size=R), dtype=np.int64)
    mir_group = np.sort(np.asarray(rng.integers(0, G, size=R),
                                   dtype=np.int64))
    return (lead_prefix, lead_last, mir_prefix, mir_last, mir_group), n


def test_mark_bad_plan_c_matches_reference(rng):
    # plan C: every lead against all rows, keyed by sign group
    for _ in range(30):
        (lead_prefix, lead_last, mir_prefix, mir_last, mir_group), n = \
            _plan_c_pairs(rng)
        keys = (np.arange(lead_prefix.shape[0]), mir_group)
        bad_k = np.zeros(n, dtype=bool)
        bad_r = np.zeros(n, dtype=bool)
        _mark_coded(lead_prefix, lead_last, mir_prefix, mir_last, n, bad_k,
                    None, *keys)
        _mark_pairs_ref(lead_prefix, lead_last, mir_prefix, mir_last, n,
                        bad_r, None, *keys)
        assert np.array_equal(bad_k, bad_r)


def test_mark_bad_pairs_blocks_agree(rng, monkeypatch):
    cases = [_plan_c_pairs(rng) for _ in range(30)]
    unblocked = []
    for (lp, ll, mp, ml, mg), n in cases:
        bad = np.zeros(n, dtype=bool)
        _mark_coded(lp, ll, mp, ml, n, bad, None, np.arange(lp.shape[0]), mg)
        unblocked.append(bad)
    # a budget below one lead row still processes one lead per block
    for budget in (1, 7, 30):
        monkeypatch.setattr(K, "PAIR_BLOCK", budget)
        for ((lp, ll, mp, ml, mg), n), expected in zip(cases, unblocked):
            bad = np.zeros(n, dtype=bool)
            _mark_coded(lp, ll, mp, ml, n, bad, None,
                        np.arange(lp.shape[0]), mg)
            assert np.array_equal(bad, expected)


def _lead_pairs(rng, keyed_by):
    # step rows with their leads: every row leads under the distinct
    # condition, the first row of each sign group under plans B and C
    n = next_prime(int(rng.integers(10, 300)))
    R = int(rng.integers(1, 40))
    prefix = np.asarray(rng.integers(0, n, size=R), dtype=np.int64)
    last = np.asarray(rng.integers(-9, 10, size=R), dtype=np.int64)
    if keyed_by == "distinct":
        leads = np.arange(R)
        keys = np.arange(R)
    else:
        starts = np.flatnonzero(rng.random(R) < 0.4)
        leads = np.union1d([0], starts)
        group = np.cumsum(np.isin(np.arange(R), leads)) - 1
        keys = np.arange(R) if keyed_by == "row" else group
    row_leads = np.full(R, leads.shape[0], dtype=np.int64)
    row_leads[leads] = np.arange(leads.shape[0])
    return (prefix[leads], last[leads], prefix, last, n, row_leads,
            keys[leads], keys)


def test_mark_bad_pairs_takes_each_pair_of_leads_once(rng, monkeypatch):
    # pairing a lead row only with the leads before it marks what the
    # visit of both orders marks, and on the distinct condition, where
    # every row leads, it marks with half the pairs; keyed by row, the
    # order of the leads alone keeps a row from pairing with itself
    for keyed_by in ("distinct", "row", "group"):
        for _ in range(40):
            *args, n, row_leads, p_key, q_key = _lead_pairs(rng, keyed_by)
            twice = np.zeros(n, dtype=bool)
            marked_twice = _mark_coded(*args, n, twice, None, p_key, q_key)
            for budget in (1, 7, K.PAIR_BLOCK):
                monkeypatch.setattr(K, "PAIR_BLOCK", budget)
                once = np.zeros(n, dtype=bool)
                marked_once = _mark_coded(*args, n, once, row_leads, p_key,
                                          q_key)
                monkeypatch.undo()
                assert np.array_equal(once, twice)
                if keyed_by != "group":
                    unkeyed = np.zeros(n, dtype=bool)
                    assert _mark_coded(*args, n, unkeyed, row_leads) \
                        == marked_once
                    assert np.array_equal(unkeyed, once)
                if keyed_by == "distinct":
                    assert marked_twice == 2 * marked_once
                else:
                    assert marked_once <= marked_twice


COMPONENTS = {"narrow": st.integers(-4, 4),
              "wide": st.integers(-(2**31 - 1), 2**31 - 1)}


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.sampled_from((2, 3, 5, 7, 13, 101, 1009)),
       width=st.sampled_from(sorted(COMPONENTS)), keyed=st.booleans(),
       ordered=st.booleans(), budget=st.sampled_from((1, 5, 1 << 22)),
       data=st.data())
def test_table_marks_equal_per_pair_fermat_marks(n, width, keyed, ordered,
                                                 budget, data):
    # one inverse per distinct difference marks what one Fermat inverse
    # per pair marks, also where distinct components agree mod n, where
    # wide components make the table as large as the pairs, and with no
    # leads or no rows
    G = data.draw(st.integers(0, 6))
    R = data.draw(st.integers(0, 12))

    def column(size, values):
        return np.asarray(data.draw(st.lists(values, min_size=size,
                                             max_size=size)), dtype=np.int64)

    p_prefix = column(G, st.integers(0, n - 1))
    q_prefix = column(R, st.integers(0, n - 1))
    p_last = column(G, COMPONENTS[width])
    q_last = column(R, COMPONENTS[width])
    q_lead = column(R, st.integers(0, G)) if ordered else None
    keys = (column(G, st.integers(0, 2)), column(R, st.integers(0, 2))) \
        if keyed else (None, None)
    bad_k = np.zeros(n, dtype=bool)
    bad_r = np.zeros(n, dtype=bool)
    with mock.patch.object(K, "PAIR_BLOCK", budget):
        marked = _mark_coded(p_prefix, p_last, q_prefix, q_last, n, bad_k,
                             q_lead, *keys)
    assert marked == _mark_pairs_ref(p_prefix, p_last, q_prefix, q_last, n,
                                     bad_r, q_lead, *keys)
    assert np.array_equal(bad_k, bad_r)
