import itertools
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lattice_recon.cbc as cbc_module
import lattice_recon.kernels as kernels
import lattice_recon.indexset as indexset_module
from lattice_recon import (CbcTask, IndexSet, InvalidTask, Rank1Lattice,
                           RetryLimitExceeded, WeightedSetRule, cbc_construct,
                           difference_set, is_prime, make_weighted_set,
                           mirrored, next_prime, project, properties,
                           required_n, sum_set, verify_fourier,
                           verify_nonzero, verify_plan_a, verify_plan_b,
                           verify_plan_c)
from lattice_recon.cbc import PLANS, SPACES, STRATEGIES, slot_residues
from lattice_recon.indexset import (is_downward_closed, mirror_expand,
                                    negated)
from conftest import random_downward, random_nonneg_set, random_signed_set
from reference import lookup_check


# ---------------------------------------------------------------------------
# primes

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10007}
    for n in range(-5, 40):
        assert is_prime(n) == (n in primes)
    assert is_prime(10007)
    assert not is_prime(10005)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17
    assert next_prime(89) == 97


# ---------------------------------------------------------------------------
# required_n examples

def box(n, d=2):
    return IndexSet(list(itertools.product(range(n), repeat=d)),
                    domain="nonneg")


def test_required_n_fourier_reconstruction():
    task = CbcTask("fourier", "reconstruction", box(3))
    assert required_n(task) == 17  # |L (-) L| = 25, bound 13, next prime 17


def test_required_n_plan_c():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    task = CbcTask("cosine", "reconstruction", L, plan="C")
    assert required_n(task) == 7  # bound max(2 * 3, 2) = 6


def test_required_n_fourier_integration_with_symmetry():
    L = IndexSet([(0,), (1,), (-1,)])
    assert required_n(CbcTask("fourier", "integration", L)) == 3
    # without central symmetry kappa drops to 1
    L2 = IndexSet([(0,), (1,), (2,)])
    assert required_n(CbcTask("fourier", "integration", L2)) == 5


def test_required_n_other_plans():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    # M = {-1,0,1}; M+M = {-2..2} -> (5+1)/2 = 3, 2max = 2 -> prime 5
    assert required_n(CbcTask("cosine", "reconstruction", L, plan="A")) == 5
    # L+M = {-1,0,1,2} -> size 4, bound max(4, 2) -> prime 5
    assert required_n(CbcTask("cosine", "reconstruction", L, plan="B")) == 5
    # integration: |M \ 0| = 2 -> 2/2+1 = 2, max = 1 -> prime 3
    assert required_n(CbcTask("cosine", "integration", L)) == 3


EVERY_TASK = [(space, "integration", None) for space in SPACES] + [
    ("fourier", "reconstruction", None)] + [
    (space, "reconstruction", plan) for space in ("cosine", "chebyshev")
    for plan in ("A", "B", "C")]


def _required_n_walk(task):
    """required_n by its definition: walk the primes up from 2 until the
    existence bound of the task holds."""
    L = task.base_set
    max_l = L.max_abs()
    if task.goal == "integration":
        A = L if task.space == "fourier" else mirrored(L)
        size = len(A) - (1 if A.has_zero() else 0)
        kappa = 2 if task.space != "fourier" \
            or properties(L).centrally_symmetric else 1
        holds = lambda n: n * kappa > size + kappa and n > max_l
    elif task.plan == "C":
        card = len(L) * len(mirrored(L))
        holds = lambda n: n > card and n > 2 * max_l
    else:
        if task.space == "fourier":
            A = difference_set(L)
        elif task.plan == "A":
            A = sum_set(mirrored(L), mirrored(L))
        else:
            A = sum_set(L, mirrored(L))
        if task.plan == "B":
            holds = lambda n: n > len(A) and n > 2 * max_l
        else:
            holds = lambda n: 2 * n > len(A) + 1 and n > 2 * max_l
    n = 2
    while not holds(n):
        n = next_prime(n)
    return n


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 12), symmetric=st.booleans())
def test_required_n_closed_form_matches_prime_walk(seed, d, size,
                                                   symmetric):
    L = random_downward(np.random.default_rng(seed), d, size)
    # the union with -L makes the Fourier sets centrally symmetric
    L_sym = IndexSet(np.concatenate((L.as_array(), -L.as_array())),
                     dimension=d)
    for space, goal, plan in EVERY_TASK:
        base = L_sym if symmetric and space == "fourier" else L
        task = CbcTask(space, goal, base, plan=plan)
        assert required_n(task) == _required_n_walk(task)


@pytest.mark.parametrize("space,plan", [("fourier", None), ("cosine", "A"),
                                        ("chebyshev", "B")])
@pytest.mark.parametrize("reduce_n", (False, True))
def test_auxiliary_set_built_once_per_construction(space, plan, reduce_n,
                                                   monkeypatch):
    # the auxiliary set is built once and read by one oracle run, also
    # when reduce_n walks down the primes with the lookup verifier; plan A
    # on a downward-closed set builds L (+) L and checks its sign orbits
    L = random_downward(np.random.default_rng(3), 3, 10)
    task = CbcTask(space, "reconstruction", L, plan=plan)
    if reduce_n:
        # a generous n leaves several smaller primes for the reduction
        task = CbcTask(space, "reconstruction", L, plan=plan,
                       n=next_prime(8 * required_n(task)), reduce_n=True)
    builds = []
    for name in ("sum_set", "difference_set"):
        original = getattr(cbc_module, name)
        monkeypatch.setattr(
            cbc_module, name,
            lambda *args, _f=original: builds.append(1) or _f(*args))
    oracle_runs = []
    for name in ("dual_check", "orbit_dual_check"):
        original = getattr(Rank1Lattice, name)
        monkeypatch.setattr(
            Rank1Lattice, name, lambda self, A, _f=original:
            oracle_runs.append(self.n) or _f(self, A))
    result = cbc_construct(task)
    assert len(builds) == 1
    assert oracle_runs == [result.n]
    if reduce_n:
        assert result.n < task.n



@pytest.mark.parametrize("space,plan", [("cosine", "A"), ("chebyshev", "B"),
                                        ("cosine", "C")])
def test_reduce_n_expands_no_sign_orbits(space, plan, monkeypatch):
    # the descent checks every prime on the step chain the builder prepared
    # for the last step, and the chain carries residues from parent rows, so
    # neither the steps nor the descent sign-expands a set or runs the
    # lookup verifier: only the auxiliary set L (+) M(L) that plans B and C
    # chain on a downward-closed L is built on M(L); plan A chains L (+) L
    L = random_downward(np.random.default_rng(5), 3, 10)
    task = CbcTask(space, "reconstruction", L, plan=plan)
    task = CbcTask(space, "reconstruction", L, plan=plan,
                   n=next_prime(8 * required_n(task)), reduce_n=True)
    calls = []
    for module, name in ((cbc_module, "slot_residues"),
                         (indexset_module, "mirror_expand")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original,
                            _name=name: calls.append(_name) or _f(*args))
    result = cbc_construct(task)
    assert result.n < task.n
    assert calls == ([] if plan == "A" else ["mirror_expand"])


@pytest.mark.parametrize("space", ("cosine", "chebyshev"))
def test_plan_c_descent_checks_n_2_on_plan_c(space):
    # plan C on a downward-closed set walks plan B's chain, which holds
    # plan C at odd n only: at n = 2 the index (1) aliases its own sign
    # change, which plan C allows and plan B does not
    L = IndexSet([(0,), (1,)], domain="nonneg")
    task = CbcTask(space, "reconstruction", L, plan="C", n=7, reduce_n=True)
    assert cbc_module._condition(task).odd_n
    result = cbc_construct(task)
    assert (result.n, result.z) == (2, (1,))
    assert result.c_table == {(0,): 1, (1,): 2}


def _verifier_descent(cond, n, z):
    # the prime descent on the condition's lookup verifier, which prepares
    # its rows afresh at every prime
    while True:
        p = cbc_module._previous_prime(n)
        if p is None or not all(zj % p for zj in z) or not cond.verify(z, p):
            return n, [zj % n for zj in z]
        n = p


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
       size=st.integers(1, 8))
def test_reduce_n_matches_the_verifier_descent(seed, d, size):
    L = random_downward(np.random.default_rng(seed), d, size)
    for space, goal, plan in EVERY_TASK:
        task = CbcTask(space, goal, L, plan=plan)
        n = next_prime(4 * required_n(task))
        z = list(cbc_construct(CbcTask(space, goal, L, plan=plan, n=n)).z)
        assert cbc_module._reduce_n(_builder(task), n, z) == \
            _verifier_descent(cbc_module._condition(task), n, z)


def test_n_beyond_32_bits_fails_before_the_search(monkeypatch):
    # |L (-) L| is tiny, but the bound n > 2 max(L) = 2^31 is not
    L = IndexSet([(0, 0), (2**30, 0)])
    task = CbcTask("fourier", "reconstruction", L)
    assert required_n(task) > 2**31

    def no_search(self, n):
        raise AssertionError("a step ran at n >= 2^31")

    monkeypatch.setattr(cbc_module._Builder, "construct_at", no_search)
    with pytest.raises(ValueError, match="32 bits"):
        cbc_construct(task)


def test_bound_beyond_32_bits_fails_before_the_chain(monkeypatch):
    # plan C on the d = 8 degree-10 product set asks for n > |L| |M(L)| =
    # 25,600 * 1,083,537, which no 32-bit n meets; the task fails before
    # the builder chains the 2.8e10 rows of L (+) M(L)
    L = make_weighted_set(WeightedSetRule("product", (1.0,) * 8, 10), 8)
    task = CbcTask("cosine", "reconstruction", L, plan="C")

    def no_chain(*args):
        raise AssertionError("the builder was constructed")

    monkeypatch.setattr(cbc_module, "_Builder", no_chain)
    with pytest.raises(InvalidTask, match="bound 27738547200 "):
        cbc_construct(task)


def test_largest_bound_that_fits_takes_the_largest_prime():
    # 2 max(L) = 2^31 - 2 leaves n = 2^31 - 1, the largest 32-bit prime
    L = IndexSet([(0,), (2**30 - 1,)])
    assert cbc_construct(CbcTask("fourier", "reconstruction", L)).n \
        == 2**31 - 1


# ---------------------------------------------------------------------------
# verifiers: spec examples

def test_verify_plan_a_examples():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    assert verify_plan_a((1,), 5, L).ok
    assert not verify_plan_a((1,), 2, L).ok
    assert verify_plan_a((1,), 7, IndexSet([(0,)], domain="nonneg")).ok


def test_verify_plan_b_examples():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    assert verify_plan_b((1,), 3, L).ok
    assert not verify_plan_b((1,), 2, IndexSet([(1,)], domain="nonneg")).ok
    assert verify_plan_b((1,), 5, IndexSet([(0,)], domain="nonneg")).ok


def test_verify_plan_c_examples():
    result = verify_plan_c((1,), 2, IndexSet([(1,)], domain="nonneg"))
    assert result.ok and result.c_table == {(1,): 2}

    result = verify_plan_c((1,), 5, IndexSet([(0,), (1,)], domain="nonneg"))
    assert result.ok and set(result.c_table.values()) == {1}

    # composite n allowed in verification; (2,) aliases with itself only
    L = IndexSet([(0,), (1,), (2,)], domain="nonneg")
    result = verify_plan_c((1,), 4, L)
    assert result.ok
    assert result.c_table == {(0,): 1, (1,): 1, (2,): 2}


def test_verify_fourier_examples():
    L = IndexSet(list(itertools.product((0, 1), repeat=2)), domain="nonneg")
    assert verify_fourier((1, 4), 17, L).ok
    assert not verify_fourier((1,), 17, IndexSet([(0,), (17,)])).ok
    assert verify_fourier((1,), 17, IndexSet([(5,)])).ok


def test_verifier_visit_counts(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        L = random_nonneg_set(rng, d, int(rng.integers(1, 8)), 3)
        n = next_prime(int(rng.integers(50, 400)))
        z = (1,) + tuple(int(v) for v in rng.integers(1, n, size=d - 1))
        mirror_size = L.sum_two_pow()
        r = verify_fourier(z, n, L)
        if r.ok:
            assert r.visits == len(L)
        for verifier in (verify_plan_a, verify_plan_b, verify_plan_c):
            r = verifier(z, n, L)
            if r.ok:
                assert r.visits == mirror_size


# ---------------------------------------------------------------------------
# verifier vs oracle equivalence and nesting

def _random_triple(rng):
    d = int(rng.integers(1, 5))
    L = random_nonneg_set(rng, d, int(rng.integers(1, 10)), 4)
    n = int(rng.integers(2, 102))
    z = tuple(int(v) for v in rng.integers(1, n, size=d))
    return L, n, z


def test_verifiers_match_naive_oracles(rng):
    for _ in range(300):
        L, n, z = _random_triple(rng)
        lat = Rank1Lattice(n, z)
        M = mirrored(L)
        assert verify_fourier(z, n, L).ok == lat.dual_check(difference_set(L))
        assert verify_plan_a(z, n, L).ok == lat.dual_check(sum_set(M, M))
        assert verify_plan_b(z, n, L).ok == lat.dual_check(sum_set(L, M))
        fast = verify_plan_c(z, n, L)
        naive_ok, naive_c = lat.plan_c_check_naive(L)
        assert fast.ok == naive_ok
        if fast.ok:
            assert fast.c_table == naive_c


def test_condition_nesting(rng):
    for _ in range(300):
        L, n, z = _random_triple(rng)
        a = verify_plan_a(z, n, L).ok
        b = verify_plan_b(z, n, L).ok
        c = verify_plan_c(z, n, L)
        if a:
            assert b
        if b:
            assert c.ok
            assert all(v == 1 for v in c.c_table.values())


@settings(max_examples=300, deadline=None, database=None)
@given(d=st.integers(1, 5), size=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([p for p in range(3, 400) if is_prime(p)]),
       data=st.data())
def test_plan_c_is_plan_b_on_downward_closed_sets(d, size, seed, n, data):
    # the sign change of k flipping the components F aliases k iff
    # 2 sum_F k_j z_j = 0 mod n.  At an odd prime n that makes k alias the
    # index with its F components zeroed, which a downward-closed L holds,
    # so plan C accepts exactly plan B's lattices, with every c_k = 1
    L = random_downward(np.random.default_rng(seed), d, size)
    z = data.draw(st.lists(st.integers(1, n - 1), min_size=d, max_size=d))
    c = verify_plan_c(z, n, L)
    assert verify_plan_b(z, n, L).ok == c.ok
    if c.ok:
        assert set(c.c_table.values()) == {1}


def test_plan_c_is_not_plan_b_off_downward_closed_sets():
    # (-1, -1) aliases (1, 1) at n = 3, z = (1, 2), and L lacks (0, 0)
    L = IndexSet([(1, 1)], domain="nonneg")
    c = verify_plan_c((1, 2), 3, L)
    assert c.ok and c.c_table == {(1, 1): 2}
    assert not verify_plan_b((1, 2), 3, L).ok


# ---------------------------------------------------------------------------
# the rows of a set in each space, and the one lookup over them

SET_KINDS = ("downward", "nonneg", "signed")


def _random_set(kind, rng, d, size):
    if kind == "downward":
        return random_downward(rng, d, size)
    if kind == "nonneg":
        return random_nonneg_set(rng, d, size, 3)
    return random_signed_set(rng, d, size, 3)


def _space_rows(space, L):
    # the rows of L in a space and their groups: L itself, one row per
    # group, for Fourier, its sign orbits grouped by index otherwise
    if space == "fourier":
        return L.as_array(), np.arange(len(L) + 1)
    return mirror_expand(L)


def _dot_ref(rows, z, n):
    # (r . z) mod n per row in Python integers
    return (rows.astype(object) @ np.asarray(z, dtype=object) % n).tolist()


def _wide_set(rng, d, size, nonneg):
    low = 0 if nonneg else -(2**31 - 1)
    return IndexSet(rng.integers(low, 2**31, size=(size, d)),
                    domain="nonneg" if nonneg else "signed")


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
       size=st.integers(1, 12),
       kind=st.sampled_from(SET_KINDS + ("wide",)),
       n=st.sampled_from((2, 3, 101)) | st.integers(2, 2**31 - 1),
       data=st.data())
def test_slot_residues_are_the_dot_products_of_the_rows(seed, d, size, kind,
                                                        n, data):
    # the slots of the rows of a set in each space, row for row, with their
    # groups, are exact dot products with z mod n for z, n and components
    # up to 2^31 - 1; d up to 9 draws rows of 8 columns
    rng = np.random.default_rng(seed)
    z = data.draw(st.lists(st.integers(1, 2**31 - 1), min_size=d,
                           max_size=d))
    for space in SPACES:
        if kind == "wide":
            L = _wide_set(rng, d, size, space != "fourier")
        elif kind == "signed" and space != "fourier":
            continue
        else:
            L = _random_set(kind, rng, d, size)
        rows, groups = _space_rows(space, L)
        res, res_groups = slot_residues(space, L, z, n)
        assert res.dtype == np.int64 and res.tolist() == _dot_ref(rows, z, n)
        assert np.array_equal(res_groups, groups)


def test_slot_residues_rejects_unknown_spaces_and_wide_components():
    with pytest.raises(ValueError, match="unknown space 'legendre'"):
        slot_residues("legendre", IndexSet([(1,)]), (1,), 5)
    message = "lattice dimension 1 differs from index set dimension 2"
    for space in SPACES:
        with pytest.raises(ValueError, match="32 bits"):
            slot_residues(space, IndexSet([(0, 1), (2**31, 0)]), (1, 1), 5)
        with pytest.raises(ValueError, match=message):
            slot_residues(space, IndexSet([(0, 1)]), (1,), 5)


VERIFIERS = {"nonzero": verify_nonzero, "fourier": verify_fourier,
             "A": verify_plan_a, "B": verify_plan_b, "C": verify_plan_c}


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
       size=st.integers(1, 10), kind=st.sampled_from(SET_KINDS),
       n=st.integers(2, 80))
def test_verifiers_match_the_reference_formulas(seed, d, size, kind, n):
    # n up to 80 makes aliasing lattices common; every field of the result
    # follows the one-index-at-a-time formulas, and each task's condition
    # binds the same lookup
    rng = np.random.default_rng(seed)
    L = _random_set(kind, rng, d, size)
    z = tuple(int(v) for v in rng.integers(1, n, size=d))
    lattice = Rank1Lattice(n, z)
    negative = L.as_array().min() < 0
    for condition, verifier in VERIFIERS.items():
        if negative and condition in PLANS:
            # the plans' sign orbits take nonnegative indices only
            with pytest.raises(ValueError, match="nonnegative"):
                verifier(z, n, L)
            continue
        result = verifier(z, n, L)
        assert (result.ok, result.visits, result.c_table) == \
            lookup_check(condition, lattice, L)
    if kind == "signed":
        return  # the cosine and Chebyshev tasks take nonnegative sets
    for space, goal, plan in EVERY_TASK:
        task = CbcTask(space, goal, L, plan=plan)
        if goal == "integration":
            A = L if space == "fourier" else mirrored(L)
            expected = lookup_check("nonzero", lattice, A)
        else:
            expected = lookup_check(plan or "fourier", lattice, L)
        result = cbc_module._condition(task).verify(z, n)
        assert (result.ok, result.visits, result.c_table) == expected


# ---------------------------------------------------------------------------
# elimination

def _builder(task):
    return cbc_module._Builder(task, cbc_module._condition(task))


def _base_set_builder(task):
    # a builder whose steps walk the chain of the base set in the task's
    # space under the task's own condition (plans A, B and C chain an
    # auxiliary set under the nonzero one)
    cond = cbc_module._condition(task)
    code = (kernels.COND_NONZERO if task.goal == "integration"
            else cbc_module._PLAN_CODE[task.plan])
    return cbc_module._Builder(task, replace(
        cond, code=code, rows=lambda: task.base_set, chain="L",
        space=task.space, odd_n=False))


def _integration_builder(rows):
    # Fourier integration on a set that is not centrally symmetric: the step
    # rows are the nonzero rows of the set's projections
    return _builder(CbcTask("fourier", "integration", IndexSet(rows)))


def _survivors(builder, z, n, s):
    # ascending candidates z_s that elimination at the prime n keeps at step
    # s after the prefix z: those the marks leave
    prefix = builder._residues(z, n, s - 1)[builder.parent[s]]
    return np.flatnonzero(~builder._marks(prefix, n, s))


def test_eliminate_step_bootstrap_no_elimination():
    # with an empty prefix every residue is 0 and nothing is eliminated
    survivors = _survivors(_integration_builder([(1,)]), [], 5, 1)
    assert survivors.tolist() == [1, 2, 3, 4]


def test_eliminate_step_removes_unique_candidate():
    # row (h, h_s) = (1, 2), prefix z = (1): 2 z_s = -1 mod 5 -> z_s = 2
    survivors = _survivors(_integration_builder([(1, 2)]), [1], 5, 2)
    assert survivors.tolist() == [1, 3, 4]
    assert survivors.dtype == np.int64


def test_eliminate_step_empty():
    builder = _integration_builder([(1, 1), (1, 2), (1, 3), (1, 4)])
    assert _survivors(builder, [1], 5, 2).tolist() == []


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
       size=st.integers(2, 10), downward=st.booleans(),
       extra=st.integers(0, 40))
def test_eliminated_candidates_fail_the_condition(seed, d, size, downward,
                                                  extra):
    # at every step whose prefix passes the earlier steps, elimination keeps
    # exactly the candidates the step check accepts.  That holds for every
    # prime n > 2 max(L), where no two step rows share their last component
    # mod n without being distinct in the prefix; n below required_n makes
    # collisions and empty candidate sets common.  Scattered sets are
    # needed for plan C to differ from plan B: on a downward closed set a
    # self-aliasing index also aliases the index with those components 0.
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size)
    signed = random_signed_set(rng, d, size, 3)
    nonneg = random_nonneg_set(rng, d, size, 3)
    for space, goal, plan in EVERY_TASK:
        base = L if downward else signed if space == "fourier" else nonneg
        task = CbcTask(space, goal, base, plan=plan)
        builder = _builder(task)
        n = next_prime(2 * base.max_abs() + extra)
        z = [1]
        if not builder.check_step(z, n, 1):
            continue
        for s in range(2, d + 1):
            passing = [zs for zs in range(1, n)
                       if builder.check_step(z + [zs], n, s)]
            assert _survivors(builder, z, n, s).tolist() == passing
            if not passing:
                break
            z.append(passing[int(rng.integers(len(passing)))])


def _chain_rows(builder, s):
    # the step-s rows the chain implies: each row is its parent row of step
    # s - 1 extended by its last component; the parent index one past the
    # step-(s-1) rows is the zero row
    rows = np.zeros((1, 0), dtype=np.int64)
    for t in range(1, s + 1):
        rows = np.vstack((rows, np.zeros((1, t - 1), dtype=np.int64)))
        rows = np.column_stack((rows[builder.parent[t]],
                                builder.values[t][builder.codes[t]]))
    return rows


def _first_nonzero_positive(rows):
    # per row, whether its first nonzero component is positive
    nonzero = rows != 0
    first = rows[np.arange(rows.shape[0]), nonzero.argmax(axis=1)]
    return nonzero.any(axis=1) & (first > 0)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 12), downward=st.booleans())
def test_integration_step_rows_are_the_projected_auxiliary_set(
        seed, d, size, downward):
    # the step rows the chain implies are the nonzero rows of the
    # projected auxiliary set: all of L_s for Fourier, and one of each pair
    # +-r, the one whose first nonzero component is positive, of M(L)_s
    # for cosine and Chebyshev and of L_s for Fourier on a centrally
    # symmetric L; the switching threshold is |L_s| or |M(L_s)|
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size)
    signed = random_signed_set(rng, d, size, 3)
    nonneg = random_nonneg_set(rng, d, size, 3)
    for space in SPACES:
        bases = ([L] if downward else
                 [signed, nonneg] if space == "fourier" else [nonneg])
        if space == "fourier":
            bases += [mirrored(bases[-1]), difference_set(bases[0])]
        for base in bases:
            builder = _builder(CbcTask(space, "integration", base))
            A = base if space == "fourier" else mirrored(base)
            half = space != "fourier" or negated(base) == base
            assert builder.condition.chain == (
                "half of L" if half and space == "fourier" else "L")
            for s in range(1, d + 1):
                rows = _chain_rows(builder, s)
                assert rows.shape[1] == s
                R = set(map(tuple, rows.tolist()))
                assert rows.shape[0] == len(R)
                reference = set(project(A, s)) - {(0,) * s}
                if not half:
                    assert R == reference
                else:
                    minus_R = set(map(tuple, (-rows).tolist()))
                    assert R | minus_R == reference
                    assert not R & minus_R
                    assert _first_nonzero_positive(rows).all()
                Ls = project(base, s)
                assert builder.thresholds[s] == (
                    len(Ls) if space == "fourier" else Ls.sum_two_pow())


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 30), strategy=st.sampled_from(STRATEGIES))
def test_fourier_integration_of_symmetric_sets_on_half_the_rows(
        seed, d, size, strategy):
    # h.z and -h.z are 0 together, so on a centrally symmetric set the half
    # chain returns the n, z and statistics of a build that chains all of L
    rng = np.random.default_rng(seed)
    for L in (mirrored(random_downward(rng, d, size)),
              difference_set(random_signed_set(rng, d, size, 3))):
        task = CbcTask("fourier", "integration", L, strategy=strategy)
        condition = cbc_module._condition
        assert condition(task).chain == "half of L"
        half = cbc_construct(task)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cbc_module, "_condition", lambda t: replace(
                condition(t), chain="L", rows=lambda: t.base_set))
            whole = cbc_construct(task)
        assert (half.n, half.z, half.c_table, half.stats.to_dict()) == (
            whole.n, whole.z, whole.c_table, whole.stats.to_dict())


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9),
       size=st.integers(1, 40), kind=st.sampled_from(SET_KINDS),
       data=st.data())
def test_step_chain_is_the_space_rows_of_every_projection(seed, d, size,
                                                          kind, data):
    # at every step the rows the chain implies are the rows of the
    # projection in the space (the projection or its sign orbits, built
    # without the chain), row for row, with their groups, and the residues
    # carried from the parents are their dot products; integration keeps the
    # nonzero rows, in the cosine and Chebyshev spaces only those whose
    # first nonzero component is positive, and no groups.  d up to 9 draws
    # rows of 8 columns
    rng = np.random.default_rng(seed)
    L = _random_set(kind, rng, d, size)
    n = data.draw(st.sampled_from((2, 3, 5, 101, 10007, 2**31 - 1)))
    z = [int(v) for v in rng.integers(1, 2**31, size=d)]
    for space, goal, plan in EVERY_TASK:
        if space != "fourier" and kind == "signed":
            continue
        builder = _base_set_builder(CbcTask(space, goal, L, plan=plan))
        for s in range(1, d + 1):
            rows, groups = _space_rows(space, project(L, s))
            if goal == "integration":
                rows = rows[np.any(rows, axis=1) if space == "fourier"
                            else _first_nonzero_positive(rows)]
                groups = None
            assert np.array_equal(_chain_rows(builder, s), rows)
            assert np.array_equal(builder.step_groups[s], groups)
            carried = builder._residues(z, n, s)
            assert carried[-1] == 0
            assert carried[:-1].tolist() == _dot_ref(rows, z[:s], n)


PLAN_TASKS = [(space, plan) for space in ("cosine", "chebyshev")
              for plan in PLANS]


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 12), downward=st.booleans())
def test_plan_chains_are_the_projected_auxiliary_sets(seed, d, size,
                                                      downward):
    # plans A and B chain their auxiliary sets under the nonzero condition
    # on every set: L (+) M(L) in the Fourier chain for plan B, and for
    # plan C on a downward-closed L; plan A chains one of each pair +-r of
    # M(L) (+) M(L), here built without the chain's own |L (+) M(L)|.
    # Plan C elsewhere keeps the sign orbits of L, and so does plan C on
    # {0}, whose search starts at the even n = 2.  The switching threshold
    # stays |M(L_s)|
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size) if downward \
        else random_nonneg_set(rng, d, size, 3)
    M = mirrored(L)
    closed = is_downward_closed(L)
    for space, plan in PLAN_TASKS:
        task = CbcTask(space, "reconstruction", L, plan=plan)
        cond = cbc_module._condition(task)
        builder = _builder(task)
        if plan == "C" and not (closed and L.max_abs()):
            assert (cond.code, cond.chain) == (kernels.COND_PLAN_C, "L")
            continue
        A = sum_set(M, M) if plan == "A" else sum_set(L, M)
        half = plan == "A"
        assert cond.code == kernels.COND_NONZERO
        assert cond.space == (space if half else "fourier")
        assert cond.odd_n == (plan == "C")
        for s in range(1, d + 1):
            rows = _chain_rows(builder, s)
            R = set(map(tuple, rows.tolist()))
            assert rows.shape[0] == len(R)
            reference = set(project(A, s)) - {(0,) * s}
            if half:
                minus_R = set(map(tuple, (-rows).tolist()))
                assert R | minus_R == reference
                assert not R & minus_R
            else:
                assert R == reference
            assert builder.thresholds[s] == project(L, s).sum_two_pow()


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
       size=st.integers(1, 14), downward=st.booleans(),
       n=st.sampled_from([p for p in range(3, 300) if is_prime(p)]),
       data=st.data())
def test_plan_step_checks_are_the_nonzero_check_on_the_chain(seed, d, size,
                                                             downward, n,
                                                             data):
    # at an odd prime, at every step, the candidates that the check of plan
    # A, B or C on the sign orbits of L_s accepts, here the kernel check on
    # rows built without the chain, are those the nonzero check on the
    # chain of the auxiliary set accepts, whatever the prefix: for plans A
    # and B on every set, for plan C on a downward-closed one; n below
    # 2 max(L) is drawn too
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size) if downward \
        else random_nonneg_set(rng, d, size, 3)
    orbits = [mirror_expand(project(L, s)) for s in range(1, d + 1)]
    for space, plan in PLAN_TASKS:
        task = CbcTask(space, "reconstruction", L, plan=plan, n=n)
        on_A = _builder(task)
        if on_A.condition.chain == "L":
            assert plan == "C" and not is_downward_closed(L)
            continue
        assert on_A.cond == kernels.COND_NONZERO
        code = cbc_module._PLAN_CODE[plan]
        z = []
        for s, (rows, groups) in enumerate(orbits, start=1):
            candidates = range(1, n) if s > 1 else [1]
            accepted = [zs for zs in candidates if kernels.check_condition(
                rows @ np.asarray(z + [zs]) % n, groups, code)]
            assert accepted == [zs for zs in candidates
                                if on_A.check_step(z + [zs], n, s)]
            if not accepted:
                break
            z.append(data.draw(st.sampled_from(accepted)))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("space", SPACES)
def test_integration_steps_without_rows(space, strategy):
    # L_1 and L_2 hold the zero index alone, so integration steps 1 and 2
    # have no rows: every candidate passes, and elimination marks none
    L = IndexSet([(0, 0, 0), (0, 0, 1)], domain="nonneg")
    task = CbcTask(space, "integration", L, strategy=strategy)
    builder = _builder(task)
    assert [builder.codes[s].shape[0] for s in (1, 2)] == [0, 0]
    n = required_n(task)
    assert _survivors(builder, [1], n, 2).tolist() == list(range(1, n))
    result = cbc_construct(task)
    assert result.z[:2] == ((1, 1) if strategy == "elimination" else (1, 2))
    assert _oracle_ok(task, result.lattice())


def test_plan_c_elimination_matches_verifier(rng):
    for _ in range(20):
        L = random_nonneg_set(rng, 2, 5, 3)
        n = next_prime(int(rng.integers(40, 200)))
        builder = _builder(CbcTask("cosine", "reconstruction", L, plan="C"))
        survivors = set(_survivors(builder, [1], n, 2).tolist())
        for zs in range(1, n):
            ok = verify_plan_c((1, zs), n, L).ok
            assert ok == (zs in survivors)


# ---------------------------------------------------------------------------
# brute-force steps read off the survivors

WALKS = (("brute_force", 1.0), ("mixed", 1.0), ("mixed", 0.0),
         ("mixed", 0.3))


class _WalkingBuilder(cbc_module._Builder):
    # a read-off bound above every n: brute force walks every candidate
    def __init__(self, *args):
        super().__init__(*args)
        self.two_max = math.inf


def _outcome(task, walk=False):
    with pytest.MonkeyPatch.context() as mp:
        if walk:
            mp.setattr(cbc_module, "_Builder", _WalkingBuilder)
        try:
            r = cbc_construct(task)
        except RetryLimitExceeded as exc:
            return str(exc)
    return r.n, r.z, r.c_table, r.stats.to_dict()


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
       size=st.integers(2, 12), kind=st.sampled_from(
           ("downward", "scattered", "signed")), larger=st.booleans())
def test_survivor_read_off_matches_the_full_walk(seed, d, size, kind,
                                                 larger):
    rng = np.random.default_rng(seed)
    L = random_downward(rng, d, size) if kind == "downward" \
        else random_nonneg_set(rng, d, size, 3)
    signed = random_signed_set(rng, d, size, 3)
    for space, goal, plan in EVERY_TASK:
        base = signed if kind == "signed" and space == "fourier" else L
        n = 0
        if larger:
            n = next_prime(3 * required_n(CbcTask(space, goal, base,
                                                  plan=plan)))
        for strategy, factor in WALKS:
            task = CbcTask(space, goal, base, plan=plan, n=n,
                           strategy=strategy, mixed_switch_factor=factor,
                           reduce_n=larger)
            assert _outcome(task) == _outcome(task, walk=True)


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
       size=st.integers(2, 12))
def test_read_off_steps_test_one_candidate(seed, d, size):
    # at a prime n > 2 max|k| every brute-force or mixed step tests its
    # first candidate alone before it reads the survivors
    rng = np.random.default_rng(seed)
    L = random_nonneg_set(rng, d, size, 3)
    probes = []
    step = kernels.brute_force_step

    def spy(prefix, last, groups, n, start, max_fail, cond):
        if is_prime(n) and n > 2 * L.max_abs():
            probes.append(max_fail)
        return step(prefix, last, groups, n, start, max_fail, cond)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "brute_force_step", spy)
        for space, goal, plan in EVERY_TASK:
            for strategy, factor in WALKS:
                try:
                    cbc_construct(CbcTask(space, goal, L, plan=plan,
                                          strategy=strategy,
                                          mixed_switch_factor=factor))
                except RetryLimitExceeded:
                    pass
    assert probes and set(probes) == {0}


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(3, 40), data=st.data())
def test_first_unmarked_matches_the_cyclic_walk(n, data):
    bad = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
    bad[0] = True
    start = data.draw(st.integers(1, n))
    expected = (-1, n - 1)
    for t in range(n - 1):
        zs = (start - 1 + t) % (n - 1) + 1
        if not bad[zs]:
            expected = (zs, t)
            break
    assert cbc_module._first_unmarked(bad, start) == expected


def test_no_read_off_at_n_up_to_twice_the_largest_component(monkeypatch):
    # at n = 5 the rows (0, 0) and (0, 5) collide for every z_2, yet no
    # pair of them marks a candidate, so every candidate survives; brute
    # force must walk them all and escalate
    task = CbcTask("fourier", "reconstruction",
                   IndexSet([(0, 0), (0, 5)]), n=5, strategy="brute_force")
    expected = _outcome(task, 2**62)
    monkeypatch.setattr(cbc_module._Builder, "_marks", None)
    assert _outcome(task, 0) == expected
    assert expected[3]["n_sequence"] == [5, 7]


@pytest.mark.parametrize("strategy,factor,reason", [
    ("brute_force", 1.0, "brute force exhausted all candidates"),
    # a threshold of n - 1 failures still lets brute force walk them all
    ("mixed", 1.0, "brute force exhausted all candidates"),
    ("mixed", 0.75, "all candidates eliminated (n=5)"),  # n - 2 switch
    ("mixed", 0.0, "all candidates eliminated (n=5)"),
    ("mixed", 0.3, "all candidates eliminated (n=5)"),
    ("elimination", 1.0, "all candidates eliminated (n=5)")])
def test_all_eliminated_step_fails_as_the_full_walk(strategy, factor,
                                                    reason):
    # the rows (1, +-1), (1, +-2) rule out every z_2 at n = 5 > 2 max|k|
    L = IndexSet([(1, 1), (1, 2), (1, -1), (1, -2)])
    task = CbcTask("fourier", "integration", L, n=5, strategy=strategy,
                   mixed_switch_factor=factor, retry_limit=1)
    message = _outcome(task, 0)
    assert message == _outcome(task, 2**62)
    assert message.endswith(f"step 2: {reason}")


# ---------------------------------------------------------------------------
# construction

ALL_TASKS = [
    ("fourier", "integration", None),
    ("fourier", "reconstruction", None),
    ("cosine", "integration", None),
    ("cosine", "reconstruction", "A"),
    ("cosine", "reconstruction", "B"),
    ("cosine", "reconstruction", "C"),
    ("chebyshev", "reconstruction", "B"),
]


def _oracle_ok(task, lattice):
    L = task.base_set
    if task.goal == "integration":
        A = L if task.space == "fourier" else mirrored(L)
        return lattice.dual_check(A)
    if task.space == "fourier":
        return lattice.dual_check(difference_set(L))
    M = mirrored(L)
    if task.plan == "A":
        return lattice.dual_check(sum_set(M, M))
    if task.plan == "B":
        return lattice.dual_check(sum_set(L, M))
    return lattice.plan_c_check_naive(L)[0]


def test_construct_degenerate_zero_set():
    L = IndexSet([(0, 0, 0)], domain="nonneg")
    result = cbc_construct(CbcTask("fourier", "reconstruction", L))
    assert result.z == (1, 1, 1)


def test_construct_fourier_box_17():
    L = box(2)
    result = cbc_construct(CbcTask("fourier", "reconstruction", L, n=17))
    assert result.n == 17
    assert result.z[0] == 1
    assert verify_fourier(result.z, 17, L).ok
    assert _oracle_ok(CbcTask("fourier", "reconstruction", L),
                      result.lattice())


def test_construct_plan_a_d1():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    result = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="A",
                                   n=5))
    assert result.n == 5 and result.z == (1,)


@pytest.mark.parametrize("space,goal,plan", ALL_TASKS)
@pytest.mark.parametrize("strategy", ("brute_force", "elimination", "mixed"))
def test_strategies_all_produce_valid_vectors(space, goal, plan, strategy,
                                              rng):
    for _ in range(3):
        d = int(rng.integers(1, 5))
        L = random_downward(rng, d, int(rng.integers(2, 14)))
        task = CbcTask(space, goal, L, plan=plan, strategy=strategy)
        result = cbc_construct(task)
        assert result.z[0] == 1
        assert all(1 <= zj <= result.n - 1 for zj in result.z)
        assert _oracle_ok(task, result.lattice())
        if plan == "C":
            assert all(1 <= c <= 2 ** sum(1 for v in k if v)
                       for k, c in result.c_table.items())


@pytest.mark.parametrize("space,goal,plan", ALL_TASKS)
def test_existence_at_required_n(space, goal, plan, rng):
    # at n = required_n the elimination construction may never fail
    for _ in range(10):
        d = int(rng.integers(1, 6))
        L = random_downward(rng, d, int(rng.integers(2, 30)))
        task = CbcTask(space, goal, L, plan=plan, strategy="elimination")
        result = cbc_construct(task)
        assert result.stats.restarts == 0
        assert result.n == required_n(task)


def test_escalation_from_small_n():
    L = box(3)  # needs n = 17
    task = CbcTask("fourier", "reconstruction", L, n=5)
    result = cbc_construct(task)
    assert result.stats.restarts >= 1
    assert result.stats.n_sequence[0] == 5
    assert _oracle_ok(task, result.lattice())


def test_retry_limit():
    L = box(3)
    task = CbcTask("fourier", "reconstruction", L, n=5, retry_limit=1)
    with pytest.raises(RetryLimitExceeded):
        cbc_construct(task)


def test_composite_n_brute_force():
    L = IndexSet([(0,), (1,), (2,)], domain="nonneg")
    task = CbcTask("cosine", "reconstruction", L, plan="C", n=9,
                   strategy="brute_force")
    result = cbc_construct(task)
    assert result.n == 9
    assert result.lattice().plan_c_check_naive(L)[0]


def test_reduce_n():
    L = box(2)
    task = CbcTask("fourier", "reconstruction", L, n=101, reduce_n=True)
    result = cbc_construct(task)
    assert result.n < 101
    assert _oracle_ok(CbcTask("fourier", "reconstruction", L),
                      result.lattice())
    # reduced n still prime and the vector reduced accordingly
    assert is_prime(result.n)


def test_mixed_switch_recorded_and_valid(rng):
    # force the switch with a zero threshold factor on a case where the
    # first candidates fail
    L = random_downward(np.random.default_rng(7), 3, 12)
    task = CbcTask("cosine", "reconstruction", L, plan="B",
                   strategy="mixed", mixed_switch_factor=0.0)
    result = cbc_construct(task)
    assert _oracle_ok(task, result.lattice())
    if result.stats.switch_step is not None:
        labels = {st.step: st.strategy for st in result.stats.steps}
        assert labels[result.stats.switch_step] == "elimination"


def test_mixed_equals_brute_force_in_d1():
    L = IndexSet([(0,), (3,)], domain="nonneg")
    a = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="B",
                              strategy="mixed"))
    b = cbc_construct(CbcTask("cosine", "reconstruction", L, plan="B",
                              strategy="brute_force"))
    assert a.z == b.z and a.n == b.n


def test_central_symmetry_halves_eliminations(rng):
    # for centrally symmetric auxiliary sets, paired indices eliminate the
    # same candidate: per-step eliminations <= (|A_s| - |A_{s-1}|)/2 + 1
    for _ in range(10):
        d = int(rng.integers(2, 5))
        L = random_downward(rng, d, int(rng.integers(4, 20)))
        task = CbcTask("fourier", "reconstruction", L,
                       strategy="elimination")
        result = cbc_construct(task)
        A = difference_set(L)
        sizes = [len(project(A, s, "full")) for s in range(1, d + 1)]
        for st in result.stats.steps[1:]:
            allowed = (sizes[st.step - 1] - sizes[st.step - 2]) / 2 + 1
            assert st.eliminated <= allowed


def test_invalid_tasks():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    with pytest.raises(InvalidTask):
        CbcTask("fourier", "reconstruction", L, plan="A")
    with pytest.raises(InvalidTask):
        CbcTask("cosine", "reconstruction", L)  # plan missing
    with pytest.raises(InvalidTask):
        CbcTask("cosine", "integration", L, plan="B")
    with pytest.raises(InvalidTask):
        CbcTask("cosine", "reconstruction", L, plan="B", n=9,
                strategy="elimination")
    with pytest.raises(InvalidTask):
        CbcTask("fourier", "reconstruction",
                IndexSet([], dimension=2))
    with pytest.raises(InvalidTask):
        CbcTask("cosine", "reconstruction", IndexSet([(-1,)]), plan="B")


def test_tasks_hold_inputs_to_32_bits_and_finite_switch_factors():
    L = IndexSet([(0,), (1,)], domain="nonneg")
    with pytest.raises(InvalidTask, match="index components must fit"):
        CbcTask("fourier", "integration", IndexSet([(0,), (-2**31,)]))
    # a prime beyond the range of the primality witnesses, and a composite
    # the brute-force strategy would take, are refused for their size
    for n, strategy in ((350000000000009, "mixed"),
                        (2**31 + 1, "brute_force")):
        with pytest.raises(InvalidTask, match="n must fit in 32 bits"):
            CbcTask("cosine", "reconstruction", L, plan="B", n=n,
                    strategy=strategy)
    CbcTask("cosine", "reconstruction", L, plan="B", n=2**31 - 1)
    for factor in (float("inf"), float("-inf"), float("nan"), -0.5):
        with pytest.raises(InvalidTask, match="mixed switch factor"):
            CbcTask("cosine", "reconstruction", L, plan="B",
                    mixed_switch_factor=factor)


def test_mixed_generous_n_never_switches():
    L = box(2)
    task = CbcTask("fourier", "reconstruction", L, n=101, strategy="mixed")
    result = cbc_construct(task)
    assert result.stats.switch_step is None
    assert all(st.strategy == "brute_force" for st in result.stats.steps)


def test_fourier_reconstruction_on_signed_set(rng):
    rows = {tuple(int(v) for v in rng.integers(-3, 4, size=3))
            for _ in range(12)}
    L = IndexSet(sorted(rows | {(0, 0, 0)}))
    for strategy in ("brute_force", "elimination", "mixed"):
        task = CbcTask("fourier", "reconstruction", L, strategy=strategy)
        result = cbc_construct(task)
        assert result.lattice().dual_check(difference_set(L))


def test_components_must_fit_32_bits():
    L = IndexSet([(2**31,)])
    with pytest.raises(ValueError, match="32 bits"):
        verify_fourier((1,), 7, L)


def test_construction_is_deterministic(rng):
    L = random_downward(rng, 3, 12)
    task = CbcTask("cosine", "reconstruction", L, plan="B")
    first = cbc_construct(task)
    second = cbc_construct(task)
    assert first.z == second.z and first.n == second.n


def _sign_products(L, z, n):
    """sigma . (k * z) mod n for every sign vector sigma in {1, -1}^d
    (rows, all-plus first) and k in L (columns), enumerated by
    itertools.product rather than by the library's sign orbits."""
    signs = np.asarray(list(itertools.product((1, -1), repeat=L.dimension)))
    terms = L.as_array() * np.asarray(z, dtype=np.int64) % n
    return signs, (signs @ terms.T) % n


@pytest.mark.parametrize("space", ("cosine", "chebyshev"))
@pytest.mark.parametrize("goal", ("integration", "reconstruction"))
def test_eight_column_sign_orbits_give_valid_lattices(space, goal):
    # int64 rows of 8 columns once made masked negation misread the sign
    # orbits; check the lattices by sign products of their own: no nonzero
    # sign change of an index is in the dual lattice (integration), and
    # no index shares its slot with a sign change of another one or with a
    # sign change of itself other than itself (plan B)
    rng = np.random.default_rng(6)
    for _ in range(3):
        L = random_downward(rng, 8, int(rng.integers(40, 80)))
        plan = None if goal == "integration" else "B"
        result = cbc_construct(CbcTask(space, goal, L, plan=plan))
        signs, slots = _sign_products(L, result.z, result.n)
        arr = L.as_array()
        if goal == "integration":
            assert np.all(slots[:, np.any(arr, axis=1)] != 0)
            continue
        # [sigma, k, h]: slot of k equals the slot of sigma(h) ...
        hit = slots[0][None, :, None] == slots[:, None, :]
        # ... which is allowed only when sigma(h) is k itself
        keeps_k = np.all((signs[:, None, :] == 1) | (arr[None] == 0), axis=2)
        same = keeps_k[:, :, None] & np.eye(len(L), dtype=bool)[None]
        assert not np.any(hit & ~same)


# ---------------------------------------------------------------------------
# recorded outputs

RECORDED = pathlib.Path(__file__).with_name("recorded_lattices.json")


def _recorded_result(task):
    r = cbc_construct(task)
    c_table = None if r.c_table is None else sorted(
        [list(k), c] for k, c in r.c_table.items())
    return {"n": r.n, "z": list(r.z), "c_table": c_table,
            "stats": r.stats.to_dict()}


def test_lattices_match_recorded_outputs():
    # (n, z, c_table, stats) of a scattered d=4 set under every condition
    # and strategy, from the required n and from a prime near a third of
    # it (so that n escalates), with mixed switching at a tenth of its
    # threshold (so that it switches), as an earlier version of the search
    # returned them; a faster search must return the same
    recorded = json.loads(RECORDED.read_text())
    L = IndexSet([tuple(k) for k in recorded["base_set"]], domain="nonneg")
    assert len(recorded["tasks"]) == 60
    for entry in recorded["tasks"]:
        task = CbcTask(entry["space"], entry["goal"], L, plan=entry["plan"],
                       n=entry["n"], strategy=entry["strategy"],
                       mixed_switch_factor=recorded["mixed_switch_factor"])
        assert _recorded_result(task) == entry["result"], entry


def test_downward_closed_lattices_match_recorded_outputs():
    # the same for plans A, B and C on a downward closed d=4 set, in the
    # cosine and Chebyshev spaces, under every strategy, from the required
    # n and from a prime near an eighth of it, with mixed switching at its
    # threshold and at a tenth of it, with and without reduce_n, as the
    # search on pairs of the set's sign orbits returned them
    recorded = json.loads(RECORDED.read_text())["downward_closed"]
    L = IndexSet([tuple(k) for k in recorded["base_set"]], domain="nonneg")
    assert is_downward_closed(L)
    assert len(recorded["tasks"]) == 144
    for entry in recorded["tasks"]:
        task = CbcTask(entry["space"], "reconstruction", L, plan=entry["plan"],
                       n=entry["n"], strategy=entry["strategy"],
                       mixed_switch_factor=entry["mixed_switch_factor"],
                       reduce_n=entry["reduce_n"])
        assert _recorded_result(task) == entry["result"], entry


def test_wide_component_lattices_match_recorded_outputs():
    # the same for plans A, B and C on a scattered d=4 set whose nonzero
    # components lie in [2^30, 2^31), so that the auxiliary sets hold
    # components up to 2^32, at the explicit primes 1009 and 100,003 far
    # below 2 max(L), under every strategy, with and without reduce_n, as
    # the search on pairs of the set's sign orbits returned them; plans A
    # and B walk their auxiliary sets there too
    recorded = json.loads(RECORDED.read_text())["wide"]
    L = IndexSet([tuple(k) for k in recorded["base_set"]], domain="nonneg")
    assert 2**30 <= L.max_abs() < 2**31
    assert len(recorded["tasks"]) == 72
    for entry in recorded["tasks"]:
        task = CbcTask(entry["space"], "reconstruction", L, plan=entry["plan"],
                       n=entry["n"], strategy=entry["strategy"],
                       mixed_switch_factor=recorded["mixed_switch_factor"],
                       reduce_n=entry["reduce_n"])
        chain = cbc_module._condition(task).chain
        assert (chain == "L") == (entry["plan"] == "C")
        assert _recorded_result(task) == entry["result"], entry
