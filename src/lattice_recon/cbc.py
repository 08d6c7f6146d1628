"""Component-by-component construction of lattice generating vectors.

Covers the nonzero-residue condition of integration in all spaces, the
distinct-residue condition of Fourier reconstruction and the self-aliasing
condition of plan C.  Plans A and B for the cosine/Chebyshev spaces are the
nonzero condition on an auxiliary set, |L (+) M(L)| in their own space
and L (+) M(L) in the Fourier space, at every component size, and so is
plan C on a downward-closed L at odd n, where it equals plan B
(:func:`_condition`).  Their steps walk the rows of that set instead of
pairing sign orbits of L; Fourier reconstruction and plan C on other sets
pair the rows of L or M(L).  Three search strategies:

* ``brute_force`` takes at each step the first candidate, counted
  cyclically from z_{s-1} + 1, that passes the step check on the full
  projections,
* ``elimination`` removes, per pair of the rows the step check prepares,
  the single candidate that makes the pair collide, via the inverse of
  the pair's last difference mod n, read from a table with one Fermat
  inverse per distinct difference (prime n only), and takes the smallest
  survivor,
* ``mixed`` answers as brute force until the failure count at a step
  exceeds a threshold, and as elimination from that step on.

At a prime n > 2 max|k| the survivors of elimination are exactly the
candidates the step check accepts.  There a brute-force step tests its
first candidate alone; if it fails, the step reads its answer, and the
failure count the walk would have reached, off the survivors, so brute
force and mixed return the lattice and statistics of a full walk.
Elsewhere brute force walks every candidate.

Every constructed vector is re-validated against the independent oracle
checks of :class:`lattice_recon.lattice.Rank1Lattice` before it is returned.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import kernels
from .indexset import (DOMAIN_NONNEG, IndexSet, difference_set,
                       is_downward_closed, mirrored, negated, sum_set)
from .lattice import _INT32_LIMIT, Rank1Lattice

SPACES = ("fourier", "cosine", "chebyshev")
GOALS = ("integration", "reconstruction")
PLANS = ("A", "B", "C")
STRATEGIES = ("brute_force", "elimination", "mixed")

_log = logging.getLogger(__name__)


class InvalidTask(ValueError):
    """Inconsistent CBC task parameters."""


class RetryLimitExceeded(RuntimeError):
    """Construction kept failing after the configured number of prime
    escalations."""


# ---------------------------------------------------------------------------
# primes: deterministic Miller-Rabin, valid far beyond any n used here

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_VALID_BELOW = 341550071728321  # first composite passing these witnesses


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_VALID_BELOW:
        raise ValueError("primality witnesses only valid below 3.4e14")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(2, n + 1)
    while not is_prime(candidate):
        candidate += 1
    return candidate


# ---------------------------------------------------------------------------
# task description

@dataclass(frozen=True)
class CbcTask:
    """One CBC construction problem.

    ``n = 0`` selects the smallest prime satisfying the task's existence
    bound (see :func:`required_n`).  ``plan`` is meaningful only for
    reconstruction in the cosine/Chebyshev spaces.  Every strategy works on
    the full projections of the base set onto the first s coordinates.
    """

    space: str
    goal: str
    base_set: IndexSet
    plan: str | None = None
    n: int = 0
    strategy: str = "mixed"
    mixed_switch_factor: float = 1.0
    retry_limit: int = 64
    reduce_n: bool = False

    def __post_init__(self):
        if self.space not in SPACES:
            raise InvalidTask(f"unknown space {self.space!r}")
        if self.goal not in GOALS:
            raise InvalidTask(f"unknown goal {self.goal!r}")
        if self.strategy not in STRATEGIES:
            raise InvalidTask(f"unknown strategy {self.strategy!r}")
        if len(self.base_set) == 0:
            raise InvalidTask("base set is empty")
        if self.base_set.max_abs() >= _INT32_LIMIT:
            raise InvalidTask("index components must fit in 32 bits")
        nonperiodic = self.space in ("cosine", "chebyshev")
        if nonperiodic and self.base_set.as_array().min() < 0:
            raise InvalidTask(f"{self.space} space needs indices in N_0^d")
        wants_plan = nonperiodic and self.goal == "reconstruction"
        if wants_plan:
            if self.plan not in PLANS:
                raise InvalidTask("cosine/chebyshev reconstruction needs "
                                  "plan A, B or C")
        elif self.plan is not None:
            raise InvalidTask(f"plan is meaningless for {self.space} "
                              f"{self.goal}")
        if self.n:
            if self.n < 2:
                raise InvalidTask("n must be at least 2")
            if self.n >= _INT32_LIMIT:
                raise InvalidTask("n must fit in 32 bits")
            if self.strategy != "brute_force" and not is_prime(self.n):
                raise InvalidTask("composite n is only accepted with the "
                                  "brute-force strategy")
        if self.retry_limit < 1:
            raise InvalidTask("retry limit must be positive")
        if not 0 <= self.mixed_switch_factor < math.inf:  # also NaN
            raise InvalidTask("mixed switch factor must be finite and "
                              "nonnegative")


# ---------------------------------------------------------------------------
# the rows of a set in each space, as a chain over its projections

def _step_chain(space: str, L: IndexSet, half: bool = False):
    """The rows of every projection L_s in ``space`` (L_s itself for
    Fourier, its sign orbits M(L_s) grouped by index otherwise, zero row
    included) as a chain: yields, for s = 1..d, (parent, codes, values,
    groups), where row i of step s is row parent[i] of step s - 1 extended
    by the component values[codes[i]].  Step 0 has one row, the empty
    prefix, at index 0.  An empty set yields steps without rows.

    project(L, s) lists the distinct s-prefixes of L's rows in L's order,
    so the first row of every run of equal s-prefixes stands for an index
    of L_s, and its parent index is the number of runs of (s-1)-prefixes
    up to it, less one.  Row r of the sign orbit of an index with c nonzero
    components flips the i-th of them (0-based, from the left) when bit
    c-1-i of r is set.  Bit 0 flips the last nonzero component, so row r
    of the orbit of k has its parent at row r >> 1 of the orbit of k[:s-1]
    when k_s != 0 (r odd flips k_s), and at row r when k_s = 0.  The values
    are the distinct s-th components of L, and in a sign orbit their
    negatives too: -values[::-1] followed by values, so that the code c of
    a component stands for m + c and of its negative for m - 1 - c.

    ``half`` keeps, of the sign orbits, the zero row and the rows whose
    first nonzero component is positive.  The top bit of the row number
    flips the first nonzero component, so these are the first half of the
    orbit of every nonzero k, and a nonzero k_s doubles that half only
    when k[:s-1] is nonzero too.

    Components of any int64 size are exact, since the steps reduce them mod
    n before any product; outside input is held to 32 bits where it enters
    (:class:`CbcTask`, :func:`slot_residues`).
    """
    arr = L.as_array()
    orbits = space != "fourier"
    first = np.zeros(len(L), dtype=bool)
    first[:1] = True  # one run of 0-prefixes, none in an empty set
    sizes = np.ones(1, dtype=np.int64)  # the empty prefix's orbit
    starts = np.zeros(1, dtype=np.int64)
    nonzero = np.zeros(1, dtype=bool)  # the empty prefix is zero
    for s in range(L.dimension):
        col = arr[:, s]
        up = np.cumsum(first) - 1
        first = first.copy()
        first[1:] |= col[1:] != col[:-1]
        at = np.flatnonzero(first)
        parent, k = up[at], col[at]
        values, codes = np.unique(k, return_inverse=True)
        if not orbits:
            yield parent, codes, values, np.arange(k.shape[0] + 1,
                                                   dtype=np.int64)
            continue
        flips = k != 0
        if half:
            flips, nonzero = flips & nonzero[parent], flips | nonzero[parent]
        flips = flips.astype(np.int64)
        sizes = sizes[parent] << flips
        groups = np.zeros(k.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=groups[1:])
        r = np.arange(groups[-1], dtype=np.int64) \
            - np.repeat(groups[:-1], sizes)
        flips = np.repeat(flips, sizes)
        codes = np.repeat(codes, sizes)
        m = values.shape[0]
        yield (np.repeat(starts[parent], sizes) + (r >> flips),
               m + codes - (r & flips) * (2 * codes + 1),
               np.concatenate((-values[::-1], values)), groups)
        starts = groups[:-1]


def _carry(prefix, last, zs: int, n: int) -> np.ndarray:
    """Residues (prefix + last zs) mod n of one step's rows, followed by
    the zero row's residue 0 (the parent index one past the rows)."""
    full = np.zeros(prefix.shape[0] + 1, dtype=np.int64)
    np.multiply(last, zs, out=full[:-1])
    full[:-1] += prefix
    full[:-1] %= n
    return full


def slot_residues(space: str, L: IndexSet, z, n: int):
    """Residue slots (r . z) mod n, as int64, of the rows r of L in
    ``space`` (the last step of :func:`_step_chain`), carried along the
    chain as the CBC steps carry theirs, and the groups: index g of L
    occupies res[groups[g]:groups[g+1]]."""
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    if len(z) != L.dimension:
        raise ValueError(f"lattice dimension {len(z)} differs from index "
                         f"set dimension {L.dimension}")
    if L.max_abs() >= _INT32_LIMIT:
        raise ValueError("index components must fit in 32 bits")
    if space != "fourier" and L.as_array().min(initial=0) < 0:
        raise ValueError(f"{space} indices must be nonnegative")
    n = int(n)
    full = np.zeros(1, dtype=np.int64)
    for zs, (parent, codes, values, groups) in zip(z, _step_chain(space, L)):
        full = _carry(full[parent], (values % n)[codes], int(zs) % n, n)
    return full[:-1], groups


# ---------------------------------------------------------------------------
# verifiers (lookup algorithms on full projections)

@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a lookup verifier.

    ``visits`` counts the residues the scan examined; it equals the number
    of prepared rows on success and is 0 on failure.  ``c_table`` carries
    the plan-C self-aliasing counts.
    """

    ok: bool
    visits: int
    c_table: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _lookup(code: int, space: str, L: IndexSet, z, n: int) -> VerifyResult:
    """The lookup verifier of condition ``code`` on L in ``space``: the
    kernel check on the slot residues of L's rows.  The zero row sits in
    slot 0 for every z; the nonzero condition allows it that slot alone
    and does not visit it."""
    res, groups = slot_residues(space, L, z, n)
    if code == kernels.COND_PLAN_C:
        ok, c = kernels.check_plan_c(res, groups)
        return VerifyResult(ok, res.shape[0] if ok else 0,
                            dict(zip(L, c.tolist())) if ok else None)
    zero = int(code == kernels.COND_NONZERO and L.has_zero())
    ok = (np.count_nonzero(res == 0) == zero if code == kernels.COND_NONZERO
          else kernels.check_condition(res, groups, code))
    return VerifyResult(bool(ok), res.shape[0] - zero if ok else 0)


def verify_fourier(z, n: int, Ls: IndexSet) -> VerifyResult:
    """All dot products of Ls distinct mod n (Fourier reconstruction)."""
    return _lookup(kernels.COND_DISTINCT, "fourier", Ls, z, n)


def verify_plan_a(z, n: int, Ls: IndexSet) -> VerifyResult:
    """All dot products of the mirrored set of Ls distinct mod n."""
    return _lookup(kernels.COND_DISTINCT, "cosine", Ls, z, n)


def verify_plan_b(z, n: int, Ls: IndexSet) -> VerifyResult:
    """Two-bit-string plan-B check: no sign change of any index may hit the
    plain dot product of any index."""
    return _lookup(kernels.COND_PLAN_B, "cosine", Ls, z, n)


def verify_plan_c(z, n: int, Ls: IndexSet) -> VerifyResult:
    """Plan-C check allowing self-aliasing; on success carries the c_k
    counts (1 <= c_k <= 2^|k|_0)."""
    return _lookup(kernels.COND_PLAN_C, "cosine", Ls, z, n)


def verify_nonzero(z, n: int, A_s: IndexSet) -> VerifyResult:
    """All nonzero indices of A_s stay out of the dual lattice."""
    return _lookup(kernels.COND_NONZERO, "fourier", A_s, z, n)


# ---------------------------------------------------------------------------
# the condition a task imposes on the lattice

@dataclass(frozen=True)
class _Condition:
    """One (space, goal, plan) condition, built once per task.

    ``code`` is the kernel condition code of the step checks, ``bound`` the
    integer n must exceed, ``verify(z, n)`` the lookup verifier and
    ``oracle(lattice)`` the naive check, which returns (ok, c_table or
    None).  The CBC steps walk the step chain (:func:`_step_chain`) of the
    set ``rows()`` in ``space``, named ``chain``: the base set L under
    the task's own condition (for Fourier integration of a centrally
    symmetric L, the half of L whose first nonzero component is positive),
    or an auxiliary set A on which the condition is the nonzero one,
    h.z != 0 mod n for the nonzero h of A.  With
    ``odd_n`` the chain stands for the condition at odd n only.  The
    verifier reads the last step's slot residues (:func:`slot_residues`)
    of L in the task's space.
    """

    code: int
    bound: int
    verify: Callable[[object, int], VerifyResult]
    oracle: Callable[[Rank1Lattice], tuple]
    rows: Callable[[], IndexSet]
    space: str
    chain: str = "L"
    odd_n: bool = False


# kernel condition code of reconstruction under each plan; Fourier
# reconstruction (no plan) asks for distinct residues, as plan A does
_PLAN_CODE = {None: kernels.COND_DISTINCT, "A": kernels.COND_DISTINCT,
              "B": kernels.COND_PLAN_B, "C": kernels.COND_PLAN_C}


def _dual_oracle(A: IndexSet):
    return lambda lattice: (lattice.dual_check(A), None)


def _condition(task: CbcTask) -> _Condition:
    """The only place that maps (space, goal, plan) to its condition; the
    bounds are listed in :func:`required_n`.

    Plans A and B are the nonzero condition on their auxiliary sets.  Plan
    A asks for distinct residues on M(L), that is h.z != 0 for the nonzero
    h of M(L) (-) M(L) = M(L) (+) M(L); plan B asks k.z != h.z for k in L
    and h in M(L) with h != k, that is h.z != 0 for the nonzero h of
    L (-) M(L) = L (+) M(L).  Projection commutes with both sums, so at
    every step and every n the chain of the auxiliary set accepts the
    candidates that the step check on L accepts.

    M(L) (+) M(L) = M(B) with B = |L (+) M(L)|, the componentwise absolute
    values: for a, b in L and sign vectors sigma, tau, sigma a + tau b =
    sigma (a + sigma tau b), a sign change of a + sigma tau b in L (+) M(L),
    and conversely a sign change sigma (a + tau b) of an element of
    L (+) M(L) is sigma a + sigma tau b in M(L) (+) M(L).  M(S) = M(|S|)
    for any S.  So plan A is cosine/Chebyshev integration on B, with its
    half chain, its count bound and its orbit oracle, and M(L) (+) M(L) is
    never built.  On a downward-closed L, B = L (+) L: componentwise
    |a + sigma b| is a + b or |a - b|, and |a - b| = u + v with u <= a and
    v <= b componentwise (u the positive part of a - b, v of b - a), both
    in L.

    Plan C on a downward-closed L at odd n accepts exactly plan B's
    lattices, with every c_k = 1, so it walks plan B's chain at its own
    bound and keeps its own oracle, which returns the c_k.  Plan B implies
    plan C on any set, since plan C only allows what plan B forbids: a
    sign change sigma(k) with sigma(k).z = k.z.  Conversely, let sigma
    flip the nonzero components F of k with sigma(k).z = k.z.  Then
    2 sum_F k_j z_j = 0 mod n, and with n odd sum_F k_j z_j = 0 mod n, so
    k.z equals the residue of the index with the F components of k zeroed.
    That index lies in the downward-closed L and differs from k, which
    plan C forbids.  So under plan C no index aliases itself, which is
    plan B.  The same holds for every projection L_s, which is downward
    closed too, and so at every step.  The auxiliary sets hold components
    up to 2 max(L) < 2^32, which the chains take exactly
    (:func:`_step_chain`).
    """
    L = task.base_set
    two_max = 2 * L.max_abs()
    code = (kernels.COND_NONZERO if task.goal == "integration"
            else _PLAN_CODE[task.plan])
    verify = partial(_lookup, code, task.space, L)
    own = partial(_Condition, code, verify=verify, space=task.space,
                  rows=lambda: L)
    if task.goal == "integration":
        if task.space == "fourier":
            size, kappa = len(L), (2 if negated(L) == L else 1)
            oracle = _dual_oracle(L)
            if kappa == 2:
                # h.z and -h.z are 0 together, so the steps chain one of
                # each pair +-h: the rows after 0 in L's lexicographic
                # order, whose first nonzero component is positive
                own = partial(own, chain="half of L", rows=lambda: IndexSet(
                    L.as_array()[len(L) - len(L) // 2:], L.dimension))
        else:
            # sign orbits of distinct nonnegative indices are disjoint, so
            # |M(L)| is the sum of 2^|k|_0 over L; M(L) is centrally
            # symmetric
            size, kappa = L.sum_two_pow(), 2
            oracle = lambda lattice: (lattice.orbit_dual_check(L), None)
        size -= 1 if L.has_zero() else 0  # 0 in M(L) iff 0 in L
        return own(max(size // kappa + 1, L.max_abs()), oracle=oracle)
    if task.space == "fourier":
        # Fourier reconstruction stays on pairs of L
        A = difference_set(L)
        return own(max((len(A) + 1) // 2, two_max), oracle=_dual_oracle(A))
    aux = partial(_Condition, kernels.COND_NONZERO, verify=verify,
                  space="fourier", chain="L (+) M(L)")
    if task.plan == "B":
        A = sum_set(L, mirrored(L))
        return aux(max(len(A), two_max), oracle=_dual_oracle(A),
                   rows=lambda: A)
    downward = is_downward_closed(L)
    if task.plan == "C":
        # sign orbits of distinct nonnegative indices are disjoint, so
        # |M(L)| is the sum of 2^|k|_0 over L
        bound = max(len(L) * L.sum_two_pow(), two_max)
        oracle = lambda lattice: lattice.plan_c_check_naive(L)
        # the search starts at task.n, or at the prime above the bound,
        # which is odd unless the bound is 1, and escalates through odd
        # primes
        if downward and (task.n % 2 if task.n else bound > 1):
            return aux(bound, oracle=oracle, odd_n=True,
                       rows=lambda: sum_set(L, mirrored(L)))
        return own(bound, oracle=oracle)
    B = sum_set(L, L) if downward else IndexSet(
        np.abs(sum_set(L, mirrored(L)).as_array()), domain=DOMAIN_NONNEG)
    # |M(B)| is the sum of 2^|k|_0 over B, and M(B) is centrally symmetric
    return aux(max((B.sum_two_pow() + 1) // 2, two_max),
               oracle=lambda lattice: (lattice.orbit_dual_check(B), None),
               chain="|L (+) M(L)|", space=task.space, rows=lambda: B)


def required_n(task: CbcTask) -> int:
    """Smallest prime strictly above the task's CBC existence bound.

    Bounds (kappa = 2 for centrally symmetric auxiliary sets):
    integration  n > |A \\ {0}| / kappa + 1 and n > max(L);
    Fourier reconstruction n > (|L (-) L| + 1) / 2 and n > 2 max(L);
    plan A  n > (|M (+) M| + 1) / 2, plan B  n > |L (+) M|,
    plan C  n > |L| |M|, each together with n > 2 max(L).
    |M (+) M| is |M(B)| with B = |L (+) M|, the sum of 2^|k|_0 over B
    (B = L (+) L on a downward-closed L), and M (+) M is not built.
    """
    return next_prime(_condition(task).bound)


# ---------------------------------------------------------------------------
# construction

@dataclass
class StepStats:
    step: int
    strategy: str
    n_fail: int = 0
    eliminated: int = 0


@dataclass
class CbcStats:
    n_sequence: list = field(default_factory=list)
    restarts: int = 0
    switch_step: int | None = None
    steps: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_sequence": list(self.n_sequence),
            "restarts": self.restarts,
            "switch_step": self.switch_step,
            "steps": [vars(st) for st in self.steps],
        }


@dataclass(frozen=True)
class CbcResult:
    z: tuple
    n: int
    c_table: dict | None
    stats: CbcStats

    def lattice(self) -> Rank1Lattice:
        return Rank1Lattice(self.n, self.z)


class _StepFailed(Exception):
    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


def _step_counts(space: str, L: IndexSet) -> list:
    """The rows of every projection L_s in ``space`` for s = 1..d, |L_s|
    for Fourier and |M(L_s)| otherwise: the mixed switch thresholds.  L's
    rows are in lexicographic order, so the first row of every run of equal
    s-prefixes stands for an index of L_s, and its sign orbit has
    2^|k_s|_0 rows."""
    arr = L.as_array()
    first = np.zeros(len(L), dtype=bool)
    first[:1] = True
    weight = np.ones(len(L), dtype=np.int64)
    counts = []
    for s in range(L.dimension):
        first[1:] |= arr[1:, s] != arr[:-1, s]
        if space != "fourier":
            weight <<= arr[:, s] != 0
        counts.append(int(weight[first].sum()))
    return counts


class _Builder:
    """Holds the step chain of one task; reused across n escalations.

    Step s reads the rows of the projection A_s of the set the condition
    chains (:class:`_Condition`: the base set L or, for Fourier
    integration of a centrally symmetric L, its half, or the auxiliary set
    A of plans A, B and C) in the chain's space: the step-s rows of
    :func:`_step_chain`, A_s for Fourier, M(A_s) grouped by sign orbit
    otherwise, without the zero row under the nonzero condition.  A
    cosine or Chebyshev chain under the nonzero condition keeps one row of
    each pair +-r of M(A_s) = -M(A_s), the one whose first nonzero
    component is positive (``half`` of :func:`_step_chain`): r and -r have
    residues 0 together, and as elimination pairs with the zero row they
    mark the same candidate.  Plans A and B always walk their auxiliary
    sets, so the steps meet the nonzero, the distinct and the plan-C
    condition only.  No row is stored: a step-s row is a step-(s-1) row,
    its parent, extended by one component (:func:`_step_chain`), so per
    step the builder keeps ``codes[s]`` into ``values[s]``, the signed
    s-th components, ``parent[s]``, each row's parent index among the
    step-(s-1) rows, and the groups (none under the nonzero condition,
    whose check reads none).  The residues of step s
    are those of the parents plus values[codes] * z_s mod n
    (:func:`_carry`), and the parent index one past the step-(s-1) rows is
    the zero row of residue 0: the empty prefix of step 1, and under the
    nonzero condition the zero row the steps drop.  Elimination
    (:meth:`_marks`) reads its pairs off the groups: under the nonzero
    condition every row pairs with the zero row; otherwise the first row of
    each group leads, and a lead pairs with every row of another group that
    is not a lead at or before it.  On the Fourier chain of the distinct
    condition every group is one row, so every row leads, and plan C keys
    the rows by orbit.  At a prime n > 2 max|k| a brute-force step marks
    only when its first candidate fails.  The mixed switch thresholds
    count the rows of L_s in the task's space whatever the chain
    (:func:`_step_counts`).
    """

    def __init__(self, task: CbcTask, condition: _Condition):
        self.task = task
        self.condition = condition
        self.cond = code = condition.code
        L = task.base_set
        self.d = L.dimension
        self.two_max = 2 * L.max_abs()
        self.thresholds = [None] + _step_counts(task.space, L)
        self.parent = [None]
        self.codes = [None]
        self.values = [None]
        self.step_groups = [None]
        # the nonzero condition: step 0's row, and every step's zero row,
        # maps to the zero index one past the rows the step keeps
        half = code == kernels.COND_NONZERO and condition.space != "fourier"
        renumber, zero = np.zeros(1, dtype=np.int64), 0
        for parent, codes, values, groups in _step_chain(
                condition.space, condition.rows(), half):
            if code == kernels.COND_NONZERO:
                parent = renumber[parent]
                nonzero = (parent != zero) | (values != 0)[codes]
                parent, codes, groups = parent[nonzero], codes[nonzero], None
                zero = codes.shape[0]
                renumber = np.cumsum(nonzero) - 1
                renumber[~nonzero] = zero
            self.parent.append(parent)
            self.codes.append(codes)
            self.values.append(values)
            self.step_groups.append(groups)

    # -- residues along the chain -------------------------------------------

    def _terms(self, full, n: int, s: int):
        """Residues of the step-s rows under the prefix z, gathered from
        the step-(s-1) residues ``full``, and their last components, both
        mod n."""
        return full[self.parent[s]], (self.values[s] % n)[self.codes[s]]

    def _residues(self, z, n: int, s: int) -> np.ndarray:
        """Residues of the step-s rows under z[:s], followed by the zero
        row's 0 (:func:`_carry`); step 0 has the zero row alone."""
        full = np.zeros(1, dtype=np.int64)
        for t in range(1, s + 1):
            full = _carry(*self._terms(full, n, t), int(z[t - 1]) % n, n)
        return full

    # -- step condition check for a fixed candidate vector ---------------

    def check_step(self, z, n: int, s: int) -> bool:
        res = self._residues(z, n, s)[:-1]
        return bool(kernels.check_condition(res, self.step_groups[s],
                                            self.cond))

    # -- elimination for one step -----------------------------------------

    def _marks(self, prefix, n: int, s: int) -> np.ndarray:
        """Length-n mask of the candidates step s rules out, from the
        residues of its rows under the prefix z (prime n); the
        non-candidate 0 is marked too."""
        codes, values = self.codes[s], self.values[s]
        ranks = p_keys = q_keys = None
        if self.cond == kernels.COND_NONZERO:
            # the zero row: prefix 0 and last component 0
            p_prefix = p_values = np.zeros(1, dtype=np.int64)
            p_codes = np.zeros(1, dtype=np.intp)
        else:
            groups = self.step_groups[s]
            leads = groups[:-1]
            G = leads.shape[0]
            ranks = np.full(codes.shape[0], G, dtype=np.int64)
            ranks[leads] = np.arange(G)
            if self.cond == kernels.COND_PLAN_C:
                # no two rows of one orbit pair
                p_keys = np.arange(G)
                q_keys = np.repeat(p_keys, np.diff(groups))
            p_prefix, p_codes, p_values = prefix[leads], codes[leads], values
        inverses = kernels.inverse_table(p_values, values, int(n))
        bad = np.zeros(n, dtype=bool)
        bad[0] = True
        marked = kernels.mark_bad_pairs(p_prefix, p_codes, prefix, codes,
                                        inverses, int(n), bad, ranks,
                                        p_keys, q_keys)
        _log.info("step %d at n=%d: %d rows, %d x %d inverses, %d marking "
                  "pairs", s, n, codes.shape[0], *inverses.shape, marked)
        return bad

    # -- one full pass at a fixed n ---------------------------------------

    def construct_at(self, n: int):
        """One CBC pass at n; brute-force steps test one candidate and
        then read off the survivors where n is prime and n > 2 max|k|."""
        task = self.task
        eliminating = task.strategy == "elimination"
        read_off = is_prime(n) and n > self.two_max
        z = [1]
        full = self._residues(z, n, 1)
        if not kernels.check_condition(full[:-1], self.step_groups[1],
                                       self.cond):
            raise _StepFailed(1, "z_1 = 1 violates the step condition "
                                 "(n too small)")
        steps = [StepStats(1, "elimination" if eliminating
                           else "brute_force")]
        switch_step: int | None = None
        for s in range(2, self.d + 1):
            prefix, last = self._terms(full, n, s)
            bad = None
            brute_fails = 0
            if not eliminating:
                if task.strategy == "mixed":
                    max_fail = int(task.mixed_switch_factor
                                   * self.thresholds[s])
                else:
                    max_fail = n
                # one candidate, then elimination: the full walk's
                # outputs with no tuned probe length; faster on most
                # measured tasks, slower on large Fourier product sets
                probe = 0 if read_off else max_fail
                zs, n_fail = kernels.brute_force_step(
                    prefix, last, self.step_groups[s], int(n),
                    int(z[-1] + 1), int(probe), int(self.cond))
                if zs < 0 and probe < max_fail:
                    bad = self._marks(prefix, n, s)
                    zs, n_fail = _first_unmarked(bad, z[-1] + 1)
                    if n_fail > max_fail:
                        zs, n_fail = -1, max_fail + 1
                if zs > 0:
                    z.append(int(zs))
                    full = _carry(prefix, last, z[-1], n)
                    steps.append(StepStats(s, "brute_force",
                                           n_fail=int(n_fail)))
                    continue
                if task.strategy == "mixed" and n_fail > max_fail:
                    eliminating = True
                    switch_step = s
                    brute_fails = int(n_fail)
                else:
                    raise _StepFailed(s, "brute force exhausted all "
                                         "candidates")
            # elimination path (strategy, or mixed after the switch)
            if bad is None:
                bad = self._marks(prefix, n, s)
            zs = int(bad.argmin())
            if bad[zs]:
                raise _StepFailed(s, _all_eliminated(n))
            z.append(zs)
            full = _carry(prefix, last, zs, n)
            steps.append(StepStats(s, "elimination", n_fail=brute_fails,
                                   eliminated=int(np.count_nonzero(bad)) - 1))
        return z, steps, switch_step


def _all_eliminated(n: int) -> str:
    return f"all candidates eliminated ({n=})"


def _first_unmarked(bad: np.ndarray, start: int):
    """The first candidate at or after ``start`` that ``bad`` leaves,
    counted cyclically over 1..n-1, and the number of candidates the walk
    passes before it: its failure count.  (-1, n - 1) when none is left."""
    n = bad.shape[0]
    start = (start - 1) % (n - 1) + 1
    zs = start + int(bad[start:].argmin())
    if bad[zs]:
        zs = int(bad[:start].argmin())  # bad[0] is marked
        if bad[zs]:
            return -1, n - 1
    return zs, (zs - start) % (n - 1)


def cbc_construct(task: CbcTask) -> CbcResult:
    """Run the CBC construction for a task; escalates n to the next prime
    and restarts whenever a step fails, up to ``task.retry_limit`` tries.
    The oracle validates the returned lattice once, after any reduction
    of n."""
    cond = _condition(task)
    if not task.n and cond.bound >= _INT32_LIMIT - 1:
        # 2^31 - 1 is prime, so below this bound next_prime fits in 32 bits
        raise InvalidTask(f"no n above the existence bound {cond.bound} "
                          f"fits in 32 bits")
    n = task.n if task.n else next_prime(cond.bound)
    builder = _Builder(task, cond)
    what = task.goal if task.plan is None else f"plan {task.plan}"
    _log.info("%s %s: steps chain %s in the %s space, %d rows at step %d",
              task.space, what, cond.chain, cond.space,
              builder.codes[-1].shape[0], builder.d)
    stats = CbcStats()
    last_failure = None
    for _ in range(task.retry_limit):
        if n >= _INT32_LIMIT:
            raise ValueError("n must fit in 32 bits")
        stats.n_sequence.append(n)
        try:
            z, steps, switch_step = builder.construct_at(n)
            m, z = _reduce_n(builder, n, z) if task.reduce_n else (n, z)
            ok, c_table = cond.oracle(Rank1Lattice(m, z))
            if not ok:
                # cannot happen when the step checks and the verifiers are
                # sound; escalate anyway
                raise _StepFailed(builder.d, "oracle validation failed")
        except _StepFailed as exc:
            last_failure = exc
            stats.restarts += 1
            n = next_prime(n)
            continue
        stats.steps = steps
        stats.switch_step = switch_step
        _log.info("%s %s: n=%d z=%s after %d restarts", task.space, what,
                  m, ",".join(map(str, z)), stats.restarts)
        return CbcResult(tuple(z), m, c_table, stats)
    raise RetryLimitExceeded(
        f"no valid vector after {task.retry_limit} attempts; last failure: "
        f"{last_failure}")


def _reduce_n(builder: _Builder, n: int, z):
    """Walk down the primes below n for the fixed z while z mod p has no
    zero component and the last step check passes; returns the smallest
    such prime (or n) with z reduced mod it.

    The last step's rows, chained once by the builder, are those of the
    condition's chain (:class:`_Condition`), so each prime costs only the
    residues along the chain and the last step check.  A chain that holds
    the condition at odd n only leaves p = 2 to the lookup verifier.
    The verifiers match the oracles, so the caller's single oracle run
    accepts the result.
    """
    cond = builder.condition
    while True:
        p = _previous_prime(n)
        if p is None or not all(zj % p for zj in z):
            break
        if not (cond.verify(z, p).ok if cond.odd_n and p % 2 == 0
                else builder.check_step(z, p, builder.d)):
            break
        n = p
    return n, [zj % n for zj in z]


def _previous_prime(n: int):
    candidate = n - 1
    while candidate >= 2:
        if is_prime(candidate):
            return candidate
        candidate -= 1
    return None
