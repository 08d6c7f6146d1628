"""Multi-index sets and the special constructions behind every exactness
condition: mirrored sets, sum/difference sets, projections and the weighted
index-set families.

Multi-indices are plain tuples of ints; an :class:`IndexSet` stores a
deduplicated, lexicographically sorted int64 array plus a hash set for
membership.  All operations return new objects; nothing here mutates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DOMAIN_SIGNED = "signed"
DOMAIN_NONNEG = "nonneg"

LOG3_OVER_LOG2 = math.log(3.0) / math.log(2.0)

# slack when asserting the downward-closed cardinality bounds at equality
_BOUND_SLACK = 1e-9


def zero_count(k) -> int:
    """Number of nonzero entries |k|_0 of a multi-index."""
    return sum(1 for kj in k if kj != 0)


def unique_sign_changes(k) -> list[tuple[int, ...]]:
    """All unique sign changes of ``k``, the index itself first.

    Signs are forced to +1 on zero positions, so the list has exactly
    2^|k|_0 entries.  Ordering: the all-plus assignment first, then
    lexicographic over the sign patterns on the nonzero positions with
    ``+`` before ``-``.
    """
    k = tuple(int(kj) for kj in k)
    nonzero = [j for j, kj in enumerate(k) if kj != 0]
    out = []
    for signs in itertools.product((1, -1), repeat=len(nonzero)):
        row = list(k)
        for j, s in zip(nonzero, signs):
            row[j] = s * k[j]
        out.append(tuple(row))
    return out


class IndexSet:
    """Finite ordered set of multi-indices sharing one dimension.

    Parameters
    ----------
    indices : iterable of int sequences or (N, d) array
        Duplicates are removed; the stored order is lexicographic.
    dimension : int, optional
        Required only when ``indices`` is empty.
    domain : {"signed", "nonneg"}
        Ambient domain; "nonneg" rejects negative components.
    """

    __slots__ = ("_arr", "domain", "_members")

    def __init__(self, indices, dimension=None, domain=DOMAIN_SIGNED):
        if domain not in (DOMAIN_SIGNED, DOMAIN_NONNEG):
            raise ValueError(f"unknown domain {domain!r}")
        if isinstance(indices, np.ndarray):
            arr = indices.astype(np.int64, copy=True)
        else:
            arr = np.asarray([tuple(k) for k in indices], dtype=np.int64)
        if arr.size == 0:
            if dimension is None:
                raise ValueError("empty index set needs an explicit dimension")
            arr = arr.reshape(0, dimension)
        if arr.ndim != 2:
            raise ValueError("indices must all have the same length")
        if dimension is not None and arr.shape[1] != dimension:
            raise ValueError(
                f"indices have length {arr.shape[1]}, expected {dimension}")
        if arr.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if domain == DOMAIN_NONNEG and arr.size and arr.min() < 0:
            raise ValueError("negative component in a nonneg index set")
        arr = np.unique(arr, axis=0)
        arr.setflags(write=False)
        self._arr = arr
        self.domain = domain
        self._members = None

    @property
    def dimension(self) -> int:
        return self._arr.shape[1]

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._arr.tolist()))

    def as_array(self) -> np.ndarray:
        """Read-only (N, d) int64 view in lexicographic order."""
        return self._arr

    def _member_set(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(map(tuple, self._arr.tolist()))
        return self._members

    def __len__(self) -> int:
        return self._arr.shape[0]

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, k) -> bool:
        return tuple(k) in self._member_set()

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return (self.dimension == other.dimension
                and self._arr.shape == other._arr.shape
                and bool(np.array_equal(self._arr, other._arr)))

    def __hash__(self):
        return hash((self.dimension, self._arr.tobytes()))

    def __repr__(self) -> str:
        return (f"IndexSet(dim={self.dimension}, size={len(self)}, "
                f"domain={self.domain})")

    def max_abs(self) -> int:
        """max(L): the largest component magnitude, 0 for an empty set."""
        if len(self) == 0:
            return 0
        return int(np.abs(self._arr).max())

    def sum_two_pow(self) -> int:
        """Sum over the set of 2^|k|_0."""
        if len(self) == 0:
            return 0
        return int((1 << np.count_nonzero(self._arr, axis=1)).sum())

    def has_zero(self) -> bool:
        return not bool(np.all(np.any(self._arr, axis=1)))


@dataclass(frozen=True)
class WeightedSetRule:
    """One of the three weighted index-set rules of degree m.

    kind "max" keeps k with max_j k_j/beta_j <= m (anisotropic tensor
    product box), "sum" keeps sum_j k_j/beta_j <= m, and "product" keeps
    prod_j max(1, k_j/beta_j) <= m (hyperbolic-cross type).
    """

    kind: str
    betas: tuple[float, ...]
    degree: int

    def __post_init__(self):
        if self.kind not in ("max", "sum", "product"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if not self.betas:
            raise ValueError("betas must be nonempty")
        if self.betas[0] != 1.0:
            raise ValueError("first weight must equal 1")
        if any(b <= 0.0 for b in self.betas):
            raise ValueError("weights must be positive")
        if any(a < b for a, b in zip(self.betas, self.betas[1:])):
            raise ValueError("weights must be non-increasing")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")

    def beta(self, j: int) -> float:
        """Weight for coordinate j (0-based); extends past the given list
        by repeating the last weight."""
        if j < len(self.betas):
            return self.betas[j]
        return self.betas[-1]


def make_weighted_set(rule: WeightedSetRule, d: int,
                      cap: int = 10**7) -> IndexSet:
    """Enumerate the weighted index set of the rule in dimension d.

    The result is downward closed and lives in N_0^d.  Enumeration walks a
    coordinate box with pruning and aborts once more than ``cap`` indices
    were produced.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    m = rule.degree
    tol = 1e-9
    limits = [int(math.floor(rule.beta(j) * m + tol)) for j in range(d)]

    if rule.kind == "max":
        total = 1
        for lim in limits:
            total *= lim + 1
            if total > cap:
                raise ValueError(f"weighted set exceeds cap of {cap} indices")
        grid = [np.arange(lim + 1, dtype=np.int64) for lim in limits]
        arr = np.stack(np.meshgrid(*grid, indexing="ij"),
                       axis=-1).reshape(-1, d)
        return IndexSet(arr, dimension=d, domain=DOMAIN_NONNEG)

    out: list[tuple[int, ...]] = []
    index = [0] * d

    def descend(j: int, value: float):
        if j == d:
            out.append(tuple(index))
            if len(out) > cap:
                raise ValueError(f"weighted set exceeds cap of {cap} indices")
            return
        beta = rule.beta(j)
        for kj in range(limits[j] + 1):
            if rule.kind == "sum":
                new_value = value + kj / beta
            else:
                new_value = value * max(1.0, kj / beta)
            if new_value > m * (1.0 + tol):
                break
            index[j] = kj
            descend(j + 1, new_value)
        index[j] = 0

    descend(0, 0.0 if rule.kind == "sum" else 1.0)
    return IndexSet(out, dimension=d, domain=DOMAIN_NONNEG)


def mirror_expand(L: IndexSet) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated sign orbits of every index with group offsets.

    Returns (rows, group_start) where rows stacks the unique sign changes
    of each index in the order of :func:`unique_sign_changes` (set order)
    and group g occupies rows[group_start[g]:group_start[g+1]].  For an
    index with c nonzero components, row r of its group flips the i-th of
    them (0-based, from the left) when bit c-1-i of r is set.
    """
    arr = L.as_array()
    count = np.count_nonzero(arr, axis=1)
    sizes = np.left_shift(1, count, dtype=np.int64)
    group_start = np.zeros(len(L) + 1, dtype=np.int64)
    np.cumsum(sizes, out=group_start[1:])
    rows = np.repeat(arr, sizes, axis=0)
    pattern = (np.arange(group_start[-1], dtype=np.int64)
               - np.repeat(group_start[:-1], sizes))
    # the pattern bit that flips each component; zero components get one
    # too, but flipping them changes nothing
    bit = count[:, None] - np.cumsum(arr != 0, axis=1)
    for j in range(L.dimension):
        flip = ((pattern >> np.repeat(bit[:, j], sizes)) & 1).astype(bool)
        np.negative(rows[:, j], out=rows[:, j], where=flip)
    return rows, group_start


def mirrored(L: IndexSet) -> IndexSet:
    """M(L): all componentwise sign changes of all indices."""
    if len(L) == 0:
        raise ValueError("mirrored set of an empty set")
    rows, _ = mirror_expand(L)
    return IndexSet(rows, dimension=L.dimension, domain=DOMAIN_SIGNED)


def sum_set(A: IndexSet, B: IndexSet) -> IndexSet:
    """{a + b : a in A, b in B}, deduplicated."""
    if A.dimension != B.dimension:
        raise ValueError("sum of index sets of different dimension")
    a = A.as_array()
    b = B.as_array()
    pairs = (a[:, None, :] + b[None, :, :]).reshape(-1, A.dimension)
    domain = (DOMAIN_NONNEG
              if A.domain == DOMAIN_NONNEG and B.domain == DOMAIN_NONNEG
              else DOMAIN_SIGNED)
    return IndexSet(pairs, dimension=A.dimension, domain=domain)


def negated(L: IndexSet) -> IndexSet:
    return IndexSet(-L.as_array(), dimension=L.dimension,
                    domain=DOMAIN_SIGNED)


def difference_set(L: IndexSet) -> IndexSet:
    """L (-) L: all pairwise differences; centrally symmetric, contains 0."""
    if len(L) == 0:
        raise ValueError("difference set of an empty set")
    return sum_set(L, negated(L))


def project(L: IndexSet, s: int, mode: str = "full") -> IndexSet:
    """Project onto the first s coordinates by truncating every index.

    ``mode`` accepts only "full", the one projection there is.
    """
    if not 1 <= s <= L.dimension:
        raise ValueError(f"projection dimension {s} out of range")
    if mode != "full":
        raise ValueError(f"unknown projection mode {mode!r}")
    return IndexSet(L.as_array()[:, :s], dimension=s, domain=L.domain)


@dataclass(frozen=True)
class SetReport:
    """Structural facts about an index set plus downward-closed bound checks.

    ``bound_violations`` lists any failed inequality; it must stay empty
    for downward closed sets (the bounds are proven facts, so an entry signals
    an internal inconsistency, not bad input).
    """

    cardinality: int
    dimension: int
    max_abs: int
    sum_two_pow: int
    downward_closed: bool
    centrally_symmetric: bool
    fully_sign_symmetric: bool
    tensor_product: bool
    mirrored_size: int
    bound_violations: tuple[str, ...]


def is_downward_closed(L: IndexSet) -> bool:
    """True when every one-step move of a component toward zero stays in L."""
    members = L._member_set()
    for k in members:
        for j, kj in enumerate(k):
            if kj == 0:
                continue
            step = k[:j] + (kj - (1 if kj > 0 else -1),) + k[j + 1:]
            if step not in members:
                return False
    return True


def _is_tensor_product(L: IndexSet) -> bool:
    # a deduplicated set inside the bounding box equals the box iff the
    # cardinalities match
    if len(L) == 0:
        return False
    arr = L.as_array()
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    volume = 1
    for width in (hi - lo + 1).tolist():
        volume *= width
        if volume > len(L):
            return False
    return volume == len(L)


def properties(L: IndexSet) -> SetReport:
    """Classify L and, when it is downward closed, verify the cardinality
    bounds max 2^|k|_0 <= |L|, sum 2^|k|_0 <= |L|^(ln3/ln2) and
    |M(L)| <= min(2^d |L|, |L|^(ln3/ln2))."""
    card = len(L)
    down = is_downward_closed(L)
    mir_size = len(mirrored(L)) if card else 0
    sum2 = L.sum_two_pow()
    violations: list[str] = []
    if down and card:
        max2 = 1 << int(np.count_nonzero(L.as_array(), axis=1).max())
        power = float(card) ** LOG3_OVER_LOG2 + _BOUND_SLACK
        if max2 > card:
            violations.append("max 2^|k|_0 exceeds |L|")
        if sum2 > power:
            violations.append("sum 2^|k|_0 exceeds |L|^(ln3/ln2)")
        if mir_size > min((1 << L.dimension) * card, power):
            violations.append("|M(L)| exceeds min(2^d |L|, |L|^(ln3/ln2))")
    return SetReport(
        cardinality=card,
        dimension=L.dimension,
        max_abs=L.max_abs(),
        sum_two_pow=sum2,
        downward_closed=down,
        centrally_symmetric=negated(L) == L,
        # M(L) contains L, so the two are equal iff their sizes are
        fully_sign_symmetric=mir_size == card,
        tensor_product=_is_tensor_product(L),
        mirrored_size=mir_size,
        bound_violations=tuple(violations),
    )


def random_downward_closed(rng: np.random.Generator, dimension: int,
                           size: int) -> IndexSet:
    """Grow a random downward closed set in N_0^d from the origin.

    Only indices whose one-step-down neighbours are all present are ever
    added, so the result is downward closed by construction.
    """
    members = {(0,) * dimension}

    def admissible(k):
        return all(
            k[:j] + (k[j] - 1,) + k[j + 1:] in members
            for j in range(dimension) if k[j] > 0)

    frontier = {(0,) * (j) + (1,) + (0,) * (dimension - j - 1)
                for j in range(dimension)}
    while len(members) < size and frontier:
        pick = sorted(frontier)[rng.integers(len(frontier))]
        frontier.discard(pick)
        members.add(pick)
        # adding pick can only unlock its upward neighbours
        for j in range(dimension):
            up = pick[:j] + (pick[j] + 1,) + pick[j + 1:]
            if up not in members and admissible(up):
                frontier.add(up)
    return IndexSet(sorted(members), dimension=dimension,
                    domain=DOMAIN_NONNEG)


def write_indexset(L: IndexSet, path) -> None:
    """Text format: header ``dim=<d> domain=<signed|nonneg>`` then one
    whitespace-separated index per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={L.dimension} domain={L.domain}\n")
        for k in L:
            fh.write(" ".join(str(kj) for kj in k) + "\n")


def read_indexset(path) -> IndexSet:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        fields = dict(item.split("=", 1) for item in header)
        d = int(fields["dim"])
        domain = fields["domain"]
        if domain == "nonneg":
            domain = DOMAIN_NONNEG
        rows = [tuple(int(v) for v in line.split())
                for line in fh if line.strip()]
    return IndexSet(rows, dimension=d, domain=domain)
