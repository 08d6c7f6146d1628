"""Multi-index sets and the special constructions behind every exactness
condition: mirrored sets, sum/difference sets, projections and the weighted
index-set families.

Multi-indices are plain tuples of ints.  An :class:`IndexSet` stores the
sorted, distinct int64 mixed-radix keys of its rows within the set's
bounding box, with the box offset and radices.  The first coordinate is the
most significant, so key order is the lexicographic order of the rows:
dedup is a 1-D sort, membership a binary search on the keys, and the row
array is decoded once, on first use.  Sum and difference sets add keys in
the widened box and never form the |A| |B| pair rows.  A box of more than
``KEY_LIMIT`` points is keyed by leading runs of coordinates whose boxes
fit, one int64 field per run.  All operations return new objects; nothing
here mutates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

DOMAIN_SIGNED = "signed"
DOMAIN_NONNEG = "nonneg"

LOG3_OVER_LOG2 = math.log(3.0) / math.log(2.0)

# slack when asserting the downward-closed cardinality bounds at equality
_BOUND_SLACK = 1e-9

# most points the box of one run of coordinates may hold, so that every
# key, a sum of two keys in a widened box included, fits in int64
KEY_LIMIT = 1 << 62
# largest widened box whose sum set is deduplicated with a byte bitmap,
# when the pairs are also dense in it; larger or sparser boxes take the
# blocked sort and merge
BITMAP_BYTES = 1 << 28
# pairs of keys added at once by the sum-set blocks
SUM_BLOCK = 1 << 20


def zero_count(k) -> int:
    """Number of nonzero entries |k|_0 of a multi-index."""
    return sum(1 for kj in k if kj != 0)


# ---------------------------------------------------------------------------
# mixed-radix keys
#
# A box is its offset ``lo`` and its radices ``widths`` (hi - lo + 1), as
# tuples of Python ints.  Its coordinates split greedily from the left into
# runs whose boxes hold at most KEY_LIMIT points; the key of a row in a run
# is sum_j (k_j - lo_j) * prod_{i > j in the run} widths_i.  A coordinate
# wider than KEY_LIMIT is a run of its own and keyed by its value (offset
# 0).  One run gives an int64 key array; several give a structured array
# with one int64 field per run, which numpy compares field by field.

def _bounds(arr: np.ndarray):
    if arr.shape[0] == 0:
        return (0,) * arr.shape[1], (1,) * arr.shape[1]
    lo = arr.min(axis=0).tolist()
    hi = arr.max(axis=0).tolist()
    return tuple(lo), tuple(h - l + 1 for l, h in zip(lo, hi))


def _runs(widths) -> list[tuple[int, int]]:
    runs, start, volume = [], 0, 1
    for j, w in enumerate(widths):
        volume *= w
        if volume > KEY_LIMIT and j > start:
            runs.append((start, j))
            start, volume = j, w
    runs.append((start, len(widths)))
    return runs


def _offsets(lo, widths) -> list[int]:
    return [l if w <= KEY_LIMIT else 0 for l, w in zip(lo, widths)]


def _pack(cols) -> np.ndarray:
    if len(cols) == 1:
        return cols[0]
    keys = np.empty(cols[0].shape[0],
                    dtype=[(f"r{i}", np.int64) for i in range(len(cols))])
    for name, col in zip(keys.dtype.names, cols):
        keys[name] = col
    return keys


def _columns(keys: np.ndarray) -> list[np.ndarray]:
    names = keys.dtype.names
    return [keys] if names is None else [keys[name] for name in names]


def _encode(arr: np.ndarray, offsets, widths) -> np.ndarray:
    cols = []
    for a, b in _runs(widths):
        key = arr[:, a] - offsets[a]
        for j in range(a + 1, b):
            key = key * widths[j] + (arr[:, j] - offsets[j])
        cols.append(key)
    return _pack(cols)


def _decode(keys: np.ndarray, offsets, widths) -> np.ndarray:
    arr = np.empty((keys.shape[0], len(widths)), dtype=np.int64)
    for key, (a, b) in zip(_columns(keys), _runs(widths)):
        for j in range(b - 1, a, -1):
            key, arr[:, j] = np.divmod(key, widths[j])
            arr[:, j] += offsets[j]
        arr[:, a] = key + offsets[a]
    return arr


def _first_of_equal(keys: np.ndarray) -> np.ndarray:
    """Mask of the first of every group of equal keys in sorted keys."""
    keep = np.ones(keys.shape[0], dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keep


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (np.sort orders several runs field by field;
    np.unique on int64 is hash-based and many times slower)."""
    keys = np.sort(keys)
    return keys[_first_of_equal(keys)]


def _sum_keys(ka: np.ndarray, kb: np.ndarray, volume: int) -> np.ndarray:
    """Sorted distinct ka[i] + kb[j], SUM_BLOCK pairs at a time: marked in
    a byte bitmap when the box of ``volume`` points fits BITMAP_BYTES (and
    so is keyed by one run) and the pairs are dense in it, else sorted per
    block and merged."""
    step = max(1, SUM_BLOCK // kb.shape[0])
    blocks = [slice(lo, lo + step) for lo in range(0, ka.shape[0], step)]
    # dense: the bitmap is no larger than the int64 keys of all the pairs,
    # so a sparse set in a wide box never scans or pages in a huge bitmap
    if volume <= min(BITMAP_BYTES, 8 * ka.shape[0] * kb.shape[0]):
        seen = np.zeros(volume, dtype=bool)
        for block in blocks:
            seen[(ka[block, None] + kb[None, :]).ravel()] = True
        return np.flatnonzero(seen)
    parts = []
    for block in blocks:
        part = _unique(_pack([(a[block, None] + b[None, :]).ravel() for a, b
                              in zip(_columns(ka), _columns(kb))]))
        # merge parts of similar size, so each key is merged O(log) times
        while parts and parts[-1].shape[0] <= part.shape[0]:
            part = _unique(np.concatenate((parts.pop(), part)))
        parts.append(part)
    return parts[0] if len(parts) == 1 else _unique(np.concatenate(parts))


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

    __slots__ = ("_keys", "_lo", "_widths", "_arr", "domain")

    def __init__(self, indices, dimension=None, domain=DOMAIN_SIGNED):
        if domain not in (DOMAIN_SIGNED, DOMAIN_NONNEG):
            raise ValueError(f"unknown domain {domain!r}")
        if isinstance(indices, np.ndarray):
            arr = indices.astype(np.int64, copy=False)
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
        lo, widths = _bounds(arr)
        self._init(_unique(_encode(arr, _offsets(lo, widths), widths)),
                   lo, widths, domain)

    def _init(self, keys, lo, widths, domain):
        keys.setflags(write=False)
        self._keys = keys
        self._lo = lo
        self._widths = widths
        self._arr = None
        self.domain = domain

    @classmethod
    def _from_keys(cls, keys, lo, widths, domain) -> "IndexSet":
        """Set of the sorted distinct keys in the tight box (lo, widths)."""
        out = cls.__new__(cls)
        out._init(keys, lo, widths, domain)
        return out

    @property
    def dimension(self) -> int:
        return len(self._widths)

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.as_array().tolist()))

    def as_array(self) -> np.ndarray:
        """Read-only (N, d) int64 array in lexicographic order, decoded
        from the keys on the first call."""
        if self._arr is None:
            arr = _decode(self._keys, _offsets(self._lo, self._widths),
                          self._widths)
            arr.setflags(write=False)
            self._arr = arr
        return self._arr

    def contains_rows(self, rows) -> np.ndarray:
        """Membership of every row of an (m, d') integer array, by binary
        search on the keys; rows of another length d' are not members.
        A nonempty query of another shape, such as one flat row, raises
        ValueError."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and rows.ndim != 2:
            raise ValueError(f"contains_rows expects an (m, d) array of "
                             f"rows, got shape {rows.shape}")
        if rows.size == 0 or rows.shape[1] != self.dimension:
            return np.zeros(len(rows), dtype=bool)
        hi = [l + w - 1 for l, w in zip(self._lo, self._widths)]
        inside = np.flatnonzero(np.all((rows >= self._lo) & (rows <= hi),
                                       axis=1))
        query = _encode(rows[inside], _offsets(self._lo, self._widths),
                        self._widths)
        pos = np.searchsorted(self._keys, query)
        hit = pos < self._keys.shape[0]
        found = np.zeros(rows.shape[0], dtype=bool)
        found[inside[hit]] = self._keys[pos[hit]] == query[hit]
        return found

    def __len__(self) -> int:
        return self._keys.shape[0]

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, k) -> bool:
        return bool(self.contains_rows([tuple(k)])[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        # boxes are tight, so equal sets have equal boxes and keys
        return (self._lo == other._lo and self._widths == other._widths
                and bool(np.array_equal(self._keys, other._keys)))

    def __hash__(self):
        return hash((self._lo, self._widths, self._keys.tobytes()))

    def __repr__(self) -> str:
        return (f"IndexSet(dim={self.dimension}, size={len(self)}, "
                f"domain={self.domain})")

    def max_abs(self) -> int:
        """max(L): the largest component magnitude, 0 for an empty set."""
        return max(max(abs(l), abs(l + w - 1))
                   for l, w in zip(self._lo, self._widths))

    def sum_two_pow(self) -> int:
        """Sum over the set of 2^|k|_0."""
        if len(self) == 0:
            return 0
        return int((1 << np.count_nonzero(self.as_array(), axis=1)).sum())

    def has_zero(self) -> bool:
        return (0,) * self.dimension in self


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

    The result is downward closed and lives in N_0^d.  Int64 prefix
    columns grow one coordinate at a time, k_j over 0..floor(beta_j m +
    1e-9), keeping a prefix while the rule's value stays within
    m (1 + 1e-9); "max" keeps the box.  A prefix never outnumbers its
    completions (k_j = 0 keeps the value), so the count is checked against
    ``cap`` as it grows: an over-cap rule raises before it allocates more.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    m = rule.degree
    tol = 1e-9
    columns = []
    values = np.array([0.0 if rule.kind == "sum" else 1.0])
    for j in range(d):
        beta = rule.beta(j)
        alive = np.arange(len(values))
        parents, kept = [], []
        for kj in range(int(math.floor(beta * m + tol)) + 1):
            # the value never falls as k_j grows, so the prefixes kept at
            # k_j are among those kept at k_j - 1
            value = values[alive]
            if rule.kind == "sum":
                value = value + kj / beta
            elif rule.kind == "product":
                value = value * max(1.0, kj / beta)
            keep = value <= m * (1.0 + tol)
            alive = alive[keep]
            parents.append(alive)
            kept.append(value[keep])
            if sum(map(len, parents)) > cap:
                raise ValueError(f"weighted set exceeds cap of {cap} indices")
        sizes = [len(p) for p in parents]
        parents = np.concatenate(parents)
        columns = [c[parents] for c in columns]
        columns.append(np.repeat(np.arange(len(sizes)), sizes))
        values = np.concatenate(kept)
    return IndexSet(np.column_stack(columns), dimension=d,
                    domain=DOMAIN_NONNEG)


def mirror_expand(L: IndexSet) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated sign orbits of every index with group offsets.

    Returns (rows, group_start) where rows stacks the 2^|k|_0 unique sign
    changes of each index k (set order) and group g occupies
    rows[group_start[g]:group_start[g+1]].  For an index with c nonzero
    components, row r of its group flips the i-th of them (0-based, from
    the left) when bit c-1-i of r is set.
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
        flip = (pattern >> np.repeat(bit[:, j], sizes)) & 1
        # a sign factor, not np.negative(..., where=flip): on numpy 2.4.6
        # the masked ufunc misreads a column view whose row stride in
        # elements equals the itemsize (int64 rows of 8 columns)
        rows[:, j] *= 1 - 2 * flip
    return rows, group_start


def mirrored(L: IndexSet) -> IndexSet:
    """M(L): all componentwise sign changes of all indices."""
    if len(L) == 0:
        raise ValueError("mirrored set of an empty set")
    rows, _ = mirror_expand(L)
    return IndexSet(rows, dimension=L.dimension, domain=DOMAIN_SIGNED)


def sum_set(A: IndexSet, B: IndexSet) -> IndexSet:
    """{a + b : a in A, b in B}, deduplicated.

    Both sets are keyed in the widened box with offset lo_A + lo_B and
    radices w_A + w_B - 1, where key(a + b) = key(a) + key(b).
    """
    if A.dimension != B.dimension:
        raise ValueError("sum of index sets of different dimension")
    domain = (DOMAIN_NONNEG
              if A.domain == DOMAIN_NONNEG and B.domain == DOMAIN_NONNEG
              else DOMAIN_SIGNED)
    if len(A) == 0 or len(B) == 0:
        return IndexSet([], dimension=A.dimension, domain=domain)
    lo = tuple(la + lb for la, lb in zip(A._lo, B._lo))
    widths = tuple(wa + wb - 1 for wa, wb in zip(A._widths, B._widths))
    ka, kb = (_encode(X.as_array(), _offsets(X._lo, widths), widths)
              for X in (A, B))
    return IndexSet._from_keys(_sum_keys(ka, kb, math.prod(widths)),
                               lo, widths, domain)


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

    The keys of the first s coordinates are leading digits of the keys, so
    the projected keys come out sorted and need no sort to deduplicate.
    ``mode`` accepts only "full", the one projection there is.
    """
    if not 1 <= s <= L.dimension:
        raise ValueError(f"projection dimension {s} out of range")
    if mode != "full":
        raise ValueError(f"unknown projection mode {mode!r}")
    cols = []
    for key, (a, b) in zip(_columns(L._keys), _runs(L._widths)):
        if a >= s:
            break
        cols.append(key // math.prod(L._widths[s:b]) if b > s else key)
    keys = _pack(cols)
    return IndexSet._from_keys(keys[_first_of_equal(keys)], L._lo[:s],
                               L._widths[:s], L.domain)


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
    arr = L.as_array()
    for j in range(L.dimension):
        steps = arr[arr[:, j] != 0]
        steps[:, j] -= np.sign(steps[:, j])
        if not L.contains_rows(steps).all():
            return False
    return True


def _is_tensor_product(L: IndexSet) -> bool:
    # a deduplicated set inside its bounding box equals the box iff the
    # cardinalities match
    return len(L) > 0 and math.prod(L._widths) == len(L)


def properties(L: IndexSet) -> SetReport:
    """Classify L and, when it is downward closed, verify the cardinality
    bounds max 2^|k|_0 <= |L|, sum 2^|k|_0 <= |L|^(ln3/ln2) and
    |M(L)| <= min(2^d |L|, |L|^(ln3/ln2))."""
    card = len(L)
    down = is_downward_closed(L)
    # M(L) = M(|L|), and distinct nonneg indices have disjoint orbits
    mir_size = IndexSet(np.abs(L.as_array()), dimension=L.dimension
                        ).sum_two_pow()
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

    Each step moves the entry at ``rng.integers(len(frontier))`` of the
    sorted frontier into the set.  An index joins the frontier when its
    down-neighbours in the set number its nonzero components, so the
    result is downward closed by construction.
    """
    zero = (0,) * dimension
    members = [zero]
    frontier = sorted(zero[:j] + (1,) + zero[j + 1:] for j in range(dimension))
    below = {}
    while len(members) < size and frontier:
        pick = frontier.pop(rng.integers(len(frontier)))
        members.append(pick)
        # adding pick can only unlock its upward neighbours
        for j in range(dimension):
            up = pick[:j] + (pick[j] + 1,) + pick[j + 1:]
            below[up] = below.get(up, 0) + 1
            if below[up] == zero_count(up):
                bisect.insort(frontier, up)
    return IndexSet(members, dimension=dimension, domain=DOMAIN_NONNEG)


def write_indexset(L: IndexSet, path) -> None:
    """Text format: header ``dim=<d> domain=<signed|nonneg>`` then one
    whitespace-separated index per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={L.dimension} domain={L.domain}\n")
        for k in L:
            fh.write(" ".join(str(kj) for kj in k) + "\n")


def header_fields(line: str, *keys: str) -> list[str]:
    """The values of ``keys`` in a ``key=value ...`` header line of a file;
    ValueError names the first key the line lacks or leaves empty."""
    fields = dict(item.partition("=")[::2] for item in line.split())
    for key in keys:
        if not fields.get(key):
            raise ValueError(f"header {line.strip()!r} lacks key {key!r}")
    return [fields[key] for key in keys]


def read_indexset(path) -> IndexSet:
    with open(path, "r", encoding="ascii") as fh:
        d, domain = header_fields(fh.readline(), "dim", "domain")
        rows = [tuple(int(v) for v in line.split())
                for line in fh if line.strip()]
    return IndexSet(rows, dimension=int(d), domain=domain)
