"""Rank-1 lattices: point generation, tent/cosine point transforms,
equal-weight cubature and the naive exactness checks.

The exactness checks (`character`, `dual_check`, `orbit_dual_check`,
`plan_c_check_naive`) are deliberately independent from the accelerated
verifiers and the CBC steps of :mod:`lattice_recon.cbc` and serve as the
oracles the fast paths are tested against: `character` runs in pure Python
integer arithmetic, the others in blocked int64 numpy arithmetic of their
own.  `dual_check` reads an auxiliary set row by row; `orbit_dual_check`
(cosine and Chebyshev integration) and `plan_c_check_naive` build half of
each sign orbit of a base set themselves, one coordinate at a time,
sharing no code with :func:`lattice_recon.indexset.mirror_expand`.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .indexset import IndexSet, header_fields

_INT32_LIMIT = 2**31
# rows of the auxiliary set checked at once by the dual-lattice oracle, sign
# changes built at once by the orbit oracle, and residue comparisons made at
# once by the plan-C oracle
ORACLE_BLOCK = 1 << 14
# points at which cubature and sampling evaluate a function at once: on the
# recon-large-n lattice (n = 1,939,901, d = 4) sampling took 22 / 26 ms
# (tent / cosine-of-tent points) in blocks of 16,384, 26 / 26 ms in blocks
# of 65,536 and 39 / 49 ms in one block (45 / 93, 60 / 110 and 82 / 125 ms
# with a division per residue and a cos per point)
POINT_BLOCK = 1 << 14
POINT_BITS = 7  # points split as i = q * 2^7 + s, whatever the block
ANGLE_CHUNK = 1 << 16  # entries :func:`angle_sums` writes at once
_QUARTER_TURNS = np.array([1, 1j, -1, -1j, 1])  # i^t, t = 0 ... 4


class TransformKind(str, Enum):
    """Point transform applied to the raw lattice points."""

    IDENTITY = "identity"
    TENT = "tent"
    COSINE_OF_TENT = "cosine_of_tent"


def tent(x):
    """Tent transform 1 - |2x - 1|, componentwise."""
    return 1.0 - np.abs(2.0 * np.asarray(x) - 1.0)


class Rank1Lattice:
    """Rank-1 lattice with n points and generating vector z.

    Components of z are stored reduced mod n and must be nonzero
    residues.  Points are generated on demand; nothing of size n is kept
    on the instance.
    """

    __slots__ = ("n", "z")

    def __init__(self, n: int, z):
        n = int(n)
        if n < 2:
            raise ValueError("need at least two lattice points")
        if n >= _INT32_LIMIT:
            raise ValueError("n must fit in 32 bits")
        z = tuple(int(zj) % n for zj in z)
        if not z:
            raise ValueError("generating vector must be nonempty")
        if any(zj == 0 for zj in z):
            raise ValueError("generating vector component divisible by n")
        self.n = n
        self.z = z

    @property
    def dimension(self) -> int:
        return len(self.z)

    def __repr__(self) -> str:
        return f"Rank1Lattice(n={self.n}, z={self.z})"

    def __eq__(self, other):
        if not isinstance(other, Rank1Lattice):
            return NotImplemented
        return self.n == other.n and self.z == other.z

    def __hash__(self):
        return hash((self.n, self.z))

    # -- points ---------------------------------------------------------

    def residue_matrix(self, start: int = 0, stop: int | None = None):
        """Integer residues (i * z mod n) for i in [start, stop)."""
        return angle_sums(self.n, self.z, start,
                          self.n if stop is None else stop)

    def points(self, kind: TransformKind = TransformKind.IDENTITY,
               start: int = 0, stop: int | None = None) -> np.ndarray:
        """Transformed lattice points as a ((stop-start), d) float array."""
        kind, n = TransformKind(kind), self.n
        if kind == TransformKind.COSINE_OF_TENT:
            # cos(pi * tent(i z / n)) equals cos(2 pi i z / n)
            return angle_sums(n, self.z, start, n if stop is None else stop,
                              "cos")
        res = self.residue_matrix(start, stop)
        if kind == TransformKind.TENT:
            # tent(r/n) = (n - |2r - n|) / n: r and n - r give equal floats
            res *= 2
            np.subtract(n, np.abs(np.subtract(res, n, out=res), out=res),
                        out=res)
        return res / float(n)

    # -- cubature -------------------------------------------------------

    def evaluate(self, f, kind: TransformKind, stop: int,
                 size: int | None = None) -> np.ndarray:
        """The vector of f at the points i < stop, written block by block
        into the head of a vector of ``size`` >= stop entries (stop if not
        given): ``f`` gets (m, d) arrays of at most POINT_BLOCK points and
        returns m values.  With stop = 0, f is not called and the vector
        is float."""
        values = None
        for lo in range(0, stop, POINT_BLOCK):
            hi = min(lo + POINT_BLOCK, stop)
            block = np.asarray(f(self.points(kind, lo, hi)))
            if values is None:
                values = np.empty(size or stop, dtype=block.dtype)
            values[lo:hi] = block
        return np.empty(size or stop) if values is None else values

    def cubature(self, f, kind: TransformKind = TransformKind.IDENTITY):
        """Equal-weight average (1/n) sum_i f(point_i), with ``f`` as in
        :meth:`evaluate`.

        The tent and cosine-of-tent points i and n - i coincide, so for
        those kinds only the floor(n/2)+1 distinct points are evaluated,
        with weights 1/n at the ends and 2/n in between.
        """
        kind = TransformKind(kind)
        n = self.n
        if kind == TransformKind.IDENTITY:
            return np.sum(self.evaluate(f, kind, n)) / n
        values = self.evaluate(f, kind, n // 2 + 1)
        ends = values[0] + (values[-1] if n % 2 == 0 else 0)
        return (2 * np.sum(values) - ends) / n

    # -- exact integer checks (oracle grade) -----------------------------

    def character(self, h) -> int:
        """1 if h.z = 0 mod n else 0; the value of Q_n on the h-th
        exponential, computed exactly."""
        h = tuple(int(hj) for hj in h)
        if len(h) != self.dimension:
            raise ValueError("index dimension mismatch")
        dot = sum(hj * zj for hj, zj in zip(h, self.z))
        return 1 if dot % self.n == 0 else 0

    def dual_check(self, A: IndexSet) -> bool:
        """True iff no nonzero index of A lies in the dual lattice.

        Evaluates h.z mod n over A in blocks of ORACLE_BLOCK rows, in int64
        with a mod-n reduction per term; this is the oracle every fast
        verifier is tested against, so it keeps its own arithmetic.
        """
        if A.dimension != self.dimension:
            raise ValueError("index set dimension mismatch")
        n = self.n
        z = np.asarray(self.z, dtype=np.int64)
        arr = A.as_array()
        for lo in range(0, arr.shape[0], ORACLE_BLOCK):
            h = arr[lo:lo + ORACLE_BLOCK]
            dots = ((h % n) * z % n).sum(axis=1) % n
            if np.any((dots == 0) & np.any(h != 0, axis=1)):
                return False
        return True

    def orbit_dual_check(self, L: IndexSet) -> bool:
        """True iff no nonzero sign change of an index of L lies in the
        dual lattice: the dual-lattice check of M(L), without M(L).

        h and -h lie in the dual lattice together, so only the half orbits
        of :func:`_orbit_residues` are built, from L one coordinate at a
        time, over blocks of L whose half orbits hold about ORACLE_BLOCK
        residues.
        """
        if L.dimension != self.dimension:
            raise ValueError("index set dimension mismatch")
        n = self.n
        arr = L.as_array()
        arr = arr[np.any(arr != 0, axis=1)]  # the zero orbit is {0}
        terms = (arr % n) * np.asarray(self.z, dtype=np.int64) % n
        ends = np.cumsum(1 << (np.count_nonzero(arr, axis=1) - 1))
        lo = 0
        while lo < arr.shape[0]:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + ORACLE_BLOCK,
                                                 side="right")))
            orbit, _ = _orbit_residues(arr[lo:hi], terms[lo:hi], n)
            if not orbit.all():
                return False
            lo = hi
        return True

    def plan_c_check_naive(self, L: IndexSet):
        """Pairwise check of the self-aliasing reconstruction condition;
        returns (ok, c_table or None).

        Requires sigma(k').z != k.z mod n for all k != k' in L and all
        sign changes sigma; on success c_table[k] counts the sign changes
        of k aliasing to k itself.  The half orbits are built one
        coordinate at a time (:func:`_orbit_residues`) and completed by
        the residues n - r of the nonzero indices, and every plain residue
        is compared with every orbit residue, about ORACLE_BLOCK
        comparisons at once.
        """
        if L.dimension != self.dimension:
            raise ValueError("index set dimension mismatch")
        n = self.n
        arr = L.as_array()
        terms = (arr % n) * np.asarray(self.z, dtype=np.int64) % n
        plain = terms.sum(axis=1) % n
        orbit, owner = _orbit_residues(arr, terms, n)
        # the zero index is its own negative
        mirror = np.any(arr != 0, axis=1)[owner]
        orbit = np.concatenate((orbit, (n - orbit[mirror]) % n))
        owner = np.concatenate((owner, owner[mirror]))
        step = max(1, ORACLE_BLOCK // max(1, orbit.shape[0]))
        for lo in range(0, arr.shape[0], step):
            k = np.arange(lo, min(lo + step, arr.shape[0]))
            if np.any((plain[k, None] == orbit[None, :])
                      & (k[:, None] != owner[None, :])):
                return False, None
        c = np.bincount(owner[orbit == plain[owner]],
                        minlength=arr.shape[0])
        return True, {k: int(ck) for k, ck in zip(L, c)}

    # -- file format ------------------------------------------------------

    def to_line(self) -> str:
        return f"n={self.n} z=" + ",".join(str(zj) for zj in self.z)


def _orbit_residues(arr: np.ndarray, terms: np.ndarray, n: int):
    """Residues sigma(k).z mod n of the sign changes of the rows k of
    ``arr`` whose first nonzero component is positive, from their terms
    k_j z_j mod n, built one coordinate at a time: the term of a nonzero
    component after the first is added with both signs, any other term
    once.
    Returns (orbit, owner), owner the row of arr each residue belongs to;
    every nonzero row contributes 2^(|k|_0 - 1) residues, the zero row 1.
    """
    nonzero = arr != 0
    both = nonzero & (np.cumsum(nonzero, axis=1) > 1)
    orbit = np.zeros(arr.shape[0], dtype=np.int64)
    owner = np.arange(arr.shape[0])
    for j in range(arr.shape[1]):
        flip = both[:, j][owner]
        t = terms[:, j][owner]
        orbit = np.concatenate(((orbit + t) % n, (orbit - t)[flip] % n))
        owner = np.concatenate((owner, owner[flip]))
    return orbit, owner


def angle_sums(n: int, mults, start: int, stop: int, part: str = "residues"):
    """Rows start <= i < stop of r = i * m mod n, one column per m in
    ``mults`` (each in [0, n)): int64 residues ("residues") or the real
    part ("cos") of the roots e^(2 pi i r / n), C-ordered.

    By angle addition over i = q * 2^POINT_BITS + s, from exact int64
    coarse residues q * 2^POINT_BITS * m mod n and fine residues s * m mod
    n (products below 2^62 for rows and n below 2^31): a residue is their
    sum less n where it reaches n, a root the product of their roots
    (:func:`_quarter_roots`); no entry takes a division, cos or exp.  Every
    entry is made in one numpy loop over table entries whatever the run,
    so every split of [start, stop) gives the same numbers bit for bit;
    runs of about ANGLE_CHUNK entries keep the one temporary in cache.
    """
    first, coarse, fine = _split_residues(n, mults, start, stop,
                                          1 << POINT_BITS)
    width, fine = fine.shape[0], fine.ravel()
    if part == "cos":
        coarse, fine = _quarter_roots(coarse, n), _quarter_roots(fine, n)
    out = np.empty((coarse.shape[0] * width, coarse.shape[1]),
                   coarse.real.dtype)
    step = max(1, ANGLE_CHUNK // max(1, fine.size))
    for lo in range(0, coarse.shape[0], step):
        k = min(step, coarse.shape[0] - lo)
        # rows q * 2^POINT_BITS + s as (q, s * len(mults) + column)
        run = out[lo * width:(lo + k) * width].reshape(k, fine.size)
        tiled = np.repeat(coarse[lo:lo + k], width, 0).reshape(run.shape)
        if part == "residues":
            np.add(tiled, fine, out=run)
            # sums are below 2n: as unsigned, sum - n exceeds sum iff sum < n
            wrap = run.view(np.uint64)
            np.subtract(run, n, out=tiled)
            np.minimum(wrap, tiled.view(np.uint64), out=wrap)
            continue
        tiled *= fine
        run[...] = tiled.real
    return out[start - first * width:stop - first * width]


def root_runs(n: int, mults, stop: int, width: int, scale=1.0):
    """``scale`` (a number or one per column) times the cos and sin of
    2 pi r / n, r = i * m mod n, one column per m in ``mults`` (each in
    [0, n)), over rows 0 <= i < stop in runs of ``width`` rows (any width
    >= 1; width >= stop gives one run of all rows): yields the tables of
    rows k * width <= i < min((k + 1) * width, stop) for k = 0, 1, ..., as
    the transposed views of C-ordered (column, row) tables, which BLAS
    products read without a copy.  Entries lie within 1e-15 of scale *
    e^(2 pi i r / n).

    By angle addition over i = q * s_count + s, with s_count a power of
    two about sqrt(stop), the largest that divides width if there are
    several runs, from the exact residues of :func:`_split_residues`:
    cos(a + b) = [cos a, -sin a] . [cos b, sin b] and sin(a + b) =
    [sin a, cos a] . [cos b, sin b].  The rotations of all q and the roots
    of all s are made at once by :func:`_quarter_roots`, each run is one
    batched real product of K = 2 per column of its rotations by those
    roots, and every run is written into one buffer, so a run's views hold
    until the next is asked for."""
    fine = 1 << ((stop - 1).bit_length() // 2)
    if width < stop:
        fine = math.gcd(width, fine)
    per = -(-min(width, stop) // fine)
    _, coarse, residues = _split_residues(
        n, mults, 0, -(-stop // width) * per * fine, fine)
    # per column the rows [cos a, -sin a] over q, then [sin a, cos a]
    roots = _quarter_roots(coarse, n).T
    scale = np.asarray(scale)[..., None]
    rotations = np.empty((coarse.shape[1], 2, coarse.shape[0], 2))
    np.multiply(roots.real, scale, out=rotations[:, 0, :, 0])
    np.multiply(roots.imag, scale, out=rotations[:, 1, :, 0])
    rotations[:, 1, :, 1] = rotations[:, 0, :, 0]
    np.negative(rotations[:, 1, :, 0], out=rotations[:, 0, :, 1])
    roots = _quarter_roots(residues, n).T
    pairs = np.stack((roots.real, roots.imag), 1)  # (column, 2, s)
    part = np.empty(rotations.shape[:2] + (per, 2))
    run = np.empty((part.shape[0], 2 * per, fine))
    tables = run.reshape(part.shape[0], 2, per * fine)
    for k, first in enumerate(range(0, stop, width)):
        part[...] = rotations[:, :, k * per:(k + 1) * per]
        np.matmul(part.reshape(-1, 2 * per, 2), pairs, out=run)
        rows = min(width, stop - first)
        yield tables[:, 0, :rows].T, tables[:, 1, :rows].T


def _split_residues(n: int, mults, start: int, stop: int, width: int):
    """(first, coarse, fine) of rows i = q * width + s in [start, stop):
    q from first = start // width, the int64 residues q * width * m mod n
    as (q, column) and s * m mod n, s < width, as (s, column)."""
    mults = np.asarray(mults, dtype=np.int64)
    q = np.arange(start // width, (stop - 1) // width + 1, dtype=np.int64)
    return (start // width, (q * width)[:, None] * mults % n,
            np.arange(width)[:, None] * mults % n)


def _quarter_roots(residues: np.ndarray, n: int) -> np.ndarray:
    """e^(2 pi i r / n) at residues 0 <= r < n, turned by t quarter turns
    from the angle pi u / (2n), with t = round(4r / n) and the rest
    u = 4r - t n, |u| <= n/2, taken exactly in integers: the angle left is
    at most pi/4, so it carries about a quarter of the rounding of
    2 pi r / n.  A multiple of i is exact in either part."""
    turns = (8 * residues + n) // (2 * n)
    angle = 0.5 * np.pi / n * (4 * residues - turns * n)
    roots = np.empty(angle.shape, np.complex128)
    np.cos(angle, out=roots.real)
    np.sin(angle, out=roots.imag)
    roots *= _QUARTER_TURNS[turns]
    return roots


def lattice_from_line(line: str) -> Rank1Lattice:
    n, z = header_fields(line, "n", "z")
    return Rank1Lattice(int(n), [int(v) for v in z.split(",")])


def write_lattice(L: Rank1Lattice, path, c_table: dict | None = None) -> None:
    """Single-line lattice format, optionally followed by plan-C ``c:``
    lines ``c: <index components> <c_k>``, which show the counts; the maps
    count them on the slots and read no table."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(L.to_line() + "\n")
        if c_table:
            for k in sorted(c_table):
                comps = " ".join(str(kj) for kj in k)
                fh.write(f"c: {comps} {c_table[k]}\n")


def read_lattice(path) -> tuple[Rank1Lattice, dict | None]:
    with open(path, "r", encoding="ascii") as fh:
        lattice = lattice_from_line(fh.readline())
        c_table = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("c:"):
                raise ValueError(f"unexpected line in lattice file: {line!r}")
            parts = line[2:].split()
            c_table[tuple(int(v) for v in parts[:-1])] = int(parts[-1])
    return lattice, (c_table or None)
