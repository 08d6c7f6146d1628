"""Slow reference implementations that the tests check the library against:
the sign changes of an index as tuples, dense O(n^2) transforms, the
per-index synthesis loops, the pure-Python dual-lattice and plan-C oracles,
the count of distinct tent points, the index-set algebra on tuples and the
growth of random downward-closed sets on a set frontier."""

import itertools
import math

import numpy as np

from lattice_recon import dft, zero_count


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


def dft_direct(x, direction: str = "forward") -> np.ndarray:
    """Direct O(n^2) DFT; forward is normalized by 1/n, inverse by 1."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    sign = -2j if direction == "forward" else 2j
    i = np.arange(n)
    # exp(sign pi i j / n) read at the exact residue i j mod n
    table = np.exp(sign * np.pi / n * np.arange(n))
    out = table[np.outer(i, i) % n] @ x
    return out / n if direction == "forward" else out


def dct_i(x) -> np.ndarray:
    """DCT-I of length m+1 with the lattice normalization:
    F_kappa = (1/m) (x_0/2 + sum_{i=1}^{m-1} x_i cos(pi i kappa / m)
    + (x_m / 2) cos(pi kappa))."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0] - 1
    if m < 1:
        raise ValueError("DCT-I needs at least two samples")
    kappa = np.arange(m + 1)
    out = 0.5 * x[0] + 0.5 * x[m] * np.where(kappa % 2 == 0, 1.0, -1.0)
    if m > 1:
        i = np.arange(1, m)
        # cos(pi i kappa / m) read at the exact residue i kappa mod 2m
        table = np.cos(np.pi / m * np.arange(2 * m))
        out = out + table[np.outer(kappa, i) % (2 * m)] @ x[1:m]
    return out / m


def dct_v(x) -> np.ndarray:
    """DCT-V of length m with the lattice normalization for n = 2m-1:
    F_kappa = (1/(2m-1)) (x_0 + 2 sum_{i=1}^{m-1} x_i
    cos(2 pi i kappa / (2m-1)))."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if m < 1:
        raise ValueError("DCT-V needs at least one sample")
    n = 2 * m - 1
    out = np.full(m, x[0], dtype=np.float64)
    if m > 1:
        kappa = np.arange(m)
        i = np.arange(1, m)
        # cos(2 pi i kappa / n) read at the exact residue i kappa mod n
        table = np.cos(2.0 * np.pi / n * np.arange(n))
        out = out + 2.0 * (table[np.outer(kappa, i) % n] @ x[1:])
    return out / n


def fourier_values_loop(lattice, L, coeffs) -> np.ndarray:
    """Fourier synthesis, one index at a time."""
    spectrum = np.zeros(lattice.n, dtype=np.complex128)
    for k in L:
        r = sum(kj * zj for kj, zj in zip(k, lattice.z)) % lattice.n
        spectrum[r] += coeffs.get(k, 0.0) if hasattr(coeffs, "get") \
            else coeffs[k]
    return dft(spectrum, "inverse")


def cosine_values_loop(lattice, L, coeffs) -> np.ndarray:
    """Cosine synthesis, one sign change of one index at a time."""
    n = lattice.n
    spectrum = np.zeros(n, dtype=np.float64)
    z = lattice.z
    for k in L:
        coeff = coeffs.get(k, 0.0) if hasattr(coeffs, "get") else coeffs[k]
        scaled = coeff / math.sqrt(2.0) ** zero_count(k)
        for h in unique_sign_changes(k):
            spectrum[sum(hj * zj for hj, zj in zip(h, z)) % n] += scaled
    return dft(spectrum, "inverse").real


def dual_check(lattice, A) -> bool:
    """Pure-Python dual-lattice oracle: no nonzero index of A has
    h.z = 0 mod n."""
    n = lattice.n
    z = lattice.z
    for h in A:
        if all(hj == 0 for hj in h):
            continue
        if sum(hj * zj for hj, zj in zip(h, z)) % n == 0:
            return False
    return True


def plan_c_check(lattice, L):
    """Pure-Python plan-C oracle over every ordered pair of L; returns
    (ok, c_table or None) with c_table[k] the sign changes of k aliasing
    to k itself."""
    n = lattice.n
    z = lattice.z
    dots = {}
    orbits = {}
    for k in L:
        dots[k] = sum(kj * zj for kj, zj in zip(k, z)) % n
        orbits[k] = [
            sum(hj * zj for hj, zj in zip(h, z)) % n
            for h in unique_sign_changes(k)
        ]
    for k in L:
        for kp in L:
            if k == kp:
                continue
            if dots[k] in orbits[kp]:
                return False, None
    c_table = {k: orbits[k].count(dots[k]) for k in L}
    return True, c_table


def lookup_check(condition, lattice, L):
    """(ok, visits, c_table) of a lookup verifier, one index at a time:
    ``condition`` is "nonzero" (no nonzero index of L in the dual lattice),
    "fourier" (the residues of L distinct) or plan "A", "B" or "C" on the
    sign orbits of L.  visits counts the checked rows on success and is 0
    on failure; c_table comes with plan C only."""
    n = lattice.n
    z = lattice.z

    def slot(h):
        return sum(hj * zj for hj, zj in zip(h, z)) % n

    if condition == "C":
        ok, c_table = plan_c_check(lattice, L)
        rows = sum(len(unique_sign_changes(k)) for k in L)
        return ok, rows if ok else 0, c_table
    if condition == "nonzero":
        rows = [slot(h) for h in L if any(h)]
        ok = 0 not in rows
    elif condition in ("fourier", "A"):
        rows = [slot(h) for k in L
                for h in ([k] if condition == "fourier"
                          else unique_sign_changes(k))]
        ok = len(set(rows)) == len(rows)
    else:
        plain = [slot(k) for k in L]
        signs = [slot(h) for k in L for h in unique_sign_changes(k)
                 if tuple(h) != tuple(k)]
        rows = plain + signs
        ok = len(set(plain)) == len(plain) and not set(signs) & set(plain)
    return ok, len(rows) if ok else 0, None


def unique_tent_point_count(lattice) -> int:
    """Number of distinct tent-transformed points, by exact residue
    comparison.

    Tent values of residue r and n - r coincide, so points are
    fingerprinted componentwise by min(r, n - r).  Equals
    floor(n/2 + 1) whenever gcd(n, z_j) = 1 for some j.
    """
    res = lattice.residue_matrix()
    folded = np.minimum(res, lattice.n - res)
    return int(np.unique(folded, axis=0).shape[0])


# ---------------------------------------------------------------------------
# index-set algebra on tuples

def sorted_tuples(rows) -> list:
    """Distinct rows as tuples, in lexicographic order."""
    return sorted({tuple(int(v) for v in row) for row in rows})


def sum_set_tuples(A, B) -> list:
    return sorted_tuples(tuple(x + y for x, y in zip(a, b))
                         for a in A for b in B)


def difference_set_tuples(L) -> list:
    return sorted_tuples(tuple(x - y for x, y in zip(a, b))
                         for a in L for b in L)


def project_tuples(L, s) -> list:
    return sorted_tuples(k[:s] for k in L)


def is_downward_closed_tuples(L) -> bool:
    """Every one-step move of a component toward zero stays in L."""
    members = set(map(tuple, L))
    for k in members:
        for j, kj in enumerate(k):
            if kj == 0:
                continue
            step = k[:j] + (kj - (1 if kj > 0 else -1),) + k[j + 1:]
            if step not in members:
                return False
    return True


def random_downward_closed_growth(rng, dimension, size) -> list:
    """Random downward-closed set as sorted tuples: each step sorts the
    frontier, adds its entry at ``rng.integers(len(frontier))`` and admits
    each upward neighbour whose down-neighbours are all in the set."""
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
        for j in range(dimension):
            up = pick[:j] + (pick[j] + 1,) + pick[j + 1:]
            if up not in members and admissible(up):
                frontier.add(up)
    return sorted(members)
