"""Hot integer kernels behind the CBC search and the residue verifiers.

Each kernel has one vectorized numpy implementation.  All residue
arithmetic is exact 64-bit integer arithmetic: index components are reduced
mod n first, so only z and n must fit in 32 bits.

Condition codes of :func:`check_condition`, shared by the candidate search
and the step checks of the construction:

====  =========================================================
code  condition on the residues of the prepared rows
====  =========================================================
0     all residues nonzero                 (integral exactness)
1     all residues pairwise distinct       (Fourier / plan A)
2     plan C with every c_k = 1            (plan B)
3     self-aliasing allowed per group      (plan C)
====  =========================================================

Codes 2 and 3 share one check, :func:`check_plan_c`.  The one elimination
kernel, :func:`mark_bad_pairs`, serves codes 0, 1 and 3, the ones the CBC
steps meet: they differ only in which rows lead the pairs and, for plan C,
which keys a pair must not share.
"""

import numpy as np

COND_NONZERO = 0
COND_DISTINCT = 1
COND_PLAN_B = 2
COND_PLAN_C = 3


# ---------------------------------------------------------------------------
# verifier checks on precomputed residues

def _has_equal(sorted_res):
    # a neighbour compare after np.sort; np.unique on int64 is hash-based
    # and many times slower
    return bool(np.any(sorted_res[1:] == sorted_res[:-1]))


def check_plan_c(res, group_start):
    """Plain residues (the first row of each group) pairwise distinct, and
    no sign residue equal to the plain residue of another group; returns
    (ok, c), where c counts, per group, the rows hitting its own plain
    residue.  Plan B holds when also every c_k is 1."""
    ngroups = group_start.shape[0] - 1
    c = np.ones(ngroups, dtype=np.int64)
    leads = res[group_start[:-1]]
    order = np.argsort(leads, kind="stable")
    sorted_leads = leads[order]
    if _has_equal(sorted_leads):
        return False, c
    is_lead = np.zeros(res.shape[0], dtype=bool)
    is_lead[group_start[:-1]] = True
    sign_rows = np.flatnonzero(~is_lead)
    signs = res[sign_rows]
    sign_group = np.searchsorted(group_start[1:], sign_rows, side="right")
    pos = np.minimum(np.searchsorted(sorted_leads, signs), ngroups - 1)
    hit = sorted_leads[pos] == signs
    hit_group = order[pos[hit]]
    own = hit_group == sign_group[hit]
    if np.any(~own):
        return False, c
    np.add.at(c, hit_group[own], 1)
    return True, c


def check_condition(res, group_start, cond):
    """True when the residues satisfy condition ``cond``; ``group_start``
    is read by the grouped conditions (plans B and C) only."""
    if cond == COND_NONZERO:
        return not np.any(res == 0)
    if cond == COND_DISTINCT:
        return not _has_equal(np.sort(res))
    ok, c = check_plan_c(res, group_start)
    return ok and (cond == COND_PLAN_C or not np.any(c > 1))


# ---------------------------------------------------------------------------
# brute-force candidate search for one CBC step
#
# Residue of row i under candidate zs is (prefix[i] + last[i] * zs) % n with
# prefix and last already reduced mod n.  Candidates run cyclically through
# 1..n-1 starting at `start`.  Returns (zs, n_fail); zs = -1 when no
# candidate was accepted, in which case n_fail > max_fail means the search
# was capped rather than exhausted.

def brute_force_step(prefix, last, group_start, n, start, max_fail, cond):
    n_fail = 0
    for t in range(n - 1):
        zs = (start - 1 + t) % (n - 1) + 1
        if check_condition((prefix + last * zs) % n, group_start, cond):
            return zs, n_fail
        n_fail += 1
        if n_fail > max_fail:
            return -1, n_fail
    return -1, n_fail


# ---------------------------------------------------------------------------
# modular exponentiation (n prime, so inverses come from Fermat)

def _mod_pow(base, exp, n):
    result = np.ones_like(base)
    b = np.mod(base, n)
    e = exp
    while e > 0:
        if e & 1:
            result = result * b % n
        b = b * b % n
        e >>= 1
    return result


def inverse_table(p_values, q_values, n):
    """(q_values[b] - p_values[a])^-1 mod n at [a, b] for a prime n, by
    Fermat; 0 where the difference is 0 mod n."""
    beta = (q_values[None, :] - p_values[:, None]) % n
    inverses = _mod_pow(beta, n - 2, n)
    inverses[beta == 0] = 0  # 0^(n-2) is 1 at n = 2
    return inverses


# ---------------------------------------------------------------------------
# elimination kernel
#
# Every step condition fails exactly when some pair of prepared rows p, q
# with different keys gets equal residues, or, for the nonzero condition,
# when some row q gets the residue of the zero row.  For a pair whose last
# and prefix differences are both nonzero mod n that happens for the single
# candidate solving (q_last - p_last) z_s = p_prefix - q_prefix mod n.
# (A pair with both differences 0 mod n would collide for every candidate;
# it cannot occur once the prefix passes the earlier steps and n exceeds
# twice the largest index component.)
# Prefixes are the dot products with the fixed prefix z (mod n).  A step's
# last components take few distinct values, so the rows carry codes into
# them, and a pair reads the inverse of its last difference from the table
# of :func:`inverse_table` over the distinct lead and row values: one
# Fermat inverse per distinct difference, not one per pair.  Two orders of
# one pair mark the same candidate, so a row q that is itself a lead is
# paired only with the leads before it: q_lead[j] is the position among
# the leads of a row q_j that is one, and the lead count for any other
# row.  The leads p are processed in blocks so that at most PAIR_BLOCK
# pairs are held at once.

PAIR_BLOCK = 1 << 22


def mark_bad_pairs(p_prefix, p_code, q_prefix, q_code, inverses, n, bad,
                   q_lead=None, p_key=None, q_key=None):
    """Mark in ``bad`` the candidate of every pair of a lead p and a row q
    (given ``q_lead``, q no lead at or before p; given keys, q of another
    key than p), where ``inverses[p_code, q_code]`` is the inverse of the
    pair's last difference; returns the number of pairs that mark."""
    step = max(1, PAIR_BLOCK // max(1, q_prefix.shape[0]))
    marked = 0
    for lo in range(0, p_prefix.shape[0], step):
        hi = min(lo + step, p_prefix.shape[0])
        q = slice(None)
        if q_lead is not None:
            # rows before the first one any lead of the block pairs with
            later = q_lead > lo
            if not later.any():
                break
            q = slice(int(np.argmax(later)), None)
        inv = np.take(inverses[p_code[lo:hi]], q_code[q], axis=1)
        # p_prefix - q_prefix + n lies in (0, 2n): nonnegative, where
        # numpy's int64 % is about three times faster, and its product
        # with an inverse below n stays below 2^63 for n < 2^31
        gamma = (p_prefix[lo:hi, None] + n) - q_prefix[None, q]
        mask = (inv != 0) & (gamma != n)
        if p_key is not None:
            mask &= q_key[None, q] != p_key[lo:hi, None]
        if q_lead is not None:
            mask &= q_lead[None, q] > np.arange(lo, hi)[:, None]
        gamma = gamma[mask]
        bad[gamma * inv[mask] % n] = True
        marked += gamma.shape[0]
    return marked
