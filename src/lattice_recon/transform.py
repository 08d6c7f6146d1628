"""Fast maps between function values at (transformed) lattice points and
series coefficients.

Both maps are one length-n DFT read or written at a few spectrum slots:
the rows of index k (k itself for Fourier, its sign orbit M(k) for cosine
and Chebyshev) sit in slots (h.z mod n), and the maps touch only those.
:func:`lattice_recon.cbc.slot_residues` computes the slots along the
chain of projections the CBC steps read, as the lookup verifiers do.
:func:`coeffs_from_values` and :func:`values_from_coeffs` have one body
each for the three spaces; the per-space functions bind them.

Each map takes one of two routes to the slots it uses, by the rule of
:func:`_direct_pays` on n and the number of distinct slots:

* :func:`dft`, numpy's FFT (pocketfft, O(n log n) for every n, primes
  included) with the lattice normalization, over all n slots;
* in the cosine and Chebyshev spaces, the blocked direct DFT
  (:func:`_spectrum_direct`, :func:`_values_direct`), which evaluates only
  the used slots.  There values and spectrum are real: the forward map
  reads Re F, which is even in kappa, and synthesis returns the real part,
  which is even in i.  So it works on one slot of each (kappa, n - kappa)
  pair and on the m = n/2 + 1 points j <= n/2 only: the forward map adds
  f_(n-j) onto f_j, synthesis mirrors.  With the points in centred blocks
  j = a*W + b, -h <= b <= h, W = 2h + 1 about sqrt(m), the cosine of
  (a*W + b) kappa splits into a part even and a part odd in b, so each map
  is two real BLAS matrix products over 0 <= b <= h, with the cos and
  with the sin factors over (b, slot), and a weighting by the cos and sin
  factors over (a, slot), all of exact integer residues.  Its cost is
  about m * slots / 2 multiply-adds per product.  A map works on one block
  of slots at a time and, within it, on one run of rows a at a time: the
  (b, slot) tables are made once per block, the (a, slot) tables and the
  products once per run.  Neither map keeps an array of the m points
  beside its input and output: synthesis sums its products in scratch
  inside its output buffer, the forward map folds one run of input rows
  into a run buffer.  With 8n the bytes of the n-vector, at n = 1,000,003
  and 2 sqrt(n) slot pairs synthesis peaks at 1.47 x 8n, its output
  included, and the forward map at 0.81 x 8n (tracemalloc), against 5.9 x
  and 6.8 x 8n with the tables of all slots at once.

Fourier maps always take the FFT.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import kernels
from . import lattice as lattice_module
from .cbc import _PLAN_CODE, PLANS, slot_residues
from .indexset import IndexSet
from .lattice import Rank1Lattice, TransformKind, angle_sums, root_runs

_log = logging.getLogger(__name__)

# slots per block of the blocked direct DFT, and table entries per run of
# rows a: a block's (b, slot) tables take about sqrt(m) entries per slot,
# and each run makes (a, slot) tables of RUN_ENTRIES // block rows,
# rounded down to a power of two (see _run_rows).  At n = 1,000,003 with 2,000 slot pairs synthesis peaks at
# 1.47 / 1.50 / 1.65 x 8n for blocks of 256 / 384 / 512 slots, and the
# forward map at 0.76 / 0.66 / 0.81 x 8n.  Each forward block folds the
# input rows once more: on the recon-large-n forward map (n = 1,939,901,
# 504 slot pairs) one block of 512 took 24.7 ms against 26.8 ms for two of
# 256.  Synthesis there (1,921 slot pairs) took 77.5 ms in blocks of 256
# with runs of 256 rows, 76 ms in blocks of 512 with runs of 128 (over the
# memory above) and 81-83 ms in blocks of 384 (CPU time, medians of 15,
# BLAS at one thread).  Shorter runs repack the (b, slot) tables in more
# and smaller BLAS products.
SYNTHESIS_SLOTS = 256
FORWARD_SLOTS = 512
RUN_ENTRIES = 1 << 16


class AliasingDetected(RuntimeError):
    """The lattice fails the reconstruction condition for this index set."""


class MissingCTable(ValueError):
    """Plan C needs the self-aliasing counts c_k."""


# ---------------------------------------------------------------------------
# one-dimensional transform

def dft(x, direction: str = "forward") -> np.ndarray:
    """Length-n DFT, any n >= 1.

    forward:  F_kappa = (1/n) sum_i x_i e^(-2 pi i i kappa / n)
    inverse:  x_i = sum_kappa F_kappa e^(+2 pi i i kappa / n)
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] == 0:
        raise ValueError("empty input")
    # norm="forward" puts the whole 1/n on the forward transform
    if direction == "forward":
        return np.fft.fft(x, norm="forward")
    return np.fft.ifft(x, norm="forward")


def _direct_pays(what: str, n: int, slots: int, real: bool) -> bool:
    """Whether the blocked direct DFT computes a map of a length-n transform
    that uses ``slots`` distinct slots (slot pairs for real spectra): for
    real spectra when slots <= 2 sqrt(n), never for complex ones.  The
    choice is logged with its inputs.

    The direct route does about n/4 * slots multiply-adds in each of two
    real BLAS matrix products, the FFT O(n log n) work at a much larger
    constant (at a prime n, pocketfft's Bluestein convolution runs FFTs of
    a smooth length of at least 2n - 1).  Measured on real spectra with
    BLAS at one thread (whole synthesis, medians of interleaved runs), at
    slots = 2 sqrt(n) the direct route takes 0.32 / 0.79 / 2.7 / 12 /
    147 ms against the FFT's 0.24 / 1.7 / 10 / 53 / 650 ms at prime n of
    about 2e3 / 8.6e3 / 5e4 / 2e5 / 1.9e6; at twice as many slots it still
    wins from n = 8.6e3 up (28 / 355 ms against 53 / 658 ms at 2e5 /
    1.9e6), at four times as many the FFT wins or draws level (timed
    with the factor tables of all slots at once).  The bound is one of
    time: the direct route makes its tables a block of slots at a time,
    so its memory is a few n-vectors at any slot count.  Complex
    (Fourier) spectra would need all n points and a complex product,
    about four times the work per slot, and are not measured against the
    FFT, so they keep it.
    """
    direct = real and slots * slots <= 4 * n
    _log.info("%s: n=%d, %d distinct %s, %s", what, n, slots,
              "slot pairs" if real else "slots",
              "blocked direct DFT" if direct else "FFT")
    return direct


def _split(m: int) -> tuple[int, int]:
    """Rows A and half-width h of the centred blocks j = a*W + b with
    -h <= b <= h and W = 2h + 1 about sqrt(m), that cover the points
    0 <= j < m; block 0 starts at j = -h."""
    half = math.isqrt(m) // 2
    return -(-(m + half) // (2 * half + 1)), half


def _run_rows(block: int, height: int) -> int:
    """Rows a of the centred blocks per run of theta tables and products
    for blocks of ``block`` slots: the largest power of two at most
    RUN_ENTRIES // block (one at least), or A if that is fewer."""
    return min(height, 1 << max(0, (RUN_ENTRIES // block).bit_length() - 1))


def _twiddles(slots: np.ndarray, step: int, n: int, count: int,
              scale=1.0) -> list[np.ndarray]:
    """``scale`` times cos and sin of 2 pi r / n for r = k * step * kappa
    mod n, one row per k < count and one column per kappa in ``slots``, as
    the two (row, slot) views of :func:`lattice_recon.lattice.angle_sums`
    with k split at about sqrt(count), which BLAS products read without a
    copy.  With the runs of (a, slot) tables of
    :func:`lattice_recon.lattice.root_runs`, a synthesis block's tables of
    256 slot pairs take 1.2 ms at n = 1,939,901 and at n = 200,003,
    against 4.8 and 1.8 ms for full-height tables by elementwise complex
    products of the split roots (isolated calls, medians of 100)."""
    return angle_sums(n, step * slots % n, 0, count,
                      (count - 1).bit_length() // 2, "roots", scale)


def _fold_rows(values: np.ndarray, n: int, first: int,
               out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd folds x[a, b] + x[a, -b] over 0 <= b <= h and
    x[a, b] - x[a, -b] over 1 <= b <= h of the centred block rows first <=
    a < first + len(out) of x_j = f_j + f_(n-j) (f_j alone at j = 0 and
    n/2, zero outside 0 <= j <= n/2), x[a, b] = x_(a*W + b), written into
    ``out`` (rows, W) as its first h + 1 and last h columns."""
    rows, width = out.shape
    half = width // 2
    lo = first * width - half
    x = np.empty(rows * width)
    # f_j at 0 <= j < m, then f_(n-j) added at 0 < j < n - j
    head, tail = max(lo, 0), min(lo + x.size, n // 2 + 1)
    x[:head - lo] = 0
    x[tail - lo:] = 0
    x[head - lo:tail - lo] = values[head:tail]
    head, tail = max(lo, 1), min(lo + x.size, (n + 1) // 2)
    if head < tail:
        x[head - lo:tail - lo] += values[n - tail + 1:n - head + 1][::-1]
    x = x.reshape(rows, width)
    plus, minus = x[:, half + 1:], x[:, :half][:, ::-1]
    out[:, 0] = x[:, half]
    np.add(plus, minus, out=out[:, 1:half + 1])
    np.subtract(plus, minus, out=out[:, half + 1:])
    return out[:, :half + 1], out[:, half + 1:]


def _spectrum_direct(values: np.ndarray, slots: np.ndarray,
                     n: int) -> np.ndarray:
    """Re (1/n) sum_j f_j e^(-2 pi i j kappa / n) of the real length-n
    vector f at every kappa in ``slots``.

    That is the sum of x_j cos(2 pi j kappa / n) over the m = n/2 + 1
    points j <= n/2, x_j = f_j + f_(n-j) (f_j alone at j = 0 and n/2),
    taken in the centred blocks x[a, b] = x_(a*W + b) of :func:`_split`,
    zero at j < 0.  With theta and phi the angles of a*W*kappa and
    b*kappa, cos(theta + phi) = cos theta cos phi - sin theta sin phi, and
    cos phi is even, sin phi odd in b: two real matrix products, of the
    even fold x[a, b] + x[a, -b] with cos phi and of the odd fold
    x[a, b] - x[a, -b] with sin phi over 0 <= b <= h, then a sum over a
    weighted by cos theta and sin theta, FORWARD_SLOTS slots at a time
    (:func:`_block_spectrum`)."""
    height, half = _split(n // 2 + 1)
    folds = np.empty((_run_rows(FORWARD_SLOTS, height), 2 * half + 1))
    spectrum = np.empty(slots.size)
    for lo in range(0, slots.size, FORWARD_SLOTS):
        part = slice(lo, lo + FORWARD_SLOTS)
        spectrum[part] = _block_spectrum(values, slots[part], n, height,
                                         folds)
    return spectrum / n


def _block_spectrum(values: np.ndarray, slots: np.ndarray, n: int,
                    height: int, folds: np.ndarray) -> np.ndarray:
    """n times the spectrum of :func:`_spectrum_direct` at one block of
    slots: the cos and sin phi tables made once, then a run of rows of
    ``folds`` at a time, :func:`_fold_rows` folds the block rows into it,
    and their cos and sin theta tables and products are made and summed."""
    rows, width = folds.shape
    half = width // 2
    right_cos, right_sin = _twiddles(slots, 1, n, half + 1)
    runs = root_runs(n, width * slots % n, height, rows)
    spectrum = np.zeros(slots.size)
    for first, (left_cos, left_sin) in zip(range(0, height, rows), runs):
        even, odd = _fold_rows(values, n, first, folds[:left_cos.shape[0]])
        # (slot, row) products and tables: both unit stride along rows
        spectrum += np.einsum("sa,sa->s", left_cos.T, right_cos.T @ even.T)
        spectrum -= np.einsum("sa,sa->s", left_sin.T,
                              right_sin[1:].T @ odd.T)
    return spectrum


def _values_direct(amps: np.ndarray, slots: np.ndarray,
                   n: int) -> np.ndarray:
    """Re sum_kappa amps_kappa e^(+2 pi i j kappa / n) at the n points j
    for real ``amps``: in the centred blocks of :func:`_split` over j <= n/2,
    x[a, +-b] = C[a, b] -+ S[a, b] for the real products C = (amps cos
    theta) cos phi^T and S = (amps sin theta) sin phi^T over 0 <= b <= h
    (see :func:`_spectrum_direct`), then f_(n-j) = f_j.

    The n-vector is a view at offset -h of a buffer of 2 A W entries, of
    which the A x W blocks are the first half; C and S are summed in the
    second, SYNTHESIS_SLOTS slots at a time (:func:`_add_products`).  The
    blocks are then written from C and S, and the mirror overwrites the
    sums.  No slots give zero products."""
    m = n // 2 + 1
    height, half = _split(m)
    size = height * (2 * half + 1)
    buffer = np.empty(2 * size)
    even = buffer[size:size + height * (half + 1)].reshape(height, -1)
    odd = buffer[size + height * (half + 1):].reshape(height, half)
    for lo in range(0, max(slots.size, 1), SYNTHESIS_SLOTS):
        part = slice(lo, lo + SYNTHESIS_SLOTS)
        _add_products(even, odd, amps[part], slots[part], n, lo == 0)
    blocks = buffer[:size].reshape(height, -1)
    blocks[:, half] = even[:, 0]
    np.subtract(even[:, 1:], odd, out=blocks[:, half + 1:])
    np.add(even[:, 1:], odd, out=blocks[:, :half][:, ::-1])
    values = buffer[half:half + n]
    values[m:] = values[1:n - m + 1][::-1]
    return values


def _add_products(even: np.ndarray, odd: np.ndarray, amps: np.ndarray,
                  slots: np.ndarray, n: int, fresh: bool) -> None:
    """Add the products C and S of :func:`_values_direct` at one block of
    slots into ``even`` (A, h + 1) and ``odd`` (A, h), or write them there
    when ``fresh``: the cos and sin phi tables made once, then a run of
    rows at a time (:func:`_run_rows`) the amps cos and sin theta tables
    and the products, each added while it is in cache."""
    height, half = odd.shape
    rows = _run_rows(SYNTHESIS_SLOTS, height)
    right_cos, right_sin = _twiddles(slots, 1, n, half + 1)
    runs = root_runs(n, (2 * half + 1) * slots % n, height, rows, amps)
    product = None if fresh else np.empty((rows, half + 1))
    for first, (left_cos, left_sin) in zip(range(0, height, rows), runs):
        part = slice(first, first + left_cos.shape[0])
        for left, right, sums in ((left_cos, right_cos, even[part]),
                                  (left_sin, right_sin[1:], odd[part])):
            if fresh:
                np.matmul(left, right.T, out=sums)
            else:
                sums += np.matmul(left, right.T,
                                  out=product[:sums.shape[0],
                                              :sums.shape[1]])


def _spectrum_at(values: np.ndarray, slots: np.ndarray, n: int,
                 real: bool) -> np.ndarray:
    """The forward spectrum F at ``slots``; Re F for real values."""
    # Re F is even in kappa, so real spectra need one slot of each pair
    folded = np.minimum(slots, n - slots) if real else slots
    distinct, where = np.unique(folded, return_inverse=True)
    if not _direct_pays("forward map", n, distinct.size, real):
        spectrum = dft(values, "forward")
        return (spectrum.real if real else spectrum)[slots]
    return _spectrum_direct(values, distinct, n)[where]


def _values_at_points(amps: np.ndarray, slots: np.ndarray, n: int,
                      real: bool) -> np.ndarray:
    """x_i = sum_r amps_r e^(+2 pi i i slots_r / n) at all n points; the
    real part for real ``amps``."""
    folded = np.minimum(slots, n - slots) if real else slots
    distinct, where = np.unique(folded, return_inverse=True)
    if not _direct_pays("synthesis", n, distinct.size, real):
        spectrum = np.zeros(n, dtype=amps.dtype)
        np.add.at(spectrum, slots, amps)
        values = dft(spectrum, "inverse")
        # a copy of the real part, not a view that keeps the complex vector
        return values.real.copy() if real else values
    total = np.zeros(distinct.size)
    np.add.at(total, where, amps)
    return _values_direct(total, distinct, n)


# ---------------------------------------------------------------------------
# coefficient tables

class CoefficientTable:
    """Map from multi-index to a series coefficient.

    ``space`` is one of fourier/cosine/chebyshev; Fourier entries are
    complex, the others real.
    """

    __slots__ = ("space", "dimension", "entries")

    def __init__(self, space: str, dimension: int, entries: dict):
        if space not in ("fourier", "cosine", "chebyshev"):
            raise ValueError(f"unknown space {space!r}")
        self.space = space
        self.dimension = int(dimension)
        self.entries = {tuple(int(c) for c in k): v
                        for k, v in entries.items()}

    def __getitem__(self, k):
        return self.entries[tuple(k)]

    def get(self, k, default=0.0):
        return self.entries.get(tuple(k), default)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(sorted(self.entries))

    def items(self):
        return ((k, self.entries[k]) for k in sorted(self.entries))

    def __repr__(self):
        return (f"CoefficientTable(space={self.space}, "
                f"dim={self.dimension}, size={len(self.entries)})")


# ---------------------------------------------------------------------------
# sampling

def sample_values(f, lattice: Rank1Lattice, kind: TransformKind) -> np.ndarray:
    """Length-n value vector of f at the transformed lattice points, which
    :meth:`Rank1Lattice.evaluate` hands to f block by block.

    For the tent and cosine-of-tent points only floor(n/2)+1 evaluations
    are made; the remaining slots are mirrored (f_{n-i} = f_i).
    """
    kind = TransformKind(kind)
    n = lattice.n
    count = n if kind == TransformKind.IDENTITY else n // 2 + 1
    _log.info("sampling: n=%d, %s points, %d evaluated in %d blocks", n,
              kind.value, count, -(-count // lattice_module.POINT_BLOCK))
    values = lattice.evaluate(f, kind, count, n)
    values[count:] = values[1:n - count + 1][::-1]
    return values


def _coeff_vector(L: IndexSet, coeffs, dtype) -> np.ndarray:
    """Coefficients of L in set order; a table or dict reads 0 for an
    index it lacks."""
    if hasattr(coeffs, "get"):
        return np.asarray([coeffs.get(k, 0.0) for k in L], dtype=dtype)
    return np.asarray([coeffs[k] for k in L], dtype=dtype)


def _weights(rows: np.ndarray) -> np.ndarray:
    """sqrt(2)^|k|_0 per row."""
    return np.sqrt(2.0) ** np.count_nonzero(rows, axis=1)


# ---------------------------------------------------------------------------
# the two maps, one body each for the three spaces

def _coeffs_from_values(space, lattice, L, values, plan, c_table, unsafe):
    """The forward map of every space; ``unsafe`` skips the aliasing check."""
    slots, groups = slot_residues(space, L, lattice.z, lattice.n)
    fourier = space == "fourier"
    if not fourier:
        if plan not in PLANS:
            raise ValueError(f"unknown plan {plan!r}")
        if len(L) and L.as_array().min() < 0:
            raise ValueError(f"{space} indices must be nonnegative")
    values = np.asarray(values, np.complex128 if fourier else np.float64)
    if values.shape[0] != lattice.n:
        raise ValueError("value vector length differs from n")
    if plan == "C" and c_table is None:
        raise MissingCTable("plan C needs the c_k table")
    if not unsafe and not kernels.check_condition(slots, groups,
                                                  _PLAN_CODE[plan]):
        raise AliasingDetected(
            "two indices share a residue slot" if fourier else
            f"lattice fails the plan {plan} reconstruction condition")
    # for real values Re F_kappa = Re F_(n-kappa), so the real part is the
    # spectrum of the symmetrized values (f_i + f_(n-i)) / 2 as well
    if plan == "A":
        # plan A integrates against the tent-composed basis itself, which
        # is the mean over the sign orbit of the plan-B dual functions, so
        # its coefficient averages the spectrum over the orbit slots (for
        # functions supported on L all orbit slots agree and this reduces
        # to the single lookup)
        orbit = _spectrum_at(values, slots, lattice.n, not fourier)
        coeffs = np.add.reduceat(orbit, groups[:-1]) / np.diff(groups)
    else:
        coeffs = _spectrum_at(values, slots[groups[:-1]], lattice.n,
                              not fourier)
    if not fourier:
        coeffs = _weights(L.as_array()) * coeffs
    if plan == "C":
        try:
            coeffs /= np.asarray([c_table[k] for k in L], dtype=np.float64)
        except KeyError as exc:
            raise MissingCTable(f"no c entry for index {exc.args[0]}") \
                from None
    return CoefficientTable(space, L.dimension, dict(zip(L, coeffs.tolist())))


def coeffs_from_values(space: str, lattice: Rank1Lattice, L: IndexSet,
                       values, plan: str | None = None,
                       c_table: dict | None = None) -> CoefficientTable:
    """Coefficients on L from samples at the points of ``space`` (see
    :func:`sample_values`); ``plan`` and ``c_table`` apply to the cosine
    and Chebyshev spaces only, where coefficient k is sqrt(2)^|k|_0
    Re F_(k.z mod n), divided by c_k under plan C, and plan A averages
    over the orbit slots.

    After the aliasing check, only the slots read are used: |L| of them
    (all orbit slots under plan A).  The FFT computes them, or outside
    Fourier, as :func:`_direct_pays` chooses, the blocked direct DFT
    evaluates just those slots, folded to slot pairs."""
    return _coeffs_from_values(space, lattice, L, values,
                               None if space == "fourier" else plan,
                               c_table, unsafe=False)


def values_from_coeffs(space: str, lattice: Rank1Lattice, L: IndexSet,
                       coeffs) -> np.ndarray:
    """Values of the series on L at the points of ``space``: every row of
    every index accumulates its coefficient (over sqrt(2)^|k|_0 outside
    Fourier) into its slot, plan-C sign orbits may share one, then the
    inverse DFT of those nonzero slots is evaluated at all points, by the
    FFT or, outside Fourier and as :func:`_direct_pays` chooses, by the
    blocked direct DFT at the points i <= n/2, mirrored."""
    slots, groups = slot_residues(space, L, lattice.z, lattice.n)
    fourier = space == "fourier"
    scaled = _coeff_vector(L, coeffs, np.complex128 if fourier else np.float64)
    if not fourier:
        scaled /= _weights(L.as_array())
    return _values_at_points(np.repeat(scaled, np.diff(groups)), slots,
                             lattice.n, not fourier)


# ---------------------------------------------------------------------------
# per-space bindings of the two maps

def fourier_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet, values,
                               unsafe: bool = False) -> CoefficientTable:
    """Fourier coefficients on L from samples at the raw lattice points."""
    return _coeffs_from_values("fourier", lattice, L, values, None, None,
                               unsafe)


def cosine_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet, plan: str,
                              values, c_table: dict | None = None,
                              unsafe: bool = False) -> CoefficientTable:
    """Cosine coefficients on L from samples at tent-transformed points."""
    return _coeffs_from_values("cosine", lattice, L, values, plan, c_table,
                               unsafe)


def chebyshev_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet,
                                 plan: str, values,
                                 c_table: dict | None = None,
                                 unsafe: bool = False) -> CoefficientTable:
    """Chebyshev coefficients on L from samples at the cosine-of-tent
    points; numerically identical to the cosine map."""
    return _coeffs_from_values("chebyshev", lattice, L, values, plan,
                               c_table, unsafe)


def fourier_values_from_coeffs(lattice: Rank1Lattice, L: IndexSet,
                               coeffs) -> np.ndarray:
    """Values of the Fourier series at the lattice points."""
    return values_from_coeffs("fourier", lattice, L, coeffs)


def cosine_values_from_coeffs(lattice: Rank1Lattice, L: IndexSet,
                              coeffs) -> np.ndarray:
    """Values of the cosine series at the tent-transformed lattice points."""
    return values_from_coeffs("cosine", lattice, L, coeffs)


# the Chebyshev values are the cosine series' in the isomorphic space
chebyshev_values_from_coeffs = cosine_values_from_coeffs


# ---------------------------------------------------------------------------
# file formats

def write_values(values, path) -> None:
    """Value-vector file: ``n=<n>`` header, one value per line (complex
    values as ``<re> <im>``)."""
    values = np.asarray(values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={values.shape[0]}\n")
        if np.iscomplexobj(values):
            for v in values:
                fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")
        else:
            for v in values:
                fh.write(f"{float(v)!r}\n")


def read_values(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        n = int(dict(item.split("=", 1) for item in header)["n"])
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != n:
        raise ValueError(f"value file announces n={n} but holds {len(rows)}")
    if rows and len(rows[0]) == 2:
        return np.asarray([complex(float(a), float(b)) for a, b in rows])
    return np.asarray([float(r[0]) for r in rows])


def write_coefficients(table: CoefficientTable, path) -> None:
    """Coefficient file: ``dim=<d> space=<space>`` header, then one line
    ``<index components> <re> [<im>]`` per entry."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={table.dimension} space={table.space}\n")
        for k, v in table.items():
            comps = " ".join(str(kj) for kj in k)
            if table.space == "fourier":
                v = complex(v)
                fh.write(f"{comps} {v.real!r} {v.imag!r}\n")
            else:
                fh.write(f"{comps} {float(v)!r}\n")


def read_coefficients(path) -> CoefficientTable:
    with open(path, "r", encoding="ascii") as fh:
        header = dict(item.split("=", 1) for item in fh.readline().split())
        d = int(header["dim"])
        space = header["space"]
        entries = {}
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            k = tuple(int(v) for v in parts[:d])
            if space == "fourier":
                entries[k] = complex(float(parts[d]), float(parts[d + 1]))
            else:
                entries[k] = float(parts[d])
    return CoefficientTable(space, d, entries)
