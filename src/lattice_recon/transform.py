"""Fast maps between function values at (transformed) lattice points and
series coefficients.

One length-n DFT does all the work in every space: the rows of index k
(:func:`lattice_recon.cbc.space_rows`: k itself for Fourier, its sign
orbit M(k) for cosine and Chebyshev) sit in spectrum slots (h.z mod n).
For the cosine and Chebyshev spaces the sampled value vector is symmetric
(f_i = f_{n-i}), so the spectrum is real and the forward map reads the
real part of the one FFT.  :func:`coeffs_from_values` and
:func:`values_from_coeffs` have one body each for the three spaces; the
per-space functions bind them.

:func:`dft` is numpy's FFT (pocketfft, O(n log n) for every n, primes
included) with the lattice normalization.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .cbc import _PLAN_CODE, PLANS, residues, space_rows
from .indexset import IndexSet
from .lattice import Rank1Lattice, TransformKind


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
    """Length-n value vector of f at the transformed lattice points.

    For the tent and cosine-of-tent points only floor(n/2)+1 evaluations
    are made; the remaining slots are mirrored (f_{n-i} = f_i).
    """
    kind = TransformKind(kind)
    n = lattice.n
    if kind == TransformKind.IDENTITY:
        return np.asarray(f(lattice.points(kind)))
    half = n // 2
    head = np.asarray(f(lattice.points(kind, 0, half + 1)))
    values = np.empty(n, dtype=head.dtype)
    values[:half + 1] = head
    values[half + 1:] = values[1:n - half][::-1]
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
    rows, groups = space_rows(space, L)
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
    slots = residues(rows, lattice.z, lattice.n)
    if not unsafe and not kernels.check_condition(
            slots, groups, lattice.n, _PLAN_CODE[plan]):
        raise AliasingDetected(
            "two indices share a residue slot" if fourier else
            f"lattice fails the plan {plan} reconstruction condition")
    # for real values Re F_kappa = Re F_(n-kappa), so the real part is the
    # spectrum of the symmetrized values (f_i + f_(n-i)) / 2 as well
    spectrum = dft(values, "forward")
    orbit = spectrum[slots] if fourier else spectrum.real[slots]
    if plan == "A":
        # plan A integrates against the tent-composed basis itself, which
        # is the mean over the sign orbit of the plan-B dual functions, so
        # its coefficient averages the spectrum over the orbit slots (for
        # functions supported on L all orbit slots agree and this reduces
        # to the single lookup)
        coeffs = np.add.reduceat(orbit, groups[:-1]) / np.diff(groups)
    else:
        coeffs = orbit[groups[:-1]]
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
    F_(k.z mod n), divided by c_k under plan C."""
    return _coeffs_from_values(space, lattice, L, values,
                               None if space == "fourier" else plan,
                               c_table, unsafe=False)


def values_from_coeffs(space: str, lattice: Rank1Lattice, L: IndexSet,
                       coeffs) -> np.ndarray:
    """Values of the series on L at the points of ``space``: every row of
    every index accumulates its coefficient (over sqrt(2)^|k|_0 outside
    Fourier) into its slot, plan-C sign orbits may share one, then one
    inverse FFT evaluates the series at all points."""
    rows, groups = space_rows(space, L)
    fourier = space == "fourier"
    scaled = _coeff_vector(L, coeffs, np.complex128 if fourier else np.float64)
    if not fourier:
        scaled /= _weights(L.as_array())
    spectrum = np.zeros(lattice.n, dtype=scaled.dtype)
    np.add.at(spectrum, residues(rows, lattice.z, lattice.n),
              np.repeat(scaled, np.diff(groups)))
    values = dft(spectrum, "inverse")
    return values if fourier else values.real


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

def write_values(values, path, n: int | None = None) -> None:
    """Value-vector file: ``n=<n>`` header, one value per line (complex
    values as ``<re> <im>``)."""
    values = np.asarray(values)
    n = values.shape[0] if n is None else n
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={n}\n")
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
