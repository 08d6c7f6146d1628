"""Fast maps between function values at (transformed) lattice points and
series coefficients.

One length-n DFT does all the work in every space: the coefficient of index
k sits in spectrum slot (k.z mod n).  For the cosine and Chebyshev spaces
the sampled value vector is symmetric (f_i = f_{n-i}), so the spectrum is
real and the forward map reads the real part of the one FFT.  The Chebyshev
maps are the cosine maps verbatim; only the sampling locations differ.
:func:`coeffs_from_values` and :func:`values_from_coeffs` dispatch over the
three spaces.

:func:`dft` is numpy's FFT (pocketfft, O(n log n) for every n, primes
included) with the lattice normalization.
"""

from __future__ import annotations

import numpy as np

from .cbc import (residues, verify_fourier, verify_plan_a, verify_plan_b,
                  verify_plan_c)
from .indexset import IndexSet, mirror_expand
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
# Fourier maps

def fourier_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet, values,
                               unsafe: bool = False) -> CoefficientTable:
    """Fourier coefficients on L from samples at the raw lattice points."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[0] != lattice.n:
        raise ValueError("value vector length differs from n")
    if not unsafe and not verify_fourier(lattice.z, lattice.n, L):
        raise AliasingDetected("two indices share a residue slot")
    spectrum = dft(values, "forward")
    slots = residues(L.as_array(), lattice.z, lattice.n)
    return CoefficientTable("fourier", L.dimension,
                            dict(zip(L, spectrum[slots].tolist())))


def fourier_values_from_coeffs(lattice: Rank1Lattice, L: IndexSet,
                               coeffs) -> np.ndarray:
    """Values of the series at the lattice points by slot scatter + IFFT."""
    spectrum = np.zeros(lattice.n, dtype=np.complex128)
    np.add.at(spectrum, residues(L.as_array(), lattice.z, lattice.n),
              _coeff_vector(L, coeffs, np.complex128))
    return dft(spectrum, "inverse")


# ---------------------------------------------------------------------------
# cosine / Chebyshev maps (one engine; the spaces are isomorphic)

_PLAN_VERIFIERS = {"A": verify_plan_a, "B": verify_plan_b, "C": verify_plan_c}


def _check_plan(lattice: Rank1Lattice, L: IndexSet, plan: str) -> None:
    verifier = _PLAN_VERIFIERS[plan]
    if not verifier(lattice.z, lattice.n, L):
        raise AliasingDetected(f"lattice fails the plan {plan} "
                               "reconstruction condition")


def cosine_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet, plan: str,
                              values, c_table: dict | None = None,
                              unsafe: bool = False) -> CoefficientTable:
    """Cosine coefficients on L from samples at tent-transformed points.

    The value vector must satisfy f_i = f_{n-i} (it does when produced by
    :func:`sample_values`).  Coefficient k is sqrt(2)^|k|_0 F_(k.z mod n),
    divided by c_k under plan C.
    """
    return _folded_coeffs_from_values("cosine", lattice, L, plan, values,
                                      c_table, unsafe)


def chebyshev_coeffs_from_values(lattice: Rank1Lattice, L: IndexSet,
                                 plan: str, values,
                                 c_table: dict | None = None,
                                 unsafe: bool = False) -> CoefficientTable:
    """Chebyshev coefficients on L from samples at the cosine-of-tent
    points; numerically identical to the cosine map."""
    return _folded_coeffs_from_values("chebyshev", lattice, L, plan, values,
                                      c_table, unsafe)


def _folded_coeffs_from_values(space, lattice, L, plan, values, c_table,
                               unsafe):
    if plan not in ("A", "B", "C"):
        raise ValueError(f"unknown plan {plan!r}")
    if len(L) and L.as_array().min() < 0:
        raise ValueError(f"{space} indices must be nonnegative")
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != lattice.n:
        raise ValueError("value vector length differs from n")
    if plan == "C" and c_table is None:
        raise MissingCTable("plan C needs the c_k table")
    if not unsafe:
        _check_plan(lattice, L, plan)
    # symmetrize i <-> n-i first: a no-op for sampled vectors, and unchanged
    # coefficients otherwise (the dual functions are even in i), so the
    # spectrum is real for arbitrary inputs as well
    sym = values.copy()
    sym[1:] = 0.5 * (values[1:] + values[:0:-1])
    spectrum = dft(sym, "forward").real
    if plan == "A":
        # plan A integrates against the tent-composed basis itself, which
        # is the mean over the sign orbit of the plan-B dual functions, so
        # its coefficient averages the spectrum over the orbit slots (for
        # functions supported on L all orbit slots agree and this reduces
        # to the single lookup)
        rows, group_start = mirror_expand(L)
        orbit = spectrum[residues(rows, lattice.z, lattice.n)]
        raw = (np.add.reduceat(orbit, group_start[:-1])
               / np.diff(group_start))
    else:
        raw = spectrum[residues(L.as_array(), lattice.z, lattice.n)]
    coeffs = _weights(L.as_array()) * raw
    if plan == "C":
        try:
            coeffs /= np.asarray([c_table[k] for k in L], dtype=np.float64)
        except KeyError as exc:
            raise MissingCTable(f"no c entry for index {exc.args[0]}") \
                from None
    return CoefficientTable(space, L.dimension, dict(zip(L, coeffs.tolist())))


def cosine_values_from_coeffs(lattice: Rank1Lattice, L: IndexSet,
                              coeffs) -> np.ndarray:
    """Values of the cosine series at the tent-transformed lattice points.

    Every sign change of every index accumulates into its residue slot
    (plan-C sign orbits may share a slot, hence the unbuffered add), then
    one inverse FFT evaluates the series at all points.
    """
    rows, group_start = mirror_expand(L)
    scaled = _coeff_vector(L, coeffs, np.float64) / _weights(L.as_array())
    spectrum = np.zeros(lattice.n, dtype=np.float64)
    np.add.at(spectrum, residues(rows, lattice.z, lattice.n),
              np.repeat(scaled, np.diff(group_start)))
    return dft(spectrum, "inverse").real


# Chebyshev values at the cosine-of-tent points: the same series in the
# isomorphic space
chebyshev_values_from_coeffs = cosine_values_from_coeffs


# ---------------------------------------------------------------------------
# one dispatch over the three spaces

def coeffs_from_values(space: str, lattice: Rank1Lattice, L: IndexSet,
                       values, plan: str | None = None,
                       c_table: dict | None = None) -> CoefficientTable:
    """Coefficients on L from samples at the points of ``space`` (see
    :func:`sample_values`); ``plan`` and ``c_table`` apply to the cosine
    and Chebyshev spaces only."""
    if space == "fourier":
        return fourier_coeffs_from_values(lattice, L, values)
    if space not in ("cosine", "chebyshev"):
        raise ValueError(f"unknown space {space!r}")
    return _folded_coeffs_from_values(space, lattice, L, plan, values,
                                      c_table, unsafe=False)


def values_from_coeffs(space: str, lattice: Rank1Lattice, L: IndexSet,
                       coeffs) -> np.ndarray:
    """Values of the series on L at the points of ``space``."""
    if space == "fourier":
        return fourier_values_from_coeffs(lattice, L, coeffs)
    if space not in ("cosine", "chebyshev"):
        raise ValueError(f"unknown space {space!r}")
    return cosine_values_from_coeffs(lattice, L, coeffs)


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
