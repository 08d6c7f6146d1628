"""Approximation of functions that are not finitely supported on the index
set: stability constants, the truncation/approximation error split, the
discrete seminorm, and the least-squares characterization of plan A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cbc import verify_plan_c
from .indexset import IndexSet
from .lattice import Rank1Lattice, TransformKind
from .transform import (CoefficientTable, _coeff_vector, coeffs_from_values,
                        sample_values, values_from_coeffs)

KIND_FOR_SPACE = {
    "fourier": TransformKind.IDENTITY,
    "cosine": TransformKind.TENT,
    "chebyshev": TransformKind.COSINE_OF_TENT,
}


class MissingReference(ValueError):
    """The test function carries no reference coefficients."""


class SizeLimit(ValueError):
    """The dense least-squares oracle is restricted to desk scale."""


class MissingCTable(ValueError):
    """Plan C stability needs the self-aliasing counts c_k."""


@dataclass
class TestFunction:
    """A function to approximate.

    ``evaluator`` maps an (m, d) array of points in the space's domain to m
    values.  ``reference_coeffs`` holds ground-truth coefficients on a
    reference index set (a superset of any working set); the tail beyond it
    is treated as negligible.
    """

    evaluator: object
    space: str
    dimension: int
    reference_coeffs: CoefficientTable | None = None
    name: str = ""

    def __call__(self, points):
        return self.evaluator(points)


def approx_coeffs(f, lattice: Rank1Lattice, L: IndexSet, space: str,
                  plan: str | None = None) -> CoefficientTable:
    """Approximate coefficients on L by sampling f at the transformed
    lattice points and applying the fast transform of the space/plan."""
    values = sample_values(f, lattice, KIND_FOR_SPACE[space])
    return coeffs_from_values(space, lattice, L, values, plan)


# ---------------------------------------------------------------------------
# stability

@dataclass(frozen=True)
class StabilityReport:
    """Stability constant rho and its per-index terms d_k / c_k^2."""

    rho: float
    plan: str
    per_index_terms: dict


def stability_constant(L: IndexSet, plan: str,
                       c_table: dict | None = None) -> StabilityReport:
    """Perturbation amplification factor of the plan on this index set.

    Plan A is perfectly stable (rho = 1).  Plans B and C take the maximum
    of the zero-index indicator and 2^(|k|_0 - 1) / c_k^2 over nonzero
    indices (c_k = 1 for plan B).
    """
    if plan not in ("A", "B", "C"):
        raise ValueError(f"unknown plan {plan!r}")
    if plan == "A":
        return StabilityReport(1.0, plan, {k: 1.0 for k in L})
    if plan == "C" and c_table is None:
        raise MissingCTable("plan C stability needs the c_k table")
    c = np.asarray([c_table[k] for k in L]) if plan == "C" else 1
    nonzero = np.count_nonzero(L.as_array(), axis=1)
    terms = np.where(nonzero > 0, 2.0 ** (nonzero - 1) / c**2, 1.0)
    return StabilityReport(float(terms.max()), plan,
                           dict(zip(L, terms.tolist())))


# ---------------------------------------------------------------------------
# discrete seminorm and error split

def discrete_seminorm(h, lattice: Rank1Lattice, kind: TransformKind) -> float:
    """sqrt of the lattice average of |h|^2 over the transformed points."""
    value = lattice.cubature(lambda pts: np.abs(np.asarray(h(pts))) ** 2,
                             kind)
    return math.sqrt(float(np.real(value)))


@dataclass(frozen=True)
class ErrorReport:
    truncation_err: float
    approximation_err: float
    total_err: float
    rho: float
    seminorm: float
    bound_ok: bool
    bound_slack: float
    loose_bound: float


def error_decomposition(f: TestFunction, lattice: Rank1Lattice, L: IndexSet,
                        space: str, plan: str | None = None,
                        tolerance: float = 1e-12) -> ErrorReport:
    """Split the L2 error of the computed approximation on L into the
    truncation part (tail of the reference coefficients outside L) and the
    approximation part (coefficient error on L), and check the discrete
    seminorm bound approximation_err^2 <= rho * ||f - f_L||_n^2 + tolerance.

    ``loose_bound`` reports sqrt(1 + rho) * max_i |f - f_L| over the
    lattice sample points; it is informational only.  Under plan C, rho
    reads the counts c_k of :func:`lattice_recon.cbc.verify_plan_c` on the
    lattice, the counts the forward map divides by.
    """
    if f.reference_coeffs is None:
        raise MissingReference(f"{f.name or 'function'} has no reference "
                               "coefficients")
    truth = f.reference_coeffs
    values = sample_values(f, lattice, KIND_FOR_SPACE[space])
    computed = coeffs_from_values(space, lattice, L, values, plan)

    rows = np.asarray(list(truth.entries), dtype=np.int64)
    outside = ~L.contains_rows(rows.reshape(len(truth), truth.dimension))
    tail = np.asarray(list(truth.entries.values()), np.complex128)[outside]
    truncation_sq = float(np.sum(np.abs(tail) ** 2))
    approx_sq = float(np.sum(np.abs(
        _coeff_vector(L, truth, np.complex128)
        - _coeff_vector(L, computed, np.complex128)) ** 2))
    # computed is supported on L: the tail and the error on L split it
    total_sq = truncation_sq + approx_sq

    # f_L at the transformed lattice points, synthesized exactly
    fl_values = values_from_coeffs(space, lattice, L, truth)
    residual = np.asarray(values) - fl_values
    seminorm_sq = float(np.mean(np.abs(residual) ** 2))

    plan_label = plan if plan is not None else "A"
    counts = verify_plan_c(lattice.z, lattice.n, L).c_table \
        if plan == "C" else None
    rho = stability_constant(L, plan_label, counts).rho
    slack = rho * seminorm_sq + tolerance - approx_sq
    loose = math.sqrt(1.0 + rho) * float(np.max(np.abs(residual))) \
        if residual.size else 0.0
    return ErrorReport(
        truncation_err=math.sqrt(truncation_sq),
        approximation_err=math.sqrt(approx_sq),
        total_err=math.sqrt(total_sq),
        rho=rho,
        seminorm=math.sqrt(seminorm_sq),
        bound_ok=slack >= 0.0,
        bound_slack=slack,
        loose_bound=loose,
    )


# ---------------------------------------------------------------------------
# basis matrices and the plan-A least-squares identity

def basis_matrix(lattice: Rank1Lattice, L: IndexSet, space: str,
                 family: str = "u") -> np.ndarray:
    """Sampled basis functions as an (n, |L|) matrix.

    Family "u" is the transformed orthonormal basis (exponentials for
    Fourier, tent-composed cosine products otherwise); family "v" is the
    bi-orthonormal partner used by plans B and C (full-period cosines of
    the dot product).  For Fourier, u and v coincide.
    """
    if family not in ("u", "v"):
        raise ValueError(f"unknown family {family!r}")
    t = lattice.points(TransformKind.IDENTITY)
    arr = L.as_array()
    if space == "fourier":
        return np.exp(2j * np.pi * (t @ arr.T))
    weights = np.sqrt(2.0) ** np.count_nonzero(arr, axis=1)
    if family == "u":
        # cos(pi k tent(x)) = cos(2 pi k x) componentwise
        cols = np.prod(np.cos(2.0 * np.pi * t[:, None, :] * arr[None, :, :]),
                       axis=2)
    else:
        cols = np.cos(2.0 * np.pi * (t @ arr.T))
    return cols * weights[None, :]


def plan_a_least_squares_check(f_values, lattice: Rank1Lattice, L: IndexSet,
                               space: str, tol: float = 1e-9,
                               size_limit: int = 10**6) -> bool:
    """True iff the plan-A (or Fourier) coefficients equal the minimizer of
    the weighted least-squares problem, solved densely via the normal
    equations."""
    if lattice.n * len(L) > size_limit:
        raise SizeLimit(f"n * |L| = {lattice.n * len(L)} exceeds the dense "
                        f"oracle limit {size_limit}")
    f_values = np.asarray(f_values)
    fast = coeffs_from_values(space, lattice, L, f_values, "A")
    fast_vec = np.asarray([fast[k] for k in L])
    U = basis_matrix(lattice, L, space, "u")
    gram = U.conj().T @ U / lattice.n
    rhs = U.conj().T @ f_values.astype(np.complex128) / lattice.n
    solved = np.linalg.solve(gram, rhs)
    if space != "fourier":
        solved = solved.real
    return bool(np.max(np.abs(solved - fast_vec)) <= tol)
