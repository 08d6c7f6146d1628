"""Built-in test functions: explicit finite series with decaying
coefficients, and smooth closed-form functions whose reference coefficients
come from a high-resolution reference transform."""

from __future__ import annotations

import numpy as np

from .approx import TestFunction
from .cbc import CbcTask, cbc_construct, next_prime, required_n
from .indexset import IndexSet, WeightedSetRule, make_weighted_set
from .transform import CoefficientTable


def _series_evaluator(space: str, table: CoefficientTable):
    keys = sorted(table.entries)
    arr = np.asarray(keys, dtype=np.int64)
    coeff = np.asarray([table.entries[k] for k in keys])

    if space == "fourier":
        def evaluate(points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            return np.exp(2j * np.pi * (points @ arr.T)) @ coeff
        return evaluate

    weights = np.sqrt(2.0) ** np.count_nonzero(arr, axis=1)

    if space == "cosine":
        def evaluate(points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            basis = np.prod(
                np.cos(np.pi * points[:, None, :] * arr[None, :, :]), axis=2)
            return basis @ (weights * coeff)
        return evaluate

    def evaluate(points):
        # T_k(x) = cos(k arccos x) on [-1, 1]
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        theta = np.arccos(np.clip(points, -1.0, 1.0))
        basis = np.prod(np.cos(theta[:, None, :] * arr[None, :, :]), axis=2)
        return basis @ (weights * coeff)
    return evaluate


def series_function(space: str, table: CoefficientTable,
                    name: str = "series") -> TestFunction:
    """Explicit finite series; its own coefficients are the reference."""
    return TestFunction(
        evaluator=_series_evaluator(space, table),
        space=space,
        dimension=table.dimension,
        reference_coeffs=table,
        name=name,
    )


def random_series(space: str, L: IndexSet,
                  rng: np.random.Generator) -> TestFunction:
    """Random coefficients of unit scale on L (complex for Fourier)."""
    if space == "fourier":
        values = rng.standard_normal(len(L)) + 1j * rng.standard_normal(len(L))
    else:
        values = rng.standard_normal(len(L))
    table = CoefficientTable(space, L.dimension,
                             dict(zip(L, values.tolist())))
    return series_function(space, table, name="random-series")


def geometric_decay(space: str, dimension: int, rng: np.random.Generator,
                    ratio: float = 0.4, degree: int = 8) -> TestFunction:
    """Series on a product-rule reference set with coefficients of size
    ratio^|k|_1 and random signs."""
    rule = WeightedSetRule("product", (1.0,) * dimension, degree)
    ref_set = make_weighted_set(rule, dimension)
    entries = {}
    for k in ref_set:
        magnitude = ratio ** sum(abs(kj) for kj in k)
        if space == "fourier":
            phase = np.exp(2j * np.pi * rng.random())
            entries[k] = magnitude * phase
        else:
            entries[k] = magnitude * (1 if rng.random() < 0.5 else -1)
    table = CoefficientTable(space, dimension, entries)
    return series_function(space, table, name="geometric")


def _smooth_evaluator(space: str, dimension: int):
    scale = 1.0 / (2.0 + np.arange(dimension))
    if space == "fourier":
        def evaluate(points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            return np.exp(np.sin(2.0 * np.pi * points) @ scale)
    elif space == "cosine":
        def evaluate(points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            return np.exp(-(points**2) @ scale)
    else:
        def evaluate(points):
            points = np.atleast_2d(np.asarray(points, dtype=np.float64))
            return np.exp(points @ scale) / (1.0 + 0.25 * (points**2) @ scale)
    return evaluate


def smooth_function(space: str, dimension: int) -> TestFunction:
    """One smooth closed-form function per space, without reference
    coefficients; attach them with :func:`with_reference`."""
    return TestFunction(
        evaluator=_smooth_evaluator(space, dimension),
        space=space,
        dimension=dimension,
        reference_coeffs=None,
        name=f"smooth-{space}",
    )


def with_reference(f: TestFunction, ref_set: IndexSet,
                   working_n: int, n_factor: int = 16) -> TestFunction:
    """Compute reference coefficients for f on ref_set with a reconstruction
    lattice of at least n_factor times the working n."""
    from .approx import approx_coeffs

    plan = None if f.space == "fourier" else "B"
    probe = CbcTask(f.space, "reconstruction", ref_set, plan=plan)
    n_ref = required_n(probe)
    if n_ref < n_factor * working_n:
        n_ref = next_prime(n_factor * working_n)
    task = CbcTask(f.space, "reconstruction", ref_set, plan=plan, n=n_ref)
    result = cbc_construct(task)
    table = approx_coeffs(f, result.lattice(), ref_set, f.space, task.plan)
    return TestFunction(
        evaluator=f.evaluator,
        space=f.space,
        dimension=f.dimension,
        reference_coeffs=table,
        name=f.name,
    )


BUILTIN_FUNCTIONS = ("geometric", "smooth")


def builtin_test_function(name: str, space: str, dimension: int,
                          rng: np.random.Generator) -> TestFunction:
    if name == "geometric":
        return geometric_decay(space, dimension, rng)
    if name == "smooth":
        return smooth_function(space, dimension)
    raise ValueError(f"unknown test function {name!r}; "
                     f"available: {', '.join(BUILTIN_FUNCTIONS)}")
