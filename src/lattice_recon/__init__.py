"""Rank-1 lattices for exact integration and function reconstruction on
finite index sets in the Fourier, half-period cosine and Chebyshev settings,
with component-by-component construction of the generating vectors and fast
FFT coefficient maps."""

from .approx import (ErrorReport, MissingCTable, MissingReference, SizeLimit,
                     StabilityReport, TestFunction, approx_coeffs,
                     basis_matrix, discrete_seminorm, error_decomposition,
                     plan_a_least_squares_check, stability_constant)
from .cbc import (CbcResult, CbcStats, CbcTask, InvalidTask,
                  RetryLimitExceeded, VerifyResult, cbc_construct, is_prime,
                  next_prime, required_n, verify_fourier, verify_nonzero,
                  verify_plan_a, verify_plan_b, verify_plan_c)
from .indexset import (IndexSet, SetReport, WeightedSetRule, difference_set,
                       is_downward_closed, make_weighted_set, mirror_expand,
                       mirrored, project, properties, random_downward_closed,
                       read_indexset, sum_set, write_indexset, zero_count)
from .lattice import (Rank1Lattice, TransformKind, lattice_from_line,
                      read_lattice, tent, write_lattice)
from .testfunctions import (builtin_test_function, geometric_decay,
                            random_series, series_function, smooth_function,
                            with_reference)
from .transform import (AliasingDetected, CoefficientTable,
                        chebyshev_coeffs_from_values,
                        chebyshev_values_from_coeffs,
                        coeffs_from_values, cosine_coeffs_from_values,
                        cosine_values_from_coeffs, dft,
                        fourier_coeffs_from_values,
                        fourier_values_from_coeffs, read_coefficients,
                        read_values, sample_values, values_from_coeffs,
                        write_coefficients, write_values)

__version__ = "0.1.0"
