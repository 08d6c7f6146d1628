"""Slow reference implementations that the tests check the library against:
dense O(n^2) transforms and the per-index synthesis loops."""

import math

import numpy as np

from lattice_recon import dft, unique_sign_changes, zero_count


def dft_direct(x, direction: str = "forward") -> np.ndarray:
    """Direct O(n^2) DFT; forward is normalized by 1/n, inverse by 1."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    sign = -2j if direction == "forward" else 2j
    i = np.arange(n)
    matrix = np.exp(sign * np.pi / n * np.outer(i, i))
    out = matrix @ x
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
        out = out + np.cos(np.pi / m * np.outer(kappa, i)) @ x[1:m]
    return out / m


def dct_v(x) -> np.ndarray:
    """DCT-V of length m with the lattice normalization for n = 2m-1:
    F_kappa = (1/(2m-1)) (x_0 + 2 sum_{i=1}^{m-1} x_i cos(2 pi i kappa / (2m-1)))."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if m < 1:
        raise ValueError("DCT-V needs at least one sample")
    n = 2 * m - 1
    out = np.full(m, x[0], dtype=np.float64)
    if m > 1:
        kappa = np.arange(m)
        i = np.arange(1, m)
        out = out + 2.0 * (np.cos(2.0 * np.pi / n * np.outer(kappa, i)) @ x[1:])
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
