"""Core unitary transforms and prefix operations.

DFT/IDFT with symmetric 1/sqrt(N) normalization, the DFT across the OTFS
Doppler axis, quadratic-chirp diagonal multiplies, the discrete affine
Fourier transform (DAFT) implemented as chirp-FFT-chirp, and cyclic /
chirp-periodic prefix handling.

Normalization. Every DFT here is numpy's ``norm="ortho"`` FFT: the
unnormalized transform times the double fl(1 / fl(sqrt(N))), one rounding
per output. Where sqrt(N) is a power of two (N = 16, 256, 1024) that
factor is exact and so is the scaling; at other lengths the result is
within 1 ulp of the correctly rounded transform / sqrt(N).

Conventions:
  * chirp_vector(N, c)[n] = exp(-j 2 pi c n^2), matching the diagonal of
    the chirp matrix used throughout.
  * Forward DAFT multiplies by the c1 chirp, takes the normalized DFT, then
    multiplies by the c2 chirp. The inverse undoes the three steps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def default_c1(kappa_max: int, N: int) -> float:
    """The paper's c1 = (2*kappa_max + 1) / (2N).

    Makes 2*N*c1 an odd integer, so a (delay, Doppler) path maps to a
    single coupled shift in the affine domain.
    """
    if kappa_max < 0:
        raise ValueError("kappa_max must be non-negative")
    return (2 * kappa_max + 1) / (2 * N)


def shift_factor(N: int, c1: float) -> int:
    """The affine shift 2*N*c1, validated as a non-negative integer: below
    zero a guard's delay-coupled spread would reach past its far edge."""
    raw = 2.0 * N * c1
    if not (np.isfinite(raw) and abs(raw - round(raw)) <= 1e-9 and round(raw) >= 0):
        raise ValueError(f"2*N*c1 = {raw} is not a non-negative integer k; c1 must be k/(2N)")
    return int(round(raw))


@lru_cache(maxsize=64)
def chirp_vector(N: int, c: float) -> np.ndarray:
    """exp(-j 2 pi c n^2) for n = 0..N-1; cached per (N, c), so read-only."""
    n = np.arange(N)
    v = np.exp(-2j * np.pi * c * n * n)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# Array kernels (operate on the last axis; shared with batched callers).
# Prefix lengths are validated once, by SystemConfig.
# ---------------------------------------------------------------------------

def dft_samples(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, axis=-1, norm="ortho")


def idft_samples(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, axis=-1, norm="ortho")


def doppler_dft_samples(y: np.ndarray, N1: int, N2: int) -> np.ndarray:
    """Unitary DFT across the Doppler axis of delay-major OTFS frames: entry
    n2*N1 + n1 of the last axis is delay bin n1 of Doppler bin n2."""
    grid = y.reshape(y.shape[:-1] + (N2, N1))
    return np.fft.fft(grid, axis=-2, norm="ortho").reshape(y.shape)


def doppler_idft_samples(X: np.ndarray, N1: int, N2: int) -> np.ndarray:
    """Inverse of ``doppler_dft_samples``."""
    grid = X.reshape(X.shape[:-1] + (N2, N1))
    return np.fft.ifft(grid, axis=-2, norm="ortho").reshape(X.shape)


def daft_samples(x: np.ndarray, c1: float, c2: float) -> np.ndarray:
    N = x.shape[-1]
    return chirp_vector(N, c2) * dft_samples(chirp_vector(N, c1) * x)


def idaft_samples(y: np.ndarray, c1: float, c2: float) -> np.ndarray:
    N = y.shape[-1]
    return chirp_vector(N, c1).conj() * idft_samples(chirp_vector(N, c2).conj() * y)


def add_cp_samples(x: np.ndarray, L_cp: int) -> np.ndarray:
    if L_cp == 0:
        return x.copy()
    return np.concatenate([x[..., -L_cp:], x], axis=-1)


@lru_cache(maxsize=64)
def cpp_prefix_phases(N: int, L_cpp: int, c1: float) -> np.ndarray:
    """Diagonal of the CPP weighting: exp(-j 2 pi c1 (N^2 - 2N(L-k))), k=0..L-1;
    cached per (N, L_cpp, c1), so read-only."""
    k = np.arange(L_cpp)
    v = np.exp(-2j * np.pi * c1 * (N * N - 2.0 * N * (L_cpp - k)))
    v.flags.writeable = False
    return v


def add_cpp_samples(x: np.ndarray, L_cpp: int, c1: float) -> np.ndarray:
    if L_cpp == 0:
        return x.copy()
    N = x.shape[-1]
    prefix = cpp_prefix_phases(N, L_cpp, c1) * x[..., -L_cpp:]
    return np.concatenate([prefix, x], axis=-1)
