"""Core unitary transforms and prefix operations.

DFT/IDFT with symmetric 1/sqrt(N) normalization, quadratic-chirp diagonal
multiplies, the discrete affine Fourier transform (DAFT) implemented as
chirp-FFT-chirp, and cyclic / chirp-periodic prefix handling.

Conventions:
  * chirp_vector(N, c)[n] = exp(-j 2 pi c n^2), matching the diagonal of
    the chirp matrix used throughout.
  * Forward DAFT multiplies by the c1 chirp, takes the normalized DFT, then
    multiplies by the c2 chirp. The inverse undoes the three steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChirpParams:
    """Quadratic chirp rates (cycles per squared sample index)."""

    c1: float
    c2: float = 0.0

    @classmethod
    def for_max_doppler(cls, kappa_max: int, N: int) -> "ChirpParams":
        """Default c1 = (2*kappa_max + 1) / (2N), c2 = 0.

        Makes 2*N*c1 an odd integer, so a (delay, Doppler) path maps to a
        single coupled shift in the affine domain.
        """
        if kappa_max < 0:
            raise ValueError("kappa_max must be non-negative")
        return cls(c1=(2 * kappa_max + 1) / (2 * N), c2=0.0)

    def shift_factor(self, N: int) -> int:
        """2*N*c1 rounded to the nearest integer (validated)."""
        raw = 2.0 * N * self.c1
        k = int(round(raw))
        if abs(raw - k) > 1e-9:
            raise ValueError(f"2*N*c1 = {raw} is not an integer; c1 must be k/(2N)")
        return k


def chirp_vector(N: int, c: float) -> np.ndarray:
    """exp(-j 2 pi c n^2) for n = 0..N-1."""
    n = np.arange(N)
    return np.exp(-2j * np.pi * c * n * n)


# ---------------------------------------------------------------------------
# Array kernels (operate on the last axis; shared with batched callers).
# Prefix lengths are validated once, by SystemConfig.
# ---------------------------------------------------------------------------

def dft_samples(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, axis=-1) / np.sqrt(x.shape[-1])


def idft_samples(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, axis=-1) * np.sqrt(x.shape[-1])


def daft_samples(x: np.ndarray, p: ChirpParams) -> np.ndarray:
    N = x.shape[-1]
    return chirp_vector(N, p.c2) * dft_samples(chirp_vector(N, p.c1) * x)


def idaft_samples(y: np.ndarray, p: ChirpParams) -> np.ndarray:
    N = y.shape[-1]
    return chirp_vector(N, p.c1).conj() * idft_samples(chirp_vector(N, p.c2).conj() * y)


def add_cp_samples(x: np.ndarray, L_cp: int) -> np.ndarray:
    if L_cp == 0:
        return x.copy()
    return np.concatenate([x[..., -L_cp:], x], axis=-1)


def cpp_prefix_phases(N: int, L_cpp: int, c1: float) -> np.ndarray:
    """Diagonal of the CPP weighting: exp(-j 2 pi c1 (N^2 - 2N(L-k))), k=0..L-1."""
    k = np.arange(L_cpp)
    return np.exp(-2j * np.pi * c1 * (N * N - 2.0 * N * (L_cpp - k)))


def add_cpp_samples(x: np.ndarray, L_cpp: int, c1: float) -> np.ndarray:
    if L_cpp == 0:
        return x.copy()
    N = x.shape[-1]
    prefix = cpp_prefix_phases(N, L_cpp, c1) * x[..., -L_cpp:]
    return np.concatenate([prefix, x], axis=-1)
