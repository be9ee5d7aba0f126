"""Dense-matrix reference implementations used only by the tests.

Everything here is built from explicit formulas with plain loops or
np.exp on index grids -- no calls into the package's FFT-based kernels --
so a match between the two is meaningful evidence, not a tautology.
"""

import numpy as np
from scipy.linalg import lstsq


def dense_dft(N: int) -> np.ndarray:
    """Unitary DFT matrix F[k, n] = exp(-j 2 pi k n / N) / sqrt(N)."""
    k = np.arange(N)[:, None]
    n = np.arange(N)[None, :]
    return np.exp(-2j * np.pi * k * n / N) / np.sqrt(N)


def dense_chirp_diag(N: int, c: float) -> np.ndarray:
    """Diagonal matrix with entries exp(-j 2 pi c n^2)."""
    n = np.arange(N)
    return np.diag(np.exp(-2j * np.pi * c * n * n))


def dense_daft(N: int, c1: float, c2: float) -> np.ndarray:
    """Lambda_c2 @ F @ Lambda_c1 with the unitary F above."""
    return dense_chirp_diag(N, c2) @ dense_dft(N) @ dense_chirp_diag(N, c1)


def dense_cp_add(N: int, L: int) -> np.ndarray:
    """(N+L) x N matrix prepending the last L samples."""
    A = np.zeros((N + L, N), dtype=np.complex128)
    for k in range(L):
        A[k, N - L + k] = 1.0
    A[L:, :] = np.eye(N)
    return A


def dense_cpp_add(N: int, L: int, c1: float) -> np.ndarray:
    """(N+L) x N chirp-periodic prefix matrix.

    Prefix row k copies sample N-L+k weighted by
    exp(-j 2 pi c1 (N^2 - 2 N (L - k))).
    """
    A = np.zeros((N + L, N), dtype=np.complex128)
    for k in range(L):
        A[k, N - L + k] = np.exp(-2j * np.pi * c1 * (N * N - 2.0 * N * (L - k)))
    A[L:, :] = np.eye(N)
    return A


def dense_prefix_remove(N: int, L: int) -> np.ndarray:
    """N x (N+L) matrix dropping the first L samples."""
    R = np.zeros((N, N + L), dtype=np.complex128)
    R[:, L:] = np.eye(N)
    return R


def dense_channel(frame_len: int, paths) -> np.ndarray:
    """sum_p h_p Pi^tau Delta^nu over one frame of length L.

    ``paths`` is an iterable of (gain, delay_samples, doppler_norm) with
    doppler_norm in cycles per frame; matches
    r[n] = sum_p h_p e^{-j2pi nu (n-tau mod L)/L} s[(n-tau) mod L].
    """
    L = frame_len
    H = np.zeros((L, L), dtype=np.complex128)
    n = np.arange(L)
    for gain, tau, nu in paths:
        delta = np.diag(np.exp(-2j * np.pi * nu * n / L))
        pi = np.zeros((L, L))
        for i in range(L):
            pi[(i + tau) % L, i] = 1.0
        H += gain * (pi @ delta)
    return H


def dense_otfs_w(N1: int, N2: int, L_cp: int) -> np.ndarray:
    """A_cp (F_N2^H kron I_N1): delay-major delay-Doppler -> prefixed time."""
    F2 = dense_dft(N2)
    W = np.kron(F2.conj().T, np.eye(N1))
    return dense_cp_add(N1 * N2, L_cp) @ W


def dense_afdm_mod(N: int, L_cpp: int, c1: float, c2: float) -> np.ndarray:
    """A_cpp @ DAFT^H: affine symbols -> prefixed time frame."""
    return dense_cpp_add(N, L_cpp, c1) @ dense_daft(N, c1, c2).conj().T


def dense_ofdm_mod(N: int, L_cp: int) -> np.ndarray:
    """A_cp @ F^H: frequency symbols -> prefixed time frame."""
    return dense_cp_add(N, L_cp) @ dense_dft(N).conj().T


def dense_equivalent_channel(N: int, L_cpp: int, c1: float, c2: float, paths) -> np.ndarray:
    """Five-matrix product DAFT R H_ltv A_cpp DAFT^H for the AFDM chain."""
    A = dense_daft(N, c1, c2)
    return (A @ dense_prefix_remove(N, L_cpp) @ dense_channel(N + L_cpp, paths)
            @ dense_cpp_add(N, L_cpp, c1) @ A.conj().T)


def dense_mmse(H: np.ndarray, d: np.ndarray, sigma2: float) -> np.ndarray:
    """Textbook regularized solve via explicit inversion (test-only)."""
    N = H.shape[0]
    return np.linalg.inv(H.conj().T @ H + sigma2 * np.eye(N)) @ H.conj().T @ d


def lstsq_mmse(H: np.ndarray, d: np.ndarray, sigma2: float) -> np.ndarray:
    """Solve (H^H H + sigma2 I) x = H^H d without forming the normal equations.

    Least squares on the stacked system [H; sqrt(sigma2) I] keeps the
    conditioning of H itself; the normal equations square it, which matters
    in the near-noiseless case where the regularizer vanishes. With
    sigma2 = 0 this is exact zero-forcing; a rank-deficient H is reported as
    a LinAlgError.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    N = H.shape[0]
    A = np.vstack([H, np.sqrt(sigma2) * np.eye(N, dtype=np.complex128)])
    b = np.concatenate([d, np.zeros(N, dtype=np.complex128)])
    x, _, rank, _ = lstsq(A, b, lapack_driver="gelsy")
    if sigma2 == 0 and rank < N:
        raise np.linalg.LinAlgError(
            f"equivalent channel is rank deficient ({rank} < {N}) and sigma2 = 0")
    return x


def embed(syms: np.ndarray, layout) -> np.ndarray:
    """Zero-guarded frame with ``syms`` on the layout's data bins."""
    frame = np.zeros(layout.N, dtype=np.complex128)
    frame[layout.data] = syms
    return frame


def random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)
