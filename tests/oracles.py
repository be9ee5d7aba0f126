"""Dense-matrix reference implementations used only by the tests.

Everything here is built from explicit formulas with plain loops or
np.exp on index grids -- no calls into the package's FFT-based kernels --
so a match between the two is meaningful evidence, not a tautology.
"""

import numpy as np
from scipy.linalg import lstsq

from wdnoma.channel import PathSet, apply_dd_channel_samples, path_from_bin


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


def atom_formula(s: np.ndarray, tau: int, kappa: int, N: int) -> np.ndarray:
    """phi_{tau,kappa}[n] = e^{-j 2 pi kappa ((n - tau) mod L) / N} s[(n - tau) mod L]."""
    shifted = (np.arange(s.size) - tau) % s.size
    return np.exp(-2j * np.pi * kappa * shifted / N) * s[shifted]


def dictionary_atoms(s: np.ndarray, tau_grid, nu_grid, N: int) -> np.ndarray:
    """(n_tau, n_nu, L) sensing atoms built one Doppler replica at a time:
    ``s`` through a unit-gain path at delay 0 and Doppler bin kappa, then
    every cyclic delay of that replica."""
    L = s.size
    tau_grid = np.asarray(list(tau_grid))
    atoms = np.empty((tau_grid.size, len(nu_grid), L), dtype=np.complex128)
    delayed = (np.arange(L) - tau_grid[:, None]) % L
    for j, kappa in enumerate(nu_grid):
        path = path_from_bin(1.0, 0, int(kappa), N, L)
        atoms[:, j] = apply_dd_channel_samples(s, PathSet((path,), L))[delayed]
    return atoms


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


def dense_equivalent_channel(N: int, L: int, c1: float, c2: float, paths,
                             waveform: str = "afdm", N1: int = 1) -> np.ndarray:
    """Five-matrix product demod R H_ltv A mod for one waveform chain.

    AFDM: DAFT R H A_cpp DAFT^H; OTFS: W^H R H A_cp W with
    W = F_N2^H kron I_N1 (``N1`` delay bins); OFDM: F R H A_cp F^H. Each
    modulator's core R A W is unitary, so its conjugate transpose is the
    demodulator.
    """
    if waveform == "afdm":
        mod = dense_afdm_mod(N, L, c1, c2)
    elif waveform == "otfs":
        mod = dense_otfs_w(N1, N // N1, L)
    elif waveform == "ofdm":
        mod = dense_ofdm_mod(N, L)
    else:
        raise ValueError(f"unknown waveform {waveform!r}")
    R = dense_prefix_remove(N, L)
    return (R @ mod).conj().T @ R @ dense_channel(N + L, paths) @ mod


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
