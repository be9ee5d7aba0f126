"""Dense-matrix reference implementations used only by the tests.

Everything here is built from explicit formulas with plain loops or
np.exp on index grids -- no calls into the package's FFT-based kernels --
so a match between the two is meaningful evidence, not a tautology. The
exception is the residual-domain 2D-OMP, the algorithm ``omp_2d`` replaced:
its correlator reads the dictionary's spectra through numpy's FFT, and a
test checks that correlator against the dense matrix-vector products.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq

from wdnoma.channel import Channels, apply_dd_channel_samples, path_from_bin
from wdnoma.harness import _rng


def channel_of(paths, frame_len: int) -> Channels:
    """One channel of ``paths``, an iterable of (gain, delay_samples,
    doppler_norm) tuples, the Doppler in cycles per frame."""
    paths = list(paths)
    return Channels([p[0] for p in paths], [p[1] for p in paths], [p[2] for p in paths],
                    frame_len)


def bin_channel(paths, N: int, frame_len: int) -> Channels:
    """One channel of (gain, delay_samples, kappa) paths, each kappa an
    integer Doppler bin: kappa cycles across the N core samples."""
    return channel_of([(g, l, kappa * frame_len / N) for g, l, kappa in paths], frame_len)


def path_tuples(ch: Channels) -> list:
    """The (gain, delay_samples, doppler_norm) of each path of a one-row channel."""
    (gains,), (delays,), (doppler,) = ch.gains.tolist(), ch.delays.tolist(), ch.doppler.tolist()
    return list(zip(gains, delays, doppler))


def draw_targets_loop(cfg, trial: int) -> list:
    """One trial's targets as (range_m, velocity_mps, gain, delay,
    doppler_norm), drawn and quantized one target at a time: per target a
    uniform phase of its gain, a uniform range and a uniform velocity, each a
    scalar draw from the trial's "targets" stream, redrawn in full until no
    two targets share a (delay, Doppler) cell. The delay rounds 2 r f_s / c
    to samples, the Doppler bin kappa rounds 2 f_c v / (c delta_f), and the
    path's Doppler is kappa L / N cycles per frame."""
    sys_, ch = cfg.system, cfg.channel
    rng = _rng(cfg.sweep.master_seed, trial, "targets")
    c = 299_792_458.0
    while True:
        out = []
        for _ in range(ch.target_count):
            gain = np.exp(2j * np.pi * rng.uniform())
            r, v = rng.uniform(*ch.range_bounds), rng.uniform(*ch.velocity_bounds)
            delay = int(round(2.0 * r / c * sys_.sample_rate))
            kappa = int(round(2.0 * sys_.f_c * v / c / sys_.delta_f))
            assert delay <= sys_.L_cp
            out.append((r, v, gain, delay, kappa * sys_.frame_len_cp / sys_.N))
        if len({(t[3], t[4]) for t in out}) == ch.target_count:
            return out


def uplink_paths_loop(taps: int, doppler_bins, rng, N: int, frame_len: int) -> list:
    """(gain, delay_samples, doppler_norm) of each Rayleigh uplink tap, built
    tap by tap: CN(0, 1/taps) gains at delays 0..taps-1, then one Doppler bin
    per tap drawn from ``doppler_bins``."""
    gains = (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / np.sqrt(2.0 * taps)
    kappas = rng.choice(np.asarray(list(doppler_bins), dtype=np.int64), size=taps)
    return [(gains[i], i, int(kappas[i]) * frame_len / N) for i in range(taps)]


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
        atoms[:, j] = apply_dd_channel_samples(s, path_from_bin(1.0, 0, int(kappa), N, L))[delayed]
    return atoms


def grid_atoms(dic, cells, trial=0) -> np.ndarray:
    """(len(cells), L) atoms of row ``trial`` of the dictionary at the
    tau-major flat grid indices ``cells``: atom[n] = replica_nu[(n - tau) mod L]."""
    i, j = np.divmod(np.asarray(cells, dtype=np.int64), dic.nu_grid.size)
    L = dic.atoms.shape[-1]
    return dic.atoms[trial][j[:, None], (np.arange(L) - dic.tau_grid[i][:, None]) % L]


def correlator(dic, trial=0):
    """r -> (n_tau, n_nu) inner products <atom(tau, nu), r> of row ``trial``
    of the dictionary: each replica's cyclic cross-correlation with r from
    its spectrum, read at the grid delays."""
    spectra = dic.spectra_conj[trial]
    return lambda r: np.fft.ifft(spectra * np.fft.fft(r), axis=-1)[:, dic.tau_grid].T


def refit_gains(y: np.ndarray, dic, cells, trial=0) -> np.ndarray:
    """Least-squares gains of the atoms at ``cells`` for the signal ``y``."""
    gains, *_ = lstsq(grid_atoms(dic, cells, trial).T, np.asarray(y, dtype=np.complex128))
    return gains


def omp_2d_residual(y: np.ndarray, dic, P: int, trial=0) -> list:
    """Residual-domain 2D-OMP: correlate the explicit residual with every
    cell, pick the largest, refit all picks by least squares on their atoms
    and subtract. Returns the picked tau-major flat cells in order."""
    correlate = correlator(dic, trial)
    r0 = np.asarray(y, dtype=np.complex128)
    r, selected = r0, []
    for _ in range(P):
        selected.append(int(np.argmax(np.abs(correlate(r)))))
        r = r0 - grid_atoms(dic, selected, trial).T @ refit_gains(r0, dic, selected, trial)
    return selected


@dataclass(frozen=True)
class TargetEstimate:
    """One estimate in physical units, as the matching oracle reads it."""
    tau_hat: int
    nu_hat: int
    range_m: float = 0.0
    velocity_mps: float = 0.0


def match_targets_loop(estimates, truths) -> list:
    """Greedy nearest-neighbour pairing by a search over all free pairs per
    step: the first strictly smaller normalized distance wins."""
    r_scale = max(max(abs(t.range_m) for t in truths), 1e-12)
    v_scale = max(max(abs(t.velocity_mps) for t in truths), 1e-12)
    free_e, free_t, pairs = list(range(len(estimates))), list(range(len(truths))), []
    while free_t:
        best = None
        for ei in free_e:
            for ti in free_t:
                d = ((estimates[ei].range_m - truths[ti].range_m) / r_scale) ** 2 + \
                    ((estimates[ei].velocity_mps - truths[ti].velocity_mps) / v_scale) ** 2
                if best is None or d < best[0]:
                    best = (d, ei, ti)
        _, ei, ti = best
        free_e.remove(ei)
        free_t.remove(ti)
        pairs.append((estimates[ei], truths[ti]))
    return pairs


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


def equivalent_channel_taps_loop(ch, cfg, waveform: str):
    """(delays, taps) of the time-domain factor H_t, one path at a time: the
    distinct delays ascending, and per delay the sum, in path order, of
    h e^{-j 2 pi nu (L + i - l) / (N + L)} over core samples i, the channel's
    Doppler factor at the frame sample L + i - l they read, with samples
    i < l weighted by that sample's chirp-periodic prefix phase (AFDM only).

    The build loop ``build_equivalent_channel`` ran before it formed all
    paths in one pass. It weighted each path in place, ``val[:l] *= w``;
    here the product is written out of place, as the one-pass build forms
    it. numpy runs an in-place product of one element through its reduction
    loop, which rounds without the fused multiply-add of its vector loop, so
    with l = 1 the in-place form can differ in the last bit.
    """
    N, prefix = cfg.N, cfg.L_cp
    paths = path_tuples(ch)
    delays = tuple(sorted({l for _, l, _ in paths}))
    taps = np.zeros((len(delays), N), dtype=np.complex128)
    k = np.arange(prefix)
    weights = np.exp(-2j * np.pi * cfg.c1 * (N * N - 2.0 * N * (prefix - k)))
    for gain, l, doppler_norm in paths:
        src = prefix + np.arange(N) - l
        val = gain * np.exp(-2j * np.pi * doppler_norm * src / ch.frame_len)
        if l and waveform == "afdm":
            val[:l] = val[:l] * weights[prefix - l:]
        taps[delays.index(l)] += val
    return delays, taps


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


def embed(syms: np.ndarray, layout, N: int) -> np.ndarray:
    """Zero-guarded length-N frame with ``syms`` on the layout's data bins."""
    frame = np.zeros(N, dtype=np.complex128)
    frame[layout.data] = syms
    return frame


def random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _gray_decode(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < b.itemsize * 8:
        b ^= b >> shift
        shift *= 2
    return b


def _qam_axis(M: int):
    m_axis = int(round(np.sqrt(M)))
    return m_axis, int(np.log2(m_axis)), np.sqrt(2.0 * (M - 1) / 3.0)


def _axis_index(vals: np.ndarray, m_axis: int) -> np.ndarray:
    """Index k of the nearest level m_axis - 1 - 2k of one scaled PAM axis."""
    return np.clip(np.round((m_axis - 1 - vals) / 2.0).astype(np.int64), 0, m_axis - 1)


def qam_map_formula(bits: np.ndarray, M: int) -> np.ndarray:
    """Gray-coded square M-QAM by arithmetic: each half of a symbol's bits
    is Gray-decoded to the index k of its axis level m_axis - 1 - 2k."""
    m_axis, bpa, scale = _qam_axis(M)
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, 2 * bpa)
    weights = 1 << np.arange(bpa - 1, -1, -1, dtype=np.int64)
    li = m_axis - 1 - 2 * _gray_decode(groups[:, :bpa] @ weights)
    lq = m_axis - 1 - 2 * _gray_decode(groups[:, bpa:] @ weights)
    return (li + 1j * lq) / scale


def qam_demap_formula(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest-point hard bits by arithmetic: each axis's level index, Gray
    coded as k ^ (k >> 1), in-phase bits first."""
    m_axis, bpa, scale = _qam_axis(M)
    symbols = np.asarray(symbols) * scale

    def axis_bits(vals):
        g = _axis_index(vals, m_axis)
        g = g ^ (g >> 1)
        return (g[:, None] >> np.arange(bpa - 1, -1, -1)) & 1

    return np.concatenate([axis_bits(symbols.real), axis_bits(symbols.imag)], axis=1).reshape(-1)


def qam_slice_formula(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest constellation point by arithmetic, any shape."""
    m_axis, _, scale = _qam_axis(M)
    symbols = np.asarray(symbols) * scale
    li = m_axis - 1 - 2 * _axis_index(symbols.real, m_axis)
    lq = m_axis - 1 - 2 * _axis_index(symbols.imag, m_axis)
    return (li + 1j * lq) / scale
