"""Delay-Doppler target estimation from the post-cancellation echo.

Dictionary. ``build_dictionary`` works on the downlink frames of a chunk's
T trials. Per trial it stores one zero-delay atom per Doppler bin (the
frame times that bin's phase ramp) and the atoms' conjugate spectra; every
atom is a cyclic delay of one of these replicas. It also builds, once per
chunk, each trial's replica cross-correlation table: the cyclic
cross-correlation of every pair of replicas, read at every delay
difference of the grid. That is 16 n_nu^2 (2 n_tau - 1) bytes per trial
on a contiguous delay grid.

Correlations. ``correlate`` gives every cell's correlation with each of
M residuals per trial (every SNR point and mode of a chunk) in one FFT
pass: one FFT per residual, one product with the trial's conjugate
replica spectra and one inverse FFT per replica, read at the grid delays. Each row of a
numpy FFT is transformed alone, so a row of the stack is bit for bit the
correlation of that residual computed by itself.

2D-OMP. ``omp_2d`` runs the greedy picks of one (trial, mode) on those
correlations, not on residuals. Each pick adds a column holding every
cell's correlation with the picked atom, read from the table. Refitting
all picks jointly by their k x k normal equations (rather than
subtracting one atom) makes noiseless on-grid scenarios exactly
recoverable, and the refit updates every correlation without forming a
residual.

Scoring. ``estimate_to_physical`` and ``matched_squared_errors`` work on
the (rows, P) picks of one mode at every SNR point and trial at once. The
greedy matching pairs the closest free (estimate, truth) pair first, ties
to the lower estimate and then the lower truth, and each sum runs over
the pairs in the order they were matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT, doppler_bin_to_norm, doppler_ramp
from .waveforms import SystemConfig

_BLOCK = 1 << 16        # samples per block of the correlation pass's FFTs


@dataclass(frozen=True)
class Dictionary:
    atoms: np.ndarray        # (T, n_nu, L) zero-delay atoms, one per trial and Doppler bin
    tau_grid: np.ndarray     # delays in samples
    nu_grid: np.ndarray      # integer Doppler bins
    spectra_conj: np.ndarray  # (T, n_nu, L) conjugate FFT of each atom
    energy: np.ndarray       # (T,) ||s_dl||^2 of each trial, every atom's energy
    xcorr: np.ndarray        # (T, n_nu, n_lag, n_nu) replica cross-correlations, see below
    lag_index: np.ndarray    # (n_tau, n_tau) [b, a]: lag (tau_grid[a] - tau_grid[b]) mod L in xcorr


@dataclass(frozen=True)
class OmpResult:
    targets: list            # P picked (tau_hat, nu_hat), in pick order


def build_dictionary(s_dl: np.ndarray, tau_grid, nu_grid, N: int) -> Dictionary:
    """Atoms are each trial's transmit time frame (row of the (T, L) stack
    ``s_dl``) pushed through each unit (tau, nu) path, so a recovered gain
    is directly comparable to the channel gain.

    xcorr[t, j, u, i] is the cyclic cross-correlation of replicas i and j of
    trial t, sum_n conj(a_i[n]) a_j[(n + m) mod L], at the lag m of entry u:
    every (tau_grid[a] - tau_grid[b]) mod L, numbered by lag_index[b, a]."""
    s = np.asarray(s_dl, dtype=np.complex128)
    if s.ndim != 2:
        raise ValueError(f"expected a (trials, L) stack of transmit frames, got shape {s.shape}")
    L = s.shape[-1]
    tau_grid = np.asarray(list(tau_grid), dtype=np.int64)
    nu_grid = np.asarray(list(nu_grid), dtype=np.int64)
    if tau_grid.size == 0 or nu_grid.size == 0 or not 0 <= tau_grid.min() <= tau_grid.max() < L:
        raise ValueError("the dictionary grid is empty or has delays outside the frame")
    ramps = np.array([doppler_ramp(doppler_bin_to_norm(int(k), N, L), L) for k in nu_grid])
    atoms = s[:, None] * ramps
    spectra = np.fft.fft(atoms, axis=-1)
    conj = spectra.conj()
    lags, lag_index = np.unique((tau_grid - tau_grid[:, None]) % L, return_inverse=True)
    xcorr = np.empty((len(s), nu_grid.size, lags.size, nu_grid.size), dtype=np.complex128)
    for x, a, b in zip(xcorr, conj, spectra):       # one trial at a time keeps the FFTs small
        x[...] = np.fft.ifft(a * b[:, None], axis=-1)[..., lags].swapaxes(-1, -2)
    return Dictionary(atoms=atoms, tau_grid=tau_grid, nu_grid=nu_grid, spectra_conj=conj,
                      energy=np.array([np.vdot(x, x).real for x in s]), xcorr=xcorr,
                      lag_index=lag_index.reshape(tau_grid.size, tau_grid.size))


def correlate(dic: Dictionary, residuals: np.ndarray) -> np.ndarray:
    """(T, M, L) residuals, M per trial of ``dic`` -> (T, M, n_tau * n_nu)
    correlations <atom(tau, nu), r> of every cell, tau-major."""
    r = np.asarray(residuals, dtype=np.complex128)
    T, n_nu, L = dic.atoms.shape
    if r.ndim != 3 or r.shape[0] != T or r.shape[-1] != L:
        raise ValueError(f"expected ({T}, M, {L}) residuals for the dictionary, got {r.shape}")
    out = np.empty((T, r.shape[1], dic.tau_grid.size, n_nu), dtype=np.complex128)
    step = max(1, _BLOCK // (r.shape[1] * n_nu * L))   # trials per block of the FFTs
    for lo in range(0, T, step):
        c = np.fft.ifft(dic.spectra_conj[lo:lo + step, None] *
                        np.fft.fft(r[lo:lo + step], axis=-1)[:, :, None], axis=-1)
        out[lo:lo + step] = c[..., dic.tau_grid].swapaxes(-1, -2)
    return out.reshape(T, r.shape[1], -1)


def omp_2d(corr: np.ndarray, dic: Dictionary, trial: int, P: int) -> OmpResult:
    """Greedy 2D grid search with a joint refit after every pick but the last,
    on the correlations ``corr`` (one row of ``correlate``) of trial ``trial``.

    Runs exactly P iterations (P = known target count). The refit residual
    r0 - A g has correlations c0 - C g, where column k of C holds every
    cell's correlation with the k-th pick, read from the trial's replica
    cross-correlation table. All atoms share the energy ||s_dl||^2 (cyclic
    delays, unit-modulus ramps), so no normalization.
    """
    n_tau, n_nu = dic.tau_grid.size, dic.nu_grid.size
    if not 1 <= P <= n_tau * n_nu:
        raise ValueError(f"P = {P} must be between 1 and the {n_tau * n_nu}-atom grid size")
    c0 = np.asarray(corr)
    if c0.shape != (n_tau * n_nu,):
        raise ValueError("the correlations do not match the dictionary grid")
    table, energy = dic.xcorr[trial], float(dic.energy[trial])
    c, C, selected = c0, np.empty((c0.size, P - 1), dtype=np.complex128), []
    for k in range(P):
        mag = np.abs(c)
        mag[selected] = -1.0
        selected.append(int(mag.argmax()))      # tau-major order keeps the grid's tie rule
        if k + 1 == P:  # the last pick needs no refit
            break
        i, j = divmod(selected[-1], n_nu)
        C[:, k] = table[j, dic.lag_index[i]].ravel()
        gram = C[selected, :k + 1]
        gram.flat[::k + 2] = energy
        # with one pick the normal equations are one division
        g = c0[selected] / energy if k == 0 else np.linalg.solve(gram, c0[selected])
        c = c0 - C[:, :k + 1] @ g
    return OmpResult(targets=[(int(dic.tau_grid[x // n_nu]), int(dic.nu_grid[x % n_nu]))
                              for x in selected])


def estimate_to_physical(tau_hat: np.ndarray, nu_hat: np.ndarray, cfg: SystemConfig):
    """Grid indices -> (range in m, radial velocity in m/s), element-wise;
    exact inverse of the target quantization for on-grid targets."""
    return (tau_hat * SPEED_OF_LIGHT / (2.0 * cfg.sample_rate),
            nu_hat * cfg.delta_f * SPEED_OF_LIGHT / (2.0 * cfg.f_c))


def _squared(x: np.ndarray) -> np.ndarray:
    """|x| ** 2 element-wise by Python's float power, which rounds
    differently from x * x in about 1 of 1000 values; the sums are pinned
    to it."""
    return np.array([v ** 2 for v in np.abs(x).ravel().tolist()]).reshape(x.shape)


def matched_squared_errors(est_r, est_v, true_r, true_v):
    """(range err, range ref, velocity err, velocity ref) sums over the
    matching of each row's estimates to its truths, all (T, P) arrays.

    Greedy nearest-neighbour pairing in (range, velocity) normalized by
    each row's largest truth: the closest free pair first, ties to the lower
    (estimate, truth) index."""
    est, true = (np.array([a, b], dtype=np.float64) for a, b in ((est_r, est_v), (true_r, true_v)))
    if est.shape != true.shape or est.ndim != 3 or est.shape[2] == 0:
        raise ValueError(f"need four (trials, P) arrays of one shape, P >= 1, got estimates "
                         f"{est.shape[1:]} and truths {true.shape[1:]}")
    T, P = est.shape[1:]
    scale = np.maximum(np.abs(true).max(axis=2), 1e-12)[..., None, None]
    d = _squared((est[..., :, None] - true[..., None, :]) / scale)
    pairs = []
    for row in np.argsort((d[0] + d[1]).reshape(T, P * P), axis=1, kind="stable").tolist():
        taken = []      # flat pair indices e * P + t, in the order taken
        for x in row:
            if all(x // P != y // P and x % P != y % P for y in taken):
                taken.append(x)
        pairs.append(taken)
    pairs = np.array(pairs)
    rows = np.arange(T)[:, None]
    e, t = est[:, rows, pairs // P], true[:, rows, pairs % P]
    sq = _squared(np.array([e - t, t]))             # (err or ref, range or velocity, T, P)
    acc = np.zeros(sq.shape[:-1])
    for k in range(P):      # one pair at a time, in the order matched
        acc = acc + sq[..., k]
    (err_r, err_v), (ref_r, ref_v) = acc
    return err_r, ref_r, err_v, ref_v
