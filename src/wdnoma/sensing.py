"""Delay-Doppler target estimation from the post-cancellation echo.

The dictionary stores one zero-delay atom per Doppler bin, the downlink
frame times that bin's phase ramp, and its spectrum; every atom is a cyclic
delay of one of these replicas. A greedy 2D-OMP loop works on correlations:
one FFT cross-correlation per replica gives every cell's correlation with
the echo, and each pick adds its atom's correlations with all cells, one
cross-correlation of spectra read at the delay differences. Refitting
all picks jointly by their k x k normal equations (rather than subtracting
one atom) makes noiseless on-grid scenarios exactly recoverable, and the
refit updates every correlation without forming a residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT, doppler_bin_to_norm, doppler_ramp
from .waveforms import SystemConfig


@dataclass(frozen=True)
class Dictionary:
    atoms: np.ndarray        # (n_nu, L) zero-delay atoms, one per Doppler bin
    tau_grid: np.ndarray     # delays in samples
    nu_grid: np.ndarray      # integer Doppler bins
    spectra: np.ndarray      # (n_nu, L) FFT of each atom
    energy: float            # ||s_dl||^2, every atom's energy


@dataclass(frozen=True)
class TargetEstimate:
    tau_hat: int
    nu_hat: int
    range_m: float = 0.0
    velocity_mps: float = 0.0


@dataclass(frozen=True)
class OmpResult:
    targets: list


def build_dictionary(s_dl: np.ndarray, tau_grid, nu_grid, N: int) -> Dictionary:
    """Atoms are the transmit time frame ``s_dl`` pushed through each unit
    (tau, nu) path, so a recovered gain is directly comparable to the
    channel gain."""
    s = np.asarray(s_dl, dtype=np.complex128)
    if s.ndim != 1:
        raise ValueError(f"expected a 1-D transmit frame, got shape {s.shape}")
    L = s.size
    tau_grid = np.asarray(list(tau_grid), dtype=np.int64)
    nu_grid = np.asarray(list(nu_grid), dtype=np.int64)
    if tau_grid.size == 0 or nu_grid.size == 0 or not 0 <= tau_grid.min() <= tau_grid.max() < L:
        raise ValueError("the dictionary grid is empty or has delays outside the frame")
    ramps = np.array([doppler_ramp(doppler_bin_to_norm(int(k), N, L), L) for k in nu_grid])
    atoms = s * ramps
    return Dictionary(atoms=atoms, tau_grid=tau_grid, nu_grid=nu_grid,
                      spectra=np.fft.fft(atoms, axis=-1), energy=float(np.vdot(s, s).real))


def omp_2d(residual: np.ndarray, dic: Dictionary, P: int) -> OmpResult:
    """Greedy 2D grid search with a joint refit after every pick but the last.

    Runs exactly P iterations (P = known target count) on correlations, not
    residuals: the refit residual r0 - A g has correlations c0 - C g, where
    column k of C holds every cell's correlation with the k-th pick, read
    from one cross-correlation of replica spectra. All atoms share the
    energy ||s_dl||^2 (cyclic delays, unit-modulus ramps), so no normalization.
    """
    n_tau, n_nu = dic.tau_grid.size, dic.nu_grid.size
    if not 1 <= P <= n_tau * n_nu:
        raise ValueError(f"P = {P} must be between 1 and the {n_tau * n_nu}-atom grid size")
    r0 = np.asarray(residual, dtype=np.complex128)
    if r0.shape != dic.atoms.shape[-1:]:
        raise ValueError("residual length does not match the dictionary atoms")
    conj = dic.spectra.conj()
    # tau-major flat order, so argmax keeps the grid's tie rule
    c0 = np.fft.ifft(conj * np.fft.fft(r0))[:, dic.tau_grid].T.ravel()
    c, C, selected = c0, np.empty((c0.size, P - 1), dtype=np.complex128), []
    for k in range(P):
        mag = np.abs(c)
        mag[selected] = -1.0
        selected.append(int(mag.argmax()))
        if k + 1 == P:  # the last pick needs no refit
            break
        i, j = divmod(selected[-1], n_nu)
        lags = (dic.tau_grid - dic.tau_grid[i]) % r0.size
        C[:, k] = np.fft.ifft(conj * dic.spectra[j])[:, lags].T.ravel()
        gram = C[selected, :k + 1]
        gram.flat[::k + 2] = dic.energy
        # with one pick the normal equations are one division
        g = c0[selected] / dic.energy if k == 0 else np.linalg.solve(gram, c0[selected])
        c = c0 - C[:, :k + 1] @ g
    return OmpResult(targets=[TargetEstimate(int(dic.tau_grid[x // n_nu]),
                                             int(dic.nu_grid[x % n_nu])) for x in selected])


def estimate_to_physical(e: TargetEstimate, cfg: SystemConfig) -> TargetEstimate:
    """Grid indices -> range (m) and radial velocity (m/s); exact inverse of
    the target quantization for on-grid targets."""
    return TargetEstimate(e.tau_hat, e.nu_hat,
                          e.tau_hat * SPEED_OF_LIGHT / (2.0 * cfg.sample_rate),
                          e.nu_hat * cfg.delta_f * SPEED_OF_LIGHT / (2.0 * cfg.f_c))


def match_targets(estimates, truths):
    """Greedy nearest-neighbour pairing in normalized (range, velocity): the
    closest free pair first, ties to the lower (estimate, truth) index."""
    if not estimates or not truths or len(estimates) != len(truths):
        raise ValueError("need equal-size, non-empty estimate and truth lists")
    r_scale = max(max(abs(t.range_m) for t in truths), 1e-12)
    v_scale = max(max(abs(t.velocity_mps) for t in truths), 1e-12)
    dist = {(ei, ti): ((e.range_m - t.range_m) / r_scale) ** 2 +
            ((e.velocity_mps - t.velocity_mps) / v_scale) ** 2
            for ei, e in enumerate(estimates) for ti, t in enumerate(truths)}
    picked = []
    for ei, ti in sorted(dist, key=dist.get):   # stable: ties keep index order
        if all(ei != e and ti != t for e, t in picked):
            picked.append((ei, ti))
    return [(estimates[e], truths[t]) for e, t in picked]


def matched_squared_errors(estimates, truths):
    """(range err, range ref, velocity err, velocity ref) sums over the matching."""
    pairs = match_targets(estimates, truths)
    err_r = sum(abs(e.range_m - t.range_m) ** 2 for e, t in pairs)
    ref_r = sum(abs(t.range_m) ** 2 for _, t in pairs)
    err_v = sum(abs(e.velocity_mps - t.velocity_mps) ** 2 for e, t in pairs)
    ref_v = sum(abs(t.velocity_mps) ** 2 for _, t in pairs)
    return err_r, ref_r, err_v, ref_v
