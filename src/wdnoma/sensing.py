"""Delay-Doppler target estimation from the post-cancellation echo.

A dictionary of delayed and Doppler-shifted replicas of the transmitted
downlink frame is correlated against the residual; a greedy 2D-OMP loop
picks the best atom, refits all selected gains jointly by least squares and
subtracts. The joint refit (rather than a single-atom subtraction) makes
noiseless on-grid scenarios exactly recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .channel import PathSet, PhysicalTarget, apply_dd_channel_samples, path_from_bin
from .waveforms import SystemConfig


@dataclass(frozen=True)
class Dictionary:
    atoms: np.ndarray        # (n_tau, n_nu, L)
    tau_grid: np.ndarray     # delays in samples
    nu_grid: np.ndarray      # integer Doppler bins
    atom_norms: np.ndarray   # (n_tau, n_nu)

    @property
    def grid_size(self) -> int:
        return self.tau_grid.size * self.nu_grid.size


@dataclass(frozen=True)
class TargetEstimate:
    tau_hat: int
    nu_hat: int
    gain_hat: complex
    range_m: float = 0.0
    velocity_mps: float = 0.0


@dataclass(frozen=True)
class OmpResult:
    targets: list
    residual_energy: float
    residual: np.ndarray


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
    if tau_grid.size == 0 or nu_grid.size == 0:
        raise ValueError("empty dictionary grid")
    if tau_grid.max() >= L or tau_grid.min() < 0:
        raise ValueError("delay grid exceeds the frame length")
    atoms = np.empty((tau_grid.size, nu_grid.size, L), dtype=np.complex128)
    for j, kappa in enumerate(nu_grid):
        path = path_from_bin(1.0, 0, int(kappa), N, L)
        shifted = apply_dd_channel_samples(s, PathSet((path,), L))
        for i, tau in enumerate(tau_grid):
            atoms[i, j] = np.roll(shifted, int(tau))
    norms = np.linalg.norm(atoms, axis=-1)
    return Dictionary(atoms=atoms, tau_grid=tau_grid, nu_grid=nu_grid, atom_norms=norms)


def omp_2d(residual: np.ndarray, dic: Dictionary, P: int,
           residual_threshold: float | None = None) -> OmpResult:
    """Greedy 2D grid search with per-iteration joint least-squares refit.

    Runs exactly P iterations (P = known target count). When
    ``residual_threshold`` is set, iteration stops early once the residual
    energy drops below threshold * initial energy.
    """
    if P < 1:
        raise ValueError("need at least one target")
    if P > dic.grid_size:
        raise ValueError(f"P = {P} exceeds the {dic.grid_size}-atom grid")
    r0 = np.asarray(residual, dtype=np.complex128)
    n_tau, n_nu, L = dic.atoms.shape
    if r0.shape != (L,):
        raise ValueError("residual length does not match the dictionary atoms")
    A = dic.atoms.reshape(n_tau * n_nu, L)
    norms = dic.atom_norms.reshape(-1)
    init_energy = float(np.sum(np.abs(r0) ** 2))
    r = r0.copy()
    selected: list[int] = []
    gains = np.zeros(0, dtype=np.complex128)
    for _ in range(P):
        if residual_threshold is not None and \
                np.sum(np.abs(r) ** 2) <= residual_threshold * init_energy:
            break
        corr = np.abs(A.conj() @ r) / norms
        idx = int(np.argmax(corr))
        selected.append(idx)
        Asel = A[selected].T
        gains, *_ = np.linalg.lstsq(Asel, r0, rcond=None)
        r = r0 - Asel @ gains
    targets = []
    for idx, g in zip(selected, gains):
        i, j = divmod(idx, n_nu)
        targets.append(TargetEstimate(tau_hat=int(dic.tau_grid[i]),
                                      nu_hat=int(dic.nu_grid[j]),
                                      gain_hat=complex(g)))
    return OmpResult(targets=targets, residual_energy=float(np.sum(np.abs(r) ** 2)),
                     residual=r)


def estimate_to_physical(e: TargetEstimate, cfg: SystemConfig) -> TargetEstimate:
    """Grid indices -> range (m) and radial velocity (m/s); exact inverse of
    the target quantization for on-grid targets."""
    range_m = e.tau_hat * SPEED_OF_LIGHT / (2.0 * cfg.sample_rate)
    velocity = e.nu_hat * cfg.delta_f * SPEED_OF_LIGHT / (2.0 * cfg.f_c)
    return replace(e, range_m=range_m, velocity_mps=velocity)


def match_targets(estimates, truths):
    """Greedy nearest-neighbour pairing in normalized (range, velocity)."""
    if not estimates or not truths or len(estimates) != len(truths):
        raise ValueError("need equal-size, non-empty estimate and truth lists")
    r_scale = max(max(abs(t.range_m) for t in truths), 1e-12)
    v_scale = max(max(abs(t.velocity_mps) for t in truths), 1e-12)
    free_e = list(range(len(estimates)))
    free_t = list(range(len(truths)))
    pairs = []
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


def matched_squared_errors(estimates, truths):
    """(range err, range ref, velocity err, velocity ref) sums over the matching."""
    pairs = match_targets(estimates, truths)
    err_r = sum(abs(e.range_m - t.range_m) ** 2 for e, t in pairs)
    ref_r = sum(abs(t.range_m) ** 2 for _, t in pairs)
    err_v = sum(abs(e.velocity_mps - t.velocity_mps) ** 2 for e, t in pairs)
    ref_v = sum(abs(t.velocity_mps) ** 2 for _, t in pairs)
    return err_r, ref_r, err_v, ref_v


@dataclass(frozen=True)
class NmseReport:
    range_nmse: float
    velocity_nmse: float


def nmse(estimates, truths) -> NmseReport:
    """Sum ||x_hat - x||^2 / sum ||x||^2, per parameter."""
    err_r, ref_r, err_v, ref_v = matched_squared_errors(estimates, truths)
    return NmseReport(range_nmse=err_r / ref_r if ref_r > 0 else 0.0,
                      velocity_nmse=err_v / ref_v if ref_v > 0 else 0.0)
