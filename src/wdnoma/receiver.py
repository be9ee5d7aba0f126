"""Uplink receiver on plain arrays: the transmit-domain equivalent channel,
noise power estimation (NPE), MMSE detection, and reconstruction and
cancellation of the detected uplink signal.

MMSE formulation. ``mmse_detect`` solves the normal equations
(H^H H + sigma2 I) x = H^H d with a dense LU solve per sigma2, sharing H^H
and the Gram matrix across the sigma2 values of one waveform group. Every
pinned curve comes from this formulation. Squaring H squares its condition
number, but in every sweep mode sigma2 stays bounded away from zero: noise
at SNR <= 35 dB plus the echo at -20 dB. So
cond(H^H H + sigma2 I) <= (s_max^2 + sigma2) / sigma2 stays bounded, where
s_max is the largest singular value of H. Exactness on noiseless chains,
where sigma2 -> 0 and a near-singular H matters, is checked against the
stacked least-squares oracle in the tests, not by this solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathSet, apply_dd_channel_samples
from .waveforms import (
    SystemConfig,
    afdm_demod_samples,
    afdm_mod_samples,
    ofdm_demod_samples,
    ofdm_mod_samples,
    otfs_demod_samples,
    otfs_mod_samples,
)


@dataclass(frozen=True)
class EquivalentChannel:
    matrix: np.ndarray
    source: PathSet


def estimate_noise_power(d: np.ndarray, layout) -> float:
    """Mean squared magnitude of the demodulated frame over the
    leakage-free NPE window."""
    window = layout.npe_window
    if window.size == 0:
        raise ValueError("NPE window is empty")
    return float(np.mean(np.abs(d[window]) ** 2))


def _mod_demod_fns(cfg: SystemConfig, waveform: str):
    if waveform == "afdm":
        return (lambda X: afdm_mod_samples(X, cfg.chirp, cfg.L_cpp),
                lambda r: afdm_demod_samples(r, cfg.chirp, cfg.L_cpp))
    if waveform == "otfs":
        return (lambda X: otfs_mod_samples(X, cfg.N1, cfg.N2, cfg.L_cp),
                lambda r: otfs_demod_samples(r, cfg.N1, cfg.N2, cfg.L_cp))
    if waveform == "ofdm":
        return (lambda X: ofdm_mod_samples(X, cfg.L_cp),
                lambda r: ofdm_demod_samples(r, cfg.L_cp))
    raise ValueError(f"unknown waveform {waveform!r}")


def build_equivalent_channel(ch: PathSet, cfg: SystemConfig, waveform: str = "afdm") -> EquivalentChannel:
    """N x N transmit-domain equivalent channel, built by impulse probing.

    Column i is demod(channel(mod(e_i))); the probe never materializes the
    five-matrix product. Path delays must fit inside the prefix.
    """
    mod, demod = _mod_demod_fns(cfg, waveform)
    prefix = ch.frame_len - cfg.N
    if ch.max_delay > prefix:
        raise ValueError(f"path delay {ch.max_delay} exceeds the prefix length {prefix}")
    E = np.eye(cfg.N, dtype=np.complex128)
    responses = demod(apply_dd_channel_samples(mod(E), ch))
    return EquivalentChannel(matrix=responses.T.copy(), source=ch)


def mmse_detect(H: np.ndarray, d: np.ndarray, sigma2s) -> list:
    """Solve (H^H H + s2 I) x = H^H d for each s2 in ``sigma2s``.

    H^H, the Gram matrix and the right-hand side are formed once; each s2
    gets its own regularized copy of the Gram matrix and one dense solve,
    so only one N x N system is held at a time. With s2 = 0 this is
    zero-forcing; an exactly singular system raises LinAlgError.
    """
    N = H.shape[0]
    if d.shape != (N,):
        raise ValueError(f"signal length {d.shape} does not match the {N}x{N} channel")
    if any(s2 < 0 for s2 in sigma2s):
        raise ValueError("noise variances must be non-negative")
    G = H.conj().T
    gram = G @ H
    rhs = G @ d
    out = []
    for s2 in sigma2s:
        A = gram.copy()
        A.flat[:: N + 1] += s2
        out.append(np.linalg.solve(A, rhs))
    return out


def reconstruct_and_cancel(r: np.ndarray, ch: PathSet, x_hat: np.ndarray,
                           layout, cfg: SystemConfig, waveform: str = "afdm") -> np.ndarray:
    """Rebuild the uplink frame from hard-decided data and subtract it.

    The symbols go to the layout's data bins and the guards are re-embedded
    as zeros (they were transmitted as zeros); the frame is then modulated
    with ``waveform`` and pushed through the uplink channel ``ch``.
    """
    frame = np.zeros(cfg.N, dtype=np.complex128)
    frame[layout.data] = x_hat
    mod, _ = _mod_demod_fns(cfg, waveform)
    return r - apply_dd_channel_samples(mod(frame), ch)
