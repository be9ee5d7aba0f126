"""Delay-Doppler path channels and the quantization of physical targets.

A channel is a sum of paths, each applying a cyclic delay and a diagonal
Doppler phase ramp over one prefixed frame of length L:

    r[n] = sum_p h_p * exp(-j 2 pi nu_p ((n - tau_p) mod L) / L)
                 * s[(n - tau_p) mod L]

nu_p (``doppler_norm``) counts cycles across the L-sample frame. Integer
Doppler *bins* are defined at subcarrier-spacing resolution, i.e. kappa
cycles across the N core samples, which corresponds to
doppler_norm = kappa * L / N. With that convention an integer-bin path
produces a single coupled shift in the affine domain, which is what the
guard-based noise estimator relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .waveforms import SystemConfig


@dataclass(frozen=True)
class Path:
    gain: complex
    delay_samples: int
    doppler_norm: float  # cycles per prefixed frame

    def __post_init__(self):
        if self.delay_samples < 0:
            raise ValueError("delay_samples must be non-negative")


@dataclass(frozen=True)
class PathSet:
    paths: tuple
    frame_len: int

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ValueError("a channel needs at least one path")
        for p in self.paths:
            if p.delay_samples >= self.frame_len:
                raise ValueError("path delay exceeds the frame length")

    @property
    def max_delay(self) -> int:
        return max(p.delay_samples for p in self.paths)


@dataclass(frozen=True)
class PhysicalTarget:
    range_m: float
    velocity_mps: float
    rcs_gain: complex


def doppler_bin_to_norm(kappa: int, N: int, frame_len: int) -> float:
    """Integer Doppler bin (cycles per N core samples) -> cycles per frame."""
    return kappa * frame_len / N


def path_from_bin(gain: complex, delay_samples: int, kappa: int, N: int, frame_len: int) -> Path:
    return Path(gain=gain, delay_samples=delay_samples,
                doppler_norm=doppler_bin_to_norm(kappa, N, frame_len))


def quantize_target(range_m: float, velocity_mps: float, cfg: SystemConfig) -> tuple:
    """(delay in samples, integer Doppler bin) of a physical target.

    Round-trip delay 2r/c maps to samples at the rate N*delta_f; round-trip
    Doppler 2 f_c v / c maps to the nearest integer bin at subcarrier
    resolution.
    """
    tau = 2.0 * range_m / SPEED_OF_LIGHT
    delay = int(round(tau * cfg.sample_rate))
    nu_hz = 2.0 * cfg.f_c * velocity_mps / SPEED_OF_LIGHT
    return delay, int(round(nu_hz / cfg.delta_f))


def target_to_path(t: PhysicalTarget, cfg: SystemConfig, frame_len: int | None = None) -> Path:
    """Quantize a physical target to an on-grid (delay, Doppler) path."""
    if frame_len is None:
        frame_len = cfg.frame_len_cp
    delay, kappa = quantize_target(t.range_m, t.velocity_mps, cfg)
    prefix = frame_len - cfg.N
    if delay > prefix:
        raise ValueError(
            f"target delay {delay} samples exceeds the prefix length {prefix}")
    return path_from_bin(t.rcs_gain, delay, kappa, cfg.N, frame_len)


def apply_dd_channel_samples(s: np.ndarray, ch: PathSet) -> np.ndarray:
    """Apply the delay-Doppler channel along the last (time) axis; O(P*L),
    no matrix materialized."""
    L = s.shape[-1]
    if L != ch.frame_len:
        raise ValueError(f"signal length {L} != channel frame length {ch.frame_len}")
    n = np.arange(L)
    out = np.zeros_like(np.asarray(s, dtype=np.complex128))
    for p in ch.paths:
        ramp = np.exp(-2j * np.pi * p.doppler_norm * n / L)
        out += p.gain * np.roll(s * ramp, p.delay_samples, axis=-1)
    return out


def build_uplink_channel(taps: int, doppler_bins, rng: np.random.Generator,
                         N: int, frame_len: int) -> PathSet:
    """Rayleigh taps at delays 0..taps-1 with unit total average power.

    Each tap gets an i.i.d. CN(0, 1/taps) gain and an integer Doppler bin
    drawn uniformly from ``doppler_bins``.
    """
    prefix = frame_len - N
    if taps < 1:
        raise ValueError("need at least one tap")
    if taps - 1 > prefix:
        raise ValueError(f"{taps} taps exceed the prefix length {prefix}")
    bins = np.asarray(list(doppler_bins), dtype=np.int64)
    if bins.size == 0:
        raise ValueError("doppler_bins must be non-empty")
    gains = (rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) / np.sqrt(2.0 * taps)
    kappas = rng.choice(bins, size=taps)
    paths = [path_from_bin(gains[i], i, int(kappas[i]), N, frame_len) for i in range(taps)]
    return PathSet(tuple(paths), frame_len)
