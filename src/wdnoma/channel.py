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
from functools import lru_cache

import numpy as np

from .waveforms import SystemConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


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


def target_to_path(t: PhysicalTarget, cfg: SystemConfig) -> Path:
    """Quantize a physical target to an on-grid (delay, Doppler) path over
    the cyclic-prefixed frame."""
    delay, kappa = quantize_target(t.range_m, t.velocity_mps, cfg)
    if delay > cfg.L_cp:
        raise ValueError(
            f"target delay {delay} samples exceeds the prefix length {cfg.L_cp}")
    return path_from_bin(t.rcs_gain, delay, kappa, cfg.N, cfg.frame_len_cp)


@lru_cache(maxsize=256)
def doppler_ramp(doppler_norm: float, L: int) -> np.ndarray:
    """exp(-j 2 pi nu n / L) for n = 0..L-1; cached per (nu, L), so read-only."""
    n = np.arange(L)
    v = np.exp(-2j * np.pi * doppler_norm * n / L)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class PreparedChannels:
    """Delay-Doppler channels of one path count as arrays: for each path q,
    gains[q] (R, 1) and the Doppler ramps ramps[q] (R, L), one row per
    channel, and src[q] (R L,), where output sample i of row r reads sample
    src[q, r L + i] of the R rows laid end to end. Built once by
    ``prepare_channels``, it serves every later ``apply_dd_channel_samples``."""
    gains: np.ndarray
    ramps: np.ndarray
    src: np.ndarray


def prepare_channels(ch) -> PreparedChannels:
    """``ch`` is one PathSet (R = 1, applied to every frame) or a sequence of
    PathSets with one frame length and path count (one per frame)."""
    chs = (ch,) if isinstance(ch, PathSet) else tuple(ch)
    lengths = {c.frame_len for c in chs}
    if len(lengths) != 1:
        raise ValueError(f"the channels of a stack must share their frame length, got "
                         f"frame lengths {sorted(lengths)}")
    if len({len(c.paths) for c in chs}) != 1:
        raise ValueError("the channels of a stacked call must share their path count")
    (L,) = lengths
    paths = list(zip(*(c.paths for c in chs)))      # path q of every channel
    out = PreparedChannels(
        gains=np.array([[[p.gain] for p in ps] for ps in paths], dtype=np.complex128),
        ramps=np.array([[doppler_ramp(p.doppler_norm, L) for p in ps] for ps in paths]),
        src=((np.arange(L) - np.array([[[p.delay_samples] for p in ps] for ps in paths])) % L
             + L * np.arange(len(chs))[:, None]).reshape(len(paths), -1))
    for a in (out.gains, out.ramps, out.src):
        a.flags.writeable = False
    return out


def apply_dd_channel_samples(s: np.ndarray, ch) -> np.ndarray:
    """Apply the delay-Doppler channel along the last (time) axis; O(P*L),
    no matrix materialized. ``ch`` is a PreparedChannels, or what
    ``prepare_channels`` takes: one channel for every frame of ``s``, or
    one per row of a 2-D ``s``. Each row gets the element-wise operations
    of its own single-frame call."""
    prep = ch if isinstance(ch, PreparedChannels) else prepare_channels(ch)
    s = np.asarray(s, dtype=np.complex128)
    L = s.shape[-1]
    if prep.ramps.shape[-1] != L:
        raise ValueError(f"signal length {L} != channel frame length {prep.ramps.shape[-1]}")
    rows = s.reshape(-1, L)
    out = np.zeros_like(rows)
    for gains, ramps, src in zip(prep.gains, prep.ramps, prep.src):
        # src indexes R rows laid end to end; with R = 1 it reads within each row
        prod = rows * ramps
        out += gains * np.take(prod.reshape(-1, src.size), src, axis=-1).reshape(prod.shape)
    return out.reshape(s.shape)


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
