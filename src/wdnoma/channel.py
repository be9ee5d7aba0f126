"""Delay-Doppler path channels and the quantization of physical targets.

A channel is a sum of paths, each applying a cyclic delay and a diagonal
Doppler phase ramp over one prefixed frame of length L:

    r[n] = sum_p h_p * exp(-j 2 pi nu_p ((n - tau_p) mod L) / L)
                 * s[(n - tau_p) mod L]

nu_p (``doppler``) counts cycles across the L-sample frame. Integer
Doppler *bins* are defined at subcarrier-spacing resolution, i.e. kappa
cycles across the N core samples, which corresponds to
doppler = kappa * L / N. With that convention an integer-bin path
produces a single coupled shift in the affine domain, which is what the
guard-based noise estimator relies on.

``Channels`` is the one channel type: R channels of P paths each, as
(R, P) arrays. The draws build a chunk's channels as arrays, one row per
trial (the uplink taps, the target echoes), ``apply_dd_channel_samples``
reads the arrays, and ``Channels.row`` cuts out the one-row channel that an
equivalent-channel build takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .waveforms import SystemConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


@dataclass(frozen=True, eq=False)
class Channels:
    """R delay-Doppler channels of P paths each over frames of ``frame_len``
    samples: path p of channel r has the gain gains[r, p], the cyclic delay
    delays[r, p] in samples and the Doppler doppler[r, p] in cycles per
    frame. Each array is stored as a read-only (R, P) copy; one row (R = 1)
    is one channel, which a pass applies to every frame."""
    gains: np.ndarray
    delays: np.ndarray
    doppler: np.ndarray
    frame_len: int

    def __post_init__(self):
        for name, dtype in (("gains", np.complex128), ("delays", np.int64),
                            ("doppler", np.float64)):
            a = np.array(getattr(self, name), dtype=dtype, ndmin=2)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not self.gains.shape == self.delays.shape == self.doppler.shape \
                or self.gains.ndim != 2:
            raise ValueError(f"gains, delays and doppler must share one (R, P) shape, got "
                             f"{self.gains.shape}, {self.delays.shape}, {self.doppler.shape}")
        delays = self.delays.ravel().tolist()     # a few paths: cheaper as Python ints
        if not delays:
            raise ValueError("a channel needs at least one path")
        if min(delays) < 0:
            raise ValueError("path delays must be non-negative")
        if max(delays) >= self.frame_len:
            raise ValueError("path delay exceeds the frame length")

    def row(self, i: int) -> Channels:
        """Channel ``i`` alone, as a one-row Channels."""
        return Channels(self.gains[i:i + 1], self.delays[i:i + 1], self.doppler[i:i + 1],
                        self.frame_len)

    @cached_property
    def _gather(self):
        """For each path q: the gains (R, 1), the Doppler ramps (R, L), and
        the source indices (R L,), where output sample i of row r reads
        sample src[q, r L + i] of the R rows laid end to end. Built on the
        first pass, read by every later one."""
        R, L = len(self.gains), self.frame_len
        ramps = np.array([[doppler_ramp(nu, L) for nu in row] for row in self.doppler.T.tolist()])
        src = (np.arange(L) - self.delays.T[..., None]) % L + L * np.arange(R)[:, None]
        return np.ascontiguousarray(self.gains.T)[..., None], ramps, src.reshape(len(src), -1)


def doppler_bin_to_norm(kappa, N: int, frame_len: int):
    """Integer Doppler bin (cycles per N core samples) -> cycles per frame."""
    return kappa * frame_len / N


def path_from_bin(gain, delay_samples, kappa, N: int, frame_len: int) -> Channels:
    """One channel of the paths with gains ``gain``, delays ``delay_samples``
    and integer Doppler bins ``kappa``: scalars for one path, or (P,) arrays."""
    return Channels(gain, delay_samples, doppler_bin_to_norm(np.asarray(kappa), N, frame_len),
                    frame_len)


def quantize_target(range_m, velocity_mps, cfg: SystemConfig) -> tuple:
    """(delay in samples, integer Doppler bin) of physical targets, element-wise.

    Round-trip delay 2r/c maps to samples at the rate N*delta_f; round-trip
    Doppler 2 f_c v / c maps to the nearest integer bin at subcarrier
    resolution.
    """
    tau = 2.0 * np.asarray(range_m) / SPEED_OF_LIGHT
    nu_hz = 2.0 * cfg.f_c * np.asarray(velocity_mps) / SPEED_OF_LIGHT
    return (np.rint(tau * cfg.sample_rate).astype(np.int64),
            np.rint(nu_hz / cfg.delta_f).astype(np.int64))


def target_to_path(range_m, velocity_mps, gain, cfg: SystemConfig) -> Channels:
    """Quantize a trial's targets, (P,) arrays of ranges, velocities and
    gains, to one channel of on-grid (delay, Doppler) paths over the
    cyclic-prefixed frame."""
    delay, kappa = quantize_target(range_m, velocity_mps, cfg)
    if np.max(delay) > cfg.L_cp:
        raise ValueError(
            f"target delay {np.max(delay)} samples exceeds the prefix length {cfg.L_cp}")
    return path_from_bin(gain, delay, kappa, cfg.N, cfg.frame_len_cp)


@lru_cache(maxsize=256)
def doppler_ramp(doppler_norm: float, L: int) -> np.ndarray:
    """exp(-j 2 pi nu n / L) for n = 0..L-1; cached per (nu, L), so read-only."""
    n = np.arange(L)
    v = np.exp(-2j * np.pi * doppler_norm * n / L)
    v.flags.writeable = False
    return v


def apply_dd_channel_samples(s: np.ndarray, ch: Channels) -> np.ndarray:
    """Apply the delay-Doppler channels ``ch`` along the last (time) axis;
    O(P*L), no matrix materialized. One channel (R = 1) acts on every frame
    of ``s``; R channels act on the R rows of each (R, L) block of ``s``,
    over any leading axes. Each row gets the element-wise operations of its
    own single-frame call."""
    gains, ramps, src = ch._gather
    s = np.asarray(s, dtype=np.complex128)
    R, L = ramps.shape[1:]
    if s.shape[-1] != L or R > 1 and s.shape[-2:-1] != (R,):
        raise ValueError(f"signals of shape {s.shape} do not fit {R} channels of frame length {L}")
    rows = s.reshape(-1, R, L)
    out = np.zeros_like(rows)
    for gain, ramp, idx in zip(gains, ramps, src):
        # idx indexes R rows laid end to end; with R = 1 it reads within each row
        prod = rows * ramp
        out += gain * np.take(prod.reshape(-1, idx.size), idx, axis=-1).reshape(prod.shape)
    return out.reshape(s.shape)


def build_uplink_channel(taps: int, doppler_bins, rngs, N: int, frame_len: int) -> Channels:
    """Rayleigh taps at delays 0..taps-1 with unit total average power, one
    channel (row) per generator of ``rngs``.

    Each tap gets an i.i.d. CN(0, 1/taps) gain and an integer Doppler bin
    drawn uniformly from ``doppler_bins``. Each generator draws its row's
    real parts, imaginary parts and bin indices, in that order.
    """
    prefix = frame_len - N
    if taps - 1 > prefix:     # Channels rejects taps < 1: a channel needs a path
        raise ValueError(f"{taps} taps exceed the prefix length {prefix}")
    bins = np.asarray(list(doppler_bins), dtype=np.int64)
    if bins.size == 0:
        raise ValueError("doppler_bins must be non-empty")
    draws = [(rng.standard_normal(taps), rng.standard_normal(taps),
              rng.integers(0, bins.size, taps)) for rng in rngs]
    re, im, idx = (np.array(a) for a in zip(*draws))       # (rows, taps) each
    return path_from_bin((re + 1j * im) / np.sqrt(2.0 * taps),
                         np.broadcast_to(np.arange(taps), re.shape), bins[idx], N, frame_len)
