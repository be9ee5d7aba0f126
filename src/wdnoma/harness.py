"""Seeded Monte Carlo experiments: BER and sensing NMSE sweeps with
deterministic per-trial RNG streams, config parsing and output files.

Every trial owns substreams derived from (master_seed, trial_index,
purpose), so results do not depend on execution order or worker count, and
the same channel/bit/noise draws pair all receiver modes and all SNR points
(common random numbers).

The sweeps run chunks of trials. With one worker a chunk takes every SNR
point, so it holds max(1, _CHUNK_ROWS // p) of the trials for p points and
its stacked passes at most _CHUNK_ROWS (SNR point, trial) rows (p, when p
exceeds it): the shipped 8 points run 8-trial chunks, a one-point sweep
64-trial ones. With K > 1 workers each SNR point gets its own pool of
min(K, chunks) workers, which calls the same chunk function on 64-trial
chunks with that one point. The pools of K // min(K, chunks) consecutive
points run side by side, so at most K worker processes run at once, and
each point's results are collected in point order.

A chunk builds its draws, prepared uplink channels, uplinks and sensing
dictionary once. Its composition, each waveform group's demodulator, NPE,
demapping and cancellation, and the sense sweep's correlation run once on
(p, T, ...) stacks, one MMSE solve takes every point and group (it works in
slabs of a bounded size, so its work arrays do not grow with the chunk),
and the sense scoring runs once per mode. Each row gets the operations of
its own one-point, one-trial pass, so the chunk size moves no curve. Two
calls stay per SNR point: the equivalent channel builds and the 2D-OMP
calls, which perfbench/tests counts per point.

A chunk returns one array, (SNR point, trial, mode, ...), each mode at its
position in the sweep's modes; the sweep concatenates the chunks along the
trial axis, and a curve point sums one (SNR point, mode) column over trials.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from collections import namedtuple
from contextlib import ExitStack
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path as FsPath
from types import MappingProxyType

import numpy as np
import scipy

from . import __version__
from .channel import (
    SPEED_OF_LIGHT,
    PathSet,
    PhysicalTarget,
    apply_dd_channel_samples,
    build_uplink_channel,
    path_from_bin,
    prepare_channels,
    quantize_target,
    target_to_path,
)
from .frame import (
    allocate_frame,
    allocate_otfs_frame,
    full_grid_layout,
)
from .receiver import (
    build_equivalent_channel,
    estimate_noise_power,
    mmse_detect,
)
from .sensing import (
    build_dictionary,
    correlate,
    estimate_to_physical,
    matched_squared_errors,
    omp_2d,
)
from .transforms import default_c1
from .waveforms import (
    SystemConfig,
    _field,
    afdm_demod_samples,
    check_fields,
    afdm_mod_samples,
    ofdm_demod_samples,
    ofdm_mod_samples,
    otfs_demod_samples,
    otfs_mod_samples,
    qam_demap_hard,
    qam_map,
    qam_slice,
)

# mode -> (uplink waveform, the noise power its MMSE assumes): the NPE
# estimate, the true sigma^2, or sigma^2 plus the measured echo power
MODES = MappingProxyType({
    "wdnoma_afdm_npe": ("afdm", "npe"),
    "wdnoma_afdm_no_npe": ("afdm", "sigma2"),
    "wdnoma_afdm_genie": ("afdm", "sigma2+echo"),
    "wdnoma_otfs_npe": ("otfs", "npe"),
    "pdnoma_ofdm": ("ofdm", "sigma2+echo"),
})

_RNG_TAGS = {
    "targets": 0,
    "bits_dl": 1,
    "channel": 2,
    "noise": 3,
    "bits_afdm": 4,
    "bits_otfs": 5,
    "bits_ofdm": 6,
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _at_least(obj, section: str, **least) -> None:
    for name, low in least.items():
        if getattr(obj, name) < low:
            raise ValueError(f"{section}.{name} = {getattr(obj, name)} must be at least {low}")


@dataclass(frozen=True)
class FrameConfig:
    guard_start: int
    K1: int
    K2: int
    kappa_max: int
    otfs_guard_cols: int

    def __post_init__(self):
        check_fields(self, "frame")
        _at_least(self, "frame", K1=0, K2=1, kappa_max=0, otfs_guard_cols=1)


@dataclass(frozen=True)
class ChannelConfig:
    uplink_taps: int
    doppler_bins: tuple[int, ...]
    target_count: int
    range_bounds: tuple[float, float]
    velocity_bounds: tuple[float, float]

    def __post_init__(self):
        check_fields(self, "channel")
        _at_least(self, "channel", uplink_taps=1, target_count=1)
        for name in ("range_bounds", "velocity_bounds"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(hi - lo) and lo <= hi):
                raise ValueError(f"channel.{name} = {[lo, hi]} must be finite, low <= high")
        if self.range_bounds[0] < 0:
            raise ValueError(f"channel.range_bounds[0] = {self.range_bounds[0]} is negative")


@dataclass(frozen=True)
class SweepConfig:
    snr_db: tuple[float, ...]
    trials: int
    master_seed: int
    modes: tuple[str, ...]

    def __post_init__(self):
        check_fields(self, "sweep")
        # the MMSE solve needs sigma2 bounded away from zero (receiver docstring): on desk it
        # met a singular system at 160 dB (sigma2 = 7.5e-17); at -4000 dB 10 ** 400 overflowed
        if max(map(abs, self.snr_db)) > 100:
            raise ValueError(f"sweep.snr_db must lie in [-100, 100] dB, got {list(self.snr_db)}")
        _at_least(self, "sweep", trials=1, master_seed=0)
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"sweep.modes: unknown mode {m!r}; valid: {', '.join(MODES)}")
        if len(set(self.modes)) < len(self.modes):
            raise ValueError(f"sweep.modes must list modes each once, got {list(self.modes)}")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    frame: FrameConfig
    channel: ChannelConfig
    sweep: SweepConfig

    def __post_init__(self):
        # the checks that span sections; each section checks its own fields
        ch = self.channel
        if ch.uplink_taps - 1 > self.system.L_cp:
            raise ValueError(f"channel.uplink_taps = {ch.uplink_taps}: delay spread above L_cp")
        if max(abs(b) for b in ch.doppler_bins) > self.frame.kappa_max:
            raise ValueError("channel.doppler_bins: uplink Doppler bins exceed kappa_max")
        fr, N, N2 = self.frame, self.system.N, self.system.N2
        # one config per layout: allocate_frame reads the start modulo N
        if not 0 <= fr.guard_start < N:
            raise ValueError(f"frame.guard_start = {fr.guard_start} must lie in [0, N)")
        # the guards leave data bins (AFDM) and data columns (OTFS)
        if fr.K1 + fr.K2 >= N:
            raise ValueError(f"frame.K2 = {fr.K2}: guards K1+K2 = {fr.K1 + fr.K2} must leave "
                             f"room for data in N = {N}")
        if 2 * fr.otfs_guard_cols >= N2:
            raise ValueError(f"frame.otfs_guard_cols = {fr.otfs_guard_cols}: guard columns at "
                             f"both edges must leave data columns in N2 = {N2}")
        # every drawn target must quantize onto the 2D-OMP grid, each into
        # its own cell; quantization is monotone, so the bounds span the box
        (near, k_lo), (far, k_hi) = (quantize_target(r, v, self.system)
                                     for r, v in zip(ch.range_bounds, ch.velocity_bounds))
        if far > self.system.L_cp - 1:
            raise ValueError(f"channel.range_bounds[1] = {ch.range_bounds[1]} m quantizes to "
                             f"delay {far}, beyond the delay grid 0..{self.system.L_cp - 1}")
        if max(-k_lo, k_hi) > self.frame.kappa_max:
            raise ValueError(f"channel.velocity_bounds {list(ch.velocity_bounds)} m/s quantize to "
                             f"Doppler bins {k_lo}..{k_hi}, past kappa_max {self.frame.kappa_max}")
        cells = (far - near + 1) * (k_hi - k_lo + 1)
        if ch.target_count > cells:
            raise ValueError(f"channel.target_count = {ch.target_count} exceeds the {cells} "
                             f"delay-Doppler cells of the range/velocity box")
        p_fail = _target_draw_failure(self)
        if p_fail > 1e-9:
            raise ValueError(f"channel.target_count = {ch.target_count}: the targets fall in "
                             f"distinct cells too rarely; a trial fails all {_TARGET_DRAWS} "
                             f"draws with probability {p_fail:.2g}")
        # fail early if a guard leaves its NPE window empty; this also fills the cache
        _layouts(self)


def _checked(d, where: str, cls, optional=()) -> dict:
    """A copy of the JSON object ``d``: it must hold each field of the dataclass ``cls``
    that has no default and is not in ``optional``, and no key but its fields."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    names = {f.name: f.default is MISSING and f.name not in optional for f in fields(cls)}
    for problem, keys in (("unknown", set(d) - set(names)),
                          ("missing", {k for k, needed in names.items() if needed} - set(d))):
        if keys:
            raise ValueError(f"{problem} keys in {where}: {sorted(keys)}")
    return dict(d)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Strict parser: each section holds the fields of its dataclass and no
    other key, and each section checks its values (a malformed one raises a
    ValueError naming its field). c1 defaults to (2*kappa_max + 1)/(2N) when
    omitted or null."""
    raw = _checked(raw, "config", ExperimentConfig)
    frame = FrameConfig(**_checked(raw["frame"], "frame", FrameConfig))
    sd = _checked(raw["system"], "system", SystemConfig, optional=("c1",))
    c1 = sd.pop("c1", None)
    # c1's default reads N, so the section checks N first, with a c1 of 0 (valid for any N)
    system = SystemConfig(**sd, c1=0.0 if c1 is None else c1)
    if c1 is None:
        system = replace(system, c1=default_c1(frame.kappa_max, system.N))
    return ExperimentConfig(
        system=system, frame=frame,
        channel=ChannelConfig(**_checked(raw["channel"], "channel", ChannelConfig)),
        sweep=SweepConfig(**_checked(raw["sweep"], "sweep", SweepConfig)))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# waveform -> its frame layout for a config, and its modulator and demodulator
# with the prefix, each f(signal, system). Each entry looks its kernel up by name
# here when it runs, so a wrapper set on that name (perfbench's tracer) sees the call
Waveform = namedtuple("Waveform", "layout mod demod")
WAVEFORMS = MappingProxyType({
    "afdm": Waveform(
        lambda cfg: allocate_frame(cfg.system.N, cfg.frame.guard_start, cfg.frame.K1,
                                   cfg.frame.K2, cfg.frame.kappa_max, cfg.system.c1,
                                   max_delay=cfg.channel.uplink_taps - 1),
        lambda x, s: afdm_mod_samples(x, s.c1, s.c2, s.L_cp),
        lambda r, s: afdm_demod_samples(r, s.c1, s.c2, s.L_cp)),
    "otfs": Waveform(
        lambda cfg: allocate_otfs_frame(cfg.system.N1, cfg.system.N2,
                                        cfg.frame.otfs_guard_cols, cfg.frame.kappa_max),
        lambda x, s: otfs_mod_samples(x, s.N1, s.N2, s.L_cp),
        lambda r, s: otfs_demod_samples(r, s.N1, s.N2, s.L_cp)),
    "ofdm": Waveform(
        lambda cfg: full_grid_layout(cfg.system.N),
        lambda x, s: ofdm_mod_samples(x, s.L_cp),
        lambda r, s: ofdm_demod_samples(r, s.L_cp)),
})


# the field that sizes each waveform's layout, named in its error: once the
# guards fit the grid, what a layout can still reject is an empty NPE window
_LAYOUT_FIELDS = {"afdm": "frame.K2", "otfs": "frame.otfs_guard_cols", "ofdm": "system.N"}


@lru_cache(maxsize=8)
def _layouts(cfg: ExperimentConfig):
    """The frame layout of each waveform; cached per config, so read-only."""
    layouts = {w: _field(_LAYOUT_FIELDS[w], entry.layout, cfg) for w, entry in WAVEFORMS.items()}
    for layout in layouts.values():
        for value in vars(layout).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return MappingProxyType(layouts)


# ---------------------------------------------------------------------------
# Per-trial simulation
# ---------------------------------------------------------------------------

_TARGET_DRAWS = 1000    # draws of a trial's targets before draw_targets gives up


def _bin_fractions(lo: float, hi: float, width: float) -> np.ndarray:
    """Fraction of [lo, hi] that rounds to each integer bin of x / width,
    lowest bin first; all of it when the interval is a point."""
    if hi == lo:
        return np.ones(1)
    edges = (np.arange(round(lo / width), round(hi / width) + 2) - 0.5) * width
    return np.diff(np.clip(edges, lo, hi)) / (hi - lo)


def _target_draw_failure(cfg: ExperimentConfig) -> float:
    """Probability that draw_targets finds no distinct cells for one trial's
    k targets in _TARGET_DRAWS draws. Quantization is separable, so a cell's
    probability p is its range fraction times its velocity fraction, and k
    uniform targets fall in distinct cells with probability k! e_k(p), e_k
    the elementary symmetric polynomial."""
    sys_, ch, k = cfg.system, cfg.channel, cfg.channel.target_count
    # quantize_target rounds 2 r fs / c to a delay and 2 f_c v / (c delta_f) to a bin
    p_range = _bin_fractions(*ch.range_bounds, SPEED_OF_LIGHT / (2.0 * sys_.sample_rate))
    p_vel = _bin_fractions(*ch.velocity_bounds, SPEED_OF_LIGHT * sys_.delta_f / (2.0 * sys_.f_c))
    e = np.zeros(k + 1)
    e[0] = 1.0
    for p in np.outer(p_range, p_vel).ravel():
        e[1:] += e[:-1] * p
    return max(0.0, 1.0 - math.factorial(k) * e[k]) ** _TARGET_DRAWS


def _rng(seed: int, trial: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, _RNG_TAGS[tag])))


def draw_targets(cfg: ExperimentConfig, trial: int):
    """Uniform targets in the configured range/velocity box, redrawn until
    they quantize to distinct delay-Doppler cells (unresolvable targets
    that share a grid cell are a degenerate scenario, not a noise effect)."""
    rng = _rng(cfg.sweep.master_seed, trial, "targets")
    lo_r, hi_r = cfg.channel.range_bounds
    lo_v, hi_v = cfg.channel.velocity_bounds
    for _ in range(_TARGET_DRAWS):
        out = []
        for _ in range(cfg.channel.target_count):
            gain = np.exp(2j * np.pi * rng.uniform())
            out.append(PhysicalTarget(range_m=rng.uniform(lo_r, hi_r),
                                      velocity_mps=rng.uniform(lo_v, hi_v),
                                      rcs_gain=gain))
        cells = {(p.delay_samples, p.doppler_norm)
                 for p in (target_to_path(t, cfg.system) for t in out)}
        if len(cells) == cfg.channel.target_count:
            return out
    raise ValueError("range/velocity bounds cannot host distinct target cells")


class _TrialContext:
    """One trial's random draws, the same at every SNR point and for every mode."""

    def __init__(self, cfg: ExperimentConfig, trial: int):
        sys_ = cfg.system
        seed = cfg.sweep.master_seed
        L = sys_.frame_len_cp
        self.bits_dl = _rng(seed, trial, "bits_dl").integers(0, 2, sys_.N * int(np.log2(sys_.M)))
        self.targets = draw_targets(cfg, trial)
        self.sense_ps = PathSet(tuple(target_to_path(t, sys_) for t in self.targets), L)
        self.ul_ps = build_uplink_channel(cfg.channel.uplink_taps, cfg.channel.doppler_bins,
                                          _rng(seed, trial, "channel"), sys_.N, L)
        nrng = _rng(seed, trial, "noise")
        self.noise_unit = (nrng.standard_normal(L) + 1j * nrng.standard_normal(L)) / np.sqrt(2.0)


def _transmit(sys_, layout, waveform: str, syms, paths) -> np.ndarray:
    """The uplink: symbols (last axis) on the data bins, zero guards, the
    waveform's modulator and prefix, then the channel ``paths`` (one PathSet,
    or R of them, or their PreparedChannels, for the last R rows of any
    leading axes). It sends the uplink of a chunk's (T, n_data) symbols and
    rebuilds a waveform group's (G, T, n_data) hard decisions in one call
    for cancellation."""
    frames = np.zeros(np.shape(syms)[:-1] + (sys_.N,), dtype=np.complex128)
    frames[..., layout.data] = syms
    return apply_dd_channel_samples(WAVEFORMS[waveform].mod(frames, sys_), paths)


class _Chunk:
    """A chunk of trials, a sweep's unit of work: each trial's draws, and the
    signals built from them as (T, ·) stacks by one call per stage, row for
    row the one-trial values. The uplink channels are prepared once; they
    send every waveform's uplink and rebuild it for every cancellation."""

    def __init__(self, cfg: ExperimentConfig, trials):
        sys_ = cfg.system
        self.cfg, self.layouts, self.trials = cfg, _layouts(cfg), trials
        self.ctxs = [_TrialContext(cfg, t) for t in trials]
        self.ul_channels = prepare_channels([c.ul_ps for c in self.ctxs])
        bits_dl = np.concatenate([c.bits_dl for c in self.ctxs])
        self.x_dl = qam_map(bits_dl, sys_.M).reshape(len(self.ctxs), sys_.N)
        self.s_dl = ofdm_mod_samples(self.x_dl, sys_.L_cp)
        self.r_dl = apply_dd_channel_samples(self.s_dl, [c.sense_ps for c in self.ctxs])
        self.noise_unit = np.stack([c.noise_unit for c in self.ctxs])
        self.n_targets = np.array([[len(c.targets)] for c in self.ctxs])

    def uplink(self, waveform: str):
        """For one waveform: the transmit bits (T, n_bits), the received uplink
        signals (T, L), its power p_ul, the (T, 1) echo amplitudes g that put
        the echo echo_power_offset_db below p_ul, and the echo's mean power per
        bin (T,). Built on each call; ``_detect_chunk`` makes one per waveform
        group, so bits are drawn only for the waveforms a sweep runs."""
        sys_, seed = self.cfg.system, self.cfg.sweep.master_seed
        layout = self.layouts[waveform]
        n_bits = layout.n_data * int(np.log2(sys_.M))
        bits = np.stack([_rng(seed, t, f"bits_{waveform}").integers(0, 2, n_bits)
                         for t in self.trials])
        syms = qam_map(bits.reshape(-1), sys_.M).reshape(len(self.ctxs), -1)
        r_ul = _transmit(sys_, layout, waveform, syms, self.ul_channels)
        p_ul = layout.n_data / sys_.N
        g = 10.0 ** (sys_.echo_power_offset_db / 20.0) * np.sqrt(p_ul / self.n_targets)
        echo_bin_power = np.mean(np.abs(g * self.r_dl[:, sys_.L_cp:]) ** 2, axis=-1)
        return {"bits": bits, "r_ul": r_ul, "p_ul": p_ul, "g": g, "echo_bin_power": echo_bin_power}

    def compose(self, up, snr_points):
        """(p, T, L) uplink plus echo plus noise at each of the p ``snr_points``,
        and the p values of sigma2, each computed alone in Python floats. The
        uplink plus echo is formed once and the noise added to it at each point."""
        sigma2 = np.array([up["p_ul"] * 10.0 ** (-snr_db / 10.0) for snr_db in snr_points])
        noise = np.sqrt(sigma2)[:, None, None] * self.noise_unit
        return up["r_ul"] + up["g"] * self.r_dl + noise, sigma2


def _detect_chunk(chunk: _Chunk, snr_points, modes) -> list:
    """Estimate the noise and MMSE-detect the trials of ``chunk`` at p SNR
    points for every waveform group of ``modes``: each group's uplink built
    once and composed at every point, one demodulator and one NPE pass per
    group that has an NPE mode, on its (p, T, ·) stack, then one
    ``mmse_detect`` call for every point and group on the received core
    samples (the detector reads no demodulated frame). Returns per group: its
    modes, the received frames (p, T, N + L_cp), the sent bits (T, n_bits)
    and the MMSE estimates of the data symbols (p, T, len(group), n_data).
    """
    sys_ = chunk.cfg.system
    p, T = len(snr_points), len(chunk.ctxs)
    groups, channels, ys, sigma2s = [], [], [], []
    for waveform, entry in WAVEFORMS.items():
        group = [m for m in modes if MODES[m][0] == waveform]
        if not group:
            continue
        layout, up = chunk.layouts[waveform], chunk.uplink(waveform)
        r, sigma2 = chunk.compose(up, snr_points)
        noise = {"sigma2": sigma2[:, None], "sigma2+echo": sigma2[:, None] + up["echo_bin_power"]}
        if any(MODES[m][1] == "npe" for m in group):
            noise["npe"] = estimate_noise_power(entry.demod(r, sys_), layout)
        s2 = np.empty((p, T, len(group)))     # each mode's noise power
        for j, m in enumerate(group):
            s2[..., j] = noise[MODES[m][1]]
        # one build per (SNR point, trial), as perfbench/tests counts them (ROADMAP 1)
        channels += [build_equivalent_channel(c.ul_ps, sys_, waveform)
                     for _ in snr_points for c in chunk.ctxs]
        ys.append(r[..., sys_.L_cp:].reshape(p * T, -1))
        sigma2s += list(s2.reshape(p * T, -1))
        groups.append((group, layout.data, r, up["bits"]))
    x = mmse_detect(channels, np.concatenate(ys), sigma2s)     # rows: group, point, trial, mode
    ends = np.cumsum([p * T * len(group) for group, *_ in groups])[:-1]
    return [(group, r, bits, np.take(rows.reshape(p, T, len(group), -1), data, axis=-1))
            for (group, data, r, bits), rows in zip(groups, np.split(x, ends))]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    snr_db: float
    metric: float
    trials: int
    errors_counted: int
    confidence_halfwidth: float


_CHUNK_ROWS = 64     # (SNR point, trial) rows per stacked pass


def _chunks(n_trials: int, n_points: int):
    """Trials 0 .. n_trials - 1 in order, in chunks of max(1, _CHUNK_ROWS //
    n_points): a chunk that takes n_points SNR points stacks at most
    _CHUNK_ROWS rows, or n_points when there are more."""
    size = max(1, _CHUNK_ROWS // n_points)
    for start in range(0, n_trials, size):
        yield list(range(start, min(start + size, n_trials)))


def _ber_chunk(cfg, snr_points, trials, modes):
    """Bit errors of each trial of a chunk, (SNR point, trial, mode) int64."""
    col = {m: i for i, m in enumerate(modes)}
    out = np.zeros((len(snr_points), len(trials), len(modes)), dtype=np.int64)
    for group, _, bits, syms in _detect_chunk(_Chunk(cfg, trials), snr_points, modes):
        bits_hat = qam_demap_hard(syms.ravel(), cfg.system.M).reshape(*syms.shape[:3], -1)
        out[..., [col[m] for m in group]] = np.count_nonzero(bits_hat != bits[:, None], axis=-1)
    return out


def _sense_chunk(cfg, snr_points, trials, modes):
    """(err_r, ref_r, err_v, ref_v, index_errors) of each trial of a chunk,
    (SNR point, trial, mode, 5) float64: every mode's detection, one
    cancellation per waveform group, one correlation pass over all points,
    trials and modes against the chunk's dictionary and one 2D-OMP per (SNR
    point, trial, mode). Then per mode one scoring pass over every (SNR
    point, trial) row against the targets and their sorted cells."""
    sys_, k = cfg.system, cfg.frame.kappa_max
    chunk, n, T = _Chunk(cfg, trials), len(snr_points), len(trials)
    col = {m: i for i, m in enumerate(modes)}
    dic = build_dictionary(chunk.s_dl, np.arange(sys_.L_cp), np.arange(-k, k + 1), sys_.N)
    targets = [c.targets for c in chunk.ctxs]
    P = len(targets[0])
    cols, residuals = [], []
    for group, r, _, syms in _detect_chunk(chunk, snr_points, modes):
        waveform = MODES[group[0]][0]
        hard = qam_slice(syms, sys_.M).transpose(0, 2, 1, 3)     # (p, G, T, n_data)
        rebuilt = _transmit(sys_, chunk.layouts[waveform], waveform, hard, chunk.ul_channels)
        cols += [col[m] for m in group]
        residuals.append((r[:, None] - rebuilt).transpose(2, 0, 1, 3))  # (T, p, G, L)
    res = np.concatenate(residuals, axis=2)
    corr = correlate(dic, res.reshape(T, -1, res.shape[-1])).reshape(*res.shape[:3], -1)
    found = np.array([omp_2d(corr[t, i, m], dic, t, P).targets
                      for t, i, m in np.ndindex(corr.shape[:3])])
    picks = np.empty((n, T, len(modes), P, 2), dtype=np.int64)    # (tau, nu) of each pick
    picks[:, :, cols] = found.reshape(*corr.shape[:3], P, 2).swapaxes(0, 1)
    # every (SNR point, trial) row against its trial's truths
    true_r = np.tile([[t.range_m for t in ts] for ts in targets], (n, 1))
    true_v = np.tile([[t.velocity_mps for t in ts] for ts in targets], (n, 1))
    # a cell (tau, nu) as tau + j nu: numpy sorts complex values by the real
    # part, then the imaginary part, so the cells sort as (tau, nu) pairs
    true_cells = np.array([[quantize_target(t.range_m, t.velocity_mps, sys_) for t in ts]
                           for ts in targets] * n)
    true_keys = np.sort(true_cells[..., 0] + 1j * true_cells[..., 1], axis=-1)
    out = np.empty((n, T, len(modes), 5))
    for c in range(len(modes)):
        tau, nu = picks[:, :, c, :, 0].reshape(-1, P), picks[:, :, c, :, 1].reshape(-1, P)
        scores = matched_squared_errors(*estimate_to_physical(tau, nu, sys_), true_r, true_v)
        index_errors = np.count_nonzero(np.sort(tau + 1j * nu, axis=-1) != true_keys, axis=-1)
        out[:, :, c] = np.column_stack((*scores, index_errors)).reshape(n, T, 5)
    return out


def _check_workers(workers) -> None:
    # bool is an int subclass, but true/false are not a process count
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _pool_workers(cfg, workers: int) -> int:
    """The workers a sweep's pools run: a worker without a chunk would only
    add a fork and an exit."""
    return min(workers, math.ceil(cfg.sweep.trials / _CHUNK_ROWS))


def _per_snr(chunk_fn, cfg, workers: int) -> np.ndarray:
    """``chunk_fn``'s array over every trial, (SNR point, trial, ...), in trial order."""
    sweep = cfg.sweep
    if workers <= 1:
        return np.concatenate([chunk_fn(cfg, sweep.snr_db, trials, sweep.modes)
                               for trials in _chunks(sweep.trials, len(sweep.snr_db))], axis=1)
    # numpy loads these on first use; loaded here, before any fork, no worker
    # imports them for its first chunk, and serial runs do not load them early
    import numpy.fft
    import numpy.random
    # looked up on the module at call time, where tests and tracers may replace it
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    # one pool per SNR point: perfbench/tests pins harness.pool == len(snr_db) (ROADMAP 1b);
    # its tasks take one point each, so their chunks hold _CHUNK_ROWS trials. The pools of
    # workers // width consecutive points (a wave) run side by side, at most `workers`
    # processes in all. A later pool of a wave forks while an earlier pool's manager
    # thread runs; Python >= 3.12 warns of that from os.fork (checked on 3.11.7)
    width = _pool_workers(cfg, workers)
    per_wave = workers // width
    chunks, points = list(_chunks(sweep.trials, 1)), []
    for start in range(0, len(sweep.snr_db), per_wave):
        # map submits every task at once; the stack shuts the pools down in the
        # reverse order of their creation, as perfbench's pool spans must close
        with ExitStack() as stack:
            maps = [stack.enter_context(pool_class(max_workers=width)).map(
                        chunk_fn, repeat(cfg), repeat((snr_db,)), chunks, repeat(sweep.modes))
                    for snr_db in sweep.snr_db[start:start + per_wave]]
            points += [np.concatenate(list(results), axis=1) for results in maps]
    return np.concatenate(points)


def __getattr__(name: str):
    # PEP 562: the pool's modules (concurrent.futures.process, multiprocessing,
    # socket) load on first use, so a serial run does not pay for them
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_ber(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """BER vs SNR for every configured mode; returns {mode: [CurvePoint]}."""
    _check_workers(workers)
    sweep, layouts = cfg.sweep, _layouts(cfg)
    curves = {m: [] for m in sweep.modes}
    for snr, errors in zip(sweep.snr_db, _per_snr(_ber_chunk, cfg, workers).sum(axis=1).tolist()):
        for (mode, points), errs in zip(curves.items(), errors):
            bits = sweep.trials * layouts[MODES[mode][0]].n_data * int(np.log2(cfg.system.M))
            p = errs / bits
            hw = 1.96 * np.sqrt(p * (1.0 - p) / bits)
            points.append(CurvePoint(snr_db=snr, metric=p, trials=sweep.trials,
                                     errors_counted=errs, confidence_halfwidth=float(hw)))
    return curves


def run_sensing(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Velocity and distance NMSE vs SNR per mode.

    Returns {(mode, "velocity"|"distance"): [CurvePoint]}.
    """
    _check_workers(workers)
    for name, (lo, hi) in (("range_bounds", cfg.channel.range_bounds),
                           ("velocity_bounds", cfg.channel.velocity_bounds)):
        if lo == hi == 0:     # every truth is 0, and so is the NMSE's denominator
            raise ValueError(f"channel.{name} = {[lo, hi]} puts every target at 0, where the "
                             f"sensing NMSE is undefined")
    modes = cfg.sweep.modes
    curves = {(m, param): [] for m in modes for param in ("velocity", "distance")}
    for snr, per_trial in zip(cfg.sweep.snr_db, _per_snr(_sense_chunk, cfg, workers)):
        # sum each column as a 1-D vector over trials: pairwise, the same for
        # any stride, where a sum over the whole array's axis adds row by row
        for arr, mode in zip(per_trial.transpose(1, 0, 2), modes):
            n, idx_errs = arr.shape[0], int(arr[:, 4].sum())
            # columns: squared error, then squared true value
            for param, col in (("velocity", 2), ("distance", 0)):
                err, ref = arr[:, col].sum(), arr[:, col + 1].sum()
                ratios = arr[:, col] / np.maximum(arr[:, col + 1], 1e-300)
                curves[(mode, param)].append(CurvePoint(
                    snr, float(err / ref), n, idx_errs,
                    float(1.96 * ratios.std() / np.sqrt(n))))
    return curves


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def write_curve_csv(points, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["snr_db", "metric", "trials", "errors", "ci_halfwidth"])
        for p in points:
            w.writerow([repr(float(p.snr_db)), repr(float(p.metric)), p.trials,
                        p.errors_counted, repr(float(p.confidence_halfwidth))])


# the environment variables that set a BLAS library's thread count
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _library(show_config, kind: str) -> dict:
    """Name and version of the ``kind`` library ("blas", "lapack") that
    numpy's or scipy's ``show_config`` reports as a build dependency."""
    try:
        lib = show_config(mode="dicts")["Build Dependencies"][kind]
    except TypeError:   # numpy < 1.26 and older scipy have no mode argument
        lib = {}
    return {"name": lib.get("name"), "version": lib.get("version")}


def _blas() -> dict:
    """The BLAS library numpy was built against, and the thread variables as
    the environment sets them (None when unset); recorded, never changed."""
    return {**_library(np.show_config, "blas"),
            "thread_env": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}}


def write_manifest(cfg: ExperimentConfig, out_dir, wall_time_s: float, files, workers) -> FsPath:
    out = FsPath(out_dir) / "run_manifest.json"
    with open(out, "w") as fh:
        json.dump({
            # the resolved config, the dict config_hash hashes: a run can be redone from it
            "config": asdict(cfg),
            "config_hash": config_hash(cfg),
            "master_seed": cfg.sweep.master_seed,
            "code_version": __version__,
            "wall_time_s": wall_time_s,
            "files": [str(f) for f in files],
            "sha256": {str(f): hashlib.sha256(FsPath(f).read_bytes()).hexdigest() for f in files},
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "workers": workers,
            "blas": _blas(),
            # the MMSE band solve (pbtrf, tbtrs) runs in scipy's own LAPACK
            "lapack": _library(scipy.show_config, "lapack"),
        }, fh, indent=2, sort_keys=True)
    return out


def run_and_write(command: str, cfg: ExperimentConfig, out_dir, workers: int = 1) -> list:
    """Execute one subcommand end to end and write CSVs plus the manifest."""
    _check_workers(workers)
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files, curves = [], {}
    if command == "ber":
        curves = {f"ber_{mode}": pts for mode, pts in run_ber(cfg, workers=workers).items()}
    elif command == "sense":
        curves = {f"nmse_{param}_{mode}": pts
                  for (mode, param), pts in run_sensing(cfg, workers=workers).items()}
    elif command == "stats":
        from .affine_stats import run_stats  # the one module that loads scipy.stats
        workers = 1     # run_stats runs in this process, whatever was asked for
        sys_ = cfg.system
        path = path_from_bin(1.0, min(5, sys_.L_cp), min(2, cfg.frame.kappa_max), sys_.N, sys_.N)
        files = run_stats(sys_, PathSet((path,), sys_.N), out_dir, cfg.sweep.trials,
                          cfg.sweep.master_seed)
    else:
        raise ValueError(f"unknown command {command!r}")
    for name, points in curves.items():
        files.append(out_dir / f"{name}.csv")
        write_curve_csv(points, files[-1])
    write_manifest(cfg, out_dir, time.perf_counter() - t0, files, _pool_workers(cfg, workers))
    return files
