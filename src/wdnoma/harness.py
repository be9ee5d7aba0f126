"""Seeded Monte Carlo experiments: BER and sensing NMSE sweeps with
deterministic per-trial RNG streams, config parsing and output files.

Every trial owns substreams derived from (master_seed, trial_index,
purpose), so results do not depend on execution order or worker count, and
the same channel/bit/noise draws pair all receiver modes and all SNR points
(common random numbers).
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path as FsPath
from types import MappingProxyType

import numpy as np

from . import __version__
from .channel import (
    PathSet,
    PhysicalTarget,
    apply_dd_channel_samples,
    build_uplink_channel,
    path_from_bin,
    quantize_target,
    target_to_path,
)
from .frame import (
    FrameLayout,
    allocate_frame,
    allocate_otfs_frame,
    full_grid_layout,
)
from .receiver import (
    build_equivalent_channel,
    estimate_noise_power,
    mmse_detect,
    reconstruct_and_cancel,
)
from .sensing import (
    build_dictionary,
    estimate_to_physical,
    matched_squared_errors,
    omp_2d,
)
from .transforms import ChirpParams
from .waveforms import (
    SystemConfig,
    afdm_demod_samples,
    afdm_mod_samples,
    ofdm_demod_samples,
    ofdm_mod_samples,
    otfs_demod_samples,
    otfs_mod_samples,
    qam_demap_hard,
    qam_map,
)

MODES = (
    "wdnoma_afdm_npe",
    "wdnoma_afdm_no_npe",
    "wdnoma_afdm_genie",
    "wdnoma_otfs_npe",
    "pdnoma_ofdm",
)

_AFDM_MODES = MODES[:3]

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

@dataclass(frozen=True)
class FrameConfig:
    guard_start: int
    K1: int
    K2: int
    kappa_max: int
    otfs_guard_cols: int


@dataclass(frozen=True)
class ChannelConfig:
    uplink_taps: int
    doppler_bins: tuple
    target_count: int
    range_bounds: tuple
    velocity_bounds: tuple


@dataclass(frozen=True)
class SweepConfig:
    snr_db: tuple
    trials: int
    master_seed: int
    modes: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    frame: FrameConfig
    channel: ChannelConfig
    sweep: SweepConfig

    def __post_init__(self):
        sw = self.sweep
        if not sw.snr_db or not np.all(np.isfinite(sw.snr_db)):
            raise ValueError(f"snr_db must be a non-empty list of finite values, got {sw.snr_db}")
        # bool is an int subclass, but true/false are not a count or a seed
        if isinstance(sw.trials, bool) or not isinstance(sw.trials, int) or sw.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {sw.trials!r}")
        if isinstance(sw.master_seed, bool) or not isinstance(sw.master_seed, int) \
                or sw.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {sw.master_seed!r}")
        if not sw.modes:
            raise ValueError("modes must name at least one receiver mode")
        for m in sw.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}; valid: {', '.join(MODES)}")
        if self.system.L_cp != self.system.L_cpp:
            raise ValueError("L_cp must equal L_cpp so the superimposed frames align")
        if self.channel.uplink_taps - 1 > self.system.L_cpp:
            raise ValueError("uplink delay spread exceeds the prefix length")
        if max(abs(b) for b in self.channel.doppler_bins) > self.frame.kappa_max:
            raise ValueError("uplink Doppler bins exceed kappa_max")
        # every drawn target must quantize onto the 2D-OMP grid; quantization
        # is monotone, so checking the bounds covers the whole box
        lo_r, hi_r = self.channel.range_bounds
        if lo_r < 0:
            raise ValueError(f"range_bounds[0] = {lo_r} must be non-negative")
        far_delay, _ = quantize_target(hi_r, 0.0, self.system)
        if far_delay > self.system.L_cp - 1:
            raise ValueError(
                f"range_bounds[1] = {hi_r} m quantizes to delay {far_delay}, beyond "
                f"the sensing delay grid 0..{self.system.L_cp - 1}")
        for v in self.channel.velocity_bounds:
            _, kappa = quantize_target(0.0, v, self.system)
            if abs(kappa) > self.frame.kappa_max:
                raise ValueError(
                    f"velocity bound {v} m/s quantizes to Doppler bin {kappa}, "
                    f"beyond kappa_max = {self.frame.kappa_max}")
        # fail early if the guard layouts are inconsistent
        afdm_layout(self)
        otfs_layout(self)

    def to_dict(self) -> dict:
        d = {
            "system": asdict(self.system),
            "frame": asdict(self.frame),
            "channel": asdict(self.channel),
            "sweep": asdict(self.sweep),
        }
        chirp = d["system"].pop("chirp")
        d["system"]["c1"] = chirp["c1"]
        d["system"]["c2"] = chirp["c2"]
        return d


def _check_keys(d: dict, allowed, section: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {section}: {sorted(unknown)}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Strict parser: unknown keys anywhere are errors; c1 defaults to
    (2*kappa_max + 1)/(2N) when omitted or null."""
    _check_keys(raw, ("system", "frame", "channel", "sweep"), "config")
    for section in ("system", "frame", "channel", "sweep"):
        if section not in raw:
            raise ValueError(f"missing config section {section!r}")

    fd = dict(raw["frame"])
    _check_keys(fd, [f.name for f in fields(FrameConfig)], "frame")
    frame = FrameConfig(**fd)

    sd = dict(raw["system"])
    allowed = [f.name for f in fields(SystemConfig) if f.name != "chirp"] + ["c1", "c2"]
    _check_keys(sd, allowed, "system")
    c1 = sd.pop("c1", None)
    c2 = sd.pop("c2", 0.0)
    if c1 is None:
        chirp = ChirpParams.for_max_doppler(frame.kappa_max, int(sd["N"]))
    else:
        chirp = ChirpParams(c1=float(c1), c2=float(c2))
    system = SystemConfig(chirp=chirp, **sd)

    cd = dict(raw["channel"])
    _check_keys(cd, [f.name for f in fields(ChannelConfig)], "channel")
    cd["doppler_bins"] = tuple(int(b) for b in cd["doppler_bins"])
    cd["range_bounds"] = tuple(float(b) for b in cd["range_bounds"])
    cd["velocity_bounds"] = tuple(float(b) for b in cd["velocity_bounds"])
    channel = ChannelConfig(**cd)

    wd = dict(raw["sweep"])
    _check_keys(wd, [f.name for f in fields(SweepConfig)], "sweep")
    wd["snr_db"] = tuple(float(s) for s in wd["snr_db"])
    wd["modes"] = tuple(wd["modes"])
    sweep = SweepConfig(**wd)

    return ExperimentConfig(system=system, frame=frame, channel=channel, sweep=sweep)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def afdm_layout(cfg: ExperimentConfig) -> FrameLayout:
    f, s = cfg.frame, cfg.system
    return allocate_frame(s.N, f.guard_start, f.K1, f.guard_start + f.K1, f.K2,
                          f.kappa_max, s.chirp.c1,
                          max_delay=cfg.channel.uplink_taps - 1)


def otfs_layout(cfg: ExperimentConfig) -> FrameLayout:
    return allocate_otfs_frame(cfg.system.N1, cfg.system.N2,
                               cfg.frame.otfs_guard_cols, cfg.frame.kappa_max)


@lru_cache(maxsize=8)
def _layouts(cfg: ExperimentConfig):
    """The frame layout of each waveform; cached per config, so read-only."""
    layouts = {"afdm": afdm_layout(cfg), "otfs": otfs_layout(cfg),
               "ofdm": full_grid_layout(cfg.system.N)}
    for layout in layouts.values():
        for value in vars(layout).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return MappingProxyType(layouts)


# ---------------------------------------------------------------------------
# Per-trial simulation
# ---------------------------------------------------------------------------

def _rng(seed: int, trial: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, _RNG_TAGS[tag])))


def draw_targets(cfg: ExperimentConfig, trial: int):
    """Uniform targets in the configured range/velocity box, redrawn until
    they quantize to distinct delay-Doppler cells (unresolvable targets
    that share a grid cell are a degenerate scenario, not a noise effect)."""
    rng = _rng(cfg.sweep.master_seed, trial, "targets")
    lo_r, hi_r = cfg.channel.range_bounds
    lo_v, hi_v = cfg.channel.velocity_bounds
    for _ in range(1000):
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
        self._seed, self._trial, self._bps = seed, trial, int(np.log2(sys_.M))
        self.bits_dl = _rng(seed, trial, "bits_dl").integers(0, 2, sys_.N * self._bps)
        self.targets = draw_targets(cfg, trial)
        self.sense_ps = PathSet(tuple(target_to_path(t, sys_) for t in self.targets), L)
        self.ul_ps = build_uplink_channel(cfg.channel.uplink_taps, cfg.channel.doppler_bins,
                                          _rng(seed, trial, "channel"), sys_.N,
                                          sys_.frame_len_cpp)
        nrng = _rng(seed, trial, "noise")
        self.noise_unit = (nrng.standard_normal(L) + 1j * nrng.standard_normal(L)) / np.sqrt(2.0)

    def uplink_bits(self, waveform: str, n_data: int) -> np.ndarray:
        """Uplink bits of ``n_data`` symbols, drawn only for the waveforms a sweep runs."""
        return _rng(self._seed, self._trial, f"bits_{waveform}").integers(0, 2, n_data * self._bps)


class _Chunk:
    """A chunk of trials: each trial's draws, and the signals built from them
    as (T, ·) stacks by one call per stage, row for row the one-trial values."""

    def __init__(self, cfg: ExperimentConfig, trials):
        sys_ = cfg.system
        self.cfg, self.layouts = cfg, _layouts(cfg)
        self.ctxs = [_TrialContext(cfg, t) for t in trials]
        bits_dl = np.concatenate([c.bits_dl for c in self.ctxs])
        self.x_dl = qam_map(bits_dl, sys_.M).reshape(len(self.ctxs), sys_.N)
        self.s_dl = ofdm_mod_samples(self.x_dl, sys_.L_cp)
        self.r_dl = apply_dd_channel_samples(self.s_dl, [c.sense_ps for c in self.ctxs])
        self.noise_unit = np.stack([c.noise_unit for c in self.ctxs])
        self.n_targets = np.array([[len(c.targets)] for c in self.ctxs])

    def uplink(self, waveform: str):
        """Transmit bits (T, n_bits) and received uplink signals (T, L) for one waveform."""
        sys_ = self.cfg.system
        layout = self.layouts[waveform]
        bits = np.stack([c.uplink_bits(waveform, layout.n_data) for c in self.ctxs])
        frames = np.zeros((len(self.ctxs), sys_.N), dtype=np.complex128)
        frames[:, layout.data] = qam_map(bits.reshape(-1), sys_.M).reshape(len(self.ctxs), -1)
        if waveform == "afdm":
            s = afdm_mod_samples(frames, sys_.chirp, sys_.L_cpp)
        elif waveform == "otfs":
            s = otfs_mod_samples(frames, sys_.N1, sys_.N2, sys_.L_cp)
        else:
            s = ofdm_mod_samples(frames, sys_.L_cp)
        r_ul = apply_dd_channel_samples(s, [c.ul_ps for c in self.ctxs])
        return {"bits": bits, "r_ul": r_ul, "p_ul": layout.n_data / sys_.N}

    def compose(self, up, snr_db: float):
        """(T, L) uplink plus echo plus noise at ``snr_db``, sigma2, and the (T, 1)
        echo amplitudes g that put the echo echo_power_offset_db below p_ul."""
        p_ul = up["p_ul"]
        sigma2 = p_ul * 10.0 ** (-snr_db / 10.0)
        g = 10.0 ** (self.cfg.system.echo_power_offset_db / 20.0) * np.sqrt(p_ul / self.n_targets)
        return up["r_ul"] + g * self.r_dl + np.sqrt(sigma2) * self.noise_unit, sigma2, g


_WAVEFORM_OF_MODE = {m: ("afdm" if m in _AFDM_MODES else "otfs" if "otfs" in m else "ofdm")
                     for m in MODES}


def _detect_chunk(chunk: _Chunk, snr_db, modes) -> list:
    """Demodulate, estimate the noise and MMSE-detect the trials of ``chunk``
    for every waveform group of ``modes``, in one ``mmse_detect`` call.
    Returns per group: its modes, the received frames (T, N + L_cp), the
    sent bits (T, n_bits) and the hard decisions (T, len(group), n_bits).
    """
    sys_ = chunk.cfg.system
    T = len(chunk.ctxs)
    groups, channels, ds, sigma2s = [], [], [], []
    for waveform in ("afdm", "otfs", "ofdm"):
        group = [m for m in modes if _WAVEFORM_OF_MODE[m] == waveform]
        if not group:
            continue
        layout = chunk.layouts[waveform]
        up = chunk.uplink(waveform)
        r, sigma2, g = chunk.compose(up, snr_db)
        if waveform == "afdm":
            d = afdm_demod_samples(r, sys_.chirp, sys_.L_cpp)
        elif waveform == "otfs":
            d = otfs_demod_samples(r, sys_.N1, sys_.N2, sys_.L_cp)
        else:
            d = ofdm_demod_samples(r, sys_.L_cp)
        # L_cp == L_cpp, so every waveform's core window is r[..., L_cp:]
        echo_bin_power = np.mean(np.abs(g * chunk.r_dl[:, sys_.L_cp:]) ** 2, axis=-1)
        columns = []
        for mode in group:
            if mode.endswith("_no_npe"):
                columns.append(np.full(T, sigma2))
            elif mode.endswith("_npe"):
                columns.append(estimate_noise_power(d, layout))
            else:  # genie-style total noise (channel noise + measured echo power)
                columns.append(sigma2 + echo_bin_power)
        sigma2s.extend(np.column_stack(columns))
        channels += [build_equivalent_channel(c.ul_ps, sys_, waveform) for c in chunk.ctxs]
        ds.append(d)
        groups.append((group, layout, r, up["bits"]))

    xs = iter(mmse_detect(channels, np.concatenate(ds), sigma2s))
    out = []
    for group, layout, r, bits in groups:
        syms = np.stack([next(xs) for _ in range(T)]).take(layout.data, axis=-1)
        bits_hat = qam_demap_hard(syms.reshape(-1), sys_.M).reshape(T, len(group), -1)
        out.append((group, r, bits, bits_hat))
    return out


def _sense_trial(cfg, ctx, s_dl, residual):
    """2D-OMP on one trial's residual after cancellation, scored against its targets."""
    sys_, k = cfg.system, cfg.frame.kappa_max
    dic = build_dictionary(s_dl, np.arange(sys_.L_cp), np.arange(-k, k + 1), sys_.N)
    result = omp_2d(residual, dic, len(ctx.targets))
    estimates = [estimate_to_physical(e, sys_) for e in result.targets]

    err_r, ref_r, err_v, ref_v = matched_squared_errors(estimates, ctx.targets)
    true_cells = sorted(quantize_target(t.range_m, t.velocity_mps, sys_) for t in ctx.targets)
    est_cells = sorted((e.tau_hat, e.nu_hat) for e in result.targets)
    index_errors = sum(1 for a, b in zip(true_cells, est_cells) if a != b)
    return err_r, ref_r, err_v, ref_v, index_errors


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


def _chunks(n_trials: int, size: int = 64):
    for start in range(0, n_trials, size):
        yield list(range(start, min(start + size, n_trials)))


def _ber_chunk(cfg, snr_db, trials, modes):
    """{mode: (bit_errors, n_bits)} for each trial of a chunk."""
    rows = [{} for _ in trials]
    for group, _, bits, bits_hat in _detect_chunk(_Chunk(cfg, trials), snr_db, modes):
        errs = np.count_nonzero(bits_hat != bits[:, None], axis=-1).tolist()
        for row, counts in zip(rows, errs):
            row.update((m, (e, bits.shape[1])) for m, e in zip(group, counts))
    return rows


def _sense_chunk(cfg, snr_db, trials, mode):
    """Full pipeline through cancellation and 2D-OMP for each trial of a chunk."""
    sys_ = cfg.system
    waveform = _WAVEFORM_OF_MODE[mode]
    chunk = _Chunk(cfg, trials)
    ((_, r, _, bits_hat),) = _detect_chunk(chunk, snr_db, [mode])
    hard = qam_map(bits_hat.reshape(-1), sys_.M).reshape(len(trials), -1)
    residual = reconstruct_and_cancel(r, [c.ul_ps for c in chunk.ctxs], hard,
                                      chunk.layouts[waveform], sys_, waveform)
    return [_sense_trial(cfg, ctx, s_dl, res)
            for ctx, s_dl, res in zip(chunk.ctxs, chunk.s_dl, residual)]


def _run_chunks(fn, args_list, workers: int):
    if workers <= 1:
        return [fn(*a) for a in args_list]
    # a worker without a chunk would only add a fork and an exit
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        return list(pool.map(fn, *zip(*args_list)))


def run_ber(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """BER vs SNR for every configured mode; returns {mode: [CurvePoint]}."""
    modes = cfg.sweep.modes
    curves = {m: [] for m in modes}
    for snr in cfg.sweep.snr_db:
        args = [(cfg, snr, chunk, modes) for chunk in _chunks(cfg.sweep.trials)]
        per_trial = [r for chunk in _run_chunks(_ber_chunk, args, workers) for r in chunk]
        for mode in modes:
            errs = sum(r[mode][0] for r in per_trial)
            bits = sum(r[mode][1] for r in per_trial)
            p = errs / bits
            hw = 1.96 * np.sqrt(p * (1.0 - p) / bits)
            curves[mode].append(CurvePoint(snr_db=snr, metric=p, trials=cfg.sweep.trials,
                                           errors_counted=errs, confidence_halfwidth=float(hw)))
    return curves


def run_sensing(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Velocity and distance NMSE vs SNR per mode.

    Returns {(mode, "velocity"|"distance"): [CurvePoint]}.
    """
    curves = {}
    for mode in cfg.sweep.modes:
        vel_points, dist_points = [], []
        for snr in cfg.sweep.snr_db:
            args = [(cfg, snr, chunk, mode) for chunk in _chunks(cfg.sweep.trials)]
            rows = [r for chunk in _run_chunks(_sense_chunk, args, workers) for r in chunk]
            arr = np.array(rows, dtype=np.float64)
            err_r, ref_r, err_v, ref_v = (arr[:, i].sum() for i in range(4))
            idx_errs = int(arr[:, 4].sum())
            n = arr.shape[0]
            ratios_r = arr[:, 0] / np.maximum(arr[:, 1], 1e-300)
            ratios_v = arr[:, 2] / np.maximum(arr[:, 3], 1e-300)
            dist_points.append(CurvePoint(snr, float(err_r / ref_r), n, idx_errs,
                                          float(1.96 * ratios_r.std() / np.sqrt(n))))
            vel_points.append(CurvePoint(snr, float(err_v / ref_v), n, idx_errs,
                                         float(1.96 * ratios_v.std() / np.sqrt(n))))
        curves[(mode, "velocity")] = vel_points
        curves[(mode, "distance")] = dist_points
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


def write_manifest(cfg: ExperimentConfig, out_dir, wall_time_s: float, files) -> FsPath:
    out = FsPath(out_dir) / "run_manifest.json"
    with open(out, "w") as fh:
        json.dump({
            "config_hash": config_hash(cfg),
            "master_seed": cfg.sweep.master_seed,
            "code_version": __version__,
            "wall_time_s": wall_time_s,
            "files": [str(f) for f in files],
        }, fh, indent=2, sort_keys=True)
    return out


def run_and_write(command: str, cfg: ExperimentConfig, out_dir, workers: int = 1) -> list:
    """Execute one subcommand end to end and write CSVs plus the manifest."""
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    files = []
    if command == "ber":
        curves = run_ber(cfg, workers=workers)
        for mode, points in curves.items():
            p = out_dir / f"ber_{mode}.csv"
            write_curve_csv(points, p)
            files.append(p)
    elif command == "sense":
        curves = run_sensing(cfg, workers=workers)
        for (mode, param), points in curves.items():
            p = out_dir / f"nmse_{param}_{mode}.csv"
            write_curve_csv(points, p)
            files.append(p)
    elif command == "stats":
        from .affine_stats import run_stats  # the one module that loads scipy.stats
        sys_ = cfg.system
        path = path_from_bin(1.0, min(5, sys_.L_cp), min(2, cfg.frame.kappa_max), sys_.N, sys_.N)
        files = run_stats(sys_, PathSet((path,), sys_.N), out_dir, cfg.sweep.trials,
                          cfg.sweep.master_seed)
    else:
        raise ValueError(f"unknown command {command!r}")
    write_manifest(cfg, out_dir, time.time() - t0, files)
    return files
