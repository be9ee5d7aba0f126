"""Seeded Monte Carlo experiments: BER sweeps, sensing NMSE sweeps and
affine-domain statistics runs, with deterministic per-trial RNG streams.

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
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .affine_stats import empirical_stats, gaussianity_check, write_report_csv
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
    OtfsFrameLayout,
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
        if self.sweep.trials < 1:
            raise ValueError("trials must be >= 1")
        for m in self.sweep.modes:
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


def otfs_layout(cfg: ExperimentConfig) -> OtfsFrameLayout:
    return allocate_otfs_frame(cfg.system.N1, cfg.system.N2,
                               cfg.frame.otfs_guard_cols, cfg.frame.kappa_max)


def _layouts(cfg: ExperimentConfig) -> dict:
    return {"afdm": afdm_layout(cfg), "otfs": otfs_layout(cfg),
            "ofdm": full_grid_layout(cfg.system.N, cfg.frame.kappa_max)}


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
    """Everything about one trial that is shared across SNR points and modes."""

    def __init__(self, cfg: ExperimentConfig, trial: int, targets=None):
        sys_ = cfg.system
        seed = cfg.sweep.master_seed
        bps = int(np.log2(sys_.M))
        L = sys_.frame_len_cp

        bits_dl = _rng(seed, trial, "bits_dl").integers(0, 2, sys_.N * bps)
        self.x_dl = qam_map(bits_dl, sys_.M)
        self.s_dl = ofdm_mod_samples(self.x_dl, sys_.L_cp)

        self.targets = draw_targets(cfg, trial) if targets is None else targets
        self.sense_ps = PathSet(tuple(target_to_path(t, sys_) for t in self.targets), L)
        self.r_dl = apply_dd_channel_samples(self.s_dl, self.sense_ps)

        self.ul_ps = build_uplink_channel(cfg.channel.uplink_taps, cfg.channel.doppler_bins,
                                          _rng(seed, trial, "channel"), sys_.N,
                                          sys_.frame_len_cpp)

        nrng = _rng(seed, trial, "noise")
        self.noise_unit = (nrng.standard_normal(L) + 1j * nrng.standard_normal(L)) / np.sqrt(2.0)

        self._cfg = cfg
        self._trial = trial
        self._uplinks = {}

    def uplink(self, waveform: str, layout):
        """Transmit bits, frame and received uplink signal for one waveform."""
        if waveform in self._uplinks:
            return self._uplinks[waveform]
        cfg, sys_ = self._cfg, self._cfg.system
        bps = int(np.log2(sys_.M))
        n_data = layout.n_data
        bits = _rng(cfg.sweep.master_seed, self._trial, f"bits_{waveform}").integers(
            0, 2, n_data * bps)
        syms = qam_map(bits, sys_.M)
        frame = np.zeros(sys_.N, dtype=np.complex128)
        frame[layout.data] = syms
        if waveform == "afdm":
            s = afdm_mod_samples(frame, sys_.chirp, sys_.L_cpp)
        elif waveform == "otfs":
            s = otfs_mod_samples(frame, sys_.N1, sys_.N2, sys_.L_cp)
        else:
            s = ofdm_mod_samples(frame, sys_.L_cp)
        r_ul = apply_dd_channel_samples(s, self.ul_ps)
        out = {"bits": bits, "syms": syms, "r_ul": r_ul, "n_data": n_data,
               "p_ul": n_data / sys_.N}
        self._uplinks[waveform] = out
        return out

    def compose(self, up, snr_db: float):
        """Superimpose echo (at the configured offset) and scaled noise.

        The echo amplitude is calibrated so its average received power sits
        exactly echo_power_offset_db below the uplink signal power.
        """
        sys_ = self._cfg.system
        p_ul = up["p_ul"]
        sigma2 = p_ul * 10.0 ** (-snr_db / 10.0)
        g = 10.0 ** (sys_.echo_power_offset_db / 20.0) * np.sqrt(p_ul / len(self.targets))
        r = up["r_ul"] + g * self.r_dl + np.sqrt(sigma2) * self.noise_unit
        return r, sigma2, g


def _detect_group(cfg, ctx, snr_db, waveform, modes, layout, keep_chain=False):
    """Run demod + MMSE for all requested modes of one waveform group.

    Returns {mode: (bit_errors, n_bits)} plus, when keep_chain, the pieces
    the sensing stage needs (received frame and hard symbols).
    """
    sys_ = cfg.system
    up = ctx.uplink(waveform, layout)
    r, sigma2, g = ctx.compose(up, snr_db)

    if waveform == "afdm":
        d = afdm_demod_samples(r, sys_.chirp, sys_.L_cpp)
    elif waveform == "otfs":
        d = otfs_demod_samples(r, sys_.N1, sys_.N2, sys_.L_cp)
    else:
        d = ofdm_demod_samples(r, sys_.L_cp)
    # L_cp == L_cpp, so every waveform's core window is r[L_cp:]
    echo_bin_power = float(np.mean(np.abs(g * ctx.r_dl[sys_.L_cp:]) ** 2))

    sigma2s = []
    for mode in modes:
        if mode.endswith("_no_npe"):
            sigma2s.append(sigma2)
        elif mode.endswith("_npe"):
            sigma2s.append(estimate_noise_power(d, layout))
        else:  # genie-style total noise (channel noise + measured echo power)
            sigma2s.append(sigma2 + echo_bin_power)

    # H is not bound here, so mmse_detect frees it first, with its own N x N
    # temporaries; holding H until this function returns changed the heap
    # layout and raised the N = 1024 peak RSS by 4 MB
    xs = mmse_detect(build_equivalent_channel(ctx.ul_ps, sys_, waveform).matrix, d, sigma2s)
    results = {}
    chain = {}
    for mode, x in zip(modes, xs):
        bits_hat = qam_demap_hard(x[layout.data], sys_.M)
        errs = int(np.count_nonzero(bits_hat != up["bits"]))
        results[mode] = (errs, up["bits"].size)
        if keep_chain:
            chain[mode] = {"r": r, "hard_syms": qam_map(bits_hat, sys_.M)}
    return results, chain


_WAVEFORM_OF_MODE = {m: ("afdm" if m in _AFDM_MODES else "otfs" if "otfs" in m else "ofdm")
                     for m in MODES}


def _ber_trial(cfg, trial, snr_db, modes, layouts):
    ctx = _TrialContext(cfg, trial)
    out = {}
    for waveform in ("afdm", "otfs", "ofdm"):
        group = [m for m in modes if _WAVEFORM_OF_MODE[m] == waveform]
        if not group:
            continue
        res, _ = _detect_group(cfg, ctx, snr_db, waveform, group, layouts[waveform])
        out.update(res)
    return out


def _sense_trial(cfg, trial, snr_db, mode, layouts):
    """Full pipeline through cancellation and 2D-OMP for one trial."""
    sys_ = cfg.system
    ctx = _TrialContext(cfg, trial)
    waveform = _WAVEFORM_OF_MODE[mode]
    layout = layouts[waveform]
    _, chain = _detect_group(cfg, ctx, snr_db, waveform, [mode], layout, keep_chain=True)
    piece = chain[mode]
    residual = reconstruct_and_cancel(piece["r"], ctx.ul_ps, piece["hard_syms"], layout,
                                      sys_, waveform)

    dic = build_dictionary(ctx.s_dl, sensing_tau_grid(cfg), sensing_nu_grid(cfg), sys_.N)
    result = omp_2d(residual, dic, len(ctx.targets))
    estimates = [estimate_to_physical(e, sys_) for e in result.targets]

    err_r, ref_r, err_v, ref_v = matched_squared_errors(estimates, ctx.targets)
    true_cells = sorted((p.delay_samples, int(round(p.doppler_norm * sys_.N / ctx.sense_ps.frame_len)))
                        for p in ctx.sense_ps.paths)
    est_cells = sorted((e.tau_hat, e.nu_hat) for e in result.targets)
    index_errors = sum(1 for a, b in zip(true_cells, est_cells) if a != b)
    return err_r, ref_r, err_v, ref_v, index_errors


def sensing_tau_grid(cfg: ExperimentConfig):
    return np.arange(cfg.system.L_cp)


def sensing_nu_grid(cfg: ExperimentConfig):
    k = cfg.frame.kappa_max
    return np.arange(-k, k + 1)


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
    layouts = _layouts(cfg)
    return [_ber_trial(cfg, t, snr_db, modes, layouts) for t in trials]


def _sense_chunk(cfg, snr_db, trials, mode):
    layouts = _layouts(cfg)
    return [_sense_trial(cfg, t, snr_db, mode, layouts) for t in trials]


def _run_chunks(fn, args_list, workers: int):
    if workers <= 1:
        return [fn(*a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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


def run_stats(cfg: ExperimentConfig, out_dir, trials: int | None = None) -> list:
    """Pre- and post-channel affine-domain statistics; writes one CSV each
    plus a gaussianity summary. Returns the written paths."""
    sys_ = cfg.system
    trials = trials if trials is not None else cfg.sweep.trials
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.sweep.master_seed

    rng_pre = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 100)))
    pre = empirical_stats(trials, sys_, None, rng_pre)

    path = path_from_bin(1.0, min(5, sys_.L_cp), min(2, cfg.frame.kappa_max), sys_.N, sys_.N)
    ch = PathSet((path,), sys_.N)
    rng_post = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 101)))
    post = empirical_stats(trials, sys_, ch, rng_post)

    paths = []
    for name, report in (("stats_prechannel.csv", pre), ("stats_postchannel.csv", post)):
        p = out_dir / name
        write_report_csv(report, p)
        paths.append(p)
    gauss = gaussianity_check(post)
    gp = out_dir / "gaussianity.json"
    with open(gp, "w") as fh:
        json.dump({"ks_real": gauss.ks_real, "ks_imag": gauss.ks_imag,
                   "p_real": gauss.p_real, "p_imag": gauss.p_imag,
                   "fitted_mean": gauss.fitted_mean, "fitted_std": gauss.fitted_std,
                   "n_samples": gauss.n_samples}, fh, indent=2, sort_keys=True)
    paths.append(gp)
    return paths


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
        files = run_stats(cfg, out_dir)
    else:
        raise ValueError(f"unknown command {command!r}")
    write_manifest(cfg, out_dir, time.time() - t0, files)
    return files
