"""Empirical statistics of OFDM signals viewed in the affine domain.

The downlink OFDM frame, transformed with the DAFT (CP neglected), should
look like white noise: flat per-bin variance, zero mean and near-Gaussian
marginals. This module measures those quantities over Monte Carlo trials so
the claims become testable numbers.
``wdnoma stats`` is the only command that imports this module, and this
module is the only one that imports scipy.stats.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path as FsPath

import numpy as np
from scipy import stats as sps

from .channel import Channels, apply_dd_channel_samples
from .transforms import daft_samples, idft_samples
from .waveforms import SystemConfig, constellation

_HIST_BINS = 61
_BUFFER_CAP = 200_000
_BATCH = 512              # frames drawn and transformed per pass


@dataclass(frozen=True)
class StatReport:
    per_bin_variance: np.ndarray
    mean_abs: float            # max over bins of |per-bin mean|
    trace: float               # sum of per-bin variances
    flatness_ratio: float      # max/min per-bin variance
    hist_real: tuple           # (counts, bin_edges)
    hist_imag: tuple
    sample_buffer: np.ndarray  # capped raw affine-domain samples


@dataclass(frozen=True)
class GaussianityReport:
    ks_real: float
    ks_imag: float
    p_real: float
    p_imag: float
    fitted_mean: float
    fitted_std: float
    n_samples: int


def empirical_stats(trials: int, cfg: SystemConfig, channel: Channels | None,
                    rng: np.random.Generator) -> StatReport:
    """Accumulate affine-domain moments of random QAM-fed OFDM frames.

    ``channel``, when given, is applied circularly over the CP-free frame
    (its frame_len must equal N).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for stable statistics")
    N = cfg.N
    if channel is not None and channel.frame_len != N:
        raise ValueError("stats channel must act on the CP-free frame (frame_len == N)")
    points = constellation(cfg.M)
    mean_acc = np.zeros(N, dtype=np.complex128)
    power_acc = np.zeros(N)
    buffer = []
    buffered = 0
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        X = points[rng.integers(0, cfg.M, size=(b, N))]
        S = idft_samples(X)
        if channel is not None:
            S = apply_dd_channel_samples(S, channel)
        Y = daft_samples(S, cfg.c1, cfg.c2)
        mean_acc += Y.sum(axis=0)
        power_acc += np.sum(Y.real ** 2 + Y.imag ** 2, axis=0)
        if buffered < _BUFFER_CAP:
            take = min(_BUFFER_CAP - buffered, Y.size)
            buffer.append(Y.reshape(-1)[:take])
            buffered += take
        done += b
    mean = mean_acc / trials
    var = power_acc / trials  # second moment; mean is ~0 by construction
    samples = np.concatenate(buffer)    # trials >= 100: one batch at least
    hist_r = np.histogram(samples.real, bins=_HIST_BINS)
    hist_i = np.histogram(samples.imag, bins=_HIST_BINS)
    return StatReport(
        per_bin_variance=var,
        mean_abs=float(np.max(np.abs(mean))),
        trace=float(var.sum()),
        flatness_ratio=float(var.max() / var.min()),
        hist_real=hist_r,
        hist_imag=hist_i,
        sample_buffer=samples,
    )


def gaussianity_check(report: StatReport) -> GaussianityReport:
    """Kolmogorov-Smirnov distance of real/imag parts to a fitted Gaussian.

    Advisory only: the whiteness analysis guarantees second-order flatness,
    not strict Gaussianity at finite N.
    """
    samples = report.sample_buffer
    if samples.size < 10_000:
        raise ValueError("need at least 1e4 buffered samples for the KS check")
    out = {}
    for name, v in (("real", samples.real), ("imag", samples.imag)):
        mu, sd = float(np.mean(v)), float(np.std(v))
        ks = sps.kstest(v, "norm", args=(mu, sd))
        out[name] = (float(ks.statistic), float(ks.pvalue), mu, sd)
    # the fitted Gaussian reported is the real part's
    return GaussianityReport(ks_real=out["real"][0], ks_imag=out["imag"][0],
                             p_real=out["real"][1], p_imag=out["imag"][1],
                             fitted_mean=out["real"][2], fitted_std=out["real"][3],
                             n_samples=int(samples.size))


def write_report_csv(report: StatReport, path) -> None:
    """Per-bin variances followed by the real/imag histograms (one row per bin)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "index", "value", "extra"])
        for i, v in enumerate(report.per_bin_variance):
            w.writerow(["variance", i, repr(float(v)), ""])
        for kind, (counts, edges) in (("hist_real", report.hist_real),
                                      ("hist_imag", report.hist_imag)):
            for i, c in enumerate(counts):
                w.writerow([kind, i, int(c), repr(float(edges[i]))])


def run_stats(cfg: SystemConfig, channel: Channels, out_dir, trials: int, seed: int) -> list:
    """Affine-domain statistics without and with ``channel``; writes one CSV
    each, and gaussianity.json: a gaussianity summary of the latter and, under
    "whiteness", each one's mean_abs, trace and flatness_ratio. Returns the
    written paths."""
    out_dir = FsPath(out_dir)
    reports = []
    for key, ch in ((100, None), (101, channel)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, key)))
        reports.append(empirical_stats(trials, cfg, ch, rng))
    paths, names = [], ("prechannel", "postchannel")
    for name, report in zip(names, reports):
        paths.append(out_dir / f"stats_{name}.csv")
        write_report_csv(report, paths[-1])
    paths.append(out_dir / "gaussianity.json")
    summary = asdict(gaussianity_check(reports[1]))
    summary["whiteness"] = {name: {"mean_abs": r.mean_abs, "trace": r.trace,
                                   "flatness_ratio": r.flatness_ratio}
                            for name, r in zip(names, reports)}
    with open(paths[-1], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return paths
