"""Empirical statistics of OFDM signals viewed in the affine domain.

The downlink OFDM frame, transformed with the DAFT (CP neglected), should
look like white noise: flat per-bin variance, zero mean, lag-only
autocorrelation, and near-Gaussian marginals. This module measures those
quantities over Monte Carlo trials so the claims become testable numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .channel import PathSet, apply_dd_channel_samples
from .transforms import daft_samples, idft_samples
from .waveforms import SystemConfig, constellation

_HIST_BINS = 61
_BUFFER_CAP = 200_000


@dataclass(frozen=True)
class StatReport:
    n_trials: int
    per_bin_mean: np.ndarray
    per_bin_variance: np.ndarray
    mean_abs: float            # max over bins of |per-bin mean|
    trace: float               # sum of per-bin variances
    flatness_ratio: float      # max/min per-bin variance
    autocorr: dict             # lag -> complex, averaged over bins and trials
    covariance: np.ndarray     # full N x N sample covariance
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


def empirical_stats(trials: int, cfg: SystemConfig, channel: PathSet | None,
                    rng: np.random.Generator, batch: int = 512,
                    autocorr_lags: int = 16) -> StatReport:
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
    cov_acc = np.zeros((N, N), dtype=np.complex128)
    buffer = []
    buffered = 0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        X = points[rng.integers(0, cfg.M, size=(b, N))]
        S = idft_samples(X)
        if channel is not None:
            S = apply_dd_channel_samples(S, channel)
        Y = daft_samples(S, cfg.chirp)
        mean_acc += Y.sum(axis=0)
        cov_acc += Y.conj().T @ Y
        if buffered < _BUFFER_CAP:
            take = min(_BUFFER_CAP - buffered, Y.size)
            buffer.append(Y.reshape(-1)[:take])
            buffered += take
        done += b
    mean = mean_acc / trials
    cov = cov_acc / trials  # second moment; mean is ~0 by construction
    var = np.real(np.diag(cov)).copy()
    lags = {}
    for lag in range(min(autocorr_lags, N)):
        idx = np.arange(N)
        lags[lag] = complex(np.mean(cov[idx, (idx - lag) % N]))
    samples = np.concatenate(buffer) if buffer else np.zeros(0, dtype=np.complex128)
    hist_r = np.histogram(samples.real, bins=_HIST_BINS)
    hist_i = np.histogram(samples.imag, bins=_HIST_BINS)
    return StatReport(
        n_trials=trials,
        per_bin_mean=mean,
        per_bin_variance=var,
        mean_abs=float(np.max(np.abs(mean))),
        trace=float(var.sum()),
        flatness_ratio=float(var.max() / var.min()),
        autocorr=lags,
        covariance=cov,
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
    parts = {"real": samples.real, "imag": samples.imag}
    out = {}
    for name, v in parts.items():
        mu, sd = float(np.mean(v)), float(np.std(v))
        ks = sps.kstest(v, "norm", args=(mu, sd))
        out[name] = (float(ks.statistic), float(ks.pvalue))
    mu = float(np.mean(samples.real))
    sd = float(np.std(samples.real))
    return GaussianityReport(ks_real=out["real"][0], ks_imag=out["imag"][0],
                             p_real=out["real"][1], p_imag=out["imag"][1],
                             fitted_mean=mu, fitted_std=sd, n_samples=int(samples.size))


def write_report_csv(report: StatReport, path) -> None:
    """Per-bin variances followed by the real/imag histograms (one row per bin)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "index", "value", "extra"])
        for i, v in enumerate(report.per_bin_variance):
            w.writerow(["variance", i, repr(float(v)), ""])
        counts_r, edges_r = report.hist_real
        counts_i, edges_i = report.hist_imag
        for i, c in enumerate(counts_r):
            w.writerow(["hist_real", i, int(c), repr(float(edges_r[i]))])
        for i, c in enumerate(counts_i):
            w.writerow(["hist_imag", i, int(c), repr(float(edges_i[i]))])
