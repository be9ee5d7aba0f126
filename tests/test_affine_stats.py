"""Affine-domain statistics of OFDM frames: whiteness and reporting."""

import csv

import numpy as np
import pytest

from oracles import random_complex
from wdnoma.affine_stats import empirical_stats, gaussianity_check, write_report_csv
from wdnoma.channel import PathSet, path_from_bin
from wdnoma.transforms import ChirpParams, daft_samples, idft_samples
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(61)


def make_cfg(N=64):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=8, L_cpp=8,
                        chirp=ChirpParams.for_max_doppler(2, N), N1=8, N2=N // 8)


def _affine_view(X, cfg):
    # the affine view empirical_stats takes of a CP-free OFDM frame
    return daft_samples(idft_samples(X), cfg.chirp)


def test_affine_view_preserves_energy():
    cfg = make_cfg()
    x = random_complex(rng, 64)
    y = _affine_view(x, cfg)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-10


def test_affine_view_zero_input():
    cfg = make_cfg()
    y = _affine_view(np.zeros(64, dtype=np.complex128), cfg)
    assert np.all(y == 0)


def test_empirical_stats_whiteness_small():
    cfg = make_cfg()
    rep = empirical_stats(2000, cfg, None, np.random.default_rng(1))
    assert rep.n_trials == 2000
    assert rep.per_bin_variance.shape == (64,)
    assert rep.mean_abs < 4 / np.sqrt(2000)
    assert rep.flatness_ratio < 1.25
    assert abs(rep.trace / 64 - 1.0) < 0.05
    # lag-0 autocorrelation is the average per-bin variance
    assert abs(rep.autocorr[0].real - rep.trace / 64) < 1e-12


def test_empirical_stats_with_channel_preserves_whiteness():
    cfg = make_cfg()
    ch = PathSet((path_from_bin(1.0, 3, 1, 64, 64),), 64)
    rep = empirical_stats(2000, cfg, ch, np.random.default_rng(2))
    # a unit-gain single-path channel is unitary: trace and flatness unchanged
    assert abs(rep.trace / 64 - 1.0) < 0.05
    assert rep.flatness_ratio < 1.25


def test_empirical_stats_validation():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        empirical_stats(50, cfg, None, np.random.default_rng(0))
    bad_ch = PathSet((path_from_bin(1.0, 0, 0, 64, 72),), 72)
    with pytest.raises(ValueError):
        empirical_stats(200, cfg, bad_ch, np.random.default_rng(0))


def test_gaussianity_check_reports():
    cfg = make_cfg()
    rep = empirical_stats(500, cfg, None, np.random.default_rng(3))
    g = gaussianity_check(rep)
    assert g.n_samples >= 10_000
    assert 0.0 <= g.ks_real < 0.1
    assert 0.0 <= g.ks_imag < 0.1
    assert abs(g.fitted_mean) < 0.05


def test_write_report_csv(tmp_path):
    cfg = make_cfg()
    rep = empirical_stats(200, cfg, None, np.random.default_rng(4))
    out = tmp_path / "stats.csv"
    write_report_csv(rep, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "index", "value", "extra"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"variance", "hist_real", "hist_imag"}
    n_var = sum(1 for r in rows[1:] if r[0] == "variance")
    assert n_var == 64
