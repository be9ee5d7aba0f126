"""Affine-domain statistics of OFDM frames: whiteness and reporting."""

import csv
import json

import numpy as np
import pytest

from oracles import random_complex
from wdnoma.affine_stats import (
    _BATCH,
    empirical_stats,
    gaussianity_check,
    run_stats,
    write_report_csv,
)
from wdnoma.channel import path_from_bin
from wdnoma.transforms import daft_samples, default_c1, idft_samples
from wdnoma.waveforms import SystemConfig, constellation

rng = np.random.default_rng(61)


def make_cfg(N=64):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=8, L_cpp=8,
                        c1=default_c1(2, N), N1=8, N2=N // 8)


def _affine_view(X, cfg):
    # the affine view empirical_stats takes of a CP-free OFDM frame
    return daft_samples(idft_samples(X), cfg.c1, cfg.c2)


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
    assert rep.per_bin_variance.shape == (64,)
    assert rep.mean_abs < 4 / np.sqrt(2000)
    assert rep.flatness_ratio < 1.25
    assert abs(rep.trace / 64 - 1.0) < 0.05
    # the per-bin variance is the mean power of the same draws, batch by batch
    g = np.random.default_rng(1)
    Y = np.concatenate([_affine_view(constellation(cfg.M)[g.integers(0, cfg.M, size=(b, 64))],
                                     cfg)
                        for b in (_BATCH,) * (2000 // _BATCH) + (2000 % _BATCH,)])
    assert np.max(np.abs(rep.per_bin_variance - np.mean(np.abs(Y) ** 2, axis=0))) < 1e-12
    assert rep.trace == rep.per_bin_variance.sum()


def test_empirical_stats_with_channel_preserves_whiteness():
    cfg = make_cfg()
    ch = path_from_bin(1.0, 3, 1, 64, 64)
    rep = empirical_stats(2000, cfg, ch, np.random.default_rng(2))
    # a unit-gain single-path channel is unitary: trace and flatness unchanged
    assert abs(rep.trace / 64 - 1.0) < 0.05
    assert rep.flatness_ratio < 1.25


def test_empirical_stats_validation():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        empirical_stats(50, cfg, None, np.random.default_rng(0))
    bad_ch = path_from_bin(1.0, 0, 0, 64, 72)
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


def test_run_stats_records_the_whiteness_of_both_reports(tmp_path):
    # the numbers behind the claim that the echo is AWGN-like reach the output
    cfg = make_cfg()
    ch = path_from_bin([0.8, 0.6j], [2, 5], [-1, 1], 64, 64)
    run_stats(cfg, ch, tmp_path, 200, seed=7)
    summary = json.loads((tmp_path / "gaussianity.json").read_text())
    for name, key, c in (("prechannel", 100, None), ("postchannel", 101, ch)):
        g = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0, key)))
        rep = empirical_stats(200, cfg, c, g)
        assert summary["whiteness"][name] == {"mean_abs": rep.mean_abs, "trace": rep.trace,
                                              "flatness_ratio": rep.flatness_ratio}
        assert (tmp_path / f"stats_{name}.csv").exists()
    assert summary["n_samples"] == gaussianity_check(rep).n_samples
