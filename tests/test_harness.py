"""Experiment harness tests: config parsing, seeding, determinism, CLI."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wdnoma.cli import main
from wdnoma.harness import (
    MODES,
    _TrialContext,
    afdm_layout,
    config_from_dict,
    config_hash,
    draw_targets,
    load_config,
    otfs_layout,
    run_ber,
    run_sensing,
)
from wdnoma.channel import target_to_path

ROOT = Path(__file__).parent.parent
CONFIG = ROOT / "configs" / "desk.json"


def small_raw(**over):
    raw = json.loads(CONFIG.read_text())
    raw["sweep"]["trials"] = 4
    raw["sweep"]["snr_db"] = [10.0, 30.0]
    raw["sweep"]["modes"] = ["wdnoma_afdm_npe", "pdnoma_ofdm"]
    for section, d in over.items():
        raw[section].update(d)
    return raw


def test_load_example_config():
    cfg = load_config(CONFIG)
    assert cfg.system.N == 256
    assert cfg.sweep.modes == MODES
    # c1 defaulted from kappa_max: (2*1 + 1)/(2N)
    assert cfg.system.chirp.shift_factor(256) == 3
    # the paper-scale config passes the same parse-time checks
    assert load_config(ROOT / "perfbench" / "paper.json").system.N == 1024


def test_config_rejects_unknown_keys():
    raw = small_raw()
    raw["system"]["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict(raw)
    raw2 = small_raw()
    raw2["extra_section"] = {}
    with pytest.raises(ValueError):
        config_from_dict(raw2)


def test_config_rejects_missing_section():
    raw = small_raw()
    del raw["channel"]
    with pytest.raises(ValueError, match="channel"):
        config_from_dict(raw)


def test_config_cross_validation():
    with pytest.raises(ValueError, match="mode"):
        config_from_dict(small_raw(sweep={"modes": ["nope"]}))
    with pytest.raises(ValueError, match="Doppler"):
        config_from_dict(small_raw(channel={"doppler_bins": [5]}))
    with pytest.raises(ValueError, match="align"):
        config_from_dict(small_raw(system={"L_cp": 8}))
    with pytest.raises(ValueError, match="trials"):
        config_from_dict(small_raw(sweep={"trials": 0}))


def test_config_rejects_negative_range():
    with pytest.raises(ValueError, match="range_bounds"):
        config_from_dict(small_raw(channel={"range_bounds": [-1.0, 50.0]}))


def test_config_rejects_range_beyond_delay_grid():
    # desk: 7.68 MHz sampling, so 292.8 m is delay 15 (the last OMP grid
    # delay, L_cp - 1) and 315 m is delay 16, which the prefix still admits
    config_from_dict(small_raw(channel={"range_bounds": [0.0, 292.8]}))
    with pytest.raises(ValueError, match="range_bounds"):
        config_from_dict(small_raw(channel={"range_bounds": [310.0, 315.0]}))


def test_config_rejects_velocity_beyond_kappa_max():
    # 28 GHz at 30 kHz spacing: 300 m/s is Doppler bin 2 > kappa_max = 1
    for bounds in ([0.0, 300.0], [-300.0, 0.0]):
        with pytest.raises(ValueError, match="kappa_max"):
            config_from_dict(small_raw(channel={"velocity_bounds": bounds}))


def test_config_hash_is_content_addressed():
    a = config_from_dict(small_raw())
    b = config_from_dict(small_raw())
    assert config_hash(a) == config_hash(b)
    c = config_from_dict(small_raw(sweep={"master_seed": 99}))
    assert config_hash(a) != config_hash(c)


def test_layouts_from_config():
    cfg = config_from_dict(small_raw())
    af = afdm_layout(cfg)
    # K2 = 32 minus edges, kappa_max = 1 and a 2-tap delay-coupled spread of 6
    assert af.npe_window.size == 22
    ot = otfs_layout(cfg)
    # OTFS carries the same 192-symbol payload as AFDM
    assert ot.n_data == af.n_data == 192


def test_draw_targets_deterministic_and_distinct():
    cfg = config_from_dict(small_raw())
    t1 = draw_targets(cfg, 7)
    t2 = draw_targets(cfg, 7)
    assert [t.range_m for t in t1] == [t.range_m for t in t2]
    cells = {(p.delay_samples, p.doppler_norm)
             for p in (target_to_path(t, cfg.system) for t in t1)}
    assert len(cells) == cfg.channel.target_count
    assert draw_targets(cfg, 8)[0].range_m != t1[0].range_m


def test_trial_context_crn_across_snr():
    # the same trial index reuses bits/channel/noise at every SNR point
    cfg = config_from_dict(small_raw())
    ctx1 = _TrialContext(cfg, 3)
    ctx2 = _TrialContext(cfg, 3)
    assert np.array_equal(ctx1.x_dl, ctx2.x_dl)
    assert np.array_equal(ctx1.noise_unit, ctx2.noise_unit)
    up = ctx1.uplink("afdm", afdm_layout(cfg))
    r10, s10, g10 = ctx1.compose(up, 10.0)
    r20, s20, g20 = ctx1.compose(up, 20.0)
    assert s10 / s20 == pytest.approx(10.0)
    assert g10 == g20
    # noise realization is shared across SNR points, only its scale differs
    w10 = r10 - up["r_ul"] - g10 * ctx1.r_dl
    w20 = r20 - up["r_ul"] - g20 * ctx1.r_dl
    assert np.allclose(w10, np.sqrt(s10 / s20) * w20)


def test_compose_echo_calibration():
    # average echo power sits exactly echo_power_offset_db below uplink power
    cfg = config_from_dict(small_raw())
    ctx = _TrialContext(cfg, 0)
    up = ctx.uplink("afdm", afdm_layout(cfg))
    _, _, g = ctx.compose(up, 10.0)
    n_targets = len(ctx.targets)
    expected = 10 ** (cfg.system.echo_power_offset_db / 20) * np.sqrt(up["p_ul"] / n_targets)
    assert g == pytest.approx(expected)
    # unit-magnitude target gains -> E|g*r_dl|^2 = g^2 * n_targets * E|s_dl|^2;
    # within a single frame the prefix tail makes mean |s_dl|^2 fluctuate ~1%
    echo_power = g ** 2 * n_targets * np.mean(np.abs(ctx.s_dl) ** 2)
    ratio = echo_power / up["p_ul"]
    assert ratio == pytest.approx(10 ** (cfg.system.echo_power_offset_db / 10), rel=0.02)


def test_run_ber_shapes_and_counts():
    cfg = config_from_dict(small_raw())
    curves = run_ber(cfg)
    assert set(curves) == {"wdnoma_afdm_npe", "pdnoma_ofdm"}
    for mode, points in curves.items():
        assert [p.snr_db for p in points] == [10.0, 30.0]
        for p in points:
            assert p.trials == 4
            assert 0.0 <= p.metric <= 1.0


def test_run_ber_worker_count_invariance():
    cfg = config_from_dict(small_raw())
    a = run_ber(cfg, workers=1)
    b = run_ber(cfg, workers=2)
    for mode in a:
        assert [(p.metric, p.errors_counted) for p in a[mode]] == \
               [(p.metric, p.errors_counted) for p in b[mode]]


def test_run_sensing_output_structure():
    cfg = config_from_dict(small_raw(sweep={"modes": ["wdnoma_afdm_npe"],
                                            "snr_db": [30.0], "trials": 3}))
    curves = run_sensing(cfg)
    assert set(curves) == {("wdnoma_afdm_npe", "velocity"), ("wdnoma_afdm_npe", "distance")}
    for points in curves.values():
        assert len(points) == 1
        assert points[0].metric >= 0.0


def _write_cfg(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


def test_cli_validate_config(tmp_path, capsys):
    p = _write_cfg(tmp_path, small_raw())
    assert main(["validate-config", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ok: config hash" in out
    bad = small_raw()
    bad["system"]["bogus"] = 1
    pb = _write_cfg(tmp_path, bad)
    assert main(["validate-config", "--config", str(pb)]) == 2


def test_cli_ber_run_writes_files(tmp_path):
    p = _write_cfg(tmp_path, small_raw())
    out = tmp_path / "out"
    rc = main(["ber", "--config", str(p), "--out", str(out),
               "--mode", "wdnoma_afdm_npe", "--snr", "10", "--trials", "2"])
    assert rc == 0
    assert (out / "ber_wdnoma_afdm_npe.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["master_seed"] == 12345
    lines = (out / "ber_wdnoma_afdm_npe.csv").read_text().splitlines()
    assert lines[0] == "snr_db,metric,trials,errors,ci_halfwidth"
    assert len(lines) == 2


def test_cli_repeat_runs_byte_identical(tmp_path):
    p = _write_cfg(tmp_path, small_raw())
    outs = []
    for name, workers in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        main(["ber", "--config", str(p), "--out", str(out), "--workers", workers,
              "--mode", "wdnoma_afdm_npe,pdnoma_ofdm", "--trials", "3"])
        outs.append(out)
    for f in ("ber_wdnoma_afdm_npe.csv", "ber_pdnoma_ofdm.csv"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_cli_sense_default_modes(tmp_path):
    # every default mode completes, PD-NOMA OFDM included
    out = tmp_path / "sense"
    assert main(["sense", "--config", str(CONFIG), "--out", str(out),
                 "--trials", "2", "--snr", "30"]) == 0
    files = sorted(out.glob("nmse_*.csv"))
    assert len(files) == 2 * len(MODES)
    for f in files:
        with open(f) as fh:
            (row,) = list(csv.DictReader(fh))
        assert all(math.isfinite(float(row[k])) for k in ("metric", "ci_halfwidth"))
