"""Delay-Doppler channel tests: dense oracle, linearity, statistics, and
the composition of the received frame."""

import json
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from oracles import dense_channel, random_complex
from wdnoma.channel import (
    Path,
    PathSet,
    PhysicalTarget,
    apply_dd_channel_samples,
    build_uplink_channel,
    doppler_bin_to_norm,
    path_from_bin,
    target_to_path,
)
from wdnoma.harness import _TrialContext, afdm_layout, config_from_dict
from wdnoma.transforms import ChirpParams
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(23)


def _as_tuples(ps):
    return [(p.gain, p.delay_samples, p.doppler_norm) for p in ps.paths]


def test_two_path_dense_oracle():
    L = 20
    paths = (Path(0.8 - 0.3j, 3, 2.5), Path(-0.1 + 0.9j, 7, -1.0))
    ps = PathSet(paths, L)
    H = dense_channel(L, _as_tuples(ps))
    x = random_complex(rng, L)
    got = apply_dd_channel_samples(x, ps)
    assert np.max(np.abs(got - H @ x)) < 1e-12


def test_dense_oracle_many_random_cases():
    for _ in range(60):
        L = int(rng.integers(8, 65))
        n_paths = int(rng.integers(1, 5))
        paths = tuple(Path(complex(*rng.standard_normal(2)),
                           int(rng.integers(0, L)),
                           float(rng.uniform(-4, 4))) for _ in range(n_paths))
        ps = PathSet(paths, L)
        H = dense_channel(L, _as_tuples(ps))
        x = random_complex(rng, L)
        got = apply_dd_channel_samples(x, ps)
        assert np.max(np.abs(got - H @ x)) < 1e-12


def test_identity_path_is_identity():
    ps = PathSet((Path(1.0, 0, 0.0),), 16)
    x = random_complex(rng, 16)
    assert np.max(np.abs(apply_dd_channel_samples(x, ps) - x)) < 1e-14


def test_channel_is_linear():
    ps = PathSet((Path(0.5, 2, 1.0), Path(0.2j, 5, -2.0)), 32)
    x, y = random_complex(rng, 32), random_complex(rng, 32)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = apply_dd_channel_samples(a * x + b * y, ps)
    rhs = a * apply_dd_channel_samples(x, ps) + b * apply_dd_channel_samples(y, ps)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pure_delay_is_circular_shift():
    ps = PathSet((Path(1.0, 5, 0.0),), 16)
    x = random_complex(rng, 16)
    got = apply_dd_channel_samples(x, ps)
    assert np.max(np.abs(got - np.roll(x, 5))) < 1e-14


def test_doppler_bin_convention():
    # kappa cycles across the N core samples -> kappa * L / N per frame
    assert doppler_bin_to_norm(2, 256, 272) == 2 * 272 / 256
    p = path_from_bin(1.0, 0, 1, 8, 10)
    x = np.ones(10, dtype=np.complex128)
    got = apply_dd_channel_samples(x, PathSet((p,), 10))
    n = np.arange(10)
    assert np.max(np.abs(got - np.exp(-2j * np.pi * n / 8))) < 1e-12


def test_path_validation():
    with pytest.raises(ValueError):
        Path(1.0, -1, 0.0)
    with pytest.raises(ValueError):
        PathSet((), 16)
    with pytest.raises(ValueError):
        PathSet((Path(1.0, 16, 0.0),), 16)
    with pytest.raises(ValueError):
        apply_dd_channel_samples(np.zeros(8), PathSet((Path(1.0, 0, 0.0),), 16))


def test_build_uplink_channel_unit_power():
    # statistical: total tap power averages to 1
    draws = 10_000
    g = np.random.default_rng(5)
    total = 0.0
    for _ in range(draws):
        ps = build_uplink_channel(3, [-1, 0, 1], g, 64, 72)
        total += sum(abs(p.gain) ** 2 for p in ps.paths)
    assert abs(total / draws - 1.0) < 0.02


def test_build_uplink_channel_structure():
    ps = build_uplink_channel(3, [0], np.random.default_rng(1), 64, 72)
    assert [p.delay_samples for p in ps.paths] == [0, 1, 2]
    assert ps.max_delay == 2
    with pytest.raises(ValueError):
        build_uplink_channel(10, [0], np.random.default_rng(1), 64, 72)
    with pytest.raises(ValueError):
        build_uplink_channel(2, [], np.random.default_rng(1), 64, 72)


def _desk_context(trial=0, **system):
    raw = json.loads((FsPath(__file__).parent.parent / "configs" / "desk.json").read_text())
    cfg = config_from_dict(raw)
    if system:
        cfg = replace(cfg, system=replace(cfg.system, **system))
    ctx = _TrialContext(cfg, trial)
    return ctx, ctx.uplink("afdm", afdm_layout(cfg))


def test_awgn_variance_and_zero_case():
    # the sweep's noise w = r - r_ul - g * r_dl, at the SNR that makes sigma2 = 0.25
    w = []
    for trial in range(200):
        ctx, up = _desk_context(trial)
        r, sigma2, g = ctx.compose(up, 10 * np.log10(up["p_ul"] / 0.25))
        w.append(r - up["r_ul"] - g * ctx.r_dl)
    assert sigma2 == pytest.approx(0.25)
    assert abs(np.mean(np.abs(np.concatenate(w)) ** 2) - 0.25) < 0.01
    clean, sigma2, g = ctx.compose(up, np.inf)
    assert sigma2 == 0.0
    assert np.array_equal(clean, up["r_ul"] + g * ctx.r_dl)


def test_compose_received_amplitude_scaling():
    # r = r_ul + g * r_dl + w with amplitude g = 10^(offset_db / 20) * sqrt(p_ul / targets)
    ctx, up = _desk_context()
    r, _, g = ctx.compose(up, np.inf)
    assert g == pytest.approx(0.1 * np.sqrt(up["p_ul"] / len(ctx.targets)))
    assert np.allclose(r, up["r_ul"] + g * ctx.r_dl)
    ctx, up = _desk_context(echo_power_offset_db=-np.inf)
    silent, _, g = ctx.compose(up, np.inf)
    assert g == 0.0
    assert np.allclose(silent, up["r_ul"])


def test_target_quantization():
    cfg = SystemConfig(N=1024, M=4, f_c=28e9, delta_f=30e3, L_cp=16, L_cpp=16,
                       chirp=ChirpParams.for_max_doppler(2, 1024), N1=32, N2=32)
    # 50 m at 30.72 MHz sampling -> round(2*50/c * 1024*30e3) = 10 samples
    t = PhysicalTarget(range_m=50.0, velocity_mps=0.0, rcs_gain=1.0)
    assert target_to_path(t, cfg).delay_samples == 10
    # 500 km/h at 28 GHz -> 2 f_c v / c = 25.9 kHz -> bin 1
    t2 = PhysicalTarget(range_m=0.0, velocity_mps=500 / 3.6, rcs_gain=1.0)
    p2 = target_to_path(t2, cfg)
    assert round(p2.doppler_norm * 1024 / cfg.frame_len_cp) == 1
    # out-of-prefix target rejected
    with pytest.raises(ValueError):
        target_to_path(PhysicalTarget(1e4, 0.0, 1.0), cfg)
