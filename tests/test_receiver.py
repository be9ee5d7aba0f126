"""Receiver tests: equivalent channel vs dense oracle, NPE, MMSE, cancellation."""

from pathlib import Path

import numpy as np
import pytest

from oracles import dense_equivalent_channel, dense_mmse, embed, random_complex
from wdnoma import harness
from wdnoma.channel import PathSet, apply_dd_channel_samples, path_from_bin
from wdnoma.frame import allocate_frame, full_grid_layout
from wdnoma.receiver import (
    build_equivalent_channel,
    estimate_noise_power,
    mmse_detect,
    reconstruct_and_cancel,
)
from wdnoma.transforms import ChirpParams
from wdnoma.waveforms import SystemConfig, afdm_demod_samples, afdm_mod_samples

rng = np.random.default_rng(41)


def make_cfg(N=16, L=4, kappa_max=1, N1=4, N2=4):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                        chirp=ChirpParams.for_max_doppler(kappa_max, N), N1=N1, N2=N2)


def _paths_as_tuples(ps):
    return [(p.gain, p.delay_samples, p.doppler_norm) for p in ps.paths]


def test_equivalent_channel_identity():
    cfg = make_cfg()
    ps = PathSet((path_from_bin(1.0, 0, 0, cfg.N, cfg.frame_len_cpp),), cfg.frame_len_cpp)
    H = build_equivalent_channel(ps, cfg).matrix
    assert np.max(np.abs(H - np.eye(cfg.N))) < 1e-10


def test_equivalent_channel_single_path_dense_oracle():
    cfg = make_cfg(N=16, L=4)
    ps = PathSet((path_from_bin(1.0, 2, 1, 16, 20),), 20)
    H = build_equivalent_channel(ps, cfg).matrix
    Href = dense_equivalent_channel(16, 4, cfg.chirp.c1, cfg.chirp.c2, _paths_as_tuples(ps))
    assert np.max(np.abs(H - Href)) < 1e-11


def test_equivalent_channel_random_dense_oracle():
    cfg = make_cfg(N=16, L=4, kappa_max=2)
    for _ in range(30):
        g = np.random.default_rng(int(rng.integers(1 << 30)))
        paths = tuple(path_from_bin(complex(*g.standard_normal(2)),
                                    int(g.integers(0, 5)),
                                    int(g.integers(-2, 3)), 16, 20)
                      for _ in range(int(g.integers(1, 4))))
        ps = PathSet(paths, 20)
        H = build_equivalent_channel(ps, cfg).matrix
        Href = dense_equivalent_channel(16, 4, cfg.chirp.c1, cfg.chirp.c2,
                                        _paths_as_tuples(ps))
        assert np.max(np.abs(H - Href)) < 1e-11


def test_equivalent_channel_single_path_sparsity():
    # a (tau, kappa) path occupies one circulant off-diagonal at
    # shift (2 N c1 tau + kappa) mod N
    cfg = make_cfg(N=32, L=8, kappa_max=2, N1=8, N2=4)
    tau, kappa = 3, -1
    ps = PathSet((path_from_bin(1.0, tau, kappa, 32, 40),), 40)
    H = build_equivalent_channel(ps, cfg).matrix
    shift = (cfg.chirp.shift_factor(32) * tau + kappa) % 32
    mask = np.zeros((32, 32), dtype=bool)
    k = np.arange(32)
    mask[k, (k + shift) % 32] = True
    assert np.min(np.abs(H[mask])) > 0.99
    assert np.max(np.abs(H[~mask])) < 1e-12


def test_equivalent_channel_rejects_long_delay():
    cfg = make_cfg(N=16, L=2)
    ps = PathSet((path_from_bin(1.0, 3, 0, 16, 18),), 18)
    with pytest.raises(ValueError):
        build_equivalent_channel(ps, cfg)


def test_mmse_matches_dense_normal_equation_oracle():
    N = 16
    cfg = make_cfg(N=N)
    for _ in range(20):
        H = random_complex(rng, N * N).reshape(N, N) / np.sqrt(N)
        d = random_complex(rng, N)
        (got,) = mmse_detect(H, d, [0.1])
        ref = dense_mmse(H, d, 0.1)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_mmse_zero_noise_is_zero_forcing():
    N = 16
    H = random_complex(rng, N * N).reshape(N, N)
    d = random_complex(rng, N)
    (x,) = mmse_detect(H, d, [0.0])
    assert np.max(np.abs(x - np.linalg.solve(H, d))) < 1e-8


def test_mmse_singular_zero_noise_fails():
    N = 8
    H = np.zeros((N, N), dtype=np.complex128)
    d = random_complex(rng, N)
    with pytest.raises(np.linalg.LinAlgError):
        mmse_detect(H, d, [0.0])
    with pytest.raises(ValueError):
        mmse_detect(H, d, [-1.0])


def test_mmse_scalar_shrinkage():
    # H = I, sigma2 = 1 -> x = d / 2
    N = 8
    d = random_complex(rng, N)
    (x,) = mmse_detect(np.eye(N, dtype=np.complex128), d, [1.0])
    assert np.max(np.abs(x - d / 2)) < 1e-12


def test_harness_mmse_matches_dense_oracle_on_desk_trial(monkeypatch):
    # the sweep's own per-mode MMSE outputs, captured on one desk trial
    cfg = harness.load_config(Path(__file__).parent.parent / "configs" / "desk.json")
    calls = []

    def recording_mmse(H, d, sigma2s):
        out = mmse_detect(H, d, sigma2s)
        calls.append((H, d, list(sigma2s), out))
        return out

    monkeypatch.setattr(harness, "mmse_detect", recording_mmse)
    modes = harness.MODES[:3]
    assert all(harness._WAVEFORM_OF_MODE[m] == "afdm" for m in modes)
    ctx = harness._TrialContext(cfg, 0)
    for snr_db in (0.0, 35.0):
        harness._detect_group(cfg, ctx, snr_db, "afdm", modes, harness.afdm_layout(cfg))
    assert len(calls) == 2
    for H, d, sigma2s, out in calls:
        assert len(out) == len(modes)
        for s2, x in zip(sigma2s, out):
            assert np.max(np.abs(x - dense_mmse(H, d, s2))) < 1e-9


def _layout_and_cfg():
    cfg = make_cfg(N=64, L=8, kappa_max=1, N1=8, N2=8)
    layout = allocate_frame(64, 0, 8, 8, 12, 1, cfg.chirp.c1, 2)
    return cfg, layout


def test_estimate_noise_power_pure_noise():
    cfg, _ = _layout_and_cfg()
    # static-channel layout: 8-bin window for a tighter Monte Carlo estimate
    layout = allocate_frame(64, 0, 8, 8, 12, 1, cfg.chirp.c1, 0)
    g = np.random.default_rng(9)
    acc = 0.0
    trials = 400
    for _ in range(trials):
        w = (g.standard_normal(64) + 1j * g.standard_normal(64)) * np.sqrt(0.3 / 2)
        acc += estimate_noise_power(w, layout)
    assert abs(acc / trials - 0.3) < 0.02
    # the full OFDM grid has no guard to sample
    with pytest.raises(ValueError):
        estimate_noise_power(w, full_grid_layout(64, 1))


def test_perfect_cancellation_no_noise():
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(17)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout)
    ps = PathSet((path_from_bin(0.7 - 0.1j, 1, 1, 64, 72),
                  path_from_bin(0.2j, 2, -1, 64, 72)), 72)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.chirp, cfg.L_cpp), ps)
    res = reconstruct_and_cancel(r, ps, syms, layout, cfg)
    assert np.max(np.abs(res)) < 1e-10


def test_cancellation_residual_is_echo_plus_noise():
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(18)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout)
    ps = PathSet((path_from_bin(0.7, 1, 1, 64, 72),), 72)
    r_ul = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.chirp, cfg.L_cpp), ps)
    echo = random_complex(g, 72)
    w = random_complex(g, 72) * 0.1
    r = r_ul + 0.1 * echo + w
    res = reconstruct_and_cancel(r, ps, syms, layout, cfg)
    assert np.max(np.abs(res - (0.1 * echo + w))) < 1e-10


def test_cancellation_error_energy_via_linearity():
    # one wrong symbol adds exactly the channel-filtered energy of the error
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(19)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout)
    ps = PathSet((path_from_bin(0.7, 1, 1, 64, 72),), 72)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.chirp, cfg.L_cpp), ps)
    bad = syms.copy()
    bad[5] += 2.0
    res = reconstruct_and_cancel(r, ps, bad, layout, cfg)
    err_frame = embed(bad - syms, layout)
    expected = apply_dd_channel_samples(afdm_mod_samples(err_frame, cfg.chirp, cfg.L_cpp), ps)
    assert abs(np.sum(np.abs(res) ** 2) - np.sum(np.abs(expected) ** 2)) < 1e-10


def test_demodulate_frame_roundtrip():
    cfg, layout = _layout_and_cfg()
    syms = random_complex(rng, layout.n_data)
    frame = embed(syms, layout)
    d = afdm_demod_samples(afdm_mod_samples(frame, cfg.chirp, cfg.L_cpp), cfg.chirp, cfg.L_cpp)
    assert np.max(np.abs(d - frame)) < 1e-12
