"""Delay-Doppler channel tests: dense oracle, linearity, statistics, and
the composition of the received frame."""

import json
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bin_channel,
    channel_of,
    dense_channel,
    path_tuples,
    random_complex,
    stack_channels,
)
from wdnoma.channel import (
    apply_dd_channel_samples,
    build_uplink_channel,
    doppler_bin_to_norm,
    doppler_ramp,
    path_from_bin,
    target_to_path,
)
from wdnoma.harness import _Chunk, config_from_dict
from wdnoma.transforms import default_c1
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(23)


def test_two_path_dense_oracle():
    L = 20
    paths = ((0.8 - 0.3j, 3, 2.5), (-0.1 + 0.9j, 7, -1.0))
    ps = channel_of(paths, L)
    H = dense_channel(L, path_tuples(ps))
    x = random_complex(rng, L)
    got = apply_dd_channel_samples(x, ps)
    assert np.max(np.abs(got - H @ x)) < 1e-12


def test_dense_oracle_many_random_cases():
    for _ in range(60):
        L = int(rng.integers(8, 65))
        n_paths = int(rng.integers(1, 5))
        paths = tuple((complex(*rng.standard_normal(2)),
                        int(rng.integers(0, L)),
                        float(rng.uniform(-4, 4))) for _ in range(n_paths))
        ps = channel_of(paths, L)
        H = dense_channel(L, path_tuples(ps))
        x = random_complex(rng, L)
        got = apply_dd_channel_samples(x, ps)
        assert np.max(np.abs(got - H @ x)) < 1e-12


def test_identity_path_is_identity():
    ps = channel_of([(1.0, 0, 0.0)], 16)
    x = random_complex(rng, 16)
    assert np.max(np.abs(apply_dd_channel_samples(x, ps) - x)) < 1e-14


def test_channel_is_linear():
    ps = channel_of([(0.5, 2, 1.0), (0.2j, 5, -2.0)], 32)
    x, y = random_complex(rng, 32), random_complex(rng, 32)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = apply_dd_channel_samples(a * x + b * y, ps)
    rhs = a * apply_dd_channel_samples(x, ps) + b * apply_dd_channel_samples(y, ps)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pure_delay_is_circular_shift():
    ps = channel_of([(1.0, 5, 0.0)], 16)
    x = random_complex(rng, 16)
    got = apply_dd_channel_samples(x, ps)
    assert np.max(np.abs(got - np.roll(x, 5))) < 1e-14


def test_doppler_bin_convention():
    # kappa cycles across the N core samples -> kappa * L / N per frame
    assert doppler_bin_to_norm(2, 256, 272) == 2 * 272 / 256
    p = path_from_bin(1.0, 0, 1, 8, 10)
    x = np.ones(10, dtype=np.complex128)
    got = apply_dd_channel_samples(x, p)
    n = np.arange(10)
    assert np.max(np.abs(got - np.exp(-2j * np.pi * n / 8))) < 1e-12


def test_path_validation():
    with pytest.raises(ValueError):
        channel_of([(1.0, -1, 0.0)], 16)
    with pytest.raises(ValueError):
        channel_of([], 16)
    with pytest.raises(ValueError):
        channel_of([(1.0, 16, 0.0)], 16)
    with pytest.raises(ValueError):
        apply_dd_channel_samples(np.zeros(8), channel_of([(1.0, 0, 0.0)], 16))


@st.composite
def _stacked_channels(draw):
    """1-5 frames, each with its own channel of one shared path count:
    delays anywhere in 0..L-1 (both ends drawn often), zero gains and every
    Doppler bin of the N-sample core."""
    N = draw(st.integers(2, 24))
    L = N + draw(st.integers(0, N - 1))
    rows, n_paths = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gain = st.one_of(st.just(0j), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    delay = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    path = st.tuples(gain, delay, st.integers(-N, N))
    chs = [bin_channel(draw(st.lists(path, min_size=n_paths, max_size=n_paths)), N, L)
           for _ in range(rows)]
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_complex(g, rows * L).reshape(rows, L), chs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_stacked_channels())
def test_stacked_channel_pass_equals_per_row_calls(case):
    # bit for bit: the sweeps' curves must not depend on how trials are stacked
    s, chs = case
    rows = [apply_dd_channel_samples(x, ch) for x, ch in zip(s, chs)]
    assert np.array_equal(apply_dd_channel_samples(s, stack_channels(chs)), np.stack(rows))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=_stacked_channels())
def test_row_cuts_one_channel_out_of_a_stack(case):
    # an equivalent-channel build reads one trial's row of the chunk's channels
    _, chs = case
    stacked = stack_channels(chs)
    for i, ch in enumerate(chs):
        row = stacked.row(i)
        assert row.frame_len == ch.frame_len
        for name in ("gains", "delays", "doppler"):
            assert np.array_equal(getattr(row, name), getattr(ch, name))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_stacked_channels())
def test_prepared_channel_pass_equals_one_path_set_per_row(case):
    # the sweeps stack a chunk's channels once and apply them to several
    # signals; the first pass builds the stack's gather tables, later ones reuse them
    s, chs = case
    prepared = stack_channels(chs)
    for x in (s, s[::-1] * 0.5j):
        rows = [apply_dd_channel_samples(row, ch) for row, ch in zip(x, chs)]
        assert np.array_equal(apply_dd_channel_samples(x, prepared), np.stack(rows))
    # one channel serves every row
    one = chs[0]
    rows = [apply_dd_channel_samples(row, chs[0]) for row in s]
    assert np.array_equal(apply_dd_channel_samples(s, one), np.stack(rows))


@pytest.mark.parametrize("G", [1, 3])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=_stacked_channels())
def test_prepared_channel_pass_over_leading_axes(G, case):
    # the sense sweep rebuilds a waveform group's G decision stacks in one pass
    s, chs = case
    prepared = stack_channels(chs)
    stack = np.stack([s * (0.5 + 1j) ** g for g in range(G)])
    passes = [apply_dd_channel_samples(x, prepared) for x in stack]
    assert np.array_equal(apply_dd_channel_samples(stack, prepared), np.stack(passes))


def test_stacked_channel_pass_validation():
    one = channel_of([(1.0, 0, 0.0)], 16)
    two = channel_of([(1.0, 0, 0.0), (0.5, 3, 1.0)], 16)
    s = random_complex(rng, 32).reshape(2, 16)
    with pytest.raises(ValueError, match="path count"):
        apply_dd_channel_samples(s, stack_channels([one, two]))
    with pytest.raises(ValueError, match="frame length"):
        apply_dd_channel_samples(random_complex(rng, 30).reshape(2, 15), stack_channels([one, one]))
    with pytest.raises(ValueError):     # two frames, three channels
        apply_dd_channel_samples(s, stack_channels([one, one, one]))
    with pytest.raises(ValueError, match="do not fit 2 channels"):     # four frames, two channels
        apply_dd_channel_samples(np.concatenate([s, s]), stack_channels([one, one]))


def test_doppler_ramp_cache_is_read_only_and_exact():
    L = 272
    nu = doppler_bin_to_norm(-1, 256, L)
    ramp = doppler_ramp(nu, L)
    assert doppler_ramp(nu, L) is ramp
    with pytest.raises(ValueError):
        ramp[0] = 0.0
    assert np.array_equal(ramp, np.exp(-2j * np.pi * nu * np.arange(L) / L))


def test_build_uplink_channel_unit_power():
    # statistical: total tap power averages to 1
    draws = 10_000
    g = np.random.default_rng(5)
    total = 0.0
    for _ in range(draws):
        ps = build_uplink_channel(3, [-1, 0, 1], [g], 64, 72)
        total += sum(abs(gain) ** 2 for gain, _, _ in path_tuples(ps))
    assert abs(total / draws - 1.0) < 0.02


def test_build_uplink_channel_structure():
    ps = build_uplink_channel(3, [0], [np.random.default_rng(1)], 64, 72)
    assert [l for _, l, _ in path_tuples(ps)] == [0, 1, 2]
    assert ps.delays.max() == 2
    with pytest.raises(ValueError):
        build_uplink_channel(10, [0], [np.random.default_rng(1)], 64, 72)
    with pytest.raises(ValueError, match="at least one path"):
        build_uplink_channel(0, [0], [np.random.default_rng(1)], 64, 72)
    with pytest.raises(ValueError):
        build_uplink_channel(2, [], [np.random.default_rng(1)], 64, 72)


def _desk_chunk(trial=0, **system):
    """A chunk of one desk trial and its AFDM uplink."""
    raw = json.loads((FsPath(__file__).parent.parent / "configs" / "desk.json").read_text())
    cfg = config_from_dict(raw)
    if system:
        cfg = replace(cfg, system=replace(cfg.system, **system))
    chunk = _Chunk(cfg, [trial])
    return chunk, chunk.uplink("afdm")


def test_awgn_variance_and_zero_case():
    # the sweep's noise w = r - r_ul - g * r_dl, at the SNR that makes sigma2 = 0.25
    w = []
    for trial in range(200):
        chunk, up = _desk_chunk(trial)
        (r,), (sigma2,) = chunk.compose(up, (10 * np.log10(up["p_ul"] / 0.25),))
        w.append(r - up["r_ul"] - up["g"] * chunk.r_dl)
    assert sigma2 == pytest.approx(0.25)
    assert abs(np.mean(np.abs(np.concatenate(w)) ** 2) - 0.25) < 0.01
    (clean,), (sigma2,) = chunk.compose(up, (np.inf,))
    assert sigma2 == 0.0
    assert np.array_equal(clean, up["r_ul"] + up["g"] * chunk.r_dl)


def test_compose_received_amplitude_scaling():
    # r = r_ul + g * r_dl + w with amplitude g = 10^(offset_db / 20) * sqrt(p_ul / targets)
    chunk, up = _desk_chunk()
    (r,), _ = chunk.compose(up, (np.inf,))
    g = up["g"]
    assert g == pytest.approx(0.1 * np.sqrt(up["p_ul"] / chunk.ctx.range_m.shape[1]))
    assert np.allclose(r, up["r_ul"] + g * chunk.r_dl)
    chunk, up = _desk_chunk(echo_power_offset_db=-np.inf)
    (silent,), _ = chunk.compose(up, (np.inf,))
    assert up["g"] == 0.0
    assert np.allclose(silent, up["r_ul"])


def test_target_quantization():
    cfg = SystemConfig(N=1024, M=4, f_c=28e9, delta_f=30e3, L_cp=16, L_cpp=16,
                       c1=default_c1(2, 1024), N1=32, N2=32)
    # 50 m at 30.72 MHz sampling -> round(2*50/c * 1024*30e3) = 10 samples
    t = target_to_path([50.0], [0.0], [1.0], cfg)
    assert path_tuples(t)[0][1] == 10
    # 500 km/h at 28 GHz -> 2 f_c v / c = 25.9 kHz -> bin 1
    p2 = target_to_path([0.0], [500 / 3.6], [1.0], cfg)
    assert round(path_tuples(p2)[0][2] * 1024 / cfg.frame_len_cp) == 1
    # out-of-prefix target rejected
    with pytest.raises(ValueError):
        target_to_path([1e4], [0.0], [1.0], cfg)
