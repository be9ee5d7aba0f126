"""Receiver tests: equivalent channel vs dense oracle, NPE, MMSE, and
cancellation by the sweep's uplink transmitter."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bin_channel,
    channel_of,
    dense_equivalent_channel,
    dense_mmse,
    embed,
    equivalent_channel_taps_loop,
    path_tuples,
    random_complex,
)
from wdnoma import harness, receiver
from wdnoma.channel import apply_dd_channel_samples, doppler_ramp, path_from_bin
from wdnoma.frame import allocate_frame, full_grid_layout
from wdnoma.receiver import (
    build_equivalent_channel,
    estimate_noise_power,
    mmse_detect,
)
from wdnoma.transforms import cpp_prefix_phases, default_c1, shift_factor
from wdnoma.waveforms import TRANSFORMS, SystemConfig, afdm_demod_samples, afdm_mod_samples

rng = np.random.default_rng(41)


def make_cfg(N=16, L=4, kappa_max=1, N1=4, N2=4):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                        c1=default_c1(kappa_max, N), N1=N1, N2=N2)


def _core(channels, ds):
    """The received core samples y = T^H d that mmse_detect takes, one row
    per channel, for the demodulated frames ``ds``."""
    return np.array([TRANSFORMS[H.waveform].to_time(d, H.cfg) for H, d in zip(channels, ds)])


def test_equivalent_channel_identity():
    cfg = make_cfg()
    ps = path_from_bin(1.0, 0, 0, cfg.N, cfg.frame_len_cp)
    H = build_equivalent_channel(ps, cfg, "afdm").matrix
    assert np.max(np.abs(H - np.eye(cfg.N))) < 1e-10


def test_equivalent_channel_single_path_dense_oracle():
    cfg = make_cfg(N=16, L=4)
    ps = path_from_bin(1.0, 2, 1, 16, 20)
    H = build_equivalent_channel(ps, cfg, "afdm").matrix
    Href = dense_equivalent_channel(16, 4, cfg.c1, cfg.c2, path_tuples(ps))
    assert np.max(np.abs(H - Href)) < 1e-11


def test_equivalent_channel_random_dense_oracle():
    cfg = make_cfg(N=16, L=4, kappa_max=2)
    for _ in range(30):
        g = np.random.default_rng(int(rng.integers(1 << 30)))
        paths = tuple((complex(*g.standard_normal(2)),
                       int(g.integers(0, 5)),
                       int(g.integers(-2, 3)))
                      for _ in range(int(g.integers(1, 4))))
        ps = bin_channel(paths, 16, 20)
        H = build_equivalent_channel(ps, cfg, "afdm").matrix
        Href = dense_equivalent_channel(16, 4, cfg.c1, cfg.c2,
                                        path_tuples(ps))
        assert np.max(np.abs(H - Href)) < 1e-11


def _doppler(N, frame_len, kappa_max, fractional):
    """Strategy for a path's doppler_norm: an integer bin in +-kappa_max, or
    with ``fractional`` any value up to one bin past it, fractional bins
    included."""
    if not fractional:
        return st.integers(-kappa_max, kappa_max).map(lambda k: k * frame_len / N)
    return st.floats(-kappa_max - 1, kappa_max + 1).map(lambda b: b * frame_len / N)


@st.composite
def _chains(draw, fractional=False):
    """A small system and 1-4 paths with delays up to the prefix, including
    delays past the OTFS delay axis (l >= N1), and integer Doppler bins
    (fractional ones with ``fractional``). An odd N makes the AFDM
    chirp-periodic prefix phases differ from 1.

    A nonzero c2 is drawn below 1/(2N), the AFDM design range. With c2 near
    1 the c2 n^2 chirp phases reach thousands of radians, and float64
    roundoff alone, in the oracle and the build alike, moves entries by
    more than 1e-11 (1.3e-11 seen at N = 64).
    """
    N1 = draw(st.sampled_from([2, 3, 4, 8]))
    N2 = draw(st.sampled_from([2, 3, 4, 8]))
    N = N1 * N2
    L = draw(st.integers(0, N - 1))
    kappa_max = draw(st.integers(0, 3))
    c2 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 / (2 * N))))
    cfg = SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                       c1=default_c1(kappa_max, N), c2=c2,
                       N1=N1, N2=N2)
    path = st.builds(lambda re, im, l, nu: (complex(re, im), l, nu),
                     st.floats(-2, 2), st.floats(-2, 2), st.integers(0, L),
                     _doppler(N, N + L, kappa_max, fractional))
    return cfg, channel_of(draw(st.lists(path, min_size=1, max_size=4)), N + L)


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain=_chains())
def test_analytic_equivalent_channel_matches_dense_oracle(waveform, chain):
    # H built from the time-domain taps against the five-matrix product
    cfg, ps = chain
    H = build_equivalent_channel(ps, cfg, waveform).matrix
    Href = dense_equivalent_channel(cfg.N, cfg.L_cp, cfg.c1, cfg.c2,
                                    path_tuples(ps), waveform, cfg.N1)
    assert np.max(np.abs(H - Href)) < 1e-11


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain=_chains())
def test_time_domain_factor_matches_equivalent_channel(waveform, chain):
    # the dense H_t laid out from the taps gives H = T H_t T^H, and MMSE
    # through H_t solves the normal equations of H
    cfg, ps = chain
    eq = build_equivalent_channel(ps, cfg, waveform)
    N = cfg.N
    H_t = np.zeros((N, N), dtype=complex)
    i = np.arange(N)
    for l, t in zip(eq.delays, eq.taps):
        H_t[i, (i - l) % N] += t
    to_time, from_time, _ = TRANSFORMS[waveform]
    H = eq.matrix
    rotated = from_time((H_t @ to_time(np.eye(N), cfg).T).T, cfg).T
    assert np.max(np.abs(rotated - H)) < 1e-11
    d = random_complex(np.random.default_rng(N + len(path_tuples(ps))), N)
    for s2, x in zip((0.05, 1.0), mmse_detect([eq], _core([eq], [d]), [(0.05, 1.0)])):
        assert np.max(np.abs(x - dense_mmse(H, d, s2))) < 1e-9


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
def test_time_domain_gram_pattern_ignores_doppler(waveform):
    # the Gram matrix of H_t = T^H H T is a cyclic band of half-width
    # l_max - l_min for every Doppler draw, the band the MMSE solve assumes
    cfg = make_cfg(N=16, L=4, kappa_max=1)
    T_H = TRANSFORMS[waveform].to_time(np.eye(16), cfg).T
    offset = np.subtract.outer(np.arange(16), np.arange(16)) % 16
    inside = np.minimum(offset, 16 - offset) <= 2
    for kappas in ((0, 0, 0), (-1, 0, 1), (1, 1, -1)):
        ps = bin_channel([(0.6 + 0.3j * l, l, kappa) for l, kappa in enumerate(kappas)], 16, 20)
        H = build_equivalent_channel(ps, cfg, waveform).matrix
        H_t = T_H @ H @ T_H.conj().T
        gram = np.abs(H_t.conj().T @ H_t)
        assert np.max(gram[~inside]) < 1e-12
        assert np.min(gram[inside]) > 1e-12


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain=_chains(fractional=True))
def test_fractional_doppler_channel_matches_dense_oracle(waveform, chain):
    # the taps are the channel's own per-sample Doppler factors, so H is
    # exact off the integer bins too; MMSE through H_t solves its normal equations
    cfg, ps = chain
    eq = build_equivalent_channel(ps, cfg, waveform)
    H = eq.matrix
    Href = dense_equivalent_channel(cfg.N, cfg.L_cp, cfg.c1, cfg.c2,
                                    path_tuples(ps), waveform, cfg.N1)
    assert np.max(np.abs(H - Href)) < 1e-12
    d = random_complex(np.random.default_rng(cfg.N + len(path_tuples(ps))), cfg.N)
    for s2, x in zip((0.05, 1.0), mmse_detect([eq], _core([eq], [d]), [(0.05, 1.0)])):
        assert np.max(np.abs(x - dense_mmse(Href, d, s2))) < 1e-9


def test_equivalent_channel_single_path_sparsity():
    # a (tau, kappa) path occupies one circulant off-diagonal at
    # shift (2 N c1 tau + kappa) mod N
    cfg = make_cfg(N=32, L=8, kappa_max=2, N1=8, N2=4)
    tau, kappa = 3, -1
    ps = path_from_bin(1.0, tau, kappa, 32, 40)
    H = build_equivalent_channel(ps, cfg, "afdm").matrix
    shift = (shift_factor(32, cfg.c1) * tau + kappa) % 32
    mask = np.zeros((32, 32), dtype=bool)
    k = np.arange(32)
    mask[k, (k + shift) % 32] = True
    assert np.min(np.abs(H[mask])) > 0.99
    assert np.max(np.abs(H[~mask])) < 1e-12


def test_equivalent_channel_rejects_long_delay():
    # and the two other inputs it cannot build a channel for
    cfg = make_cfg(N=16, L=2)
    ps = path_from_bin(1.0, 3, 0, 16, 18)
    with pytest.raises(ValueError, match="path delay 3 exceeds the prefix length 2"):
        build_equivalent_channel(ps, cfg, "afdm")
    ps = path_from_bin(1.0, 1, 0, 16, 18)
    with pytest.raises(ValueError, match="unknown waveform 'fbmc'"):
        build_equivalent_channel(ps, cfg, "fbmc")
    ps = path_from_bin(1.0, 1, 0, 16, 20)
    with pytest.raises(ValueError, match="channel frame length 20 != N \\+ prefix = 18"):
        build_equivalent_channel(ps, cfg, "afdm")


@st.composite
def _build_draws(draw, distinct_delays=False):
    """A small system and 1-5 paths in any order, with integer or fractional
    Doppler and delays up to the prefix that often repeat (never, with
    ``distinct_delays``), and an odd or even N."""
    N = draw(st.integers(2, 40))
    L = draw(st.integers(0, min(N - 1, 8)))
    kappa_max = draw(st.integers(0, 3))
    cfg = SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                       c1=default_c1(kappa_max, N), N1=1, N2=N)
    gain = st.one_of(st.just(1.0), st.floats(-2, 2),
                     st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    path = st.tuples(gain, st.integers(0, L),
                     _doppler(N, N + L, kappa_max, draw(st.booleans())))
    paths = st.lists(path, min_size=1, max_size=5,
                     unique_by=(lambda p: p[1]) if distinct_delays else None)
    return cfg, channel_of(draw(paths), N + L)


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(draws=_build_draws(distinct_delays=True))
def test_taps_are_the_channels_own_doppler_ramps(waveform, draws):
    # bit for bit: a path's tap is its gain times the window of the cached
    # ramp the channel applies, and for AFDM times the prefix phases where i < l
    cfg, ps = draws
    N, prefix = cfg.N, cfg.L_cp
    H = build_equivalent_channel(ps, cfg, waveform)
    for gain, l, doppler_norm in path_tuples(ps):
        tap = gain * doppler_ramp(doppler_norm, ps.frame_len)[prefix - l:prefix - l + N]
        if waveform == "afdm":
            tap[:l] = tap[:l] * cpp_prefix_phases(N, prefix, cfg.c1)[prefix - l:]
        assert np.array_equal(H.taps[H.delays.index(l)], tap)


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(draws=_build_draws())
def test_build_equals_the_per_path_loop(waveform, draws):
    # the one-pass build against the path-by-path loop, bit for bit
    cfg, ps = draws
    H = build_equivalent_channel(ps, cfg, waveform)
    delays, taps = equivalent_channel_taps_loop(ps, cfg, waveform)
    assert H.delays == delays
    assert np.array_equal(H.taps, taps)


def _channel(cfg, paths, waveform="afdm"):
    """EquivalentChannel of (gain, delay, kappa) paths on ``cfg``."""
    frame_len = cfg.N + cfg.L_cp
    ps = bin_channel(paths, cfg.N, frame_len)
    return build_equivalent_channel(ps, cfg, waveform)


def _dominant_path(g, cfg, n_small):
    """A unit path at delay 0 plus ``n_small`` paths of gain below 0.1 at
    random delays: cond(H) <= (1 + 0.1 n) / (1 - 0.1 n) by construction."""
    small = [(0.1 * complex(*g.uniform(-0.7, 0.7, 2)), int(g.integers(0, cfg.L_cp + 1)),
              int(g.integers(-1, 2))) for _ in range(n_small)]
    return [(1.0, 0, int(g.integers(-1, 2)))] + small


def test_mmse_matches_dense_normal_equation_oracle():
    N = 16
    cfg = make_cfg(N=N)
    g = np.random.default_rng(101)
    for trial in range(20):
        paths = [(complex(*g.standard_normal(2)), int(g.integers(0, 5)), int(g.integers(-1, 2)))
                 for _ in range(int(g.integers(1, 4)))]
        H = _channel(cfg, paths, ("afdm", "otfs", "ofdm")[trial % 3])
        d = random_complex(g, N)
        (got,) = mmse_detect([H], _core([H], [d]), [[0.1]])
        ref = dense_mmse(H.matrix, d, 0.1)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_mmse_zero_noise_is_zero_forcing():
    N = 16
    cfg = make_cfg(N=N)
    g = np.random.default_rng(102)
    for waveform in ("afdm", "otfs", "ofdm"):
        H = _channel(cfg, _dominant_path(g, cfg, 3), waveform)
        d = random_complex(g, N)
        (x,) = mmse_detect([H], _core([H], [d]), [[0.0]])
        assert np.max(np.abs(x - np.linalg.solve(H.matrix, d))) < 1e-8


def test_mmse_singular_zero_noise_fails():
    N = 8
    cfg = make_cfg(N=N, N1=4, N2=2)
    H = _channel(cfg, [(0.0, 0, 0), (0.0, 2, 1)])
    d = random_complex(np.random.default_rng(103), N)
    with pytest.raises(np.linalg.LinAlgError):
        mmse_detect([H], [d], [[0.0]])
    with pytest.raises(ValueError):
        mmse_detect([H], [d], [[-1.0]])


def test_mmse_scalar_shrinkage():
    # one unit path at delay 0 gives H = I; sigma2 = 1 -> x = d / 2
    N = 8
    H = _channel(make_cfg(N=N, N1=4, N2=2), [(1.0, 0, 0)])
    d = random_complex(np.random.default_rng(104), N)
    (x,) = mmse_detect([H], _core([H], [d]), [[1.0]])
    assert np.max(np.abs(x - d / 2)) < 1e-12


# (N1, N2, prefix, paths): b = largest - smallest distinct delay is the
# half-width of the cyclic Gram band, which the solve folds into a plain band
# of half-width min(2b, N - 1)
_BAND_EDGE_CASES = {
    "single_delay": (4, 4, 4, [(1.0, 2, 1)]),
    "wide_spread": (2, 3, 5, [(1.0, 0, 1), (0.15j, 2, -1), (-0.1, 3, 0)]),      # 2b = N
    "full_spread": (2, 2, 3, [(1.0, 0, 0), (0.2, 1, 1), (0.1j, 3, -1)]),  # b = N - 1; o = 1, -3 alias
    "shared_delay": (4, 4, 4, [(1.0, 1, -1), (0.3j, 1, 1), (0.1, 3, 0)]),
    # b = 11: a window of 8 or more band entries, which BLAS dot kernels split over SIMD lanes
    "long_spread": (4, 8, 12, [(1.0, 0, 1), (0.4j, 3, -1), (-0.3, 11, 0)]),
}


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
@pytest.mark.parametrize("case", sorted(_BAND_EDGE_CASES))
def test_mmse_band_solve_edge_cases(case, waveform):
    N1, N2, prefix, paths = _BAND_EDGE_CASES[case]
    cfg = make_cfg(N=N1 * N2, L=prefix, N1=N1, N2=N2)
    H = _channel(cfg, paths, waveform)
    assert H.delays == tuple(sorted({l for _, l, _ in paths}))
    d = random_complex(np.random.default_rng(105), cfg.N)
    sigma2s = (0.0, 0.01, 0.5, 2.0)
    xs = mmse_detect([H], _core([H], [d]), [sigma2s])
    assert len(xs) == len(sigma2s)
    # every case has one dominant path, so H is nonsingular and sigma2 = 0 is zero-forcing
    assert np.max(np.abs(xs[0] - np.linalg.solve(H.matrix, d))) < 1e-9
    for s2, x in zip(sigma2s, xs):
        assert np.max(np.abs(x - dense_mmse(H.matrix, d, s2))) < 1e-9


def test_mmse_rejects_bad_inputs():
    H = _channel(make_cfg(N=16), [(1.0, 0, 0), (0.5, 2, 1)])
    d = random_complex(np.random.default_rng(106), 16)
    with pytest.raises(ValueError):
        mmse_detect([H], [d], [[0.1, -1e-3]])
    with pytest.raises(ValueError):
        mmse_detect([H], [d[:15]], [[0.1]])
    with pytest.raises(ValueError):
        mmse_detect([H], [np.concatenate((d, d))], [[0.1]])


def test_mmse_one_call_mixes_waveforms_with_ragged_sigma2s():
    # AFDM, OTFS and OFDM channels with 3, 1 and 1 noise variances in one
    # call: each system equals its solve alone, bit for bit, and the oracle
    cfg = make_cfg(N=16)
    g = np.random.default_rng(107)
    channels = [_channel(cfg, [(complex(*g.standard_normal(2)), l, int(g.integers(-1, 2)))
                               for l in (0, 1, 2)], w) for w in ("afdm", "otfs", "ofdm")]
    ds = [random_complex(g, 16) for _ in channels]
    sigma2s = [(0.0, 0.05, 1.0), (0.2,), (0.01,)]
    ys = _core(channels, ds)
    out = mmse_detect(channels, ys, sigma2s)
    assert out.shape == (5, 16)
    for H, d, y, s2s, xs in zip(channels, ds, ys, sigma2s, np.split(out, [3, 4])):
        for s2, x in zip(s2s, xs):
            assert np.array_equal(x, mmse_detect([H], [y], [[s2]])[0])
            assert np.max(np.abs(x - dense_mmse(H.matrix, d, s2))) < 1e-9


@pytest.mark.parametrize("case", sorted(_BAND_EDGE_CASES))
def test_mmse_band_edge_cases_in_one_call(case):
    # the three waveforms of each edge case share one stacked band solve
    N1, N2, prefix, paths = _BAND_EDGE_CASES[case]
    cfg = make_cfg(N=N1 * N2, L=prefix, N1=N1, N2=N2)
    channels = [_channel(cfg, paths, w) for w in ("afdm", "otfs", "ofdm")]
    g = np.random.default_rng(108)
    ds = [random_complex(g, cfg.N) for _ in channels]
    sigma2s = [(0.0, 0.01, 0.5, 2.0), (0.5,), (0.01, 2.0)]
    ys = _core(channels, ds)
    out = np.split(mmse_detect(channels, ys, sigma2s), [4, 5])
    for H, d, y, s2s, xs in zip(channels, ds, ys, sigma2s, out):
        for s2, x in zip(s2s, xs):
            assert np.array_equal(x, mmse_detect([H], [y], [[s2]])[0])
            assert np.max(np.abs(x - dense_mmse(H.matrix, d, s2))) < 1e-9


def _single_solves(channels, ds, sigma2s):
    return np.concatenate([mmse_detect([H], [d], [s]) for H, d, s in zip(channels, ds, sigma2s)])


@pytest.mark.parametrize("case", sorted(_BAND_EDGE_CASES))
def test_mmse_slabs_change_no_solution(case, monkeypatch):
    # at most 3 systems per slab: the 4-system AFDM channel is a slab of its
    # own, and slab boundaries fall inside the AFDM and the OFDM runs
    N1, N2, prefix, paths = _BAND_EDGE_CASES[case]
    cfg = make_cfg(N=N1 * N2, L=prefix, N1=N1, N2=N2)
    waveforms, counts = ("afdm",) * 3 + ("otfs",) * 2 + ("ofdm",) * 2, (2, 1, 4, 1, 2, 2, 2)
    g = np.random.default_rng(113)
    channels = [_channel(cfg, paths, w) for w in waveforms]
    ds = random_complex(g, len(channels) * cfg.N).reshape(len(channels), cfg.N)
    sigma2s = [tuple(g.uniform(0.01, 2.0, k)) for k in counts]
    monkeypatch.setattr(receiver, "_SLAB", 3 * cfg.N)
    slabs = list(receiver._slabs(np.cumsum((0,) + counts), cfg.N))
    assert slabs == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
    assert np.array_equal(mmse_detect(channels, ds, sigma2s),
                          _single_solves(channels, ds, sigma2s))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(layout=st.lists(st.tuples(st.sampled_from(["afdm", "otfs", "ofdm"]), st.integers(1, 4)),
                       min_size=1, max_size=8),
       slab=st.integers(1, 20 * 16), seed=st.integers(0, 2**16))
def test_mmse_slabs_are_a_loop_of_single_solves(layout, slab, seed):
    cfg = make_cfg(N=16)
    g = np.random.default_rng(seed)
    channels = [_channel(cfg, [(1.0, 0, int(g.integers(-1, 2))),
                               (0.3 * complex(*g.standard_normal(2)), 1, int(g.integers(-1, 2))),
                               (0.2j, 3, 1)], w) for w, _ in layout]
    ds = random_complex(g, len(layout) * cfg.N).reshape(-1, cfg.N)
    sigma2s = [g.uniform(0.0, 1.0, k) for _, k in layout]
    want = _single_solves(channels, ds, sigma2s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(receiver, "_SLAB", slab)
        assert np.array_equal(mmse_detect(channels, ds, sigma2s), want)


@st.composite
def _delay_set_calls(draw):
    """A small system, a set of 1-4 distinct path delays up to its prefix and
    a call layout: the waveform and the sigma2 count of each channel. With
    N = 4, 6 or 8 and the prefix up to N - 1, many sets have 2b >= N."""
    N1, N2 = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (4, 4)]))
    L = draw(st.integers(0, N1 * N2 - 1))
    delays = sorted(draw(st.sets(st.integers(0, L), min_size=1, max_size=4)))
    layout = draw(st.lists(st.tuples(st.sampled_from(["afdm", "otfs", "ofdm"]),
                                     st.integers(1, 3)), min_size=1, max_size=5))
    return make_cfg(N=N1 * N2, L=L, N1=N1, N2=N2), delays, layout


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(call=_delay_set_calls(), seed=st.integers(0, 2**16))
def test_mmse_on_any_delay_set_is_single_solves_and_the_oracle(call, seed):
    # the folded band of any delay set, including those where offsets o and
    # N - o add to one entry
    cfg, delays, layout = call
    g = np.random.default_rng(seed)
    channels = [_channel(cfg, [(1.0, delays[0], int(g.integers(-1, 2)))]
                         + [(0.3 * complex(*g.standard_normal(2)), l, int(g.integers(-1, 2)))
                            for l in delays[1:]], w) for w, _ in layout]
    ds = random_complex(g, len(layout) * cfg.N).reshape(-1, cfg.N)
    sigma2s = [g.uniform(0.01, 2.0, k) for _, k in layout]
    ys = _core(channels, ds)
    rows = iter(mmse_detect(channels, ys, sigma2s))
    for H, d, y, s2s in zip(channels, ds, ys, sigma2s):
        for s2 in s2s:
            x = next(rows)
            assert np.array_equal(x, mmse_detect([H], [y], [[s2]])[0])
            assert np.max(np.abs(x - dense_mmse(H.matrix, d, s2))) < 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 17), data=st.data())
def test_folded_band_is_the_permuted_gram_matrix(N, data):
    # any N, odd ones included, and 1-4 delays up to N - 1, so that 2b >= N is common
    delays = sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=4)))
    b, g = delays[-1] - delays[0], np.random.default_rng(data.draw(st.integers(0, 2**16)))
    taps = random_complex(g, len(delays) * N).reshape(len(delays), N)
    H = receiver.EquivalentChannel(make_cfg(N=N, L=N - 1, N1=1, N2=N), "afdm", tuple(delays), taps)
    fold, _ = receiver._folded_gram([H], np.zeros((1, N + delays[-1]), complex))
    kd = min(2 * b, N - 1)
    assert fold.shape == (1, N + kd, kd + 1)
    # dense H_t^H H_t, then in the folded order behind kd unknowns fixed at 0
    Ht = np.zeros((N, N), complex)
    for l, t in zip(delays, taps):
        Ht[np.arange(N), (np.arange(N) - l) % N] += t
    order = receiver._fold_plan(N, b)[0][kd:]
    assert sorted(order) == list(range(N)) and list(order[:3]) == [0, N - 1, 1][:N]
    full = np.eye(N + kd, dtype=complex)
    full[kd:, kd:] = (Ht.conj().T @ Ht)[np.ix_(order, order)]
    i, j = np.indices(full.shape)
    assert np.all(full[abs(i - j) > kd] == 0)
    if 2 * b < N:       # the half-width is the least that holds the band
        assert np.any(full[abs(i - j) == kd] != 0)
    # LAPACK's upper band, column by column: fold[j, kd + i - j] = full[i, j], 0 above column 0
    want = np.zeros_like(fold[0])
    for col, t in np.ndindex(want.shape):
        if col - kd + t >= 0:
            want[col, t] = full[col - kd + t, col]
    assert np.all(fold[0][want == 0] == 0)
    assert np.max(np.abs(fold[0] - want)) <= 1e-12 * np.max(np.abs(want))


def test_fold_plan_has_a_second_layer_only_where_offsets_meet():
    # one gather layer while 2b < N; the offsets o and N - o meet on one
    # entry, and add a second layer, only where 2b >= N
    assert receiver._fold_plan(256, 2)[2].shape == (1, 260, 5)
    assert receiver._fold_plan(1024, 2)[2].shape == (1, 1028, 5)
    for N in range(2, 41):
        for b in range(N):
            take = receiver._fold_plan(N, b)[2]
            assert len(take) == (2 if 2 * b >= N else 1), (N, b)


def test_mmse_rejects_mixed_delay_sets():
    cfg = make_cfg(N=16)
    d = random_complex(np.random.default_rng(109), 16)
    H1 = _channel(cfg, [(1.0, 0, 0), (0.5, 2, 1)])
    H2 = _channel(cfg, [(1.0, 0, 0), (0.5, 1, 1)])
    with pytest.raises(ValueError, match="delay set"):
        mmse_detect([H1, H2], [d, d], [[0.1], [0.1]])


def test_mmse_multi_channel_call_rejects_bad_inputs():
    cfg = make_cfg(N=8, N1=4, N2=2)
    good = _channel(cfg, [(1.0, 0, 0), (0.5, 2, 1)])
    singular = _channel(cfg, [(0.0, 0, 0), (0.0, 2, 1)])
    d = random_complex(np.random.default_rng(110), 8)
    with pytest.raises(ValueError):
        mmse_detect([good, good], [d, d], [[0.1], [0.2, -1e-3]])
    with pytest.raises(ValueError):
        mmse_detect([good, good], [d, d[:7]], [[0.1], [0.1]])
    with pytest.raises(ValueError):
        mmse_detect([good, good], [d], [[0.1], [0.1]])
    with pytest.raises(np.linalg.LinAlgError):
        mmse_detect([good, singular], [d, d], [[0.1], [0.0]])
    # with noise the singular channel's system is regular
    (_, x) = mmse_detect([good, singular], [d, d], [[0.1], [0.1]])
    assert np.max(np.abs(x)) == 0.0


def test_harness_mmse_matches_dense_oracle_on_desk_trial(monkeypatch):
    # the sweep's own chunk-level MMSE call, captured on one desk trial
    cfg = harness.load_config(Path(__file__).parent.parent / "configs" / "desk.json")
    calls = []

    def recording_mmse(channels, ys, sigma2s):
        out = mmse_detect(channels, ys, sigma2s)
        calls.append((channels, ys, sigma2s, out))
        return out

    monkeypatch.setattr(harness, "mmse_detect", recording_mmse)
    modes = harness.MODES
    harness._ber_chunk(cfg, (0.0, 35.0), [0], modes)
    # one call per SNR block: per waveform group one channel per SNR point,
    # and one system per mode of the group
    ((channels, ys, sigma2s, out),) = calls
    assert [H.waveform for H in channels] == ["afdm"] * 2 + ["otfs"] * 2 + ["ofdm"] * 2
    assert [len(s) for s in sigma2s] == [3, 3, 1, 1, 1, 1] and len(out) == 10
    rows = iter(out)
    for H, y, s2s in zip(channels, ys, sigma2s):
        d = TRANSFORMS[H.waveform].from_time(y, H.cfg)     # the demodulated frame T y
        for s2 in s2s:
            assert np.max(np.abs(next(rows) - dense_mmse(H.matrix, d, s2))) < 1e-9


def _desk_raw(**system):
    """configs/desk.json with system and frame fields overridden."""
    raw = json.loads((Path(__file__).parent.parent / "configs" / "desk.json").read_text())
    for key, value in system.items():
        raw["frame" if key in raw["frame"] else "system"][key] = value
    return raw


def _recorded_call(raw, trials, modes):
    """The (channels, ds, sigma2s) of the one mmse_detect call of a _ber_chunk at 10 dB."""
    calls, real = [], harness.mmse_detect
    harness.mmse_detect = lambda *args: calls.append(args) or real(*args)
    try:
        harness._ber_chunk(harness.config_from_dict(raw), (10.0,), list(range(trials)), modes)
    finally:
        harness.mmse_detect = real
    (call,) = calls
    return call


@pytest.fixture(scope="module")
def sweep_calls():
    """mmse_detect inputs of the sweeps' shapes, by name and system count S;
    paper is desk at the sizes of perfbench/paper.json (N = 1024)."""
    desk, paper = _desk_raw(), _desk_raw(N=1024, L_cp=64, L_cpp=64, N1=32, N2=32, K1=64, K2=64)
    modes = tuple(harness.MODES)
    return {"desk_20": _recorded_call(desk, 4, modes),
            "desk_otfs_4": _recorded_call(desk, 4, ("wdnoma_otfs_npe",)),
            "paper_5": _recorded_call(paper, 1, modes),
            "desk_320": _recorded_call(desk, 64, modes)}


def _in_new_thread(fn, *args):
    """fn(*args) in a thread of its own: one that has no work arrays yet, as in a fresh process."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join()
    return out[0]


def test_mmse_work_arrays_serve_interleaved_shapes(sweep_calls):
    fresh = {name: _in_new_thread(mmse_detect, *call) for name, call in sweep_calls.items()}
    assert fresh["desk_20"].shape == (20, 256)
    for name in ("desk_20", "desk_otfs_4", "paper_5", "desk_320", "desk_20"):
        assert np.array_equal(mmse_detect(*sweep_calls[name]), fresh[name]), name


def test_mmse_slabs_change_no_solution_on_sweep_shapes(sweep_calls, monkeypatch):
    def slab_count(channels, _, sigma2s):
        return len(list(receiver._slabs(np.cumsum([0] + [len(s) for s in sigma2s]),
                                        channels[0].cfg.N)))

    # at the shipped size a paper-scale trial is one slab, a 64-trial desk chunk many
    assert slab_count(*sweep_calls["paper_5"]) == 1 and slab_count(*sweep_calls["desk_320"]) > 1
    want = {name: mmse_detect(*call) for name, call in sweep_calls.items()}
    for slab in (1, 7 * 256):       # one channel per slab; 7 desk systems per slab
        monkeypatch.setattr(receiver, "_SLAB", slab)
        for name, call in sweep_calls.items():
            assert np.array_equal(mmse_detect(*call), want[name]), (name, slab)


def test_mmse_work_arrays_hold_one_slab(sweep_calls):
    def buffer_bytes(channels, ds, sigma2s):
        mmse_detect(channels, ds, sigma2s)
        return {name: buf.nbytes for name, buf in vars(receiver._work).items()}

    channels, ds, _ = call = sweep_calls["desk_320"]
    got = _in_new_thread(buffer_bytes, *call)
    # the slab that needs the most: _SLAB // N channels of one system each
    k, c = receiver._SLAB // 256, next(i for i, H in enumerate(channels) if H.waveform == "otfs")
    full = _in_new_thread(buffer_bytes, [channels[c]] * k, ds[[c] * k], [[0.1]] * k)
    assert got.keys() == full.keys() and all(got[name] <= full[name] for name in got)
    assert sum(got.values()) < 2_000_000      # as one slab, the call took 15.4 MB


def test_mmse_solutions_are_not_work_arrays(sweep_calls):
    call = sweep_calls["desk_20"]
    want = mmse_detect(*call).copy()
    first = mmse_detect(*call)
    first[...] = np.nan
    assert np.array_equal(mmse_detect(*call), want)
    # and the later call wrote nothing into the earlier call's solutions
    assert np.isnan(first).all()


def test_mmse_is_exact_after_a_singular_system(sweep_calls):
    call = sweep_calls["desk_20"]
    want = mmse_detect(*call)
    zero = _channel(call[0][0].cfg, [(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0)])
    for _ in range(2):   # the failed factorization leaves its work arrays half written
        with pytest.raises(np.linalg.LinAlgError):
            mmse_detect([call[0][0], zero], call[1][:2], [[0.1], [0.0]])
        assert np.array_equal(mmse_detect(*call), want)


def test_mmse_threads_keep_their_own_work_arrays(sweep_calls):
    names = ("desk_20", "paper_5", "desk_otfs_4")
    want = {name: mmse_detect(*sweep_calls[name]) for name in names}
    start, got = threading.Barrier(2), {}

    def run(order):
        start.wait()
        got[order] = [mmse_detect(*sweep_calls[name]) for name in order * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, inside the solves
    try:
        threads = [threading.Thread(target=run, args=(order,)) for order in (names, names[::-1])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for order, results in got.items():
        assert all(np.array_equal(x, want[name]) for name, x in zip(order * 3, results))
    assert len(got) == 2


def test_mmse_steady_state_allocates_little(sweep_calls):
    # a 64-trial desk chunk: 320 systems of N = 256 whose solutions take 1.3 MB;
    # the solve used to peak at 12.5 MB of fresh temporaries
    call = sweep_calls["desk_320"]
    mmse_detect(*call)
    tracemalloc.start()
    try:
        mmse_detect(*call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_band_lapack_wrappers_are_scipy_linalgs():
    # the receiver loads scipy's compiled LAPACK module without the scipy.linalg
    # package; the routines must be the ones that package hands out, whichever
    # is imported first
    from scipy.linalg import get_lapack_funcs
    pbtrf, tbtrs = get_lapack_funcs(("pbtrf", "tbtrs"), dtype=np.complex128)
    assert receiver._pbtrf is pbtrf and receiver._tbtrs is tbtrs
    code = ("import numpy as np, wdnoma.receiver as r, scipy.linalg as sl; "
            "p, t = sl.get_lapack_funcs(('pbtrf', 'tbtrs'), dtype=np.complex128); "
            "print(p is r._pbtrf, t is r._tbtrs, sl._flapack.zpbtrf is r._pbtrf)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          check=True)
    assert done.stdout.split() == ["True", "True", "True"]


def test_band_lapack_wrappers_missing_file_names_its_path(monkeypatch, tmp_path):
    monkeypatch.setattr(receiver.scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match="_flapack") as err:
        receiver._load_flapack()
    assert err.value.path.startswith(str(tmp_path / "linalg" / "_flapack"))


@pytest.mark.parametrize("nrhs", [1, 3])
def test_band_factor_and_solves_equal_scipy_linalgs(nrhs):
    from scipy.linalg import cho_solve_banded, cholesky_banded
    n, b = 500, 2
    r = np.random.default_rng(1700 + nrhs)
    # upper band storage of a Hermitian, strictly diagonally dominant (so
    # positive definite) matrix: ab[b + i - j, j] = A[i, j]
    ab = np.empty((b + 1, n), complex)
    ab[:b] = r.random((b, n)) * np.exp(2j * np.pi * r.random((b, n)))
    ab[b] = 2 * b + 1 + r.random(n)
    rhs = random_complex(r, (n, nrhs))
    c, info = receiver._pbtrf(ab)
    assert info == 0 and np.array_equal(c, cholesky_banded(ab))
    # A x = U^H U x = rhs by the two triangular solves the stacked MMSE makes,
    # trans "C" then "N"; scipy's pbtrs makes the same two per column
    w, info = receiver._tbtrs(c, rhs, trans="C")
    assert info == 0
    x, info = receiver._tbtrs(c, w, trans="N")
    assert info == 0
    assert np.array_equal(x, cho_solve_banded((c, False), rhs))
    dense = np.diag(ab[b])
    for k in range(1, b + 1):
        dense += np.diag(ab[b - k, k:], k) + np.diag(ab[b - k, k:].conj(), -k)
    np.testing.assert_allclose(dense @ x, rhs, atol=1e-12)


def _layout_and_cfg():
    cfg = make_cfg(N=64, L=8, kappa_max=1, N1=8, N2=8)
    layout = allocate_frame(64, 0, 8, 12, 1, cfg.c1, 2)
    return cfg, layout


def test_estimate_noise_power_pure_noise():
    cfg, _ = _layout_and_cfg()
    # static-channel layout: 8-bin window for a tighter Monte Carlo estimate
    layout = allocate_frame(64, 0, 8, 12, 1, cfg.c1, 0)
    g = np.random.default_rng(9)
    acc = 0.0
    trials = 400
    for _ in range(trials):
        w = (g.standard_normal(64) + 1j * g.standard_normal(64)) * np.sqrt(0.3 / 2)
        acc += estimate_noise_power(w, layout)
    assert abs(acc / trials - 0.3) < 0.02
    # the full OFDM grid has no guard to sample
    with pytest.raises(ValueError):
        estimate_noise_power(w, full_grid_layout(64))


def test_perfect_cancellation_no_noise():
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(17)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout, cfg.N)
    ps = path_from_bin([0.7 - 0.1j, 0.2j], [1, 2], [1, -1], 64, 72)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.c1, cfg.c2, cfg.L_cpp), ps)
    res = r - harness._transmit(cfg, layout, "afdm", syms, ps)
    assert np.max(np.abs(res)) < 1e-10


def test_cancellation_residual_is_echo_plus_noise():
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(18)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout, cfg.N)
    ps = path_from_bin(0.7, 1, 1, 64, 72)
    r_ul = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.c1, cfg.c2, cfg.L_cpp), ps)
    echo = random_complex(g, 72)
    w = random_complex(g, 72) * 0.1
    r = r_ul + 0.1 * echo + w
    res = r - harness._transmit(cfg, layout, "afdm", syms, ps)
    assert np.max(np.abs(res - (0.1 * echo + w))) < 1e-10


def test_cancellation_error_energy_via_linearity():
    # one wrong symbol adds exactly the channel-filtered energy of the error
    cfg, layout = _layout_and_cfg()
    g = np.random.default_rng(19)
    syms = (g.standard_normal(layout.n_data) + 1j * g.standard_normal(layout.n_data))
    frame = embed(syms, layout, cfg.N)
    ps = path_from_bin(0.7, 1, 1, 64, 72)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, cfg.c1, cfg.c2, cfg.L_cpp), ps)
    bad = syms.copy()
    bad[5] += 2.0
    res = r - harness._transmit(cfg, layout, "afdm", bad, ps)
    err_frame = embed(bad - syms, layout, cfg.N)
    expected = apply_dd_channel_samples(afdm_mod_samples(err_frame, cfg.c1, cfg.c2, cfg.L_cpp), ps)
    assert abs(np.sum(np.abs(res) ** 2) - np.sum(np.abs(expected) ** 2)) < 1e-10


def test_demodulate_frame_roundtrip():
    cfg, layout = _layout_and_cfg()
    syms = random_complex(rng, layout.n_data)
    frame = embed(syms, layout, cfg.N)
    d = afdm_demod_samples(afdm_mod_samples(frame, cfg.c1, cfg.c2, cfg.L_cpp), cfg.c1, cfg.c2,
                           cfg.L_cpp)
    assert np.max(np.abs(d - frame)) < 1e-12
