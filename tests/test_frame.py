"""Frame layout tests: partition bookkeeping and NPE-window leakage containment."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from oracles import bin_channel, embed, random_complex
from wdnoma.channel import apply_dd_channel_samples
from wdnoma.frame import allocate_frame, allocate_otfs_frame, full_grid_layout
from wdnoma.transforms import default_c1
from wdnoma.waveforms import afdm_demod_samples, afdm_mod_samples, otfs_demod_samples, otfs_mod_samples


def test_partition_is_exact():
    layout = allocate_frame(N=256, guard1_start=0, K1=32, K2=32,
                            kappa_max=2, c1=5 / 512, max_delay=2)
    # the data are exactly the bins outside G1 = 0..31 and G2 = 32..63
    assert np.array_equal(layout.data, np.arange(64, 256))
    assert layout.n_data == 192
    assert np.all(np.isin(layout.npe_window, np.arange(32, 64)))
    # the PD-NOMA OFDM frame: all bins are data, no NPE window
    full = full_grid_layout(256)
    assert np.array_equal(full.data, np.arange(256))
    assert full.npe_window.size == 0


def test_npe_window_size_with_delay_coupling():
    # K2 = 32, kappa_max = 2, 2Nc1 = 5, max_delay = 2:
    # window spans bins kappa_max+1 .. K2-2-(kappa_max + 5*2) -> 16 bins
    layout = allocate_frame(N=256, guard1_start=0, K1=32, K2=32,
                            kappa_max=2, c1=5 / 512, max_delay=2)
    assert layout.npe_window.size == 16
    assert layout.npe_window[0] == 32 + 3


def test_npe_window_static_channel():
    # no Doppler, no delay spread: only the edge bins are dropped
    layout = allocate_frame(N=64, guard1_start=0, K1=0, K2=16,
                            kappa_max=0, c1=1 / 128, max_delay=0)
    assert layout.npe_window.size == 14


def test_allocate_frame_validation():
    with pytest.raises(ValueError):
        allocate_frame(64, 0, 32, 32, 0, 1 / 128, 0)  # no data left
    with pytest.raises(ValueError):
        # kappa_max too big for K2
        allocate_frame(64, 0, 8, 4, 2, 5 / 128, 2)


@pytest.mark.parametrize("trial", range(10))
def test_afdm_leakage_containment(trial):
    """Integer-Doppler channels leave the NPE window exactly data-free."""
    N, L_cpp, kappa_max, max_delay = 256, 16, 2, 2
    c1 = default_c1(kappa_max, N)
    layout = allocate_frame(N, 0, 32, 32, kappa_max, c1, max_delay)
    g = np.random.default_rng(1000 + trial)
    paths = tuple(
        (complex(*g.standard_normal(2)),
         int(g.integers(0, max_delay + 1)),
         int(g.integers(-kappa_max, kappa_max + 1)))
        for _ in range(3))
    ps = bin_channel(paths, N, N + L_cpp)
    syms = random_complex(g, layout.n_data)
    frame = embed(syms, layout, N)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, c1, 0.0, L_cpp), ps)
    d = afdm_demod_samples(r, c1, 0.0, L_cpp)
    assert np.max(np.abs(d[layout.npe_window])) < 1e-10


def test_otfs_layout_partition():
    layout = allocate_otfs_frame(N1=16, N2=16, guard_cols_per_edge=3, kappa_max=2)
    assert np.all((layout.data < 256) & ~np.isin(layout.data, layout.npe_window))
    data_cols = np.unique(layout.data // 16)   # delay-major: bin n2 * N1 + n1
    assert data_cols.size == 10
    assert layout.n_data == 160
    # window columns sit > kappa_max from any data column
    win_cols = np.unique(layout.npe_window // 16)
    for c in win_cols:
        for d in data_cols:
            dist = min((c - d) % 16, (d - c) % 16)
            assert dist > 2


def test_otfs_layout_validation():
    with pytest.raises(ValueError):
        allocate_otfs_frame(16, 16, 0, 1)
    with pytest.raises(ValueError):
        allocate_otfs_frame(16, 16, 8, 1)
    with pytest.raises(ValueError):
        allocate_otfs_frame(16, 16, 1, 2)  # guards fully contaminated


@pytest.mark.parametrize("trial", range(5))
def test_otfs_leakage_containment(trial):
    N1 = N2 = 16
    kappa_max = 2
    layout = allocate_otfs_frame(N1, N2, 3, kappa_max)
    g = np.random.default_rng(2000 + trial)
    L = N1 * N2 + 16
    paths = tuple(
        (complex(*g.standard_normal(2)),
         int(g.integers(0, 3)),
         int(g.integers(-kappa_max, kappa_max + 1)))
        for _ in range(3))
    ps = bin_channel(paths, N1 * N2, L)
    syms = random_complex(g, layout.n_data)
    frame = embed(syms, layout, N1 * N2)
    r = apply_dd_channel_samples(otfs_mod_samples(frame, N1, N2, 16), ps)
    d = otfs_demod_samples(r, N1, N2, 16)
    assert np.max(np.abs(d[layout.npe_window])) < 1e-10


def _leakage_fraction(layout, d) -> float:
    """Share of the demodulated frame d's energy in the layout's NPE window."""
    total = np.sum(np.abs(d) ** 2)
    return np.sum(np.abs(d[layout.npe_window]) ** 2) / total if total else 0.0


def _paths(draw, N, prefix, max_delay, kappa_max):
    """1-4 integer-Doppler paths with delays up to ``max_delay``."""
    path = st.builds(lambda re, im, l, kappa: (complex(re, im), l, kappa),
                     st.floats(-2, 2), st.floats(-2, 2), st.integers(0, max_delay),
                     st.integers(-kappa_max, kappa_max))
    return bin_channel(draw(st.lists(path, min_size=1, max_size=4)), N, N + prefix)


# the allocators reject some draws (an empty window, no room for data); those are skipped
_LEAKAGE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.filter_too_much])


@_LEAKAGE_SETTINGS
@given(data=st.data())
def test_afdm_npe_window_takes_no_data_leakage(data):
    # any N, kappa_max, delay spread, chirp and guard placement, the guards
    # wrapping around the grid's end included: a data-only frame through any
    # integer-Doppler channel leaves the NPE window empty up to roundoff. The
    # affine shift 2*N*c1 spans the default 2*kappa_max + 1 and its
    # neighbours; a negative one is refused, as its spread would pass G2's edge
    draw = data.draw
    kappa_max, max_delay = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shift = draw(st.integers(-3, 2 * kappa_max + 3))
    spread = kappa_max + max(shift, 0) * max_delay
    K1 = draw(st.integers(0, 8))
    K2 = kappa_max + spread + 3 + draw(st.integers(-2, 6))    # the least window is 1 bin
    N = K1 + K2 + draw(st.integers(0, 24))
    c1 = shift / (2 * N)
    args = (N, draw(st.integers(0, N - 1)), K1, K2, kappa_max, c1, max_delay)
    if shift < 0:
        with pytest.raises(ValueError, match="non-negative"):
            allocate_frame(*args)
        return
    try:
        layout = allocate_frame(*args)
    except ValueError:
        reject()
    prefix = min(N - 1, max_delay + draw(st.integers(0, 2)))
    ps = _paths(draw, N, prefix, max_delay, kappa_max)
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    frame = embed(random_complex(g, layout.n_data), layout, N)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, c1, 0.0, prefix), ps)
    assert _leakage_fraction(layout, afdm_demod_samples(r, c1, 0.0, prefix)) <= 1e-12


@_LEAKAGE_SETTINGS
@given(data=st.data())
def test_otfs_npe_window_takes_no_data_leakage(data):
    # any grid, kappa_max and guard columns, delays up to the prefix
    draw = data.draw
    N1, N2 = draw(st.integers(1, 8)), draw(st.integers(3, 16))
    N, kappa_max = N1 * N2, draw(st.integers(0, 3))
    try:
        layout = allocate_otfs_frame(N1, N2, draw(st.integers(1, N2 // 2)), kappa_max)
    except ValueError:
        reject()
    prefix = draw(st.integers(0, N - 1))
    ps = _paths(draw, N, prefix, prefix, kappa_max)
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    frame = embed(random_complex(g, layout.n_data), layout, N)
    r = apply_dd_channel_samples(otfs_mod_samples(frame, N1, N2, prefix), ps)
    assert _leakage_fraction(layout, otfs_demod_samples(r, N1, N2, prefix)) <= 1e-12
