"""Frame layout tests: partition bookkeeping and NPE-window leakage containment."""

import numpy as np
import pytest

from oracles import embed, random_complex
from wdnoma.channel import PathSet, apply_dd_channel_samples, path_from_bin
from wdnoma.frame import allocate_frame, allocate_otfs_frame, full_grid_layout
from wdnoma.transforms import ChirpParams
from wdnoma.waveforms import afdm_demod_samples, afdm_mod_samples, otfs_demod_samples, otfs_mod_samples


def test_partition_is_exact():
    layout = allocate_frame(N=256, guard1_start=0, K1=32, guard2_start=32, K2=32,
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
    layout = allocate_frame(N=256, guard1_start=0, K1=32, guard2_start=32, K2=32,
                            kappa_max=2, c1=5 / 512, max_delay=2)
    assert layout.npe_window.size == 16
    assert layout.npe_window[0] == 32 + 3


def test_npe_window_static_channel():
    # no Doppler, no delay spread: only the edge bins are dropped
    layout = allocate_frame(N=64, guard1_start=0, K1=0, guard2_start=0, K2=16,
                            kappa_max=0, c1=1 / 128, max_delay=0)
    assert layout.npe_window.size == 14


def test_allocate_frame_validation():
    with pytest.raises(ValueError):
        allocate_frame(64, 0, 32, 16, 32, 0, 1 / 128, 0)  # overlap
    with pytest.raises(ValueError):
        allocate_frame(64, 0, 32, 32, 32, 0, 1 / 128, 0)  # no data left
    with pytest.raises(ValueError):
        # kappa_max too big for K2
        allocate_frame(64, 0, 8, 8, 4, 2, 5 / 128, 2)
    with pytest.raises(ValueError):
        allocate_frame(64, 0, 8, 8, 8, 0, 0.001, 0)  # non-integer 2Nc1


@pytest.mark.parametrize("trial", range(10))
def test_afdm_leakage_containment(trial):
    """Integer-Doppler channels leave the NPE window exactly data-free."""
    N, L_cpp, kappa_max, max_delay = 256, 16, 2, 2
    chirp = ChirpParams.for_max_doppler(kappa_max, N)
    layout = allocate_frame(N, 0, 32, 32, 32, kappa_max, chirp.c1, max_delay)
    g = np.random.default_rng(1000 + trial)
    paths = tuple(
        path_from_bin(complex(*g.standard_normal(2)),
                      int(g.integers(0, max_delay + 1)),
                      int(g.integers(-kappa_max, kappa_max + 1)),
                      N, N + L_cpp)
        for _ in range(3))
    ps = PathSet(paths, N + L_cpp)
    syms = random_complex(g, layout.n_data)
    frame = embed(syms, layout)
    r = apply_dd_channel_samples(afdm_mod_samples(frame, chirp, L_cpp), ps)
    d = afdm_demod_samples(r, chirp, L_cpp)
    assert np.max(np.abs(d[layout.npe_window])) < 1e-10


def test_otfs_layout_partition():
    layout = allocate_otfs_frame(N1=16, N2=16, guard_cols_per_edge=3, kappa_max=2)
    assert layout.N == 256
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
        path_from_bin(complex(*g.standard_normal(2)),
                      int(g.integers(0, 3)),
                      int(g.integers(-kappa_max, kappa_max + 1)),
                      N1 * N2, L)
        for _ in range(3))
    ps = PathSet(paths, L)
    syms = random_complex(g, layout.n_data)
    frame = embed(syms, layout)
    r = apply_dd_channel_samples(otfs_mod_samples(frame, N1, N2, 16), ps)
    d = otfs_demod_samples(r, N1, N2, 16)
    assert np.max(np.abs(d[layout.npe_window])) < 1e-10
