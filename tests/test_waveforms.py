"""QAM and modulator tests: dense-matrix oracles, round trips, energy."""

import numpy as np
import pytest

from oracles import (
    dense_afdm_mod,
    dense_ofdm_mod,
    dense_otfs_w,
    random_complex,
)
from wdnoma.transforms import ChirpParams
from wdnoma.waveforms import (
    SystemConfig,
    afdm_demod_samples,
    afdm_mod_samples,
    constellation,
    ofdm_demod_samples,
    ofdm_mod_samples,
    otfs_demod_samples,
    otfs_mod_samples,
    qam_demap_hard,
    qam_map,
)

rng = np.random.default_rng(11)


def make_cfg(N=16, M=4, L=4, N1=4, N2=4, kappa_max=1):
    return SystemConfig(N=N, M=M, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                        chirp=ChirpParams.for_max_doppler(kappa_max, N), N1=N1, N2=N2)


# ---------------------------------------------------------------------------
# QAM
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M", [4, 16, 64])
def test_qam_roundtrip(M):
    bits = rng.integers(0, 2, size=int(np.log2(M)) * 120)
    syms = qam_map(bits, M)
    assert np.array_equal(qam_demap_hard(syms, M), bits)


@pytest.mark.parametrize("M", [4, 16, 64])
def test_qam_unit_average_energy(M):
    pts = constellation(M)
    assert pts.size == M
    assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12


def test_qpsk_corner_point():
    # all-zero bits -> top-right corner
    assert np.allclose(qam_map(np.zeros(2, dtype=int), 4), (1 + 1j) / np.sqrt(2))


def test_qam_gray_adjacency():
    # nearest horizontal neighbours differ in exactly one bit (Gray property)
    M = 16
    pts = constellation(M)
    bits = ((np.arange(M)[:, None] >> np.arange(3, -1, -1)) & 1)
    for i in range(M):
        for j in range(M):
            d = pts[i] - pts[j]
            if abs(d.imag) < 1e-9 and abs(abs(d.real) - 2 / np.sqrt(10)) < 1e-9:
                assert np.sum(bits[i] != bits[j]) == 1


def test_qam_demap_is_nearest_point():
    pts = constellation(16)
    noisy = pts + 0.05 * random_complex(rng, 16)
    assert np.array_equal(qam_demap_hard(noisy, 16), qam_demap_hard(pts, 16))


def test_qam_rejects_bad_bit_count():
    with pytest.raises(ValueError):
        qam_map(np.zeros(3, dtype=int), 4)


# ---------------------------------------------------------------------------
# Modulators vs dense oracles
# ---------------------------------------------------------------------------

def test_ofdm_matches_dense_oracle():
    cfg = make_cfg()
    B = dense_ofdm_mod(cfg.N, cfg.L_cp)
    x = random_complex(rng, cfg.N)
    got = ofdm_mod_samples(x, cfg.L_cp)
    assert np.max(np.abs(got - B @ x)) < 1e-12


def test_afdm_matches_dense_oracle():
    cfg = make_cfg()
    B = dense_afdm_mod(cfg.N, cfg.L_cpp, cfg.chirp.c1, cfg.chirp.c2)
    for _ in range(10):
        x = random_complex(rng, cfg.N)
        got = afdm_mod_samples(x, cfg.chirp, cfg.L_cpp)
        assert np.max(np.abs(got - B @ x)) < 1e-12


def test_otfs_matches_dense_kronecker_oracle():
    cfg = make_cfg()
    W = dense_otfs_w(cfg.N1, cfg.N2, cfg.L_cp)
    for _ in range(10):
        x = random_complex(rng, cfg.N)
        got = otfs_mod_samples(x, cfg.N1, cfg.N2, cfg.L_cp)
        assert np.max(np.abs(got - W @ x)) < 1e-12


def test_otfs_n2_equal_one_reduces_to_cp_only():
    cfg = SystemConfig(N=8, M=4, f_c=28e9, delta_f=30e3, L_cp=2, L_cpp=2,
                       chirp=ChirpParams(0.0), N1=8, N2=1)
    x = random_complex(rng, 8)
    got = otfs_mod_samples(x, cfg.N1, cfg.N2, cfg.L_cp)
    assert np.allclose(got[2:], x, atol=1e-13)
    assert np.allclose(got[:2], x[-2:], atol=1e-13)


# each waveform's modulator/demodulator pair, named with its symbol domain
WAVEFORMS = ("ofdm", "afdm", "otfs")
DOMAINS = ("frequency", "affine", "delay_doppler")


def _mod_demod(cfg, waveform):
    """The waveform's modulator and demodulator with its prefix."""
    return {
        "ofdm": (lambda X: ofdm_mod_samples(X, cfg.L_cp),
                 lambda r: ofdm_demod_samples(r, cfg.L_cp)),
        "afdm": (lambda X: afdm_mod_samples(X, cfg.chirp, cfg.L_cpp),
                 lambda r: afdm_demod_samples(r, cfg.chirp, cfg.L_cpp)),
        "otfs": (lambda X: otfs_mod_samples(X, cfg.N1, cfg.N2, cfg.L_cp),
                 lambda r: otfs_demod_samples(r, cfg.N1, cfg.N2, cfg.L_cp)),
    }[waveform]


@pytest.mark.parametrize("waveform", WAVEFORMS, ids=[
    f"{w}_modulate-{w}_demodulate-{dom}" for w, dom in zip(WAVEFORMS, DOMAINS)])
def test_modulator_roundtrip(waveform):
    cfg = make_cfg(N=64, L=8, N1=8, N2=8)
    mod, demod = _mod_demod(cfg, waveform)
    x = random_complex(rng, cfg.N)
    back = demod(mod(x))
    assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("waveform", WAVEFORMS, ids=[
    f"{w}_modulate-{dom}" for w, dom in zip(WAVEFORMS, DOMAINS)])
def test_modulator_energy_with_prefix_overhead(waveform):
    # prefix copies tail samples with unit-magnitude weights, so
    # ||s||^2 = ||x||^2 + ||tail||^2 exactly
    cfg = make_cfg(N=32, L=8, N1=8, N2=4)
    mod, _ = _mod_demod(cfg, waveform)
    x = random_complex(rng, cfg.N)
    s = mod(x)
    core = s[8:]
    assert abs(np.sum(np.abs(s) ** 2)
               - np.sum(np.abs(x) ** 2) - np.sum(np.abs(core[-8:]) ** 2)) < 1e-10
    assert abs(np.linalg.norm(core) - np.linalg.norm(x)) < 1e-10


def test_zero_in_zero_out():
    cfg = make_cfg()
    z = np.zeros(cfg.N, dtype=np.complex128)
    assert np.all(afdm_mod_samples(z, cfg.chirp, cfg.L_cpp) == 0)


# ---------------------------------------------------------------------------
# SystemConfig validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_grid():
    with pytest.raises(ValueError):
        make_cfg(N=16, N1=4, N2=3)


def test_config_rejects_non_square_qam():
    with pytest.raises(ValueError):
        make_cfg(M=8)
    with pytest.raises(ValueError):
        make_cfg(M=2)


def test_config_rejects_oversize_prefix():
    with pytest.raises(ValueError):
        make_cfg(N=16, L=16)


def test_config_derived_quantities():
    cfg = make_cfg(N=16, L=4)
    assert cfg.sample_rate == 16 * 30e3
    assert cfg.frame_len_cp == 20
    assert cfg.frame_len_cpp == 20
