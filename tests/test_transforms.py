"""Transform-layer tests against dense oracles and basic algebraic identities."""

import numpy as np
import pytest

from oracles import (
    dense_cp_add,
    dense_cpp_add,
    dense_daft,
    dense_dft,
    random_complex,
)
from wdnoma.transforms import (
    add_cp_samples,
    add_cpp_samples,
    chirp_vector,
    cpp_prefix_phases,
    daft_samples,
    default_c1,
    dft_samples,
    idaft_samples,
    idft_samples,
    shift_factor,
)
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(7)


def test_dft_matches_dense_oracle():
    x = random_complex(rng, 16)
    F = dense_dft(16)
    got = dft_samples(x)
    assert np.max(np.abs(got - F @ x)) < 1e-12


def test_dft_idft_roundtrip_and_energy():
    for N in (8, 33, 256):
        x = random_complex(rng, N)
        back = idft_samples(dft_samples(x))
        assert np.max(np.abs(back - x)) < 1e-12
        assert abs(np.linalg.norm(dft_samples(x)) - np.linalg.norm(x)) < 1e-10


def _over_root_n(Y: np.ndarray, N: int) -> np.ndarray:
    """Y / sqrt(N) correctly rounded: divided in extended precision, rounded once."""
    root = np.sqrt(np.longdouble(N))
    return ((Y.real.astype(np.longdouble) / root).astype(np.float64)
            + 1j * (Y.imag.astype(np.longdouble) / root).astype(np.float64))


@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(np.float64).precision,
                    reason="needs an extended-precision longdouble")
@pytest.mark.parametrize("N", [16, 255, 256, 1024, 1031])
def test_dft_normalization_is_one_rounding(N):
    # the unnormalized transform times fl(1/fl(sqrt(N))): where sqrt(N) is a
    # power of two, exactly the old divide-by-sqrt(N) forms; elsewhere within 1 ulp
    # of the correctly rounded transform / sqrt(N)
    x = random_complex(rng, 8 * N).reshape(8, N)
    for got, unscaled in ((dft_samples(x), np.fft.fft(x, axis=-1)),
                          (idft_samples(x), np.fft.ifft(x, axis=-1, norm="forward"))):
        want = _over_root_n(unscaled, N)
        if N in (16, 256, 1024):
            assert np.array_equal(got, want)
        else:
            np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)
    if N in (16, 256, 1024):
        assert np.array_equal(dft_samples(x), np.fft.fft(x, axis=-1) / np.sqrt(N))
        assert np.array_equal(idft_samples(x), np.fft.ifft(x, axis=-1) * np.sqrt(N))


def test_chirp_diag_apply_is_unitary_pointwise():
    x = random_complex(rng, 40)
    v = chirp_vector(40, 0.013)
    y = x * v * v.conj()
    assert np.max(np.abs(y - x)) < 1e-14


@pytest.mark.parametrize("N,c1,c2", [(32, 3 / 64, 0.0), (32, 1 / 64, 1 / 128), (16, 5 / 32, 0.02)])
def test_daft_matches_dense_oracle(N, c1, c2):
    A = dense_daft(N, c1, c2)
    for _ in range(20):
        x = random_complex(rng, N)
        got = daft_samples(x, c1, c2)
        assert np.max(np.abs(got - A @ x)) < 1e-12


def test_idaft_matches_dense_oracle():
    N = 32
    c1, c2 = 3 / 64, 0.0
    Ainv = dense_daft(N, c1, c2).conj().T
    y = random_complex(rng, N)
    got = idaft_samples(y, c1, c2)
    assert np.max(np.abs(got - Ainv @ y)) < 1e-12


def test_daft_reduces_to_dft_at_zero_chirp():
    x = random_complex(rng, 24)
    assert np.allclose(daft_samples(x, 0.0, 0.0), dense_dft(24) @ x, atol=1e-12)


@pytest.mark.parametrize("N", [8, 16, 64, 256, 1024])
def test_daft_unitarity_and_energy(N):
    c1 = default_c1(2, N)
    x = random_complex(rng, N)
    y = daft_samples(x, c1, 0.0)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-10
    assert np.max(np.abs(idaft_samples(y, c1, 0.0) - x)) < 1e-10


def test_cp_matches_dense_oracle_and_roundtrips():
    N, L = 16, 4
    x = random_complex(rng, N)
    got = add_cp_samples(x, L)
    assert np.max(np.abs(got - dense_cp_add(N, L) @ x)) < 1e-14
    assert np.array_equal(got[L:], x)


def test_cpp_matches_dense_oracle():
    N, L = 16, 4
    c1 = default_c1(1, N)
    A = dense_cpp_add(N, L, c1)
    for _ in range(10):
        x = random_complex(rng, N)
        got = add_cpp_samples(x, L, c1)
        assert np.max(np.abs(got - A @ x)) < 1e-12


def test_cpp_prefix_phases_have_unit_magnitude():
    c1 = default_c1(3, 64)
    assert np.max(np.abs(np.abs(cpp_prefix_phases(64, 8, c1)) - 1.0)) < 1e-12
    s = add_cpp_samples(random_complex(rng, 64), 8, c1)
    # prefix energy equals the energy of the copied tail samples
    tail = s[-8:]
    assert abs(np.linalg.norm(s[:8]) - np.linalg.norm(tail)) < 1e-12


def test_prefix_length_validation():
    # the prefix kernels trust their caller; SystemConfig checks the lengths
    def cfg(L_cp, L_cpp):
        return SystemConfig(N=8, M=4, f_c=28e9, delta_f=30e3, L_cp=L_cp, L_cpp=L_cpp,
                            c1=0.0, N1=8, N2=1)

    cfg(4, 4)
    with pytest.raises(ValueError):
        cfg(8, 4)
    with pytest.raises(ValueError):
        cfg(4, -1)
    with pytest.raises(ValueError):
        cfg(4, 8)
    # in range but unequal: the superimposed frames would not align
    with pytest.raises(ValueError, match="align"):
        cfg(2, 3)


def test_shift_factor_validation():
    assert shift_factor(256, default_c1(2, 256)) == 5
    with pytest.raises(ValueError):
        shift_factor(256, 0.001)
    with pytest.raises(ValueError):
        default_c1(-1, 16)
