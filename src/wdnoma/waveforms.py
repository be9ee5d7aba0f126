"""QAM mapping and the OFDM / AFDM / OTFS modulators.

All three modulators share the pattern prefix(unitary_inverse(x)); their
demodulators are exact inverses over an ideal channel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .transforms import (
    ChirpParams,
    add_cp_samples,
    add_cpp_samples,
    daft_samples,
    dft_samples,
    doppler_dft_samples,
    doppler_idft_samples,
    idaft_samples,
    idft_samples,
)


def check_field_types(obj, off=()) -> None:
    """ValueError unless each ``int`` field of the dataclass ``obj`` holds an
    int (bool is an int subclass, but true/false are not a size) and each
    ``float`` field a finite int or float, or -inf for a dB level named in
    ``off`` (it switches that signal off)."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and type(v) is not int or f.type == "float" and not (
                type(v) in (int, float) and (np.isfinite(v) or f.name in off and v == -np.inf)):
            raise ValueError(f"{f.name} must be a finite {f.type}, got {v!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters shared across the simulator."""

    N: int
    M: int
    f_c: float
    delta_f: float
    L_cp: int
    L_cpp: int          # the AFDM prefix; a config key that must equal L_cp
    chirp: ChirpParams
    N1: int
    N2: int
    echo_power_offset_db: float = -20.0

    def __post_init__(self):
        check_field_types(self, off=("echo_power_offset_db",))
        check_field_types(self.chirp)
        for name in ("N", "f_c", "delta_f"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} = {getattr(self, name)} must be positive")
        if self.N1 * self.N2 != self.N:
            raise ValueError(f"N1*N2 = {self.N1 * self.N2} must equal N = {self.N}")
        m_axis = int(round(np.sqrt(self.M)))
        if m_axis * m_axis != self.M or self.M < 4 or (self.M & (self.M - 1)) != 0:
            raise ValueError(f"M = {self.M} must be a square power of two (4, 16, 64, ...)")
        if not 0 <= self.L_cp < self.N:
            raise ValueError(f"L_cp = {self.L_cp} out of range [0, N)")
        # one prefix length: the AFDM (or OTFS) uplink frame aligns with the OFDM echo
        if self.L_cpp != self.L_cp:
            raise ValueError(f"L_cpp = {self.L_cpp} must equal L_cp = {self.L_cp} "
                             f"so the superimposed frames align")
        # sanity: the chirp must give an integer affine shift factor
        self.chirp.shift_factor(self.N)

    @property
    def sample_rate(self) -> float:
        return self.N * self.delta_f

    @property
    def frame_len_cp(self) -> int:
        return self.N + self.L_cp


# ---------------------------------------------------------------------------
# Gray-coded square QAM
# ---------------------------------------------------------------------------

def _gray_decode(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < b.itemsize * 8:
        b ^= b >> shift
        shift *= 2
    return b


def _gray_encode(b: np.ndarray) -> np.ndarray:
    return b ^ (b >> 1)


def _axis_params(M: int):
    m_axis = int(round(np.sqrt(M)))
    bits_per_axis = int(np.log2(m_axis))
    # unit average symbol energy for square QAM built from two PAM axes
    scale = np.sqrt(2.0 * (M - 1) / 3.0)
    return m_axis, bits_per_axis, scale


def qam_map(bits: np.ndarray, M: int) -> np.ndarray:
    """Gray-coded square M-QAM with unit average symbol energy.

    Bits are consumed per symbol; the first half of each group selects the
    in-phase level, the second half the quadrature level. All-zero bits map
    to the top-right corner point, e.g. (1+1j)/sqrt(2) for QPSK.
    """
    m_axis, bpa, scale = _axis_params(M)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or bits.size % (2 * bpa) != 0:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M) = {2 * bpa}")
    groups = bits.reshape(-1, 2 * bpa)
    weights = 1 << np.arange(bpa - 1, -1, -1, dtype=np.int64)
    gi = groups[:, :bpa] @ weights
    gq = groups[:, bpa:] @ weights
    li = m_axis - 1 - 2 * _gray_decode(gi)
    lq = m_axis - 1 - 2 * _gray_decode(gq)
    return (li + 1j * lq) / scale


def _axis_index(vals: np.ndarray, m_axis: int) -> np.ndarray:
    """Index k of the nearest level m_axis - 1 - 2k of one scaled PAM axis."""
    return np.clip(np.round((m_axis - 1 - vals) / 2.0).astype(np.int64), 0, m_axis - 1)


def qam_demap_hard(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest-point hard decision; exact inverse of qam_map on clean input."""
    m_axis, bpa, scale = _axis_params(M)
    symbols = np.asarray(symbols) * scale

    def axis_bits(vals):
        g = _gray_encode(_axis_index(vals, m_axis))
        return (g[:, None] >> np.arange(bpa - 1, -1, -1)) & 1

    bi = axis_bits(symbols.real)
    bq = axis_bits(symbols.imag)
    return np.concatenate([bi, bq], axis=1).reshape(-1)


def qam_slice(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest constellation point of each symbol, any shape: bit for bit
    ``qam_map(qam_demap_hard(symbols, M), M)``, without the Gray bits."""
    m_axis, _, scale = _axis_params(M)
    symbols = np.asarray(symbols) * scale
    li = m_axis - 1 - 2 * _axis_index(symbols.real, m_axis)
    lq = m_axis - 1 - 2 * _axis_index(symbols.imag, m_axis)
    return (li + 1j * lq) / scale


def constellation(M: int) -> np.ndarray:
    """All M constellation points, indexed by their bit pattern."""
    bpa = int(np.log2(M))
    bits = ((np.arange(M)[:, None] >> np.arange(bpa - 1, -1, -1)) & 1).reshape(-1)
    return qam_map(bits, M)


# ---------------------------------------------------------------------------
# Batched modulator kernels (last-axis layout)
# ---------------------------------------------------------------------------

def ofdm_mod_samples(X: np.ndarray, L_cp: int) -> np.ndarray:
    """IDFT + cyclic prefix; frequency -> time, length N + L_cp."""
    return add_cp_samples(idft_samples(X), L_cp)


def ofdm_demod_samples(r: np.ndarray, L_cp: int) -> np.ndarray:
    return dft_samples(r[..., L_cp:])


def afdm_mod_samples(X: np.ndarray, chirp: ChirpParams, L_cpp: int) -> np.ndarray:
    """IDAFT + chirp-periodic prefix; affine -> time, length N + L_cpp."""
    return add_cpp_samples(idaft_samples(X, chirp), L_cpp, chirp.c1)


def afdm_demod_samples(r: np.ndarray, chirp: ChirpParams, L_cpp: int) -> np.ndarray:
    return daft_samples(r[..., L_cpp:], chirp)


def otfs_mod_samples(X: np.ndarray, N1: int, N2: int, L_cp: int) -> np.ndarray:
    """Inverse DFT across the Doppler dimension + cyclic prefix.

    The delay-Doppler vector is delay-major: entry n2*N1 + n1 is delay bin
    n1, Doppler bin n2.
    """
    return add_cp_samples(doppler_idft_samples(X, N1, N2), L_cp)


def otfs_demod_samples(r: np.ndarray, N1: int, N2: int, L_cp: int) -> np.ndarray:
    return doppler_dft_samples(r[..., L_cp:], N1, N2)
