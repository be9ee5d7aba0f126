"""QAM mapping, the OFDM / AFDM / OTFS modulators and their transform table.

All three modulators share the pattern prefix(unitary_inverse(x)); their
demodulators are exact inverses over an ideal channel.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .transforms import (
    add_cp_samples,
    add_cpp_samples,
    daft_samples,
    dft_samples,
    doppler_dft_samples,
    doppler_idft_samples,
    idaft_samples,
    idft_samples,
    shift_factor,
)


_EXPECTED = {int: "an integer", float: "a number", str: "a string"}
_field_types = lru_cache(maxsize=None)(get_type_hints)


def _canonical(value, hint, where: str, off: bool):
    """``value`` in the form of its annotation ``hint``: an int; a finite int
    or float as a float (or -inf, if ``off``); a string; a non-empty list of
    these as a tuple. Else a ValueError "where: expected ...": true/false are neither
    sizes nor numbers, though bool is an int subclass."""
    if get_origin(hint) is tuple:
        items = get_args(hint)
        n = None if items[-1] is Ellipsis else len(items)
        if not isinstance(value, (list, tuple)) or n not in (None, len(value)) or not value:
            raise ValueError(f"{where}: expected a list of {n or 'one or more'}, got {value!r}")
        return tuple(_canonical(v, items[0], where, off) for v in value)
    if type(value) not in ((int, float) if hint is float else (hint,)):
        raise ValueError(f"{where}: expected {_EXPECTED.get(hint, hint.__name__)}, got {value!r}")
    if hint is float and not (abs(value) <= sys.float_info.max or off and value == -np.inf):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if hint is float else value


def _field(where: str, convert, value):
    """``convert(value)``, raising a ValueError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def check_fields(obj, section: str, off=()) -> None:
    """Store each field of the dataclass ``obj`` in its annotation's form
    (``_canonical``), a bad one named "section.field"; the float fields in
    ``off`` are dB levels that -inf switches off."""
    for name, hint in _field_types(type(obj)).items():
        value = getattr(obj, name)
        object.__setattr__(obj, name, _canonical(value, hint, f"{section}.{name}", name in off))


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters shared across the simulator."""

    N: int
    M: int
    f_c: float
    delta_f: float
    L_cp: int
    L_cpp: int          # the AFDM prefix; a config key that must equal L_cp
    c1: float           # AFDM chirp rates, cycles per squared sample index
    N1: int
    N2: int
    c2: float = 0.0
    echo_power_offset_db: float = -20.0

    def __post_init__(self):
        check_fields(self, "system", off=("echo_power_offset_db",))
        for name in ("N", "f_c", "delta_f"):
            if getattr(self, name) <= 0:
                raise ValueError(f"system.{name} = {getattr(self, name)} must be positive")
        if self.N1 * self.N2 != self.N:
            raise ValueError(f"system.N1 * N2 = {self.N1 * self.N2} must equal N = {self.N}")
        # 4, 16, ..., 1024 (3GPP NR's largest order): a power of two with an odd bit length;
        # M = 4^15 parsed, then asked _qam_tables for 16-240 GB mid-sweep
        if not 4 <= self.M <= 1024 or self.M & (self.M - 1) or self.M.bit_length() % 2 == 0:
            raise ValueError(f"system.M = {self.M} must be a square power of two from 4 to 1024")
        # bounded like snr_db: at 1e9 dB the echo's amplitude overflowed mid-sweep
        if self.echo_power_offset_db > 100:
            raise ValueError(f"system.echo_power_offset_db = {self.echo_power_offset_db} > 100")
        if not 0 <= self.L_cp < self.N:
            raise ValueError(f"system.L_cp = {self.L_cp} must lie in [0, N = {self.N})")
        # one prefix length: the AFDM (or OTFS) uplink frame aligns with the OFDM echo
        if self.L_cpp != self.L_cp:
            raise ValueError(f"system.L_cpp = {self.L_cpp} must equal L_cp = {self.L_cp} "
                             f"so the superimposed frames align")
        # the chirp must give a non-negative integer affine shift factor
        _field("system.c1", lambda c1: shift_factor(self.N, c1), self.c1)

    @property
    def sample_rate(self) -> float:
        return self.N * self.delta_f

    @property
    def frame_len_cp(self) -> int:
        return self.N + self.L_cp


# ---------------------------------------------------------------------------
# Gray-coded square QAM
# ---------------------------------------------------------------------------

def _axis_params(M: int):
    m_axis = int(round(np.sqrt(M)))
    bits_per_axis = int(np.log2(m_axis))
    # unit average symbol energy for square QAM built from two PAM axes
    scale = np.sqrt(2.0 * (M - 1) / 3.0)
    return m_axis, bits_per_axis, scale


@lru_cache(maxsize=8)
def _qam_tables(M: int):
    """Read-only tables of Gray-coded square M-QAM: by the bits of a symbol
    read as a number, its point; and by the level indices (ki, kq) of its
    axes, at ki m_axis + kq, its point and its bits. Axis level index k is
    the level m_axis - 1 - 2k and carries the Gray code k ^ (k >> 1)."""
    m_axis, bpa, scale = _axis_params(M)
    k = np.arange(m_axis)
    level, gray = m_axis - 1 - 2 * k, k ^ (k >> 1)
    li, lq = np.repeat(level, m_axis), np.tile(level, m_axis)
    points = (li + 1j * lq) / scale
    by_bits = np.empty_like(points)
    by_bits[np.repeat(gray, m_axis) * m_axis + np.tile(gray, m_axis)] = points
    axis_bits = (gray[:, None] >> np.arange(bpa - 1, -1, -1)) & 1
    bits = np.concatenate([np.repeat(axis_bits, m_axis, axis=0), np.tile(axis_bits, (m_axis, 1))],
                          axis=1)
    for a in (by_bits, points, bits):
        a.flags.writeable = False
    return by_bits, points, bits


def qam_map(bits: np.ndarray, M: int) -> np.ndarray:
    """Gray-coded square M-QAM with unit average symbol energy.

    Bits are consumed per symbol; the first half of each group selects the
    in-phase level, the second half the quadrature level. All-zero bits map
    to the top-right corner point, e.g. (1+1j)/sqrt(2) for QPSK.
    """
    n = int(np.log2(M))
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or bits.size % n != 0:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M) = {n}")
    return _qam_tables(M)[0].take(bits.reshape(-1, n) @ (1 << np.arange(n - 1, -1, -1)))


def _levels(symbols, M: int) -> np.ndarray:
    """ki m_axis + kq of the nearest point of each symbol: k is the index of
    the nearest level m_axis - 1 - 2k of each scaled axis."""
    m_axis, _, scale = _axis_params(M)
    symbols = np.asarray(symbols) * scale
    ki, kq = (np.clip(np.round((m_axis - 1 - v) / 2.0).astype(np.int64), 0, m_axis - 1)
              for v in (symbols.real, symbols.imag))
    return ki * m_axis + kq


def qam_demap_hard(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest-point hard decision, the bits of each symbol in turn; exact
    inverse of qam_map on clean input."""
    return _qam_tables(M)[2].take(_levels(symbols, M), axis=0).reshape(-1)


def qam_slice(symbols: np.ndarray, M: int) -> np.ndarray:
    """Nearest constellation point of each symbol, any shape: bit for bit
    ``qam_map(qam_demap_hard(symbols, M), M)``, without the Gray bits."""
    return _qam_tables(M)[1].take(_levels(symbols, M))


def constellation(M: int) -> np.ndarray:
    """All M constellation points, indexed by their bit pattern."""
    return _qam_tables(M)[0].copy()


# ---------------------------------------------------------------------------
# Batched modulator kernels (last-axis layout)
# ---------------------------------------------------------------------------

def ofdm_mod_samples(X: np.ndarray, L_cp: int) -> np.ndarray:
    """IDFT + cyclic prefix; frequency -> time, length N + L_cp."""
    return add_cp_samples(idft_samples(X), L_cp)


def ofdm_demod_samples(r: np.ndarray, L_cp: int) -> np.ndarray:
    return dft_samples(r[..., L_cp:])


def afdm_mod_samples(X: np.ndarray, c1: float, c2: float, L_cpp: int) -> np.ndarray:
    """IDAFT + chirp-periodic prefix; affine -> time, length N + L_cpp."""
    return add_cpp_samples(idaft_samples(X, c1, c2), L_cpp, c1)


def afdm_demod_samples(r: np.ndarray, c1: float, c2: float, L_cpp: int) -> np.ndarray:
    return daft_samples(r[..., L_cpp:], c1, c2)


def otfs_mod_samples(X: np.ndarray, N1: int, N2: int, L_cp: int) -> np.ndarray:
    """Inverse DFT across the Doppler dimension + cyclic prefix.

    The delay-Doppler vector is delay-major: entry n2*N1 + n1 is delay bin
    n1, Doppler bin n2.
    """
    return add_cp_samples(doppler_idft_samples(X, N1, N2), L_cp)


def otfs_demod_samples(r: np.ndarray, N1: int, N2: int, L_cp: int) -> np.ndarray:
    return doppler_dft_samples(r[..., L_cp:], N1, N2)


# waveform -> its unitary transforms T^H (to time) and T, each f(x, system) on
# the last axis: what its modulator and demodulator apply besides the prefix;
# and whether that prefix is chirp-periodic. The receiver reads this table; each
# entry looks its kernel up here when it runs, so a wrapper set on the name sees it
Transform = namedtuple("Transform", "to_time from_time chirp_prefix")
TRANSFORMS = MappingProxyType({
    "afdm": Transform(lambda x, s: idaft_samples(x, s.c1, s.c2),
                      lambda r, s: daft_samples(r, s.c1, s.c2), True),
    "otfs": Transform(lambda x, s: doppler_idft_samples(x, s.N1, s.N2),
                      lambda r, s: doppler_dft_samples(r, s.N1, s.N2), False),
    "ofdm": Transform(lambda x, s: idft_samples(x), lambda r, s: dft_samples(r), False),
})
