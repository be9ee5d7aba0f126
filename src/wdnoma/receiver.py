"""Uplink receiver on plain arrays: the transmit-domain equivalent channel,
noise power estimation (NPE) and MMSE detection. The waveforms enter only
through their unitary transforms T^H and T; the sense sweep rebuilds and
cancels the detected uplink with the transmitter that sent it
(``harness._transmit``).

The equivalent channel H factors as T H_t T^H, where T is the waveform's
unitary transform (DFT, DAFT, or the DFT across the OTFS Doppler axis) and
H_t is the channel on the N core time samples after prefix removal: one
phase-ramped cyclic delay per path. H_t is what is built and solved with;
H itself is formed densely only on request, for tests and oracles. The
Gram matrix of H_t has its diagonals at the path delay differences only,
whatever the drawn Doppler bins.

MMSE formulation. ``mmse_detect`` solves the normal equations
(H^H H + sigma2 I) x = H^H d of many (channel, sigma2) systems in one call,
in the time domain: x = T (H_t^H H_t + sigma2 I)^{-1} H_t^H T^H d, the same
equations in a unitary change of basis. With the distinct path delays
l_1 < ... < l_D, A = H_t^H H_t + sigma2 I is a cyclic band of half-width
b = l_D - l_1: A[j, (j + o) mod N] is nonzero only for |o| <= b, the same
for every Doppler draw. The band and H_t^H T^H d are built once per channel
from its per-delay tap vectors. Each system keeps its last b unknowns as a
border, which holds every wrapped (corner) entry, so its leading
(N - b) x (N - b) block is a plain Hermitian band. The leading blocks of
all systems of a call lie side by side in one block-diagonal band with zero
coupling, factored by one LAPACK banded Cholesky (``pbtrf``) and solved by
one triangular band solve (``tbtrs``) per direction; the b x b Schur
complements are solved as one batch. Both routines work column by column,
and a zero coupling entry only adds an exact zero to an update, so every
block gets the operations, in the order, it gets when solved alone: the
batch is bit for bit a loop of single solves, in O(b^2 N) work per system.
One b per call is why the channels of a call must share their delays.

Every pinned curve comes from this formulation. Squaring H squares its
condition number, but in every sweep mode sigma2 stays bounded away from
zero: noise at SNR <= 35 dB plus the echo at -20 dB. So
cond(H^H H + sigma2 I) <= (s_max^2 + sigma2) / sigma2 stays bounded, where
s_max is the largest singular value of H. Exactness on noiseless chains,
where sigma2 -> 0 and a near-singular H matters, is checked against the
stacked least-squares oracle in the tests, not by this solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .channel import PathSet
from .transforms import cpp_prefix_phases
from .waveforms import (
    SystemConfig,
    afdm_demod_samples,
    afdm_mod_samples,
    ofdm_demod_samples,
    ofdm_mod_samples,
    otfs_demod_samples,
    otfs_mod_samples,
)


@dataclass(frozen=True)
class EquivalentChannel:
    """Transform-domain equivalent channel H = T H_t T^H of one waveform."""

    cfg: SystemConfig
    waveform: str
    delays: tuple        # distinct path delays, ascending
    taps: np.ndarray     # (len(delays), N): H_t[i, (i - delays[q]) mod N] = taps[q, i]

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of H, for tests and oracles."""
        to_time, from_time = _mod_demod_fns(self.cfg, self.waveform)
        cols = to_time(np.eye(self.cfg.N))      # row k: column k of T^H
        rotated = sum(t * np.roll(cols, l, axis=-1) for l, t in zip(self.delays, self.taps))
        return from_time(rotated).T


def estimate_noise_power(d: np.ndarray, layout):
    """Mean squared magnitude of the demodulated frame(s) over the
    leakage-free NPE window, along the last axis."""
    window = layout.npe_window
    if window.size == 0:
        raise ValueError("NPE window is empty")
    # take() keeps each row contiguous, so a stack of frames is summed in
    # the same order as each frame alone
    return np.mean(np.abs(d.take(window, axis=-1)) ** 2, axis=-1)


def _mod_demod_fns(cfg: SystemConfig, waveform: str):
    """The waveform's unitary transforms T^H and T: its modulator and
    demodulator without the prefix."""
    if waveform == "afdm":
        return (lambda X: afdm_mod_samples(X, cfg.chirp, 0),
                lambda r: afdm_demod_samples(r, cfg.chirp, 0))
    if waveform == "otfs":
        return (lambda X: otfs_mod_samples(X, cfg.N1, cfg.N2, 0),
                lambda r: otfs_demod_samples(r, cfg.N1, cfg.N2, 0))
    if waveform == "ofdm":
        return (lambda X: ofdm_mod_samples(X, 0),
                lambda r: ofdm_demod_samples(r, 0))
    raise ValueError(f"unknown waveform {waveform!r}")


def _integer_bin(doppler_norm: float, N: int, frame_len: int) -> int:
    raw = doppler_norm * N / frame_len
    kappa = int(round(raw))
    if abs(raw - kappa) > 1e-9:
        raise ValueError(f"Doppler of {raw} bins is not an integer; the equivalent "
                         "channel is built for integer Doppler bins only")
    return kappa


def _prefix_length(ch: PathSet, cfg: SystemConfig, waveform: str) -> int:
    if waveform not in ("afdm", "otfs", "ofdm"):
        raise ValueError(f"unknown waveform {waveform!r}")
    N = cfg.N
    prefix = cfg.L_cpp if waveform == "afdm" else cfg.L_cp
    if ch.max_delay > prefix:
        raise ValueError(f"path delay {ch.max_delay} exceeds the prefix length {prefix}")
    if ch.frame_len != N + prefix:
        raise ValueError(f"channel frame length {ch.frame_len} != N + prefix = {N + prefix}")
    return prefix


@lru_cache(maxsize=256)
def _tap_phases(N: int, prefix: int, delay: int, kappa: int) -> np.ndarray:
    """Unit-gain tap of a (delay, kappa) path: core sample i receives frame
    sample prefix + i - delay times e^{-j 2 pi kappa (prefix + i - delay) / N};
    cached per argument tuple, so read-only."""
    src = prefix + np.arange(N) - delay
    v = np.exp(-2j * np.pi * (kappa * src % N) / N)
    v.flags.writeable = False
    return v


def build_equivalent_channel(ch: PathSet, cfg: SystemConfig, waveform: str = "afdm") -> EquivalentChannel:
    """N x N transmit-domain equivalent channel demod(channel(mod(.))).

    What is built, in O(P N), is the time-domain factor H_t as one tap
    vector per distinct delay: core sample i receives
    h e^{-j 2 pi kappa (L + i - l) / N} times sample (i - l) mod N, weighted
    by the chirp-periodic prefix phase for AFDM when i < l. Path delays must
    fit inside the prefix and Doppler must sit on an integer bin; paths
    sharing a delay are summed.
    """
    N = cfg.N
    prefix = _prefix_length(ch, cfg, waveform)
    prefix_phase = (cpp_prefix_phases(N, prefix, cfg.chirp.c1) if waveform == "afdm"
                    else np.ones(prefix))
    delays = tuple(sorted({p.delay_samples for p in ch.paths}))
    taps = np.zeros((len(delays), N), dtype=np.complex128)
    for p in ch.paths:
        l = p.delay_samples
        val = p.gain * _tap_phases(N, prefix, l, _integer_bin(p.doppler_norm, N, ch.frame_len))
        val[:l] *= prefix_phase[prefix - l:]   # core samples i < l read the prefix
        taps[delays.index(l)] += val
    return EquivalentChannel(cfg=cfg, waveform=waveform, delays=delays, taps=taps)


_pbtrf, _tbtrs = get_lapack_funcs(("pbtrf", "tbtrs"), dtype=np.complex128)


def _solve_stacked(channels, y, owner, s2) -> np.ndarray:
    """Solve (H_t^H H_t + s2 I) z = H_t^H y for each system s, whose channel
    (H_t and y) is owner[s]; returns the (S, N) solutions. ab[s, k, b - o] =
    A[k - o, k] stores the leading blocks; read as one (b + 1, S n) Fortran
    array it holds them side by side with no coupling. rb[0, c] = H_t^H y and
    rb[1 + j, c, i] = A0[i, n + j], the border columns of channel c.
    """
    delays, N = channels[0].delays, y.shape[-1]
    taps = np.stack([H.taps for H in channels])             # (C, D, N)
    # upper half of H_t^H H_t: entry [j, (j + o) mod N] = band[o][:, j],
    # summed over the delay pairs with l_a - l_c = o >= 0
    band = {}
    for a, la in enumerate(delays):
        conj_a = taps[:, a].conj()
        for q, lc in enumerate(delays[:a + 1]):
            band[la - lc] = band.get(la - lc, 0) + np.roll(conj_a * taps[:, q], -la, axis=-1)
    b = max(band)
    n = N - b
    S = s2.size
    rb = np.zeros((b + 1, len(channels), N), dtype=np.complex128)
    rb[0] = sum(np.roll(taps[:, q].conj() * y, -l, axis=-1) for q, l in enumerate(delays))
    del taps, conj_a, y     # free each array once used: the per-system ones are larger
    # with 2b >= N several offsets share a border entry
    k = np.arange(n, N)
    for o, v in band.items():
        rows = (k - o) % N
        rb[1 + k - n, :, rows] += v[:, rows].T                  # A0[k - o, k]
        if o:   # A0[k + o, k] = conj(A0[k, k + o])
            rb[1 + k - n, :, (k + o) % N] += v[:, k].T.conj()
    ab = np.zeros((S, n, b + 1), dtype=np.complex128)
    for o, v in band.items():
        ab[:, o:, b - o] = v[owner, :max(n - o, 0)]
    ab[:, :, b] += s2[:, None]
    del band, v
    c, info = _pbtrf(ab.reshape(S * n, b + 1).T, overwrite_ab=1)    # A11 = U^H U
    if info > 0:      # a leading minor is not positive definite
        raise np.linalg.LinAlgError(f"singular MMSE system at sigma2 = {s2[(info - 1) // n]}")
    # U^{-H} [rhs_1, A12] in one triangular band solve; the Schur complement
    # is then A22 + s2 I - W^H W
    head, tail = np.take(rb[..., :n], owner, axis=1), rb[:, owner, n:]
    del rb
    w = _tbtrs(c, head.reshape(b + 1, S * n).T, trans="C", overwrite_b=1)[0].T.reshape(head.shape)
    w1, W = w[0, :, :, None], w[1:].transpose(1, 2, 0)
    Wh = W.conj().transpose(0, 2, 1)
    x2 = np.linalg.solve(tail[1:].transpose(1, 2, 0) + s2[:, None, None] * np.eye(b) - Wh @ W,
                         tail[0, :, :, None] - Wh @ w1)
    del Wh
    x1, _ = _tbtrs(c, (w1 - W @ x2).reshape(S * n, 1), overwrite_b=1)
    return np.concatenate((x1.reshape(S, n), x2[:, :, 0]), axis=1)


def mmse_detect(channels, ds, sigma2s) -> list:
    """Solve (H^H H + s2 I) x = H^H d for every channel H in ``channels``,
    its received frame d (row of ``ds``) and each s2 in its entry of
    ``sigma2s``; returns one (len(sigma2s[c]), N) array of solutions per
    channel.

    All channels must share N and the delay set, so that every system has
    the same band half-width b. Each d goes to the time domain by T^H, the
    Gram band of H_t and the right-hand side H_t^H T^H d are formed once
    per channel, all systems are factored and solved together (see the
    module docstring), and each solution comes back by T. With s2 = 0 this
    is zero-forcing; an exactly singular system raises LinAlgError.
    """
    C = len(channels)
    N, delays = channels[0].cfg.N, channels[0].delays
    if any(H.cfg.N != N or H.delays != delays for H in channels):
        raise ValueError("the channels of one call must share N and the delay set")
    ds = np.asarray(ds)
    if ds.shape != (C, N) or len(sigma2s) != C:
        raise ValueError(f"{C} {N}x{N} channels need {C} signals of length {N} and "
                         f"{C} lists of noise variances, got signals of shape {ds.shape}")
    counts = [len(s) for s in sigma2s]
    s2 = np.array([s for ss in sigma2s for s in ss], dtype=np.float64)
    if np.any(s2 < 0):
        raise ValueError("noise variances must be non-negative")
    bounds = np.cumsum([0] + counts)            # systems of channel i: bounds[i]:bounds[i + 1]
    # maximal runs of consecutive channels that share one transform
    keys = [(H.cfg, H.waveform) for H in channels]
    starts = [i for i in range(C) if i == 0 or keys[i] != keys[i - 1]] + [C]
    runs = [(lo, hi, *_mod_demod_fns(*keys[lo]))
            for lo, hi in zip(starts, starts[1:])]
    y = [to_time(ds[lo:hi]) for lo, hi, to_time, _ in runs]
    z = _solve_stacked(channels, np.concatenate(y), np.repeat(np.arange(C), counts), s2)
    x = np.concatenate([from_time(z[bounds[lo]:bounds[hi]]) for lo, hi, _, from_time in runs])
    return np.split(x, bounds[1:-1])

