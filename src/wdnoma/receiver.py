"""Uplink receiver on plain arrays: the transmit-domain equivalent channel,
noise power estimation (NPE), MMSE detection, and reconstruction and
cancellation of the detected uplink signal.

The equivalent channel H factors as T H_t T^H, where T is the waveform's
unitary transform (DFT, DAFT, or the DFT across the OTFS Doppler axis) and
H_t is the channel on the N core time samples after prefix removal: one
phase-ramped cyclic delay per path. H_t is what is built and solved with;
H itself is formed densely only on request, for tests and oracles. The
Gram matrix of H_t has its diagonals at the path delay differences only,
whatever the drawn Doppler bins.

MMSE formulation. ``mmse_detect`` solves the normal equations
(H^H H + sigma2 I) x = H^H d, one factorization and solve per sigma2, and
shares the Gram matrix and the right-hand side across the sigma2 values of
one waveform group. It solves them in the time domain,
x = T (H_t^H H_t + sigma2 I)^{-1} H_t^H T^H d, the same equations in a
unitary change of basis. With the distinct path delays l_1 < ... < l_D,
A = H_t^H H_t + sigma2 I is a cyclic band of half-width b = l_D - l_1:
A[j, (j + o) mod N] is nonzero only for |o| <= b, the same for every
Doppler draw. The band is built straight from H_t's per-delay tap vectors,
and the system is solved with the last b unknowns as a border: every
wrapped (corner) entry of A lies in the border rows or columns, so the
leading (N - b) x (N - b) block is a plain Hermitian band, factored by
LAPACK banded Cholesky (``pbtrf``, then triangular band solves with
``tbtrs``), and the b x b Schur complement is solved densely. This is the
natural elimination order, in O(b^2 N) work per sigma2.

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

import numpy as np
from scipy.linalg import get_lapack_funcs

from .channel import PathSet, apply_dd_channel_samples
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
        to_time, from_time = _mod_demod_fns(self.cfg, self.waveform, prefixed=False)
        cols = to_time(np.eye(self.cfg.N))      # row k: column k of T^H
        rotated = sum(t * np.roll(cols, l, axis=-1) for l, t in zip(self.delays, self.taps))
        return from_time(rotated).T


def estimate_noise_power(d: np.ndarray, layout) -> float:
    """Mean squared magnitude of the demodulated frame over the
    leakage-free NPE window."""
    window = layout.npe_window
    if window.size == 0:
        raise ValueError("NPE window is empty")
    return float(np.mean(np.abs(d[window]) ** 2))


def _mod_demod_fns(cfg: SystemConfig, waveform: str, prefixed: bool = True):
    """The waveform's modulator and demodulator; without the prefix they are
    the unitary transforms T^H and T."""
    L_cp, L_cpp = (cfg.L_cp, cfg.L_cpp) if prefixed else (0, 0)
    if waveform == "afdm":
        return (lambda X: afdm_mod_samples(X, cfg.chirp, L_cpp),
                lambda r: afdm_demod_samples(r, cfg.chirp, L_cpp))
    if waveform == "otfs":
        return (lambda X: otfs_mod_samples(X, cfg.N1, cfg.N2, L_cp),
                lambda r: otfs_demod_samples(r, cfg.N1, cfg.N2, L_cp))
    if waveform == "ofdm":
        return (lambda X: ofdm_mod_samples(X, L_cp),
                lambda r: ofdm_demod_samples(r, L_cp))
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
    i = np.arange(N)
    for p in ch.paths:
        kappa = _integer_bin(p.doppler_norm, N, ch.frame_len)
        l = p.delay_samples
        src = prefix + i - l          # frame index of the sample core sample i receives
        val = p.gain * np.exp(-2j * np.pi * (kappa * src % N) / N)
        val[:l] *= prefix_phase[src[:l]]
        taps[delays.index(l)] += val
    return EquivalentChannel(cfg=cfg, waveform=waveform, delays=delays, taps=taps)


_pbtrf, _tbtrs = get_lapack_funcs(("pbtrf", "tbtrs"), dtype=np.complex128)


def _gram_band(delays: tuple, taps: np.ndarray) -> dict:
    """Upper half of H_t^H H_t as {o >= 0: v} with entry [j, (j + o) mod N]
    = v[j], summed over the delay pairs with l_a - l_c = o."""
    band = {}
    for a, la in enumerate(delays):
        # pairs (a, c <= a): the delays are ascending, so l_a - l_c >= 0
        rolled = np.roll(taps[a].conj() * taps[:a + 1], -la, axis=1)
        for lc, v in zip(delays, rolled):
            band[la - lc] = band.get(la - lc, 0) + v
    return band


def _solve_band_with_border(band: dict, rhs: np.ndarray, sigma2s) -> list:
    """Solve (A0 + s2 I) x = rhs for each s2, A0 the Hermitian cyclic band
    whose upper half is ``band``.

    The last b unknowns (b the half-width) form the border. The leading
    n = N - b block holds no wrapped entry, so it is a plain band with
    half-width b, factored by banded Cholesky; the b x b Schur complement
    is solved densely. For b = 0 the border is empty.
    """
    N = rhs.size
    b = max(band)
    n = N - b
    # upper band storage of the leading block: ab[b - o, k] = A0[k - o, k]
    ab = np.zeros((b + 1, n), dtype=np.complex128)
    for o, v in band.items():
        ab[b - o, o:] = v[:max(n - o, 0)]
    # the border columns A0[:, n:]; with 2b >= N several offsets share an entry
    border = np.zeros((N, b), dtype=np.complex128)
    k = np.arange(n, N)
    for o, v in band.items():
        rows = (k - o) % N
        border[rows, k - n] += v[rows]              # A0[k - o, k]
        if o:
            border[(k + o) % N, k - n] += v[k].conj()   # A0[k + o, k] = conj(A0[k, k + o])
    A12, A22 = border[:n], border[n:]
    out = []
    for s2 in sigma2s:
        a = ab.copy()
        a[b] += s2
        c, info = _pbtrf(a, overwrite_ab=1)      # A11 = U^H U
        if info > 0:      # a leading minor is not positive definite
            raise np.linalg.LinAlgError(f"singular MMSE system at sigma2 = {s2}")
        # U^{-H} [rhs_1, A12] in one triangular band solve; the Schur
        # complement is then A22 + s2 I - W^H W
        w, _ = _tbtrs(c, np.column_stack((rhs[:n], A12)), trans="C")
        w1, W = w[:, 0], w[:, 1:]
        x2 = np.linalg.solve(A22 + s2 * np.eye(b) - W.conj().T @ W, rhs[n:] - W.conj().T @ w1)
        x1, _ = _tbtrs(c, (w1 - W @ x2)[:, None])
        out.append(np.concatenate((x1[:, 0], x2)))
    return out


def mmse_detect(H: EquivalentChannel, d: np.ndarray, sigma2s) -> list:
    """Solve (H^H H + s2 I) x = H^H d for each s2 in ``sigma2s``.

    The equations are solved through H's time-domain factor H_t: d goes to
    the time domain by T^H, the Gram band of H_t and the right-hand side
    H_t^H T^H d are formed once, each s2 gets one banded Cholesky
    factorization and solve, and each solution comes back by T. With s2 = 0
    this is zero-forcing; an exactly singular system raises LinAlgError.
    """
    N = H.cfg.N
    if d.shape != (N,):
        raise ValueError(f"signal length {d.shape} does not match the {N}x{N} channel")
    if any(s2 < 0 for s2 in sigma2s):
        raise ValueError("noise variances must be non-negative")
    to_time, from_time = _mod_demod_fns(H.cfg, H.waveform, prefixed=False)
    y = to_time(d)
    rhs = sum(np.roll(t.conj() * y, -l) for l, t in zip(H.delays, H.taps))
    return [from_time(z) for z in _solve_band_with_border(_gram_band(H.delays, H.taps),
                                                          rhs, sigma2s)]


def reconstruct_and_cancel(r: np.ndarray, ch: PathSet, x_hat: np.ndarray,
                           layout, cfg: SystemConfig, waveform: str = "afdm") -> np.ndarray:
    """Rebuild the uplink frame from hard-decided data and subtract it.

    The symbols go to the layout's data bins and the guards are re-embedded
    as zeros (they were transmitted as zeros); the frame is then modulated
    with ``waveform`` and pushed through the uplink channel ``ch``.
    """
    frame = np.zeros(cfg.N, dtype=np.complex128)
    frame[layout.data] = x_hat
    mod, _ = _mod_demod_fns(cfg, waveform)
    return r - apply_dd_channel_samples(mod(frame), ch)
