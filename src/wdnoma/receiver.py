"""Uplink receiver on plain arrays: the transmit-domain equivalent channel,
noise power estimation (NPE) and MMSE detection. A waveform enters only
through its entry in ``waveforms.TRANSFORMS``: its unitary transforms T^H
and T, what its modulator and demodulator apply besides the prefix, and
whether the prefix is chirp-periodic. The sense sweep rebuilds and cancels
the detected uplink with the transmitter that sent it
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
from its per-delay tap vectors, each extended cyclically so that every shift
by a delay is a slice, and then gathered to the channel's systems. Each
system keeps its last b unknowns as a border, which holds every wrapped
(corner) entry, so its leading (N - b) x (N - b) block is a plain Hermitian
band. The leading blocks of all systems of a call lie side by side in one
block-diagonal band with zero coupling, factored by one LAPACK banded
Cholesky (``pbtrf``) and solved by one triangular band solve (``tbtrs``)
per direction; the b x b Schur complements are solved as one batch. Both
routines work column by column, and a zero coupling entry only adds an
exact zero to an update, so every block gets the operations, in the order,
it gets when solved alone: the batch is bit for bit a loop of single
solves, in O(b^2 N) work per system. One b per call is why the channels of
a call must share their delays.

Slabs. ``mmse_detect`` solves its channels in slabs: runs of consecutive
channels whose systems hold at most _SLAB samples (systems times N), and
one channel at least. Each slab runs the whole solve above, from T^H to T,
and writes its rows of the one solution array. Systems are independent and
a stacked solve is bit for bit a loop of single solves, so slabs change no
solution; they bound the working memory of a call, however many SNR
points and channels it takes. _SLAB = 6144 samples is 24 systems at
N = 256 and 6 at N = 1024, so that a 4-trial, 4-point block of one desk
sense mode (16 systems) and the paper-scale 5-mode trial (5 systems) are
one slab each. In a slab-size sweep on a 2-vCPU Xeon (4 MiB L2), 2048
samples ran slower on every sweep shape, and 4096 to 16384 alike within
the noise. Peak RSS of a 4-trial, 4-point desk BER loop grew with the slab
(46.4 MB for one call per SNR point; 47.0, 47.2, 47.8 and 49.4 MB at 5120,
6144, 8192 and 16384 samples). At 5120 that block takes 5 slabs instead
of 4, and its solve took 5.85 ms against 5.97 ms for its four per-point
calls and 5.47 ms at 6144.

Work arrays. Every large array of the solve (the tap stack, the bands, the
right-hand sides, the factor, the Schur terms and the time-domain
solutions) is a view of one of six per-thread buffers, each grown to the
largest slab seen and reused by every later slab and call, so steady
sweeps map no new pages; threads never share one. The arrays formed after
the bands reuse the buffers of those that are dead by then. Only the
solution array returned is fresh. The buffers hold about 1 MB for 20 desk
systems and at most 1.4 MB for any call at N = 256 or 1024 (a whole
320-system call would take 15.4 MB at N = 256 and 62 MB at N = 1024).
They stay because they pay: fresh arrays in every call gave the same
solutions bit for bit, but lost 14 % of the benchmark's ber-desk and 16 %
of its ber-paper trials per second (7 pairs each, none won).

LAPACK. ``pbtrf`` and ``tbtrs`` are scipy's wrappers ``zpbtrf`` and
``ztbtrs`` in its compiled module ``scipy.linalg._flapack``, the module
behind ``scipy.linalg.get_lapack_funcs``. After a plain ``import scipy``,
which runs scipy's own loader set-up, ``_load_flapack`` loads that module
from its file: 3-6 ms and 2.6 MB. Importing the ``scipy.linalg`` package
instead takes about 0.3 s and 27 MB, mostly scipy's array-API layer, which
every CLI run, benchmark process and forked pool worker would pay for two
routines. The module is not kept in ``sys.modules``, so a later
``import scipy.linalg`` loads it the usual way and hands out the very same
routine objects. They run in scipy's own LAPACK library, not numpy's
BLAS; the run manifest records both.

Every pinned curve comes from this formulation. Squaring H squares its
condition number, but in every sweep mode sigma2 stays bounded away from
zero: noise at SNR <= 35 dB plus the echo at -20 dB. So
cond(H^H H + sigma2 I) <= (s_max^2 + sigma2) / sigma2 stays bounded, where
s_max is the largest singular value of H. Exactness on noiseless chains,
where sigma2 -> 0 and a near-singular H matters, is checked against the
stacked least-squares oracle in the tests, not by this solver.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np
import scipy

from .channel import PathSet
from .transforms import cpp_prefix_phases
from .waveforms import TRANSFORMS, SystemConfig


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
        transform = TRANSFORMS[self.waveform]
        cols = transform.to_time(np.eye(self.cfg.N), self.cfg)     # row k: column k of T^H
        rotated = sum(t * np.roll(cols, l, axis=-1) for l, t in zip(self.delays, self.taps))
        return transform.from_time(rotated, self.cfg).T


def estimate_noise_power(d: np.ndarray, layout):
    """Mean squared magnitude of the demodulated frame(s) over the
    leakage-free NPE window, along the last axis."""
    window = layout.npe_window
    if window.size == 0:
        raise ValueError("NPE window is empty")
    # take() keeps each row contiguous, so a stack of frames is summed in
    # the same order as each frame alone
    return np.mean(np.abs(d.take(window, axis=-1)) ** 2, axis=-1)


def _integer_bin(doppler_norm: float, N: int, frame_len: int) -> int:
    raw = doppler_norm * N / frame_len
    kappa = int(round(raw))
    if abs(raw - kappa) > 1e-9:
        raise ValueError(f"Doppler of {raw} bins is not an integer; the equivalent "
                         "channel is built for integer Doppler bins only")
    return kappa


@lru_cache(maxsize=256)
def _tap_phases(N: int, prefix: int, delay: int, kappa: int) -> np.ndarray:
    """Unit-gain tap of a (delay, kappa) path: core sample i receives frame
    sample prefix + i - delay times e^{-j 2 pi kappa (prefix + i - delay) / N};
    cached per argument tuple, so read-only."""
    src = prefix + np.arange(N) - delay
    v = np.exp(-2j * np.pi * (kappa * src % N) / N)
    v.flags.writeable = False
    return v


def build_equivalent_channel(ch: PathSet, cfg: SystemConfig, waveform: str) -> EquivalentChannel:
    """N x N transmit-domain equivalent channel demod(channel(mod(.))).

    What is built, in O(P N), is the time-domain factor H_t as one tap
    vector per distinct delay: core sample i receives
    h e^{-j 2 pi kappa (L + i - l) / N} times sample (i - l) mod N, weighted
    by the prefix phase when i < l and the waveform's prefix is
    chirp-periodic (AFDM). Path delays must fit inside the prefix and
    Doppler must sit on an integer bin; paths sharing a delay are summed.
    """
    if waveform not in TRANSFORMS:
        raise ValueError(f"unknown waveform {waveform!r}")
    N, prefix = cfg.N, cfg.L_cp
    if ch.max_delay > prefix:
        raise ValueError(f"path delay {ch.max_delay} exceeds the prefix length {prefix}")
    if ch.frame_len != N + prefix:
        raise ValueError(f"channel frame length {ch.frame_len} != N + prefix = {N + prefix}")
    delays = tuple(sorted({p.delay_samples for p in ch.paths}))
    taps = np.zeros((len(delays), N), dtype=np.complex128)
    for p in ch.paths:
        l = p.delay_samples
        val = p.gain * _tap_phases(N, prefix, l, _integer_bin(p.doppler_norm, N, ch.frame_len))
        if l and TRANSFORMS[waveform].chirp_prefix:     # core samples i < l read the prefix
            val[:l] *= cpp_prefix_phases(N, prefix, cfg.chirp.c1)[prefix - l:]
        taps[delays.index(l)] += val
    return EquivalentChannel(cfg=cfg, waveform=waveform, delays=delays, taps=taps)


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from their file without importing the ``scipy.linalg`` package."""
    name = "scipy.linalg._flapack"
    base = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    path = next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)
    if path is None:
        missing = base + EXTENSION_SUFFIXES[0]
        raise ImportError(f"scipy's LAPACK wrappers are missing: no {missing}",
                          name=name, path=missing)
    imported = name in sys.modules
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    if not imported:
        # a single-phase extension enters itself in sys.modules; left there
        # without its package, a later import of scipy.linalg would not set
        # the package's _flapack attribute
        sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
_pbtrf, _tbtrs = _flapack.zpbtrf, _flapack.ztbtrs

_work = threading.local()       # each thread's work arrays, see _work_array
_SLAB = 6 << 10                 # samples (systems x N) per slab of mmse_detect; see "Slabs" above


def _work_array(name: str, shape) -> np.ndarray:
    """A complex work array of ``shape`` with undefined contents: a view of
    this thread's buffer ``name``, which grows to the largest size asked for
    and serves every later call, so steady calls map no new pages. No view
    of it may outlive the call that asked for it."""
    size = math.prod(shape)
    buf = getattr(_work, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.complex128)
        setattr(_work, name, buf)
    return buf[:size].reshape(shape)


def _gather(src, owner, axis: int, via: str, into: str) -> np.ndarray:
    """np.take(src, owner, axis) in the work array ``into``, which may be the
    buffer src views. np.take copies a non-contiguous source to a fresh
    array, so src is first copied to the work array ``via``."""
    flat = _work_array(via, src.shape)
    flat[...] = src
    shape = src.shape[:axis] + (len(owner),) + src.shape[axis + 1:]
    return np.take(flat, owner, axis=axis, out=_work_array(into, shape), mode="clip")


def _solve_stacked(channels, y, owner, s2) -> np.ndarray:
    """Solve (H_t^H H_t + s2 I) z = H_t^H y for each system s, whose channel
    (H_t and the row of y) is owner[s]; returns the (S, N) solutions in the
    buffer of y. y is the work array "y", each row extended cyclically by
    the largest delay l_D, so that a shift by a delay is a slice.

    band[b - o, c, k] = A0[k - o, k] holds the Gram band of channel c, and
    ab[s, k, b - o] the leading block of system s; read as one
    (b + 1, S n) Fortran array, ab holds the blocks side by side with no
    coupling. rb[0, c] = H_t^H y and rb[1 + j, c, i] = A0[i, n + j], the
    border columns of channel c. Once the bands and right-hand sides are
    formed, the solve's arrays reuse the buffers of the taps, their
    products and y, and each gather lands in the buffer of its source.
    """
    delays, C, S = channels[0].delays, len(channels), s2.size
    D, N = len(delays), y.shape[-1] - delays[-1]
    b = delays[-1] - delays[0]
    n = N - b
    # taps[c, q, i] = H_t[i, i - l_q], i cyclic, and one conj for band and right-hand side
    taps = _work_array("taps", (C, D, N + delays[-1]))
    np.stack([H.taps for H in channels], out=taps[..., :N])
    taps[..., N:] = taps[..., :delays[-1]]
    taps_c = np.conjugate(taps, out=_work_array("taps_c", taps.shape))
    prod = _work_array("prod", (C, N))
    # upper half of H_t^H H_t: A0[j, (j + o) mod N] sums, over the delay pairs
    # (a, q) with l_a - l_q = o >= 0, conj(taps[a, j + l_a]) taps[q, j + l_a]
    band = _work_array("band", (b + 1, C, N + b))
    band.fill(0)
    for a, la in enumerate(delays):
        for q, lq in enumerate(delays[:a + 1]):
            band[b - la + lq, :, la - lq:la - lq + N] += np.multiply(
                taps_c[:, a, la:la + N], taps[:, q, la:la + N], out=prod)
    rb = _work_array("rhs", (b + 1, C, N))
    rb.fill(0)
    for q, l in enumerate(delays):
        rb[0] += np.multiply(taps_c[:, q, l:l + N], y[:, l:l + N], out=prod)
    # border columns rb[1 + j] = A0[:, k], k = n + j: each offset o >= 0, in the
    # order first seen, adds A0[k - o, k], then A0[k + o, k] = conj(A0[k, k + o]),
    # rows cyclic; when 2b >= N the terms of o and N - o meet on one entry in that order
    k = np.arange(n, N)
    for o in dict.fromkeys(la - lq for a, la in enumerate(delays) for lq in delays[:a + 1]):
        rows = (k - o) % N
        rb[1 + k - n, :, rows] += band[b - o, :, rows + o]
        if o:
            rb[1 + k - n, :, (k + o) % N] += band[b - o, :, k + o].conj()
    ab = _gather(band[..., :n].transpose(1, 2, 0), owner, 0, via="taps", into="band")
    # the diagonal sums conj(t) t, whose imaginary part t_r t_i - t_i t_r is +0
    ab[:, :, b].real += s2[:, None]
    c, info = _pbtrf(ab.reshape(S * n, b + 1).T, overwrite_ab=1)    # A11 = U^H U
    if info > 0:      # a leading minor is not positive definite
        raise np.linalg.LinAlgError(f"singular MMSE system at sigma2 = {s2[(info - 1) // n]}")
    # U^{-H} [rhs_1, A12] in one triangular band solve; the Schur complement
    # is then A22 + s2 I - W^H W
    tail = rb[:, owner, n:]
    head = _gather(rb[..., :n], owner, 1, via="taps", into="rhs")
    w = _tbtrs(c, head.reshape(b + 1, S * n).T, trans="C", overwrite_b=1)[0].T.reshape(head.shape)
    w1, W = w[0, :, :, None], w[1:].transpose(1, 2, 0)
    Wh = np.conjugate(W, out=_work_array("taps_c", (b, S, n)).transpose(1, 2, 0))
    Wh = Wh.transpose(0, 2, 1)
    x2 = np.linalg.solve(tail[1:].transpose(1, 2, 0) + s2[:, None, None] * np.eye(b) - Wh @ W,
                         tail[0, :, :, None] - Wh @ w1)
    v = np.matmul(W, x2, out=_work_array("prod", (S, n, 1)))
    x1, _ = _tbtrs(c, np.subtract(w1, v, out=v).reshape(S * n, 1), overwrite_b=1)
    z = _work_array("y", (S, N))
    z[:, :n], z[:, n:] = x1.reshape(S, n), x2[:, :, 0]
    return z


def _slabs(bounds, N: int):
    """(lo, hi) of each slab of a call whose channel c owns the systems
    bounds[c]:bounds[c + 1]: from each lo, the longest run of channels whose
    systems hold at most _SLAB samples, and one channel at least."""
    lo, C = 0, len(bounds) - 1
    while lo < C:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _SLAB // N, side="right")) - 1)
        yield lo, hi
        lo = hi


def _detect_slab(channels, ds, s2, counts, out) -> None:
    """mmse_detect on one slab: channel c of ``channels`` has the row ds[c]
    and the next counts[c] noise variances of ``s2``; ``out`` receives the
    solutions, one row per system."""
    C, N, l_D = len(channels), ds.shape[-1], channels[0].delays[-1]
    bounds = np.cumsum([0] + counts)            # systems of channel i: bounds[i]:bounds[i + 1]
    # maximal runs of consecutive channels that share one transform
    keys = [(H.cfg, H.waveform) for H in channels]
    starts = [i for i in range(C) if i == 0 or keys[i] != keys[i - 1]] + [C]
    runs = [(lo, hi, *keys[lo]) for lo, hi in zip(starts, starts[1:])]
    y = _work_array("y", (C, N + l_D))
    for lo, hi, cfg, waveform in runs:
        y[lo:hi, :N] = TRANSFORMS[waveform].to_time(ds[lo:hi], cfg)
    y[:, N:] = y[:, :l_D]
    z = _solve_stacked(channels, y, np.repeat(np.arange(C), counts), s2)
    for lo, hi, cfg, waveform in runs:
        rows = slice(bounds[lo], bounds[hi])
        out[rows] = TRANSFORMS[waveform].from_time(z[rows], cfg)


def mmse_detect(channels, ds, sigma2s) -> np.ndarray:
    """Solve (H^H H + s2 I) x = H^H d for every channel H in ``channels``,
    its received frame d (row of ``ds``) and each s2 in its entry of
    ``sigma2s``; returns the (systems, N) solutions, channel by channel and
    within a channel in the order of its sigma2s.

    All channels must share N and the delay set, so that every system has
    the same band half-width b. The channels are solved in slabs of
    consecutive channels (see the module docstring). In each, every d goes
    to the time domain by T^H, the Gram band of H_t and the right-hand side
    H_t^H T^H d are formed once per channel, all systems are factored and
    solved together, and each solution comes back by T. With s2 = 0 this is
    zero-forcing; an exactly singular system raises LinAlgError.
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
    s2 = np.concatenate(sigma2s, dtype=np.float64)
    if np.any(s2 < 0):
        raise ValueError("noise variances must be non-negative")
    bounds = np.cumsum([0] + counts)
    x = np.empty((bounds[-1], N), dtype=np.complex128)
    for lo, hi in _slabs(bounds, N):
        rows = slice(bounds[lo], bounds[hi])
        _detect_slab(channels[lo:hi], ds[lo:hi], s2[rows], counts[lo:hi], x[rows])
    return x
