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
cyclic delay per path, times the channel's own Doppler ramp
(``channel.doppler_ramp``), so fractional Doppler is exact too. H_t is what
is built and solved with; H itself is formed densely only on request, for
tests and oracles. The Gram matrix of H_t has its diagonals at the path
delay differences only, whatever the Doppler.

MMSE formulation. ``mmse_detect`` solves the normal equations
(H^H H + sigma2 I) x = H^H d of many (channel, sigma2) systems in one call,
in the time domain. It takes each frame as its received core samples y,
the frame without its prefix, whose demodulated frame is d = T y, and
solves x = T (H_t^H H_t + sigma2 I)^{-1} H_t^H y, the same equations in a
unitary change of basis; no frame is demodulated for the solve. With the
distinct path delays l_1 < ... < l_D, A = H_t^H H_t + sigma2 I is a cyclic
band of half-width b = l_D - l_1, the same for every Doppler draw. In the
folded order 0, N - 1, 1, N - 2, ... of the unknowns it is a plain
Hermitian band of half-width kd = min(2b, N - 1), the least any order
gives (Golub & Van Loan, Matrix Computations, 4.3). Its b + 1 diagonals
and H_t^H y are summed once per channel, and a cached plan per (N, b)
gathers the folded band from the diagonals in one layer (two only where
2b >= N puts two cyclic offsets on one entry) and conjugates the entries
below them. The bands of all systems of a call lie side by side in one
block-diagonal band with zero coupling, factored by one LAPACK banded
Cholesky (``pbtrf``) and solved by two one-column band solves (``tbtrs``),
U^H w = H_t^H y and U z = w. Each system leads with kd unknowns fixed at 0,
so that its first columns see a kd-long window whatever precedes them:
OpenBLAS's dot kernel behind the U^H solve splits 8 or more terms over
SIMD lanes by the window's length. ``pbtrf`` and the U solve update by
columns, where a zero coupling entry adds an exact zero, so every system
gets the operations, in the order, it gets when solved alone: the batch is
bit for bit a loop of single solves, in O(b^2 N) work per system.

Slabs. ``mmse_detect`` solves its channels in slabs: runs of consecutive
channels whose systems hold at most _SLAB samples (systems times N), and
one channel at least. Each slab runs the whole solve above, from y to T,
and writes its rows of the one solution array. As a stacked solve is bit
for bit a loop of single solves, slabs change no solution; they bound the
working memory of a call, however many SNR points and channels it takes.
_SLAB = 6144 samples is 24 systems at N = 256 and 6 at N = 1024. On a
2-vCPU Xeon (4 MiB L2), 4096, 6144 and 8192 samples ran within the noise
on the sweep shapes (8192 at most 7 % faster on a 64-trial desk chunk,
with a third more work arrays); 2048 ran slower on every shape.

Work arrays. Every large array of the solve (the tap stack and its
conjugate, the diagonals, the right-hand sides, the folded bands and the
time-domain solutions) is a view of one of six per-thread buffers, each
grown to the largest slab seen and reused by every later slab and call, so
steady sweeps map no new pages; threads never share one. The arrays formed
after the bands reuse the buffers of those dead by then. Only the solution
array returned is fresh. The buffers hold 1.0 MB for 20 desk systems and
at most 1.6 MB for any call at N = 256 or 1024 (a whole 320-system call
would take 16.5 MB at N = 256 and 65 MB at N = 1024). They stay because
they pay: fresh arrays in every call gave the same solutions bit for bit,
but lost 14 % of the benchmark's ber-desk and 16 % of its ber-paper trials
per second (7 pairs each, none won).

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
from numpy.lib.stride_tricks import sliding_window_view

from .channel import Channels, doppler_ramp
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


@lru_cache(maxsize=64)
def _prefix_weights(N: int, prefix: int, c1: float) -> np.ndarray:
    """(prefix + 1, prefix) table, cached and read-only: row l weights core
    samples i < prefix of a path at delay l by the chirp-periodic prefix
    phase of the frame sample prefix + i - l they read where i < l, else 1.
    Row l is the window prefix - l of [prefix phases, ones], so the table
    is a view of those 2 prefix entries."""
    w = np.concatenate((cpp_prefix_phases(N, prefix, c1), np.ones(prefix)))
    w.flags.writeable = False
    return sliding_window_view(w, prefix)[::-1]


def build_equivalent_channel(ch: Channels, cfg: SystemConfig, waveform: str) -> EquivalentChannel:
    """N x N transmit-domain equivalent channel demod(channel(mod(.))) of
    the one channel ``ch`` (a one-row Channels).

    What is built, in O(P N), is the time-domain factor H_t as one tap
    vector per distinct delay: core sample i receives h times sample
    (i - l) mod N, times the channel's own Doppler factor
    e^{-j 2 pi nu (L + i - l) / (N + L)} at the frame sample L + i - l it
    reads, weighted by the prefix phase when i < l and the waveform's
    prefix is chirp-periodic (AFDM). Path delays must fit inside the
    prefix; any Doppler, integer or fractional, is exact. Paths sharing a
    delay are summed in path order. The P paths are formed together, from
    the cached ``channel.doppler_ramp`` and ``_prefix_weights`` tables.
    """
    if waveform not in TRANSFORMS:
        raise ValueError(f"unknown waveform {waveform!r}")
    if len(ch.gains) != 1:
        raise ValueError(f"an equivalent channel is built from one channel, got {len(ch.gains)}")
    N, prefix = cfg.N, cfg.L_cp
    # (delay, gain, Doppler) of each path; the sort is stable: path order per delay
    paths = sorted(zip(*(a[0].tolist() for a in (ch.delays, ch.gains, ch.doppler))),
                   key=lambda p: p[0])
    ls = [l for l, _, _ in paths]
    if ls[-1] > prefix:
        raise ValueError(f"path delay {ls[-1]} exceeds the prefix length {prefix}")
    if ch.frame_len != N + prefix:
        raise ValueError(f"channel frame length {ch.frame_len} != N + prefix = {N + prefix}")
    taps = np.array([h for _, h, _ in paths], dtype=np.complex128)[:, None] * np.array(
        [doppler_ramp(nu, ch.frame_len)[prefix - l:prefix - l + N] for l, _, nu in paths])
    if TRANSFORMS[waveform].chirp_prefix:     # core samples i < l read the prefix
        taps[:, :prefix] = taps[:, :prefix] * _prefix_weights(N, prefix, cfg.c1)[ls]
    delays = sorted(set(ls))
    if len(delays) < len(ls):     # each delay's rows, summed one after another
        taps = np.array([taps[ls.index(l):ls.index(l) + ls.count(l)].sum(axis=0) for l in delays])
    return EquivalentChannel(cfg=cfg, waveform=waveform, delays=tuple(delays), taps=taps)


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


@lru_cache(maxsize=64)
def _fold_plan(N: int, b: int):
    """(order, pos, take, sign) of the folded solve, cached and read-only: by
    position, ``order`` indexes H_t^H y ended by a 0 (N for the kd leading
    unknowns), and ``pos`` gives each unknown its position. The upper band
    ab[j, kd + i - j] = A[order[i], order[j]] is the gather ``take[0]``
    (N + kd, kd + 1) of [diag, 0, 1], diag[o, r] = A0[r, (r + o) mod N]
    flattened, with its imaginary parts times ``sign``: -1 where the entry
    is the conjugate A0[r, s] = conj(A0[s, r]) of a diagonal's entry. A
    second gather ``take[1]``, added conjugated, exists only where 2b >= N
    puts the offsets o and N - o on one entry, o's term first."""
    kd = min(2 * b, N - 1)
    perm = np.empty(N, dtype=np.intp)
    perm[0::2], perm[1::2] = np.arange((N + 1) // 2), np.arange(N - 1, (N - 1) // 2, -1)
    j = np.arange(-kd, N)[:, None]                      # column of ab[j + kd, t]
    i = j - kd + np.arange(kd + 1)                      # and its row
    r, s = perm[i % N], perm[j % N]
    o, zero = (s - r) % N, (b + 1) * N
    up = (i >= 0) & (o <= b)
    down = (i >= 0) & (N - o <= b)
    first = np.where(up, o * N + r, np.where(down, (N - o) * N + s, zero))
    first[:kd, kd] = zero + 1
    both = np.where(up & down, (N - o) * N + s, zero)
    take = np.stack([first, both]) if np.any(up & down) else first[None]
    plan = (np.concatenate((np.full(kd, N), perm)), np.argsort(perm) + kd, take,
            np.where(down & ~up, -1.0, 1.0))
    for a in plan:
        a.flags.writeable = False
    return plan


def _folded_gram(channels, y):
    """Each channel's folded band of A0 = H_t^H H_t, (C, N + kd, kd + 1) in
    the work array "taps", and H_t^H y ended by a 0, (C, N + 1) in "rhs". y
    (work array "y") has each row extended cyclically by the largest delay,
    so a shift by a delay is a slice. src[c] starts with channel c's
    diagonals, diag[c, o, r] = A0[r, (r + o) mod N] for o = 0 .. b."""
    delays, C = channels[0].delays, len(channels)
    D, N = len(delays), y.shape[-1] - delays[-1]
    b = delays[-1] - delays[0]
    # taps[c, q, i] = H_t[i, i - l_q], i cyclic, and one conj for band and right-hand side
    taps = _work_array("taps", (C, D, N + delays[-1]))
    np.stack([H.taps for H in channels], out=taps[..., :N])
    taps[..., N:] = taps[..., :delays[-1]]
    taps_c = np.conjugate(taps, out=_work_array("taps_c", taps.shape))
    prod = _work_array("prod", (C, N))
    m = (b + 1) * N
    src = _work_array("band", (C, m + 2))
    diag = src[:, :m].reshape(C, b + 1, N)
    # A0[j, (j + o) mod N] sums, over the delay pairs (a, q) with
    # l_a - l_q = o >= 0, conj(taps[a, j + l_a]) taps[q, j + l_a]; the first
    # pair of an offset writes its diagonal, and an offset of no pair is 0
    unwritten = set(range(b + 1))
    for a, la in enumerate(delays):
        for q, lq in enumerate(delays[:a + 1]):
            pair = taps_c[:, a, la:la + N], taps[:, q, la:la + N]
            if la - lq in unwritten:
                unwritten.remove(la - lq)
                np.multiply(*pair, out=diag[:, la - lq])
            else:
                diag[:, la - lq] += np.multiply(*pair, out=prod)
    diag[:, sorted(unwritten)] = 0
    src[:, m:] = 0, 1
    rhs = _work_array("rhs", (C, N + 1))
    rhs[:, N] = 0
    np.multiply(taps_c[:, 0, delays[0]:delays[0] + N], y[:, delays[0]:delays[0] + N],
                out=rhs[:, :N])
    for q, l in enumerate(delays[1:], 1):
        rhs[:, :N] += np.multiply(taps_c[:, q, l:l + N], y[:, l:l + N], out=prod)
    _, _, take, sign = _fold_plan(N, b)
    fold = np.take(src, take[0], axis=1, out=_work_array("taps", (C, *take.shape[1:])), mode="clip")
    fold.imag *= sign       # conjugates exactly, 5x faster than a masked np.conjugate
    for more in take[1:]:
        fold += np.conjugate(src[:, more])
    return fold, rhs


def _solve_stacked(channels, y, owner, s2) -> np.ndarray:
    """Solve (H_t^H H_t + s2 I) z = H_t^H y for each system s, whose channel
    (H_t and the row of y) is owner[s]; returns the (S, N) solutions in the
    work array "rhs". Read as one (kd + 1, S n) Fortran array, ab holds the
    systems' folded bands side by side with no coupling, n = N + kd. The
    arrays after the bands reuse the buffers of dead ones."""
    S, N = s2.size, y.shape[-1] - channels[0].delays[-1]
    order, pos, *_ = _fold_plan(N, channels[0].delays[-1] - channels[0].delays[0])
    (fold, rhs), n = _folded_gram(channels, y), len(order)
    ab = np.take(fold, owner, axis=0, out=_work_array("taps_c", (S, *fold.shape[1:])), mode="clip")
    # the diagonal sums conj(t) t: its imaginary parts hold only the rounding of
    # numpy's fused complex product, and pbtrf reads the diagonal's real parts only
    ab[:, :, -1].real += s2[:, None]
    c, info = _pbtrf(ab.reshape(S * n, -1).T, overwrite_ab=1)     # A = U^H U
    if info > 0:      # a leading minor is not positive definite
        raise np.linalg.LinAlgError(f"singular MMSE system at sigma2 = {s2[(info - 1) // n]}")
    x = np.take(np.take(rhs, order, axis=1, out=_work_array("prod", (len(rhs), n)), mode="clip"),
                owner, axis=0, out=_work_array("y", (S, n)), mode="clip").reshape(S * n, 1)
    x = _tbtrs(c, _tbtrs(c, x, trans="C", overwrite_b=1)[0], overwrite_b=1)[0]
    return np.take(x.reshape(S, n), pos, axis=1, out=_work_array("rhs", (S, N)), mode="clip")


def _slabs(bounds, N: int):
    """(lo, hi) of each slab of a call whose channel c owns the systems
    bounds[c]:bounds[c + 1]: from each lo, the longest run of channels whose
    systems hold at most _SLAB samples, and one channel at least."""
    lo, C = 0, len(bounds) - 1
    while lo < C:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _SLAB // N, side="right")) - 1)
        yield lo, hi
        lo = hi


def _detect_slab(channels, ys, s2, counts, out) -> None:
    """mmse_detect on one slab: channel c of ``channels`` has the row ys[c]
    and the next counts[c] noise variances of ``s2``; ``out`` receives the
    solutions, one row per system."""
    C, N, l_D = len(channels), ys.shape[-1], channels[0].delays[-1]
    bounds = np.cumsum([0] + counts)            # systems of channel i: bounds[i]:bounds[i + 1]
    y = _work_array("y", (C, N + l_D))
    y[:, :N] = ys
    y[:, N:] = ys[:, :l_D]
    z = _solve_stacked(channels, y, np.repeat(np.arange(C), counts), s2)
    # maximal runs of consecutive channels that share one transform
    keys = [(H.cfg, H.waveform) for H in channels]
    starts = [i for i in range(C) if i == 0 or keys[i] != keys[i - 1]] + [C]
    runs = [(lo, hi, *keys[lo]) for lo, hi in zip(starts, starts[1:])]
    for lo, hi, cfg, waveform in runs:
        rows = slice(bounds[lo], bounds[hi])
        out[rows] = TRANSFORMS[waveform].from_time(z[rows], cfg)


def mmse_detect(channels, ys, sigma2s) -> np.ndarray:
    """Solve (H^H H + s2 I) x = H^H T y for every channel H in ``channels``,
    its received core samples y (row of ``ys``: a received frame r without
    its prefix, r[..., L_cp:]) and each s2 in its entry of ``sigma2s``;
    returns the (systems, N) solutions, channel by channel and within a
    channel in the order of its sigma2s. T y is the demodulated frame d, so
    these are the normal equations of H x = d; y itself is what the solve
    reads, so no frame is demodulated for it.

    All channels must share N and the delay set, so that every system has
    the same band half-width b. The channels are solved in slabs (see the
    module docstring); in each, all systems are solved together in folded
    order in the time domain, and each solution goes to the transform domain
    by T. With s2 = 0 this is zero-forcing; an exactly singular system
    raises LinAlgError.
    """
    C = len(channels)
    N, delays = channels[0].cfg.N, channels[0].delays
    if any(H.cfg.N != N or H.delays != delays for H in channels):
        raise ValueError("the channels of one call must share N and the delay set")
    ys = np.asarray(ys)
    if ys.shape != (C, N) or len(sigma2s) != C:
        raise ValueError(f"{C} {N}x{N} channels need {C} signals of length {N} and "
                         f"{C} lists of noise variances, got signals of shape {ys.shape}")
    counts = [len(s) for s in sigma2s]
    s2 = np.concatenate(sigma2s, dtype=np.float64)
    if np.any(s2 < 0):
        raise ValueError("noise variances must be non-negative")
    bounds = np.cumsum([0] + counts)
    x = np.empty((bounds[-1], N), dtype=np.complex128)
    for lo, hi in _slabs(bounds, N):
        rows = slice(bounds[lo], bounds[hi])
        _detect_slab(channels[lo:hi], ys[lo:hi], s2[rows], counts[lo:hi], x[rows])
    return x
