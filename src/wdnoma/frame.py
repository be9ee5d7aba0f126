"""Guard-aware frame layouts for AFDM (and the OTFS analogue).

The affine subcarrier grid is split into a channel guard G1, a noise
estimation guard G2 and the data region D. Integer-Doppler channels spread
every data symbol over at most kappa_max bins on one side and
kappa_max + 2*N*c1*max_delay bins on the other, so the interior of G2 stays
free of data leakage; that interior is the NPE sampling window. The
PD-NOMA OFDM frame uses the full grid, with no guards. All three frames are
one ``FrameLayout``: the data bins and the NPE window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrameLayout:
    N: int
    data: np.ndarray        # ascending data bin indices
    npe_window: np.ndarray  # guard bins free of data leakage

    @property
    def n_data(self) -> int:
        return self.data.size


def allocate_frame(N: int, guard1_start: int, K1: int, guard2_start: int, K2: int,
                   kappa_max: int, c1: float, max_delay: int) -> FrameLayout:
    """Partition N subcarriers into G1, G2 and data, and derive the NPE window.

    The window keeps the G2 bins more than kappa_max away from the data edge
    on the low side and more than kappa_max + 2*N*c1*max_delay + 1 away on
    the high side (the delay-coupled spread grows with 2*N*c1).
    """
    if K1 < 0 or K2 <= 0:
        raise ValueError("guard lengths must be positive (K1 may be zero)")
    if K1 + K2 >= N:
        raise ValueError(f"guards K1+K2 = {K1 + K2} must leave room for data in N = {N}")
    if kappa_max < 0 or max_delay < 0:
        raise ValueError("kappa_max and max_delay must be non-negative")
    g1 = (guard1_start + np.arange(K1)) % N
    g2 = (guard2_start + np.arange(K2)) % N
    if np.intersect1d(g1, g2).size:
        raise ValueError("guard regions G1 and G2 overlap")
    shift = int(round(2.0 * N * c1))
    if abs(2.0 * N * c1 - shift) > 1e-9:
        raise ValueError("2*N*c1 must be an integer for the window bound")
    spread = kappa_max + shift * max_delay
    window_rel = np.arange(kappa_max + 1, K2 - 1 - spread)
    if window_rel.size == 0:
        raise ValueError(
            f"NPE window is empty: K2 = {K2} cannot host kappa_max = {kappa_max} "
            f"plus a delay-coupled spread of {shift * max_delay} bins; enlarge K2")
    window = (guard2_start + window_rel) % N
    mask = np.ones(N, dtype=bool)
    mask[g1] = False
    mask[g2] = False
    data = np.nonzero(mask)[0]
    return FrameLayout(N=N, data=data, npe_window=window)


def full_grid_layout(N: int) -> FrameLayout:
    """Every bin carries data: no guards and an empty NPE window (the
    PD-NOMA OFDM frame, whose receiver treats the echo as white noise)."""
    return FrameLayout(N=N, data=np.arange(N), npe_window=np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# OTFS analogue: guard Doppler columns at both edges of the N1 x N2 grid
# ---------------------------------------------------------------------------

def allocate_otfs_frame(N1: int, N2: int, guard_cols_per_edge: int, kappa_max: int) -> FrameLayout:
    """Reserve Doppler columns at both grid edges; the window keeps the
    columns more than kappa_max away from any data column."""
    g = guard_cols_per_edge
    if g <= 0 or 2 * g >= N2:
        raise ValueError(f"guard columns per edge {g} out of range for N2 = {N2}")
    cols = np.arange(N2)
    guard_cols = np.concatenate([cols[:g], cols[-g:]])
    data_cols = cols[g:N2 - g]
    # integer Doppler shifts move columns circularly by at most kappa_max
    contaminated = set()
    for d in data_cols:
        for k in range(-kappa_max, kappa_max + 1):
            contaminated.add((d + k) % N2)
    window_cols = np.array([c for c in guard_cols if c not in contaminated], dtype=np.int64)
    if window_cols.size == 0:
        raise ValueError(
            f"OTFS NPE window is empty: {g} guard columns per edge cannot host "
            f"kappa_max = {kappa_max}; add guard columns")
    N = N1 * N2
    data = np.sort(np.concatenate([c * N1 + np.arange(N1) for c in data_cols]))
    window = np.sort(np.concatenate([c * N1 + np.arange(N1) for c in window_cols]))
    return FrameLayout(N=N, data=data, npe_window=window)
