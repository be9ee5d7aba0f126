"""Sensing tests: dictionary atoms, 2D-OMP recovery, NMSE bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    TargetEstimate,
    atom_formula,
    correlator,
    dictionary_atoms,
    grid_atoms,
    match_targets_loop,
    omp_2d_residual,
    random_complex,
    refit_gains,
)
from wdnoma.sensing import (
    build_dictionary,
    correlate,
    estimate_to_physical,
    matched_squared_errors,
    omp_2d,
)
from wdnoma.transforms import default_c1
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(53)


def make_cfg(N=16, N1=4, N2=4):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=4, L_cpp=4,
                        c1=default_c1(1, N), N1=N1, N2=N2)


def _frame(L=20):
    return random_complex(rng, L)


def _omp(y, dic, P):
    """omp_2d on the correlations of one residual ``y`` of a one-trial dictionary."""
    return omp_2d(correlate(dic, y[None, None])[0, 0], dic, 0, P)


def test_dictionary_atoms_match_formula_oracle():
    s = _frame()
    dic = build_dictionary(s[None], tau_grid=range(4), nu_grid=range(-2, 2), N=16)
    assert dic.atoms.shape == (1, 4, 20)   # one zero-delay atom per Doppler bin
    atoms = grid_atoms(dic, range(16)).reshape(4, 4, 20)
    for i, tau in enumerate(dic.tau_grid):
        for j, kappa in enumerate(dic.nu_grid):
            ref = atom_formula(s, int(tau), int(kappa), 16)
            assert np.max(np.abs(atoms[i, j] - ref)) < 1e-12
    # bit for bit the replicas built one channel pass per Doppler bin
    assert np.array_equal(atoms, dictionary_atoms(s, range(4), range(-2, 2), 16))


@st.composite
def _correlation_cases(draw):
    """A frame, a residual and delay/Doppler grids: delays anywhere in
    0..L-1 (both ends drawn often), every Doppler bin of the N-sample core."""
    N = draw(st.integers(2, 32))
    L = N + draw(st.integers(0, N - 1))
    delay = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    taus = draw(st.lists(delay, min_size=1, max_size=6, unique=True))
    nus = draw(st.lists(st.integers(-N, N), min_size=1, max_size=5, unique=True))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_complex(g, L), taus, nus, N, random_complex(g, L)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_correlation_cases())
def test_fft_correlations_match_dense_matvec(case):
    s, taus, nus, N, r = case
    L = s.size
    dic = build_dictionary(s[None], taus, nus, N)
    dense = dictionary_atoms(s, taus, nus, N).reshape(-1, L)
    assert np.array_equal(grid_atoms(dic, range(len(taus) * len(nus))), dense)
    got = correlator(dic)(r)
    assert got.shape == (len(taus), len(nus))
    # relative to ||s|| ||r||, which bounds every correlation magnitude
    scale = np.linalg.norm(s) * np.linalg.norm(r)
    assert np.max(np.abs(got.reshape(-1) - dense.conj() @ r)) <= 1e-12 * scale


def test_dictionary_validation():
    s = _frame()
    with pytest.raises(ValueError):
        build_dictionary(s[None], [], [0], 16)
    with pytest.raises(ValueError):
        build_dictionary(s[None], [25], [0], 16)
    with pytest.raises(ValueError):     # one frame, not a (trials, L) stack
        build_dictionary(s, [0], [0], 16)


def _cells(dic, out):
    """Tau-major flat grid indices of the picks' (tau_hat, nu_hat)."""
    return [int(np.where(dic.tau_grid == tau)[0][0]) * dic.nu_grid.size
            + int(np.where(dic.nu_grid == nu)[0][0]) for tau, nu in out.targets]


def _residual_energy(y, dic, atoms, out, gains):
    """||y - sum of gains times the atoms at (tau_hat, nu_hat)||^2, with
    ``atoms`` the (n_tau, n_nu, L) oracle atoms of ``dic``'s grid."""
    r = np.array(y, dtype=np.complex128)
    for cell, gain in zip(_cells(dic, out), gains):
        r -= gain * atoms.reshape(-1, atoms.shape[-1])[cell]
    return float(np.sum(np.abs(r) ** 2))


def test_omp_single_atom_exact():
    s = _frame()
    dic = build_dictionary(s[None], range(4), range(-2, 3), N=16)
    atoms = dictionary_atoms(s, range(4), range(-2, 3), 16)
    truth = 2.5 * atoms[3, np.where(dic.nu_grid == 1)[0][0]]
    out = _omp(truth, dic, 1)
    (est,) = out.targets
    assert tuple(est) == (3, 1)
    (gain,) = refit_gains(truth, dic, _cells(dic, out))
    assert abs(gain - 2.5) < 1e-10
    assert _residual_energy(truth, dic, atoms, out, [gain]) < 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_omp_multi_target_exact_recovery(k):
    cfg = make_cfg(N=64, N1=8, N2=8)
    L = 64 + 8
    s = random_complex(rng, L)
    dic = build_dictionary(s[None], range(8), range(-3, 4), N=64)
    atoms = dictionary_atoms(s, range(8), range(-3, 4), 64)
    g = np.random.default_rng(100 + k)
    cells = g.choice(8 * 7, size=k, replace=False)
    gains = np.exp(2j * np.pi * g.uniform(size=k)) * 10.0 ** g.uniform(-1, 1, size=k)
    y = np.zeros(L, dtype=np.complex128)
    truth = {}
    for c, gain in zip(cells, gains):
        i, j = divmod(int(c), 7)
        y += gain * atoms[i, j]
        truth[(int(dic.tau_grid[i]), int(dic.nu_grid[j]))] = gain
    out = _omp(y, dic, k)
    gains = refit_gains(y, dic, _cells(dic, out))
    init_energy = float(np.sum(np.abs(y) ** 2))
    assert _residual_energy(y, dic, atoms, out, gains) < 1e-8 * init_energy
    for est, gain in zip(out.targets, gains):
        key = tuple(int(v) for v in est)
        assert key in truth
        assert abs(gain - truth[key]) < 1e-8 * abs(truth[key])


@st.composite
def _omp_cases(draw):
    """A frame, a grid and an echo with nonzero residual energy: up to four
    atoms of the grid plus noise. Delays anywhere in 0..L-1 (both ends
    drawn often); Doppler bins distinct modulo N, so no two atoms coincide."""
    N = draw(st.integers(8, 32))
    L = N + draw(st.integers(0, N - 1))
    delay = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    taus = draw(st.lists(delay, min_size=1, max_size=6, unique=True))
    nus = draw(st.lists(st.integers(-N, N), min_size=1, max_size=5,
                        unique_by=lambda k: k % N))
    P = draw(st.integers(1, min(4, len(taus) * len(nus))))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = random_complex(g, L)
    atoms = dictionary_atoms(s, taus, nus, N).reshape(-1, L)
    cells = g.choice(len(atoms), size=draw(st.integers(0, P)), replace=False)
    y = random_complex(g, cells.size) @ atoms[cells] + draw(st.floats(0.01, 1.0)) * \
        random_complex(g, L)
    return s, taus, nus, N, y, P


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_omp_cases())
def test_omp_picks_the_residual_oracle_cells_in_order(case):
    s, taus, nus, N, y, P = case
    dic = build_dictionary(s[None], taus, nus, N)
    out = _omp(y, dic, P)
    assert len(out.targets) == P
    assert _cells(dic, out) == omp_2d_residual(y, dic, P)


@pytest.mark.parametrize("P", [3, 4])
def test_omp_noiseless_extra_picks_are_distinct(P):
    # with more picks than targets the refit leaves a residual of rounding
    # noise, in which an already picked cell must not be picked again
    s = random_complex(np.random.default_rng(P), 72)
    dic = build_dictionary(s[None], range(8), range(-1, 2), N=64)
    atoms = dictionary_atoms(s, range(8), range(-1, 2), 64).reshape(-1, 72)
    y = 0.7 * atoms[5] - 1.3j * atoms[17]
    cells = _cells(dic, _omp(y, dic, P))
    assert len(set(cells)) == P
    assert set(cells[:2]) == {5, 17}


def test_omp_validation():
    s = _frame()
    dic = build_dictionary(s[None], range(2), range(2), N=16)
    corr = correlate(dic, s[None, None])[0, 0]
    with pytest.raises(ValueError):
        omp_2d(corr, dic, 0, 0)
    with pytest.raises(ValueError):
        omp_2d(corr, dic, 0, 5)
    with pytest.raises(ValueError):
        omp_2d(random_complex(rng, 7), dic, 0, 1)
    with pytest.raises(ValueError):
        correlate(dic, random_complex(rng, 7)[None, None])


def test_estimate_to_physical_inverts_quantization():
    cfg = make_cfg(N=1024, N1=32, N2=32)
    range_m, velocity_mps = estimate_to_physical(np.array([10]), np.array([1]), cfg)
    # delay 10 at 30.72 MHz -> ~48.8 m; Doppler bin 1 at 28 GHz -> ~160.6 m/s
    assert abs(range_m[0] - 10 * 3e8 / (2 * 1024 * 30e3)) < 0.5
    assert abs(velocity_mps[0] - 30e3 * 3e8 / (2 * 28e9)) < 0.2


def _scored(estimates, truths):
    """matched_squared_errors of one trial's estimate and truth lists."""
    return [x[0] for x in matched_squared_errors(
        [[e.range_m for e in estimates]], [[e.velocity_mps for e in estimates]],
        [[t.range_m for t in truths]], [[t.velocity_mps for t in truths]])]


def _nmse(estimates, truths):
    """(range, velocity) NMSE as run_sensing forms it: err / ref sums."""
    err_r, ref_r, err_v, ref_v = _scored(estimates, truths)
    return err_r / ref_r, err_v / ref_v


def test_nmse_trivial_cases():
    t = [TargetEstimate(0, 0, 100.0, 20.0)]
    perfect = [TargetEstimate(0, 0, range_m=100.0, velocity_mps=20.0)]
    assert _nmse(perfect, t) == (0.0, 0.0)
    doubled = [TargetEstimate(0, 0, range_m=200.0, velocity_mps=40.0)]
    range_nmse, velocity_nmse = _nmse(doubled, t)
    assert abs(range_nmse - 1.0) < 1e-12
    assert abs(velocity_nmse - 1.0) < 1e-12


def test_nmse_two_target_hand_computed():
    truths = [TargetEstimate(0, 0, 100.0, 10.0), TargetEstimate(0, 0, 200.0, -20.0)]
    ests = [TargetEstimate(0, 0, range_m=110.0, velocity_mps=10.0),
            TargetEstimate(0, 0, range_m=200.0, velocity_mps=-18.0)]
    range_nmse, velocity_nmse = _nmse(ests, truths)
    assert abs(range_nmse - 100.0 / 50000.0) < 1e-12
    assert abs(velocity_nmse - 4.0 / 500.0) < 1e-12


def test_match_targets_pairs_nearest_regardless_of_order():
    truths = [TargetEstimate(0, 0, 100.0, 10.0), TargetEstimate(0, 0, 500.0, -30.0)]
    ests = [TargetEstimate(0, 0, range_m=498.0, velocity_mps=-29.0),
            TargetEstimate(0, 0, range_m=101.0, velocity_mps=11.0)]
    # each estimate pairs with the truth it is near: errors 1 m and 2 m, 1 m/s twice
    err_r, _, err_v, _ = _scored(ests, truths)
    assert (err_r, err_v) == (5.0, 2.0)
    with pytest.raises(ValueError):
        _scored(ests, truths[:1])


def _scored_loop(est_r, est_v, true_r, true_v):
    """matched_squared_errors row by row: the oracle's pairing, summed as
    Python floats in the order the pairs were matched."""
    out = []
    for row in zip(est_r.tolist(), est_v.tolist(), true_r.tolist(), true_v.tolist()):
        ests = [TargetEstimate(0, 0, range_m=r, velocity_mps=v) for r, v in zip(row[0], row[1])]
        truths = [TargetEstimate(0, 0, r, v) for r, v in zip(row[2], row[3])]
        pairs = match_targets_loop(ests, truths)
        out.append((sum(abs(e.range_m - t.range_m) ** 2 for e, t in pairs),
                    sum(abs(t.range_m) ** 2 for _, t in pairs),
                    sum(abs(e.velocity_mps - t.velocity_mps) ** 2 for e, t in pairs),
                    sum(abs(t.velocity_mps) ** 2 for _, t in pairs)))
    return [np.array(col) for col in zip(*out)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), T=st.integers(1, 5), P=st.integers(1, 4))
def test_match_targets_equals_greedy_search(data, T, P):
    # small integer coordinates make equal distances, so ties are exercised;
    # scaled ones make sums whose rounding depends on their order
    scale = data.draw(st.sampled_from([1.0, 0.1, 37.3]))
    coord = st.integers(-3, 3).map(lambda v: v * scale)
    est_r, est_v, true_r, true_v = (
        np.array([[data.draw(coord) for _ in range(P)] for _ in range(T)]) for _ in range(4))
    got = matched_squared_errors(est_r, est_v, true_r, true_v)
    want = _scored_loop(est_r, est_v, true_r, true_v)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def _correlation_stacks(draw):
    """A (T, L) stack of frames with T = 1 to 20 (past one block of the
    correlation pass at T = 20), M residuals per trial and a grid."""
    N = draw(st.sampled_from([8, 16, 256]))
    L = N + draw(st.sampled_from([0, 3, 16]))
    T, M = draw(st.sampled_from([(1, 1), (1, 3), (4, 1), (4, 5), (20, 5)]))
    taus = draw(st.lists(st.integers(0, L - 1), min_size=1, max_size=16, unique=True))
    nus = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (random_complex(g, T * L).reshape(T, L), taus, nus, N,
            random_complex(g, T * M * L).reshape(T, M, L))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_correlation_stacks())
def test_batched_correlations_equal_one_residual_at_a_time(case):
    # bit for bit: the curves must not depend on how trials and modes are stacked
    s, taus, nus, N, r = case
    dic = build_dictionary(s, taus, nus, N)
    got = correlate(dic, r)
    for t in range(len(s)):
        conj = np.fft.fft(build_dictionary(s[t:t + 1], taus, nus, N).atoms[0], axis=-1).conj()
        assert np.array_equal(dic.spectra_conj[t], conj)
        for m in range(r.shape[1]):
            one = np.fft.ifft(conj * np.fft.fft(r[t, m]))[:, dic.tau_grid].T.ravel()
            assert np.array_equal(got[t, m], one)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_correlation_stacks())
def test_cross_correlation_table_equals_one_pick_at_a_time(case):
    # the column of pick (i, j), as the per-pick cross-correlation of spectra gave it
    s, taus, nus, N, _ = case
    dic = build_dictionary(s, taus, nus, N)
    L = s.shape[-1]
    for t in range(len(s)):
        spectra = dic.spectra_conj[t].conj()
        for i, tau in enumerate(dic.tau_grid):
            lags = (dic.tau_grid - tau) % L
            for j in range(len(nus)):
                col = np.fft.ifft(dic.spectra_conj[t] * spectra[j])[:, lags].T.ravel()
                assert np.array_equal(dic.xcorr[t, j, dic.lag_index[i]].ravel(), col)


def test_omp_on_a_stack_equals_omp_on_each_trial():
    # each (trial, mode) of a stacked dictionary picks what its one-trial dictionary picks
    g = np.random.default_rng(61)
    s = random_complex(g, 3 * 40).reshape(3, 40)
    r = random_complex(g, 3 * 2 * 40).reshape(3, 2, 40)
    dic = build_dictionary(s, range(6), range(-1, 2), N=32)
    corr = correlate(dic, r)
    for t in range(3):
        one = build_dictionary(s[t:t + 1], range(6), range(-1, 2), N=32)
        for m in range(2):
            got = omp_2d(corr[t, m], dic, t, 3).targets
            assert got == _omp(r[t, m], one, 3).targets
            cells = _cells(dic, omp_2d(corr[t, m], dic, t, 3))
            assert cells == omp_2d_residual(r[t, m], dic, 3, trial=t)
