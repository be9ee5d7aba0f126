"""Sensing tests: dictionary atoms, 2D-OMP recovery, NMSE bookkeeping."""

import numpy as np
import pytest

from oracles import dictionary_atoms, random_complex
from wdnoma.sensing import (
    TargetEstimate,
    build_dictionary,
    estimate_to_physical,
    match_targets,
    matched_squared_errors,
    omp_2d,
)
from wdnoma.channel import PhysicalTarget
from wdnoma.transforms import ChirpParams
from wdnoma.waveforms import SystemConfig

rng = np.random.default_rng(53)


def make_cfg(N=16, N1=4, N2=4):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=4, L_cpp=4,
                        chirp=ChirpParams.for_max_doppler(1, N), N1=N1, N2=N2)


def _frame(L=20):
    return random_complex(rng, L)


def _atom_oracle(s, tau, kappa, N):
    # phi_{tau,kappa}[n] = e^{-j 2 pi kappa ((n - tau) mod L) / N} s[(n - tau) mod L]
    L = s.size
    n = np.arange(L)
    shifted = (n - tau) % L
    return np.exp(-2j * np.pi * kappa * shifted / N) * s[shifted]


def test_dictionary_atoms_match_formula_oracle():
    s = _frame()
    dic = build_dictionary(s, tau_grid=range(4), nu_grid=range(-2, 2), N=16)
    assert dic.atoms.shape == (4, 4, 20)
    for i, tau in enumerate(dic.tau_grid):
        for j, kappa in enumerate(dic.nu_grid):
            ref = _atom_oracle(s, int(tau), int(kappa), 16)
            assert np.max(np.abs(dic.atoms[i, j] - ref)) < 1e-12
    # bit for bit the replicas built one channel pass per Doppler bin
    assert np.array_equal(dic.atoms, dictionary_atoms(s, range(4), range(-2, 2), 16))


def test_dictionary_validation():
    s = _frame()
    with pytest.raises(ValueError):
        build_dictionary(s, [], [0], 16)
    with pytest.raises(ValueError):
        build_dictionary(s, [25], [0], 16)


def _residual_energy(y, dic, out):
    """||y - sum of gain_hat times the atom at (tau_hat, nu_hat)||^2."""
    r = np.array(y, dtype=np.complex128)
    for est in out.targets:
        i = int(np.where(dic.tau_grid == est.tau_hat)[0][0])
        j = int(np.where(dic.nu_grid == est.nu_hat)[0][0])
        r -= est.gain_hat * dic.atoms[i, j]
    return float(np.sum(np.abs(r) ** 2))


def test_omp_single_atom_exact():
    s = _frame()
    dic = build_dictionary(s, range(4), range(-2, 3), N=16)
    truth = 2.5 * dic.atoms[3, np.where(dic.nu_grid == 1)[0][0]]
    out = omp_2d(truth, dic, 1)
    (est,) = out.targets
    assert (est.tau_hat, est.nu_hat) == (3, 1)
    assert abs(est.gain_hat - 2.5) < 1e-10
    assert _residual_energy(truth, dic, out) < 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_omp_multi_target_exact_recovery(k):
    cfg = make_cfg(N=64, N1=8, N2=8)
    L = 64 + 8
    s = random_complex(rng, L)
    dic = build_dictionary(s, range(8), range(-3, 4), N=64)
    g = np.random.default_rng(100 + k)
    cells = g.choice(8 * 7, size=k, replace=False)
    gains = np.exp(2j * np.pi * g.uniform(size=k)) * 10.0 ** g.uniform(-1, 1, size=k)
    y = np.zeros(L, dtype=np.complex128)
    truth = {}
    for c, gain in zip(cells, gains):
        i, j = divmod(int(c), 7)
        y += gain * dic.atoms[i, j]
        truth[(int(dic.tau_grid[i]), int(dic.nu_grid[j]))] = gain
    out = omp_2d(y, dic, k)
    init_energy = float(np.sum(np.abs(y) ** 2))
    assert _residual_energy(y, dic, out) < 1e-8 * init_energy
    for est in out.targets:
        key = (est.tau_hat, est.nu_hat)
        assert key in truth
        assert abs(est.gain_hat - truth[key]) < 1e-8 * abs(truth[key])


def test_omp_validation():
    s = _frame()
    dic = build_dictionary(s, range(2), range(2), N=16)
    with pytest.raises(ValueError):
        omp_2d(s, dic, 0)
    with pytest.raises(ValueError):
        omp_2d(s, dic, 5)
    with pytest.raises(ValueError):
        omp_2d(random_complex(rng, 7), dic, 1)


def test_estimate_to_physical_inverts_quantization():
    cfg = make_cfg(N=1024, N1=32, N2=32)
    e = estimate_to_physical(TargetEstimate(tau_hat=10, nu_hat=1, gain_hat=1.0), cfg)
    # delay 10 at 30.72 MHz -> ~48.8 m; Doppler bin 1 at 28 GHz -> ~160.6 m/s
    assert abs(e.range_m - 10 * 3e8 / (2 * 1024 * 30e3)) < 0.5
    assert abs(e.velocity_mps - 30e3 * 3e8 / (2 * 28e9)) < 0.2


def _nmse(estimates, truths):
    """(range, velocity) NMSE as run_sensing forms it: err / ref sums."""
    err_r, ref_r, err_v, ref_v = matched_squared_errors(estimates, truths)
    return err_r / ref_r, err_v / ref_v


def test_nmse_trivial_cases():
    t = [PhysicalTarget(100.0, 20.0, 1.0)]
    perfect = [TargetEstimate(0, 0, 1.0, range_m=100.0, velocity_mps=20.0)]
    assert _nmse(perfect, t) == (0.0, 0.0)
    doubled = [TargetEstimate(0, 0, 1.0, range_m=200.0, velocity_mps=40.0)]
    range_nmse, velocity_nmse = _nmse(doubled, t)
    assert abs(range_nmse - 1.0) < 1e-12
    assert abs(velocity_nmse - 1.0) < 1e-12


def test_nmse_two_target_hand_computed():
    truths = [PhysicalTarget(100.0, 10.0, 1.0), PhysicalTarget(200.0, -20.0, 1.0)]
    ests = [TargetEstimate(0, 0, 1.0, range_m=110.0, velocity_mps=10.0),
            TargetEstimate(0, 0, 1.0, range_m=200.0, velocity_mps=-18.0)]
    range_nmse, velocity_nmse = _nmse(ests, truths)
    assert abs(range_nmse - 100.0 / 50000.0) < 1e-12
    assert abs(velocity_nmse - 4.0 / 500.0) < 1e-12


def test_match_targets_pairs_nearest_regardless_of_order():
    truths = [PhysicalTarget(100.0, 10.0, 1.0), PhysicalTarget(500.0, -30.0, 1.0)]
    ests = [TargetEstimate(0, 0, 1.0, range_m=498.0, velocity_mps=-29.0),
            TargetEstimate(0, 0, 1.0, range_m=101.0, velocity_mps=11.0)]
    pairs = match_targets(ests, truths)
    for e, t in pairs:
        assert abs(e.range_m - t.range_m) < 5
    with pytest.raises(ValueError):
        match_targets(ests, truths[:1])
