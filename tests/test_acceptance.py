"""End-to-end acceptance gate.

Seven numbered criteria covering transform exactness, noiseless chain
exactness, affine-domain whiteness, NPE accuracy, BER curve trends,
sensing recovery, and run determinism. Each test prints one PASS line;
tolerances and trial counts are pinned and must not be loosened.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    bin_channel,
    channel_of,
    dense_afdm_mod,
    dense_channel,
    dense_cp_add,
    dense_cpp_add,
    dense_daft,
    dense_equivalent_channel,
    dense_ofdm_mod,
    dense_otfs_w,
    dictionary_atoms,
    embed,
    lstsq_mmse,
    path_tuples,
    random_complex,
    refit_gains,
)
from wdnoma.channel import apply_dd_channel_samples, build_uplink_channel, path_from_bin
from wdnoma.affine_stats import empirical_stats
from wdnoma.frame import allocate_frame
from wdnoma.harness import (
    MODES,
    _Chunk,
    _ber_chunk,
    _per_snr,
    _sense_chunk,
    _layouts,
    _transmit,
    config_from_dict,
    run_sensing,
)
from wdnoma.cli import main as cli_main
from wdnoma.receiver import (
    build_equivalent_channel,
    estimate_noise_power,
)
from wdnoma.sensing import build_dictionary, correlate, omp_2d
from wdnoma.transforms import (
    add_cp_samples,
    add_cpp_samples,
    daft_samples,
    default_c1,
    idaft_samples,
)
from wdnoma.waveforms import (
    SystemConfig,
    afdm_demod_samples,
    afdm_mod_samples,
    ofdm_mod_samples,
    otfs_mod_samples,
    qam_demap_hard,
    qam_map,
)

CONFIG = Path(__file__).parent.parent / "configs" / "desk.json"


def desk_config(**sweep_over):
    raw = json.loads(CONFIG.read_text())
    raw["sweep"].update(sweep_over)
    return config_from_dict(raw)


def desk_system(N=256, kappa_max=1, L=16):
    return SystemConfig(N=N, M=4, f_c=28e9, delta_f=30e3, L_cp=L, L_cpp=L,
                        c1=default_c1(kappa_max, N),
                        N1=16, N2=N // 16)


# ---------------------------------------------------------------------------
# Criterion 1: transforms vs dense oracles, >= 200 cases, 1e-10, < 30 s
# ---------------------------------------------------------------------------

def test_criterion_1_transform_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    tol = 1e-10
    cases = 0

    # DAFT / IDAFT
    for _ in range(50):
        N = int(rng.choice([8, 16, 32, 64]))
        c1 = int(rng.integers(1, 8)) / (2 * N)
        c2 = float(rng.uniform(-0.1, 0.1))
        A = dense_daft(N, c1, c2)
        x = random_complex(rng, N)
        assert np.max(np.abs(daft_samples(x, c1, c2) - A @ x)) < tol
        assert np.max(np.abs(idaft_samples(x, c1, c2) - A.conj().T @ x)) < tol
        cases += 1

    # CP / CPP prefixes
    for _ in range(30):
        N = int(rng.choice([16, 32, 64]))
        L = int(rng.integers(1, N // 2))
        c1 = int(rng.integers(1, 6)) / (2 * N)
        x = random_complex(rng, N)
        assert np.max(np.abs(add_cp_samples(x, L) - dense_cp_add(N, L) @ x)) < tol
        assert np.max(np.abs(add_cpp_samples(x, L, c1) - dense_cpp_add(N, L, c1) @ x)) < tol
        cases += 1

    # three modulation matrices
    for _ in range(30):
        N, L = 32, 8
        c1 = int(rng.integers(1, 6)) / (2 * N)
        x = random_complex(rng, N)
        assert np.max(np.abs(ofdm_mod_samples(x, L) - dense_ofdm_mod(N, L) @ x)) < tol
        assert np.max(np.abs(afdm_mod_samples(x, c1, 0.0, L)
                             - dense_afdm_mod(N, L, c1, 0.0) @ x)) < tol
        assert np.max(np.abs(otfs_mod_samples(x, 8, 4, L) - dense_otfs_w(8, 4, L) @ x)) < tol
        cases += 1

    # channel application
    for _ in range(50):
        L = int(rng.integers(8, 65))
        n_paths = int(rng.integers(1, 4))
        triples = [(complex(*rng.standard_normal(2)), int(rng.integers(0, L)),
                    float(rng.uniform(-3, 3))) for _ in range(n_paths)]
        ps = channel_of(triples, L)
        x = random_complex(rng, L)
        got = apply_dd_channel_samples(x, ps)
        assert np.max(np.abs(got - dense_channel(L, triples) @ x)) < tol
        cases += 1

    # equivalent channel H_a^eq, built analytically, vs dense five-matrix product
    cfg = SystemConfig(N=32, M=4, f_c=28e9, delta_f=30e3, L_cp=8, L_cpp=8,
                       c1=default_c1(2, 32), N1=8, N2=4)
    for _ in range(40):
        n_paths = int(rng.integers(1, 4))
        paths = tuple((complex(*rng.standard_normal(2)),
                       int(rng.integers(0, 9)),
                       int(rng.integers(-2, 3)))
                      for _ in range(n_paths))
        ps = bin_channel(paths, 32, 40)
        H = build_equivalent_channel(ps, cfg, "afdm").matrix
        Href = dense_equivalent_channel(32, 8, cfg.c1, cfg.c2, path_tuples(ps))
        assert np.max(np.abs(H - Href)) < tol
        cases += 1

    elapsed = time.monotonic() - t0
    assert cases >= 200
    assert elapsed < 30.0
    print(f"\nACCEPTANCE CRITERION 1 PASS: {cases} dense-oracle cases "
          f"within 1e-10 in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 2: noiseless end-to-end exactness at N = 256
# ---------------------------------------------------------------------------

def test_criterion_2_noiseless_end_to_end():
    # The MMSE step is the stacked least-squares oracle: with sigma2_hat near
    # zero the receiver's normal equations square the conditioning of the
    # full-grid equivalent channel and do not recover every noiseless frame.
    N, L, kappa_max = 256, 16, 1
    cfg = desk_system(N=N, kappa_max=kappa_max, L=L)
    layout = allocate_frame(N, 0, 32, 32, kappa_max, cfg.c1, max_delay=2)
    total_errors = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        ch = build_uplink_channel(3, [-1, 0, 1], rng, N, N + L)
        bits = rng.integers(0, 2, size=2 * layout.n_data)
        s = afdm_mod_samples(embed(qam_map(bits, 4), layout, N), cfg.c1, cfg.c2, L)
        r = apply_dd_channel_samples(s, ch)
        d = afdm_demod_samples(r, cfg.c1, cfg.c2, L)
        sigma2_hat = estimate_noise_power(d, layout)
        H = build_equivalent_channel(ch, cfg, "afdm").matrix
        x_hat = lstsq_mmse(H, d, sigma2_hat)
        bits_hat = qam_demap_hard(x_hat[layout.data], 4)
        total_errors += int(np.count_nonzero(bits_hat != bits))
    assert total_errors == 0

    # cancellation residual with echo and noise present equals g*r_DL + w
    rng = np.random.default_rng(999)
    ch = build_uplink_channel(3, [-1, 0, 1], rng, N, N + L)
    bits = rng.integers(0, 2, size=2 * layout.n_data)
    syms = qam_map(bits, 4)
    s = afdm_mod_samples(embed(syms, layout, N), cfg.c1, cfg.c2, L)
    r_ul = apply_dd_channel_samples(s, ch)
    r_dl = random_complex(rng, N + L)
    w = 0.05 * random_complex(rng, N + L)
    g = 0.1
    r = r_ul + g * r_dl + w
    res = r - _transmit(cfg, layout, "afdm", syms, ch)
    assert np.max(np.abs(res - (g * r_dl + w))) < 1e-10
    print("\nACCEPTANCE CRITERION 2 PASS: BER = 0 over 100 noiseless channels; "
          "perfect-detection residual = g*r_DL + w to 1e-10")


# ---------------------------------------------------------------------------
# Criterion 3: affine whiteness of the post-channel OFDM echo
# ---------------------------------------------------------------------------

def test_criterion_3_affine_whiteness():
    t0 = time.monotonic()
    trials = 10_000
    cfg = desk_system(N=256)
    ch = path_from_bin(1.0, 5, 1, 256, 256)
    rep = empirical_stats(trials, cfg, ch, np.random.default_rng(31337))
    elapsed = time.monotonic() - t0
    assert rep.mean_abs < 4 / np.sqrt(trials)
    assert rep.flatness_ratio < 1.15
    assert abs(rep.trace / 256 - 1.0) < 0.01
    assert elapsed < 120.0
    print(f"\nACCEPTANCE CRITERION 3 PASS: max |mean| {rep.mean_abs:.4f} "
          f"< {4 / np.sqrt(trials):.4f}, flatness {rep.flatness_ratio:.3f} < 1.15, "
          f"trace/N {rep.trace / 256:.4f} in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 4: NPE accuracy over three decades of noise power
# ---------------------------------------------------------------------------

def test_criterion_4_npe_accuracy():
    cfg = desk_config()
    sys_ = cfg.system
    layout = _layouts(cfg)["afdm"]
    worst = 0.0
    for snr_db in (5.0, 20.0, 35.0):  # sigma^2 spans 3 decades
        est_sum = ref_sum = 0.0
        for trial in range(1000):
            chunk = _Chunk(cfg, [trial])
            up = chunk.uplink("afdm")
            (r,), (sigma2,) = chunk.compose(up, (snr_db,))
            d = afdm_demod_samples(r, sys_.c1, sys_.c2, sys_.L_cpp)
            est_sum += estimate_noise_power(d, layout).item()
            echo_core = up["g"] * chunk.r_dl[:, sys_.L_cpp:]
            ref_sum += sigma2 + float(np.mean(np.abs(echo_core) ** 2))
        rel = abs(est_sum - ref_sum) / ref_sum
        worst = max(worst, rel)
        assert rel < 0.03, f"NPE off by {rel:.3%} at SNR {snr_db} dB"
    print(f"\nACCEPTANCE CRITERION 4 PASS: mean sigma2_hat within "
          f"{worst:.3%} of sigma2 + echo power (3% allowed) over 3 decades")


# ---------------------------------------------------------------------------
# Criterion 5: Fig.-4-style BER trends at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_ber_trends():
    t0 = time.monotonic()
    cfg = desk_config(trials=2000)
    modes = cfg.sweep.modes
    snrs = cfg.sweep.snr_db

    # per-trial error counts so confidence intervals can account for the
    # channel-induced clustering of bit errors within a trial
    errors = _per_snr(_ber_chunk, cfg, 1)    # (SNR point, trial, mode)
    bps = int(np.log2(cfg.system.M))
    ber, trial_ber = {}, {}     # aggregate BER per SNR, per-trial BER arrays per SNR
    for i, m in enumerate(modes):
        bits = _layouts(cfg)[MODES[m][0]].n_data * bps
        ber[m] = (errors[:, :, i].sum(axis=1) / (bits * cfg.sweep.trials)).tolist()
        trial_ber[m] = errors[:, :, i] / bits
    elapsed = time.monotonic() - t0

    def halfwidth(tb):
        return 1.96 * tb.std() / np.sqrt(tb.size)

    # (a) no-NPE floors while NPE keeps strictly decreasing
    b_no = ber["wdnoma_afdm_no_npe"]
    assert b_no[snrs.index(35.0)] >= 0.5 * b_no[snrs.index(25.0)]
    b_npe = ber["wdnoma_afdm_npe"]
    assert all(b_npe[i + 1] < b_npe[i] for i in range(len(snrs) - 1)), b_npe

    # (b) NPE tracks the genie within the curves' mutual 95% CIs at every
    # point (curves are paired through common random numbers)
    for i in range(len(snrs)):
        hw = halfwidth(trial_ber["wdnoma_afdm_npe"][i]) + \
            halfwidth(trial_ber["wdnoma_afdm_genie"][i])
        assert abs(b_npe[i] - ber["wdnoma_afdm_genie"][i]) <= hw, f"point {snrs[i]} dB"

    # (c) PD-NOMA OFDM is worse at every SNR >= 10 dB
    for i, snr in enumerate(snrs):
        if snr >= 10.0:
            assert ber["pdnoma_ofdm"][i] > b_npe[i], f"point {snr} dB"

    # (d) AFDM and OTFS agree below 15 dB (mutual 95% CIs)
    for i, snr in enumerate(snrs):
        if snr < 15.0:
            hw = halfwidth(trial_ber["wdnoma_afdm_npe"][i]) + \
                halfwidth(trial_ber["wdnoma_otfs_npe"][i])
            assert abs(b_npe[i] - ber["wdnoma_otfs_npe"][i]) <= hw, f"point {snr} dB"

    assert elapsed < 1200.0
    print(f"\nACCEPTANCE CRITERION 5 PASS: floor/monotonicity/genie-match/"
          f"ordering/AFDM-OTFS-match all hold over {len(snrs)} SNR points, "
          f"2000 trials each, in {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# Criterion 6: sensing recovery
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_sensing():
    # (i) 100/100 noiseless on-grid 2-target cases recovered exactly
    cfg = desk_system(N=256)
    L = 256 + 16
    for case in range(100):
        rng = np.random.default_rng(7000 + case)
        bits = rng.integers(0, 2, size=2 * 256)
        s_dl = ofdm_mod_samples(qam_map(bits, 4), 16)
        dic = build_dictionary(s_dl[None], np.arange(16), np.arange(-1, 2), 256)
        atoms = dictionary_atoms(s_dl, np.arange(16), np.arange(-1, 2), 256)
        cells = rng.choice(16 * 3, size=2, replace=False)
        gains = np.exp(2j * np.pi * rng.uniform(size=2))
        truth = {}
        y = np.zeros(L, dtype=np.complex128)
        for c, gain in zip(cells, gains):
            i, j = divmod(int(c), 3)
            y += gain * atoms[i, j]
            truth[(int(dic.tau_grid[i]), int(dic.nu_grid[j]))] = gain
        out = omp_2d(correlate(dic, y[None, None])[0, 0], dic, 0, 2)
        picked = [(int(np.where(dic.tau_grid == tau)[0][0]) * 3
                   + int(np.where(dic.nu_grid == nu)[0][0])) for tau, nu in out.targets]
        for est, gain in zip(out.targets, refit_gains(y, dic, picked)):
            key = tuple(int(v) for v in est)
            assert key in truth, f"case {case}: wrong cell {key}"
            assert abs(gain - truth[key]) < 1e-8 * abs(truth[key])

    # (ii) index recovery probability > 0.99 at 30 dB post-cancellation
    xcfg = desk_config(trials=500, snr_db=[30.0], modes=["wdnoma_afdm_npe"])
    index_errors = _per_snr(_sense_chunk, xcfg, 1)[0, :, 0, 4]
    hits = int(np.count_nonzero(index_errors == 0))
    assert hits / 500 > 0.99, f"recovery {hits}/500"

    # (iii) NMSE monotone non-increasing in SNR
    mcfg = desk_config(trials=400, snr_db=[10.0, 15.0, 20.0, 25.0, 30.0],
                       modes=["wdnoma_afdm_npe"])
    curves = run_sensing(mcfg)
    for key in (("wdnoma_afdm_npe", "velocity"), ("wdnoma_afdm_npe", "distance")):
        vals = [p.metric for p in curves[key]]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1)), (key, vals)

    print(f"\nACCEPTANCE CRITERION 6 PASS: 100/100 exact noiseless recoveries, "
          f"{hits}/500 on-grid at 30 dB, NMSE non-increasing")


# ---------------------------------------------------------------------------
# Criterion 7: determinism across worker counts
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_determinism(tmp_path):
    raw = json.loads(CONFIG.read_text())
    raw["sweep"]["trials"] = 130
    raw["sweep"]["snr_db"] = [10.0]
    raw["sweep"]["modes"] = ["wdnoma_afdm_npe", "pdnoma_ofdm"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))

    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"ber_w{workers}"
        assert cli_main(["ber", "--config", str(cfg_path), "--out", str(out),
                         "--workers", workers]) == 0
        outputs[workers] = {f.name: f.read_bytes() for f in out.glob("ber_*.csv")}
    assert outputs["1"].keys() == outputs["8"].keys() and outputs["1"]
    for name in outputs["1"]:
        assert outputs["1"][name] == outputs["8"][name], name

    sense_out = {}
    for workers in ("1", "8"):
        out = tmp_path / f"sense_w{workers}"
        assert cli_main(["sense", "--config", str(cfg_path), "--out", str(out),
                         "--workers", workers, "--trials", "70",
                         "--snr", "30", "--mode", "wdnoma_afdm_npe"]) == 0
        sense_out[workers] = {f.name: f.read_bytes() for f in out.glob("nmse_*.csv")}
    assert sense_out["1"].keys() == sense_out["8"].keys() and sense_out["1"]
    for name in sense_out["1"]:
        assert sense_out["1"][name] == sense_out["8"][name], name

    print("\nACCEPTANCE CRITERION 7 PASS: ber and sense CSVs byte-identical "
          "for --workers 1 vs --workers 8")
