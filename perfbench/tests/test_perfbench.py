"""Tests of the benchmark itself: transparent tracing, declared metric
names, and a correctness check that rejects perturbed curves.

Run from the checkout root: ``python -m pytest perfbench/tests``.
"""

import copy
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT
from tracing import HARNESS_TARGETS, Tracer, patched
from workloads import (RTOL, WORKLOADS, curve_rel_dev, curves_to_plain, load_reference,
                       raw_config, reference_entry, well_formed)
from wdnoma import harness, waveforms


def _tiny(name, **sweep):
    raw = raw_config(ROOT, WORKLOADS[name], WORKLOADS[name].modes, seed=7)
    raw["sweep"].update(trials=2, snr_db=[5.0, 25.0], **sweep)
    return harness.config_from_dict(raw)


def test_wrappers_are_transparent_and_restored():
    cfg = _tiny("ber-desk")
    originals = {attr: getattr(harness, attr) for _, attr, _, _ in HARNESS_TARGETS}
    plain = curves_to_plain(harness.run_ber(cfg))
    sense_cfg = _tiny("sense-desk", modes=["wdnoma_afdm_npe"])
    plain_sense = curves_to_plain(harness.run_sensing(sense_cfg))
    ctx = harness._TrialContext(cfg, 0)

    tracer = Tracer()
    with patched(tracer):
        assert harness.build_equivalent_channel is not originals["build_equivalent_channel"]
        assert curves_to_plain(harness.run_ber(cfg)) == plain
        assert curves_to_plain(harness.run_sensing(sense_cfg)) == plain_sense
        H = harness.build_equivalent_channel(ctx.ul_ps, cfg.system, "afdm").matrix
        bits = np.arange(16) % 2
        syms = harness.qam_map(bits, 4)

    H_ref = originals["build_equivalent_channel"](ctx.ul_ps, cfg.system, "afdm").matrix
    np.testing.assert_array_equal(H, H_ref)
    np.testing.assert_array_equal(syms, originals["qam_map"](bits, 4))
    for attr, fn in originals.items():
        assert getattr(harness, attr) is fn
    assert harness.ProcessPoolExecutor.__name__ == "ProcessPoolExecutor"
    assert waveforms.dft_samples.__module__ == "wdnoma.transforms"
    # every SNR point of every trial rebuilds H once per waveform group
    assert tracer.counts["receiver.equivalent_channel"] == 2 * 2 * 3 + 1 + 2 * 2
    assert tracer.counts["sensing.omp"] == 2 * 2


def test_pool_is_traced_without_changing_curves():
    cfg = _tiny("ber-desk-w2")
    want = harness.run_ber(cfg, workers=1)
    tracer = Tracer()
    with patched(tracer):
        got = harness.run_ber(cfg, workers=2)
    assert curves_to_plain(got) == curves_to_plain(want)
    assert tracer.counts["harness.pool"] == len(cfg.sweep.snr_db)
    assert tracer.self_times()["harness.pool_start"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = tracer.spans[0]
    inner = sum(end - start for name, start, end, _ in tracer.spans if name == "inner")
    self_t = tracer.self_times()
    assert self_t["outer"] == pytest.approx((outer[2] - outer[1]) - inner, abs=1e-12)
    assert self_t["inner"] == pytest.approx(inner, abs=1e-12)


def test_transforms_recorded_only_under_waveforms():
    tracer = Tracer()
    x = np.ones(8, dtype=complex)
    with patched(tracer):
        waveforms.dft_samples(x)                       # no waveforms parent: not recorded
        harness.ofdm_mod_samples(x, 2)                 # harness -> waveforms -> transforms
    assert tracer.counts["transforms"] == 2            # idft + add_cp
    assert tracer.counts["waveforms.mod"] == 1


def test_correctness_check_rejects_perturbed_curve():
    ref = reference_entry(load_reference("ber-desk"), WORKLOADS["ber-desk"].modes, 0)["curves"]
    assert curve_rel_dev(copy.deepcopy(ref), ref) == 0.0

    bad = copy.deepcopy(ref)
    key = next(iter(bad))
    point = next(p for p in bad[key] if p[1] > 0)
    point[1] *= 1 + 1e-6
    assert curve_rel_dev(bad, ref) > RTOL

    missing = copy.deepcopy(ref)
    missing.pop(key)
    assert math.isinf(curve_rel_dev(missing, ref))

    moved = copy.deepcopy(ref)
    moved[key][0][0] += 1.0
    assert math.isinf(curve_rel_dev(moved, ref))


def test_well_formed_checks_a_mode_without_reference():
    wl, group = WORKLOADS["sense-desk"], ("wdnoma_afdm_npe",)
    curves = reference_entry(load_reference("sense-desk"), group, 0)["curves"]
    assert well_formed(curves, wl, group)
    assert not well_formed(curves, wl, ("pdnoma_ofdm",))
    bad = copy.deepcopy(curves)
    next(iter(bad.values()))[0][1] = math.nan
    assert not well_formed(bad, wl, group)


def test_reference_records_the_known_sense_crash():
    ref = load_reference("sense-desk")
    for seed in ref["seeds"]:
        assert reference_entry(ref, ("pdnoma_ofdm",), int(seed)).get("raises") == \
            "AttributeError"
        assert "curves" in reference_entry(ref, ("wdnoma_afdm_npe",), int(seed))


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_are_declared(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    section = declared["per_layer"] if trace else declared["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber-desk", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        # ber-desk: 4 SNR points x 3 waveform groups per trial, exactly
        assert result["metrics"]["receiver.equivalent_channel_calls"]["value"] == 12
