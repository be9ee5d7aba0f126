"""The benchmark's reference curves, rerun in memory.

``perfbench/record_reference.py`` stores, for master seeds 0-99 of each
reference workload, every operation's curves, or the exception a known
defect raised. The benchmark checks one seed per run against them; this
test reruns every recorded seed and requires the very same curves, so a
change that moves a curve fails here, not only in a benchmark run. It reads
``perfbench/`` and writes nothing.
"""

import sys
from pathlib import Path

import pytest

from wdnoma import harness

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import (  # noqa: E402
    REFERENCE_SEEDS,
    WORKLOADS,
    curve_rel_dev,
    curves_to_plain,
    load_reference,
    raw_config,
    reference_entry,
    well_formed,
)


@pytest.mark.parametrize("name, curve_entries", [
    ("ber-desk", 100), ("ber-paper", 100), ("sense-desk", 200)])
def test_every_reference_seed_reruns_to_its_recorded_curves(name, curve_entries):
    wl, ref = WORKLOADS[name], load_reference(name)
    sweep = harness.run_ber if wl.sweep == "ber" else harness.run_sensing
    assert len(ref["seeds"]) == REFERENCE_SEEDS
    checked = 0
    for seed in range(REFERENCE_SEEDS):
        for group in wl.mode_groups():
            entry = reference_entry(ref, group, seed)
            curves = curves_to_plain(sweep(harness.config_from_dict(
                raw_config(ROOT, wl, group, seed))))
            if "curves" in entry:
                assert curve_rel_dev(curves, entry["curves"]) == 0.0, (seed, group)
                checked += 1
            else:       # recorded as raising, by a defect mended since
                assert well_formed(curves, wl, group), (seed, group)
    assert checked == curve_entries
