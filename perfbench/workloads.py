"""Workload table, config construction and the curve correctness check.

An operation is one public sweep call (``run_ber`` or ``run_sensing``). A
cycle is the set of operations that runs every mode of a workload once for
each (trial, SNR point) pair: one ``run_ber`` call, or one ``run_sensing``
call per mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Set in the environment of every process that imports numpy: one BLAS
# thread, and no transparent huge pages for numpy arrays. Whether the host can
# grant huge pages depends on its memory state, and it moved the paper
# workload's peak RSS by 13 MB between identical runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_ENV = {**dict.fromkeys(BLAS_THREAD_VARS, "1"), "NUMPY_MADVISE_HUGEPAGE": "0"}

ALL_MODES = ("wdnoma_afdm_npe", "wdnoma_afdm_no_npe", "wdnoma_afdm_genie",
             "wdnoma_otfs_npe", "pdnoma_ofdm")
SENSE_MODES = ("wdnoma_afdm_npe", "wdnoma_otfs_npe", "pdnoma_ofdm")

# References are recorded for master seeds 0 .. REFERENCE_SEEDS - 1; a
# workload seed outside that range is reduced modulo it.
REFERENCE_SEEDS = 100

# A curve point passes when it matches the reference to this relative
# tolerance: loose enough for summation-order changes, tight enough that
# any flipped bit or moved OMP estimate fails.
RTOL = 1e-9

# The worker's calibration workload, by matrix size: (repetitions, seconds
# it takes on the reference machine, 2 vCPUs with OpenBLAS 0.3.31 and one
# BLAS thread, when uncontended). Times are reported in reference seconds,
# so the machine's speed swings, which move the sweep and the calibration
# alike, cancel out.
CALIBRATION = {256: (10, 0.09), 1024: (1, 0.35)}
# set-up time (imports and parsing) is scaled by the small calibration
SETUP_CALIB_N = 256


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # path relative to the checkout root
    sweep: str           # "ber" or "sense"
    modes: tuple
    snr_db: tuple
    trials: int
    workers: int
    reference: str       # workload whose reference curves apply
    calib_n: int         # matrix size of the calibration workload (the config's N)

    def mode_groups(self):
        """Modes of each operation in one cycle."""
        return [self.modes] if self.sweep == "ber" else [(m,) for m in self.modes]

    @property
    def pairs_per_cycle(self) -> int:
        return self.trials * len(self.snr_db)


WORKLOADS = {w.name: w for w in (
    Workload("ber-desk", "configs/desk.json", "ber", ALL_MODES, (0.0, 10.0, 20.0, 30.0),
             trials=4, workers=1, reference="ber-desk", calib_n=256),
    Workload("sense-desk", "configs/desk.json", "sense", SENSE_MODES, (0.0, 10.0, 20.0, 30.0),
             trials=4, workers=1, reference="sense-desk", calib_n=256),
    Workload("ber-paper", "perfbench/paper.json", "ber", ALL_MODES, (20.0,),
             trials=1, workers=1, reference="ber-paper", calib_n=1024),
    Workload("ber-desk-w2", "configs/desk.json", "ber", ALL_MODES, (0.0, 10.0, 20.0, 30.0),
             trials=4, workers=2, reference="ber-desk", calib_n=256),
)}


def master_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def raw_config(root: Path, wl: Workload, modes, seed: int) -> dict:
    """The workload's config file with the sweep section overridden."""
    with open(root / wl.config) as fh:
        raw = json.load(fh)
    raw["sweep"].update(snr_db=list(wl.snr_db), trials=wl.trials,
                        master_seed=master_seed(seed), modes=list(modes))
    return raw


def curves_to_plain(curves) -> dict:
    """Sweep output -> {curve key: [[snr, metric, trials, errors, ci], ...]}."""
    out = {}
    for key, points in curves.items():
        name = key if isinstance(key, str) else "/".join(key)
        out[name] = [[p.snr_db, p.metric, p.trials, p.errors_counted,
                      p.confidence_halfwidth] for p in points]
    return out


def load_reference(name: str) -> dict:
    with open(BENCH_DIR / "reference" / f"{name}.json") as fh:
        return json.load(fh)


def reference_entry(reference: dict, mode_group, seed: int) -> dict:
    """Recorded outcome of one operation: {"curves": ...} or {"raises": type}."""
    return reference["seeds"][str(master_seed(seed))][",".join(mode_group)]


def curve_rel_dev(curves: dict, ref_curves: dict) -> float:
    """Largest relative deviation of any curve metric from the reference.

    A curve set with other keys, SNR points or trial counts than the
    reference, or a non-finite metric, deviates infinitely.
    """
    if set(curves) != set(ref_curves):
        return math.inf
    worst = 0.0
    for key, ref_points in ref_curves.items():
        points = curves[key]
        if len(points) != len(ref_points):
            return math.inf
        for p, r in zip(points, ref_points):
            if p[0] != r[0] or p[2] != r[2] or not math.isfinite(p[1]):
                return math.inf
            if p[1] != r[1]:
                worst = max(worst, abs(p[1] - r[1]) / abs(r[1]) if r[1] else math.inf)
    return worst


def well_formed(curves: dict, wl: Workload, mode_group) -> bool:
    """Structure check for an operation with no recorded curves (a mode that
    raised on the reference commit and has since been fixed)."""
    keys = set(mode_group) if wl.sweep == "ber" else {
        f"{m}/{p}" for m in mode_group for p in ("velocity", "distance")}
    return set(curves) == keys and all(
        [p[0] for p in pts] == list(wl.snr_db)
        and all(math.isfinite(p[1]) and p[1] >= 0 for p in pts)
        for pts in curves.values())
