"""One measurement process of the benchmark; ``run.py`` starts it.

``run.py`` sets ``workloads.PINNED_ENV`` in this process's environment
before the interpreter starts, so numpy never uses more than one thread.
The process imports the simulator from ``src/`` of the checkout it runs in,
parses the workload's configs, and notes ``perf_counter()`` when it is
about to make its first sweep call. With ``--setup-only`` it then times the
calibration workload and prints both; otherwise it runs cycles of sweep
calls for ``--seconds`` and prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import (CALIBRATION, PINNED_ENV, RTOL, SETUP_CALIB_N, WORKLOADS,
                       curve_rel_dev, curves_to_plain, load_reference, master_seed,
                       raw_config, reference_entry, well_formed)


class Bench:
    def __init__(self, harness, wl, seed: int, root: Path, raws, cfgs):
        self.harness = harness
        self.wl = wl
        self.seed = seed
        self.root = root
        self.raws = raws
        self.cfgs = cfgs
        self.groups = wl.mode_groups()
        self.reference = load_reference(wl.reference)
        self.sweep_fn = harness.run_ber if wl.sweep == "ber" else harness.run_sensing
        self.ops = []          # one record per sweep call, in order

    def run_op(self, i: int, workers: int, tracer=None):
        """One sweep call, timed and checked against the reference."""
        cfg = self.cfgs[i]
        if tracer is not None:
            with tracer.span("harness.parse"):
                cfg = self.harness.config_from_dict(self.raws[i])
            span = tracer.open("harness.sweep")
        curves, error = None, None
        t0 = time.perf_counter()
        try:
            curves = self.sweep_fn(cfg, workers=workers)
        except Exception as exc:  # a crash is a measured outcome, not a benchmark error
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)

        group = self.groups[i]
        ref = reference_entry(self.reference, group, self.seed)
        rec = {"modes": list(group), "workers": workers, "traced": tracer is not None,
               "seconds": dt}
        if error is not None:
            known = ref.get("raises") == type(error).__name__
            rec.update(status="known_defect" if known else "failed",
                       error=f"{type(error).__name__}: {error}")
        else:
            plain = curves_to_plain(curves)
            rec["curves"] = plain
            if "curves" in ref:
                dev = curve_rel_dev(plain, ref["curves"])
                rec["curve_rel_dev"] = dev
                ok = dev <= RTOL
            else:
                ok = well_formed(plain, self.wl, group)
            rec["status"] = "completed" if ok else "failed"
        self.ops.append(rec)
        return rec

    def run_cycle(self, workers: int, tracer=None) -> dict:
        recs = [self.run_op(i, workers, tracer) for i in range(len(self.groups))]
        done = sum(r["status"] == "completed" for r in recs)
        seconds = sum(r["seconds"] for r in recs)
        pairs = self.wl.pairs_per_cycle * done / len(recs)
        return {"seconds": seconds, "rate": pairs / seconds, "ops": recs}

    def csv_bytes(self, curves_plain) -> dict:
        """The CSV files ``wdnoma ber`` would write for these curves."""
        CurvePoint = self.harness.CurvePoint
        out_dir = self.root / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        files = {}
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            for key, pts in curves_plain.items():
                path = Path(tmp) / f"ber_{key}.csv"
                self.harness.write_curve_csv([CurvePoint(*p) for p in pts], path)
                files[path.name] = path.read_bytes()
        return files


def per_layer(tracer, wl, cycles: int, n_ops: int) -> dict:
    """Per-layer figures from the traced cycles: times per (trial, SNR)
    pair, counts per trial or per sweep call as their units say."""
    self_s = tracer.self_times()
    total_s = tracer.totals()
    n = tracer.counts
    pairs = cycles * wl.pairs_per_cycle
    trials = cycles * wl.trials
    pools = n["harness.pool"]

    def ms_per_pair(name):
        return 1e3 * self_s.get(name, 0.0) / pairs

    return {
        "harness.self_ms": (ms_per_pair("harness.sweep"), "ms/pair"),
        "harness.parse_ms": (1e3 * total_s.get("harness.parse", 0.0) / n_ops, "ms/sweep"),
        "harness.pool_starts": (pools / n_ops, "count/sweep"),
        "harness.pool_start_ms": (1e3 * self_s.get("harness.pool_start", 0.0) / pools
                                  if pools else 0.0, "ms/pool"),
        "frame.layout_calls": (n["frame.layout"] / n_ops, "count/sweep"),
        "receiver.equivalent_channel_ms": (ms_per_pair("receiver.equivalent_channel"),
                                           "ms/pair"),
        "receiver.equivalent_channel_calls": (n["receiver.equivalent_channel"] / trials,
                                              "count/trial"),
        "waveforms.mod_ms": (ms_per_pair("waveforms.mod"), "ms/pair"),
        "waveforms.demod_ms": (ms_per_pair("waveforms.demod"), "ms/pair"),
        "waveforms.qam_ms": (ms_per_pair("waveforms.qam"), "ms/pair"),
        "waveforms.calls": ((n["waveforms.mod"] + n["waveforms.demod"] + n["waveforms.qam"])
                            / trials, "count/trial"),
        "transforms.ms": (ms_per_pair("transforms"), "ms/pair"),
        "transforms.calls": (n["transforms"] / trials, "count/trial"),
        "channel.apply_ms": (ms_per_pair("channel.apply"), "ms/pair"),
        "channel.apply_calls": (n["channel.apply"] / trials, "count/trial"),
        "channel.draw_ms": (ms_per_pair("channel.draw"), "ms/pair"),
        "sensing.dictionary_ms": (ms_per_pair("sensing.dictionary"), "ms/pair"),
        "sensing.dictionary_bytes": (n["sensing.dictionary_bytes"], "bytes_computed"),
        "sensing.omp_ms": (ms_per_pair("sensing.omp"), "ms/pair"),
        "sensing.omp_iterations": (n["sensing.omp_iterations"] / trials, "count/trial"),
        "sensing.match_ms": (ms_per_pair("sensing.match"), "ms/pair"),
    }


def environment(harness) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "wdnoma_file": harness.__file__,
    }


def calibrate(n: int) -> float:
    """Seconds taken by a fixed numpy workload shaped like one detection at
    size n: fresh n x n arrays, FFTs, a Gram matrix, a dense solve and
    interpreter work. It depends on the machine only, never on the simulator."""
    import numpy as np

    reps, _ = CALIBRATION[n]
    t0 = time.perf_counter()
    for k in range(reps):
        E = np.eye(n, dtype=np.complex128)
        F = np.fft.fft(np.roll(E * 1.0001, 1, axis=-1), axis=-1) / np.sqrt(n)
        G = F.conj().T @ F
        G.flat[::n + 1] += 0.1
        np.linalg.solve(G, F[:, k])
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - t0


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    wl = bench.wl
    checks = {}
    bench.run_cycle(wl.workers)  # warm-up, untimed

    # Peak memory of the workload's sweeps, read before any other work runs.
    # ru_maxrss is in KiB; RUSAGE_CHILDREN reports the largest pool worker
    # (0 without a pool), so this is the parent plus each of its workers.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if wl.workers > 1:
        # the workers=1 sweep of the same inputs whose CSV bytes every pool run must match
        single = [bench.run_op(i, 1) for i in range(len(bench.groups))]
        want = [bench.csv_bytes(r["curves"]) if "curves" in r else None for r in single]

    untraced, traced = [], []
    tracer = None
    if trace:
        from tracing import Tracer, patched
        tracer = Tracer()
    calib_ref_s = CALIBRATION[wl.calib_n][1]
    deadline = time.perf_counter() + seconds
    while True:
        calib = calibrate(wl.calib_n)
        untraced.append(bench.run_cycle(wl.workers))
        # pairs per reference second: the cycle's rate on a machine that runs
        # the calibration workload in its reference time
        untraced[-1].update(calib_s=calib, ref_rate=untraced[-1]["rate"] * calib / calib_ref_s)
        if trace:
            with patched(tracer):
                traced.append(bench.run_cycle(wl.workers, tracer))
        if time.perf_counter() >= deadline:
            break

    if wl.workers > 1:
        checks["workers_csv_identical"] = all(
            r["status"] != "completed" or bench.csv_bytes(r["curves"]) == want[i]
            for c in untraced + traced for i, r in enumerate(c["ops"]))
    if trace:
        first = untraced[0]["ops"]
        checks["traced_curves_identical"] = all(
            r.get("curves") == first[i].get("curves") and r["status"] == first[i]["status"]
            for c in traced for i, r in enumerate(c["ops"]))

    untraced_rate = statistics.median(c["rate"] for c in untraced)
    out = {
        "cycles": len(untraced),
        "trials_per_s": statistics.median(c["ref_rate"] for c in untraced),
        "trials_per_s_raw": untraced_rate,
        "calib_s": statistics.median(c["calib_s"] for c in untraced),
        "calib_ref_s": calib_ref_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "checks": checks,
    }
    if trace:
        traced_rate = statistics.median(c["rate"] for c in traced)
        layers = per_layer(tracer, wl, len(traced), len(traced) * len(bench.groups))
        layers["trace_overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate
                                         if untraced_rate else 0.0, "fraction")
        out.update(traced_cycles=len(traced), traced_trials_per_s=traced_rate,
                   per_layer=layers)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from wdnoma import harness

    wl = WORKLOADS[args.workload]
    raws = [raw_config(root, wl, g, args.seed) for g in wl.mode_groups()]
    cfgs = [harness.config_from_dict(r) for r in raws]
    ready = time.perf_counter()
    if args.setup_only:
        calibrate(SETUP_CALIB_N)  # first call pays numpy's one-off costs
        print(json.dumps({"ready": ready, "calib_s": calibrate(SETUP_CALIB_N)}))
        return 0

    bench = Bench(harness, wl, args.seed, root, raws, cfgs)
    result = measure(bench, args.seconds, bool(args.trace))
    result.update(master_seed=master_seed(args.seed),
                  environment=environment(harness),
                  ops=[{k: v for k, v in r.items() if k != "curves"} for r in bench.ops])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
