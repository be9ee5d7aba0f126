"""wdnoma benchmark: Monte Carlo sweep throughput, set-up time and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ber-desk --seed 3 --seconds 18 --trace 0

Workloads (see ``workloads.py``):

* ``ber-desk``     ``run_ber`` on ``configs/desk.json``, all five modes,
                   4 trials x 4 SNR points, one process.
* ``sense-desk``   ``run_sensing`` once per mode for ``wdnoma_afdm_npe``,
                   ``wdnoma_otfs_npe`` and ``pdnoma_ofdm``, same trials/SNRs.
* ``ber-paper``    ``run_ber`` on ``perfbench/paper.json`` (N = 1024), all five
                   modes, 1 trial x 1 SNR point.
* ``ber-desk-w2``  the ``ber-desk`` inputs through the process pool, workers=2.

Every sweep call runs in a child process whose environment
(``workloads.PINNED_ENV``) pins BLAS to one thread and turns off numpy's
huge-page advice before numpy is imported. ``--seed`` becomes the sweep's
``master_seed`` (modulo the number of recorded reference seeds). Each
sweep's curves are checked against curves recorded on the reference commit
(``perfbench/reference``). A sweep that raises or deviates by more than
``workloads.RTOL`` is not completed. The result's ``failed`` count and its
``correct`` flag leave out one case: a crash that the reference recorded too
(the ``pdnoma_ofdm`` sense crash, ROADMAP item 4) is a known defect. It
lowers ``completed_fraction`` but is not counted as a failure.

End-to-end metrics (``--trace 0``, tracing off):

* ``trials_per_s``       median over cycles of completed (trial, SNR) pairs,
                         every workload mode run, per reference second of
                         sweep time (see below)
* ``setup_s``            median over fresh processes of the time from process
                         start to the first sweep call (imports, config parse
                         and validation), in reference seconds
* ``peak_rss_mb``        peak resident memory; with a pool, parent plus workers
* ``completed_fraction`` completed sweep calls over attempted ones, i.e.
                         1 - failed_fraction

Reference seconds: the shared machine this benchmark was built on changes
speed by 30 % or more for minutes at a time, which no median inside a run
removes. So a fixed numpy calibration workload (``worker.calibrate``) runs
before every cycle and in every set-up process, and each time is scaled by
(calibration time on the reference machine) / (calibration time now). The
unscaled figures (``trials_per_s_raw``, ``setup_s_raw``) and the calibration
time are printed and recorded beside them.

``--trace 1`` alternates untraced and traced cycles and reports per-layer
figures from the traced ones (see ``tracing.py``) plus the tracing overhead.
The summary lines also give ``failed_fraction`` and ``curve_rel_dev`` (the
largest relative deviation of any curve point from the reference). The last
line of standard output is the JSON result; a record with the environment
and every sweep call goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CALIBRATION, PINNED_ENV, SETUP_CALIB_N, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 4        # fresh processes timed from start to the first sweep call
TIME_LIMIT_S = 170.0    # the whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    return {**os.environ, **PINNED_ENV}


def run_worker(root: Path, args: list, deadline: float):
    """Start worker.py in its own process group; return (spawn time, last
    stdout line as JSON). The group is killed if it outlives the deadline."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=pinned_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args} exceeded the time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray pool workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{err}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def source_fingerprint(root: Path) -> dict:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "wdnoma").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def finite(x: float) -> float:
    return x if math.isfinite(x) else sys.float_info.max


def run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (root / "src" / "wdnoma" / "harness.py").is_file():
        raise BenchError(f"no simulator source under {root / 'src' / 'wdnoma'}; "
                         "run from the root of a wdnoma checkout")
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]

    setup, setup_ref = [], []
    ref_s = CALIBRATION[SETUP_CALIB_N][1]
    if not trace:
        for _ in range(SETUP_PROBES):
            t0, probe = run_worker(root, common + ["--setup-only"], deadline)
            setup.append(probe["ready"] - t0)
            setup_ref.append(setup[-1] * ref_s / probe["calib_s"])
    _, res = run_worker(root, common + ["--seconds", str(seconds), "--trace", str(trace)],
                        deadline)

    ops = res["ops"]
    attempted = len(ops)
    status = [op["status"] for op in ops]
    completed = status.count("completed")
    failed = status.count("failed")
    devs = [op["curve_rel_dev"] for op in ops if "curve_rel_dev" in op]
    summary = {
        "trials_per_s": (res["trials_per_s"], "pairs/ref-s"),
        "trials_per_s_raw": (res["trials_per_s_raw"], "pairs/s"),
        "calib_s": (res["calib_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "completed_fraction": (completed / attempted, "fraction"),
        # raised or failed the curve check, the known defect included
        "failed_fraction": (1 - completed / attempted, "fraction"),
        "known_defect_fraction": (status.count("known_defect") / attempted, "fraction"),
        "curve_rel_dev": (finite(max(devs)) if devs else 0.0, "ratio"),
    }
    if setup:
        # in reference seconds, like trials_per_s
        summary["setup_s"] = (statistics.median(setup_ref), "s")
        summary["setup_s_raw"] = (statistics.median(setup), "s")
    if trace:
        layers = dict(res["per_layer"])
        layers["check.curve_rel_dev"] = summary["curve_rel_dev"]
        layers["machine.calib_s"] = summary["calib_s"]
        metrics = layers
    else:
        metrics = {k: summary[k] for k in ("trials_per_s", "setup_s", "peak_rss_mb",
                                           "completed_fraction")}
    checks = res["checks"]
    record = {
        "workload": workload, "seed": seed, "master_seed": res["master_seed"],
        "seconds": seconds, "trace": trace, "workers": WORKLOADS[workload].workers,
        "environment": {**res["environment"], **source_fingerprint(root)},
        "setup_samples_s": setup, "cycles": res["cycles"], "checks": checks,
        "summary": summary, "metrics": metrics, "ops": ops,
    }
    correct = failed == 0 and all(checks.values()) and completed > 0
    return {"record": record, "result": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wdnoma sweep benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    try:
        out = run(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    record = out["record"]
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed} (master_seed {record['master_seed']})  "
          f"workers {record['workers']}  nproc {env['nproc']}  "
          f"BLAS threads {env['pinned_env']['OPENBLAS_NUM_THREADS']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"{env['blas']}  git {env['git_sha']}  src {env['src_sha256'][:16]}")
    for name, (value, unit) in record["summary"].items():
        print(f"  {name:<22} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in record["metrics"].items():
            print(f"  {name:<34} {value:.6g} {unit}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for op in record["ops"]:
        if op["status"] != "completed":
            print(f"  {op['status']}: {','.join(op['modes'])}: {op.get('error', 'curves differ')}")
            break

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(root) if path.is_relative_to(root) else path}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
