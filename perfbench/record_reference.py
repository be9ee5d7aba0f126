"""Record the reference curves that the benchmark checks every sweep against.

Run once, on the commit whose outputs define "correct", from the checkout root:

    python3 perfbench/record_reference.py --workload ber-desk

For every reference seed and every operation of the workload it stores the
curves, or the exception type if the sweep raises. ``ber-desk-w2`` shares
the ``ber-desk`` reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from run import pinned_env, source_fingerprint
from workloads import BENCH_DIR, REFERENCE_SEEDS, WORKLOADS, curves_to_plain, raw_config


def record(root: Path, name: str) -> dict:
    from wdnoma import harness

    wl = WORKLOADS[name]
    fn = harness.run_ber if wl.sweep == "ber" else harness.run_sensing
    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        entry = {}
        for group in wl.mode_groups():
            cfg = harness.config_from_dict(raw_config(root, wl, group, seed))
            try:
                entry[",".join(group)] = {"curves": curves_to_plain(fn(cfg, workers=1))}
            except Exception as exc:  # the recorded outcome of a known defect
                entry[",".join(group)] = {"raises": type(exc).__name__, "message": str(exc)}
        seeds[str(seed)] = entry
    return {"workload": name, "recorded_on": source_fingerprint(root), "seeds": seeds}


def dumps(ref: dict) -> str:
    """JSON with one line per seed, so a re-recording diffs seed by seed."""
    head = {k: v for k, v in ref.items() if k != "seeds"}
    seeds = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                        for k, v in sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    return json.dumps(head, sort_keys=True)[:-1] + ', "seeds": {\n' + seeds + "\n}}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted({w.reference for w in WORKLOADS.values()}))
    args = ap.parse_args(argv)
    root = Path.cwd()
    os.environ.update(pinned_env())   # before numpy is imported, as in the benchmark
    sys.path.insert(0, str(root / "src"))
    ref = record(root, args.workload)
    out = BENCH_DIR / "reference" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(dumps(ref))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
