"""Command line interface: ber / sense / stats / validate-config."""

from __future__ import annotations

import argparse
import os
import sys

from .harness import MODES, _check_sense_box, _field, config_hash, load_config, run_and_write


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--mode", default=None,
                   help=f"comma-separated receiver modes (subset of: {', '.join(MODES)})")
    p.add_argument("--snr", default=None, help="comma-separated SNR list in dB")
    p.add_argument("--trials", type=int, default=None, help="override trials per point")
    p.add_argument("--workers", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wdnoma",
                                     description="WD-NOMA ISAC link simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("ber", "BER sweep over SNR"),
                       ("sense", "sensing NMSE sweep over SNR"),
                       ("stats", "affine-domain statistics run"),
                       ("validate-config", "parse and validate a config file")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
    return parser


def _apply_overrides(cfg, args):
    from dataclasses import replace
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    out = args.out
    if args.command != "validate-config" and os.path.lexists(out) and not os.path.isdir(out):
        raise ValueError(f"--out {out} exists and is not a directory")
    # the sweep section checks each override as it checks the config file's values
    over = {"master_seed": args.seed, "trials": args.trials,
            "snr_db": None if args.snr is None else _field(
                "--snr", lambda v: [float(s) for s in v.split(",")], args.snr),
            "modes": None if args.mode is None else args.mode.split(",")}
    cfg = replace(cfg, sweep=replace(cfg.sweep, **{k: v for k, v in over.items() if v is not None}))
    # the floors of affine_stats.empirical_stats and gaussianity_check
    trials, N = cfg.sweep.trials, cfg.system.N
    if args.command == "stats" and (trials < 100 or trials * N < 1e4):
        raise ValueError(f"stats needs trials >= 100 and trials * N >= 1e4, "
                         f"got trials = {trials}, N = {N}")
    if args.command == "sense":
        _check_sense_box(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate-config":
        print(f"ok: config hash {config_hash(cfg)}")
        return 0
    files = run_and_write(args.command, cfg, args.out, workers=args.workers)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
