"""Experiment harness tests: config parsing, seeding, determinism, CLI."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from oracles import (
    channel_of,
    dense_afdm_mod,
    dense_channel,
    dense_ofdm_mod,
    dense_otfs_w,
    draw_targets_loop,
    embed,
    path_tuples,
    uplink_paths_loop,
)
from wdnoma import harness
from wdnoma.cli import main
from wdnoma.harness import (
    MODES,
    WAVEFORMS,
    _Chunk,
    _ber_chunk,
    _layouts,
    _sense_chunk,
    _transmit,
    config_from_dict,
    config_hash,
    draw_targets,
    load_config,
    run_and_write,
    run_ber,
    run_sensing,
)
from wdnoma.channel import Channels, apply_dd_channel_samples, quantize_target
from wdnoma.transforms import shift_factor
from wdnoma.waveforms import qam_map

ROOT = Path(__file__).parent.parent
CONFIG = ROOT / "configs" / "desk.json"


def small_raw(**over):
    raw = json.loads(CONFIG.read_text())
    raw["sweep"]["trials"] = 4
    raw["sweep"]["snr_db"] = [10.0, 30.0]
    raw["sweep"]["modes"] = ["wdnoma_afdm_npe", "pdnoma_ofdm"]
    for section, d in over.items():
        raw[section].update(d)
    return raw


def test_load_example_config():
    cfg = load_config(CONFIG)
    assert cfg.system.N == 256
    assert cfg.sweep.modes == tuple(MODES)
    # c1 defaulted from kappa_max: (2*1 + 1)/(2N)
    assert shift_factor(256, cfg.system.c1) == 3
    # the paper-scale config passes the same parse-time checks
    assert load_config(ROOT / "perfbench" / "paper.json").system.N == 1024


def test_config_rejects_unknown_keys():
    raw = small_raw()
    raw["system"]["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict(raw)
    raw2 = small_raw()
    raw2["extra_section"] = {}
    with pytest.raises(ValueError):
        config_from_dict(raw2)


def test_config_rejects_missing_section():
    raw = small_raw()
    del raw["channel"]
    with pytest.raises(ValueError, match="channel"):
        config_from_dict(raw)


def test_config_cross_validation():
    with pytest.raises(ValueError, match="mode"):
        config_from_dict(small_raw(sweep={"modes": ["nope"]}))
    with pytest.raises(ValueError, match="Doppler"):
        config_from_dict(small_raw(channel={"doppler_bins": [5]}))
    with pytest.raises(ValueError, match="align"):
        config_from_dict(small_raw(system={"L_cp": 8}))
    with pytest.raises(ValueError, match="trials"):
        config_from_dict(small_raw(sweep={"trials": 0}))


@pytest.mark.parametrize("channel, match", [
    ({"target_count": 0}, "target_count"),
    ({"target_count": -1}, "target_count"),
    ({"target_count": 2.5}, "target_count"),
    ({"target_count": True}, "target_count"),
    ({"uplink_taps": 0}, "uplink_taps"),
    ({"uplink_taps": 2.5}, "uplink_taps"),
    ({"range_bounds": [50.0, 10.0]}, "range_bounds"),
    ({"velocity_bounds": [20.0, -20.0]}, "velocity_bounds"),
    ({"doppler_bins": []}, "doppler_bins"),
    ({"doppler_bins": [0.5, -1]}, "doppler_bins"),
    ({"doppler_bins": [True]}, "doppler_bins"),
])
def test_config_rejects_bad_channel(channel, match):
    # each of these used to pass the parser and fail inside the sweep
    with pytest.raises(ValueError, match=match):
        config_from_dict(small_raw(channel=channel))


@pytest.mark.parametrize("snr_db", [[], [float("nan")], [10.0, float("inf")]])
def test_config_rejects_empty_or_non_finite_snr(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        config_from_dict(small_raw(sweep={"snr_db": snr_db}))


@pytest.mark.parametrize("snr_db", [[160.0], [10.0, 300.0]])
def test_config_rejects_snr_points_above_100_db(snr_db, tmp_path, capsys):
    # at 160 dB (sigma2 = 7.5e-17 on desk) the MMSE system was singular mid-sweep
    with pytest.raises(ValueError, match="snr_db"):
        config_from_dict(small_raw(sweep={"snr_db": snr_db}))
    assert config_from_dict(small_raw(sweep={"snr_db": [0.0, 100.0]})).sweep.snr_db[-1] == 100.0
    out = tmp_path / "out"
    snr = ",".join(map(str, snr_db))
    assert main(["ber", "--config", str(CONFIG), "--out", str(out), "--snr", snr]) == 2
    assert "config error: sweep.snr_db must lie in [-100, 100] dB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", [2.5, "2", True])
def test_config_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        config_from_dict(small_raw(sweep={"trials": trials}))


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_bad_master_seed(seed):
    with pytest.raises(ValueError, match="master_seed"):
        config_from_dict(small_raw(sweep={"master_seed": seed}))


def test_config_rejects_empty_modes():
    with pytest.raises(ValueError, match="modes"):
        config_from_dict(small_raw(sweep={"modes": []}))


def test_cli_rejects_negative_seed_override(capsys):
    # CLI overrides pass the same checks as the config file
    assert main(["ber", "--config", str(CONFIG), "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["5,,10", "5,ten"])
def test_cli_names_snr_in_a_malformed_list(capsys, monkeypatch, snr):
    # a config error that names the flag, as the config file's errors name their field
    monkeypatch.setattr("wdnoma.cli.run_and_write", lambda *a, **k: pytest.fail("swept"))
    assert main(["ber", "--config", str(CONFIG), "--snr", snr]) == 2
    assert "config error: --snr: could not convert string to float: " in capsys.readouterr().err


def test_config_rejects_negative_range():
    with pytest.raises(ValueError, match="range_bounds"):
        config_from_dict(small_raw(channel={"range_bounds": [-1.0, 50.0]}))


def test_config_rejects_range_beyond_delay_grid():
    # desk: 7.68 MHz sampling, so 292.8 m is delay 15 (the last OMP grid
    # delay, L_cp - 1) and 315 m is delay 16, which the prefix still admits
    config_from_dict(small_raw(channel={"range_bounds": [0.0, 292.8]}))
    with pytest.raises(ValueError, match="range_bounds"):
        config_from_dict(small_raw(channel={"range_bounds": [310.0, 315.0]}))


def test_config_rejects_velocity_beyond_kappa_max():
    # 28 GHz at 30 kHz spacing: 300 m/s is Doppler bin 2 > kappa_max = 1
    for bounds in ([0.0, 300.0], [-300.0, 0.0]):
        with pytest.raises(ValueError, match="kappa_max"):
            config_from_dict(small_raw(channel={"velocity_bounds": bounds}))


@pytest.mark.parametrize("system, match", [
    ({"delta_f": 0.0}, "delta_f"),        # ZeroDivisionError while parsing
    ({"delta_f": -30e3}, "delta_f"),      # failed mid-sweep on a negative delay
    ({"delta_f": float("inf")}, "delta_f"),
    ({"f_c": 0.0}, "f_c"),                # crashed run_sensing in estimate_to_physical
    ({"f_c": -28e9}, "f_c"),
    ({"f_c": float("nan")}, "f_c"),
    ({"f_c": "28e9"}, "f_c"),
    ({"echo_power_offset_db": float("nan")}, "echo_power_offset_db"),
    ({"echo_power_offset_db": float("inf")}, "echo_power_offset_db"),  # -inf: no echo
    ({"c2": float("nan")}, "c2"),         # ran to finite but meaningless curves
    ({"c1": float("inf")}, "c1"),
])
def test_config_rejects_bad_physical_scalars(system, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(small_raw(system=system))


@pytest.mark.parametrize("N", [0, -4])
@pytest.mark.parametrize("c1", ["omitted", None, 3 / 512])
def test_config_checks_n_before_c1_defaults_from_it(N, c1):
    # N = 0 failed as "system.N: division by zero" while c1's default was taken
    raw = small_raw(system={"N": N, "c1": c1})
    if c1 == "omitted":
        del raw["system"]["c1"]
    with pytest.raises(ValueError, match=rf"^system\.N = {N} must be positive$"):
        config_from_dict(raw)


def test_config_keeps_c2_with_default_c1():
    # c1 null takes its default; a configured c2 is kept, not dropped
    system = config_from_dict(small_raw(system={"c2": 0.25})).system
    assert (shift_factor(256, system.c1), system.c2) == (3, 0.25)


@pytest.mark.parametrize("section, field, value", [
    ("system", "N1", 16.0),               # failed mid-sweep with a TypeError
    ("system", "N", 256.0),
    ("system", "M", True),
    ("system", "L_cp", 16.5),
    ("frame", "K1", 32.0),
    ("frame", "kappa_max", True),
    ("frame", "otfs_guard_cols", "2"),
])
def test_config_rejects_non_integer_sizes(section, field, value):
    with pytest.raises(ValueError, match=field):
        config_from_dict(small_raw(**{section: {field: value}}))


@pytest.mark.parametrize("section, key", [
    ("system", "M"), ("system", "N"), ("frame", "K1"), ("channel", "range_bounds"),
    ("sweep", "trials"),
])
def test_config_rejects_missing_key(section, key):
    # each raised a TypeError or KeyError instead of a config error
    raw = small_raw()
    del raw[section][key]
    with pytest.raises(ValueError, match=rf"missing keys in {section}: \['{key}'\]"):
        config_from_dict(raw)


@pytest.mark.parametrize("section", [None, "system", "frame", "channel", "sweep"])
@pytest.mark.parametrize("value", [[], 5, None])
def test_config_rejects_non_object_section(section, value):
    raw = small_raw()
    if section is None:
        raw = value
    else:
        raw[section] = value
    with pytest.raises(ValueError, match=f"{section or 'config'} must be an object"):
        config_from_dict(raw)


@pytest.mark.parametrize("section, field, value, match", [
    ("channel", "range_bounds", [None, 50.0], "channel.range_bounds"),
    ("channel", "range_bounds", [0.0, 25.0, 50.0], "channel.range_bounds"),
    ("channel", "range_bounds", [float("nan"), 50.0], "range_bounds"),
    ("channel", "velocity_bounds", [0.0, float("inf")], "velocity_bounds"),
    ("channel", "doppler_bins", 1, "channel.doppler_bins"),
    ("sweep", "snr_db", [None], "sweep.snr_db"),
    ("sweep", "snr_db", 5, "sweep.snr_db"),
    ("sweep", "modes", [[1]], "mode"),
    ("sweep", "modes", "pdnoma_ofdm", "sweep.modes"),
    ("system", "N", None, "N"),
    ("system", "N", 0, "N"),
    ("system", "c2", None, "system.c2"),
])
def test_config_names_the_field_of_a_malformed_value(section, field, value, match):
    # each raised a TypeError, a ZeroDivisionError, or a ValueError naming
    # no field, or was read as a list of characters
    with pytest.raises(ValueError, match=match):
        config_from_dict(small_raw(**{section: {field: value}}))


@pytest.mark.parametrize("section, field, value", [
    ("sweep", "snr_db", ["5", 10.0]),           # float() read ["5", true] as (5.0, 1.0)
    ("sweep", "snr_db", [5.0, True]),
    ("channel", "range_bounds", [0.0, "50"]),
    ("channel", "range_bounds", [False, 50.0]),
    ("channel", "velocity_bounds", ["-20", 20.0]),
    ("channel", "velocity_bounds", [-20.0, True]),
    ("system", "c1", "0.005859375"),
    ("system", "c1", True),
    ("system", "c2", "0.25"),
    ("system", "c2", False),
])
def test_config_rejects_bool_or_string_numbers(section, field, value):
    # each was converted by float(), while f_c = "28e9" was rejected
    with pytest.raises(ValueError, match=rf"{section}\.{field}: expected a number"):
        config_from_dict(small_raw(**{section: {field: value}}))


@pytest.mark.parametrize("section, field, value", [
    ("system", "N", 256.0),
    ("system", "c1", "0.005859375"),
    ("frame", "kappa_max", True),
    ("channel", "range_bounds", (0.0,)),
    ("channel", "doppler_bins", (0.5, -1)),
    ("sweep", "trials", True),
    ("sweep", "modes", ("pdnoma_ofdm", 1)),
])
def test_each_section_checks_its_own_field_types(section, field, value):
    # a section built in code, not parsed, checks its fields as the parser's do
    cfg = config_from_dict(small_raw())
    obj = getattr(cfg, section)
    with pytest.raises(ValueError, match=rf"^{section}\.{field}: expected "):
        replace(obj, **{field: value})


def test_a_section_stores_numbers_and_lists_in_one_form():
    cfg = config_from_dict(small_raw(system={"f_c": 28_000_000_000, "c2": 0},
                                     channel={"range_bounds": [0, 50]}))
    assert type(cfg.system.f_c) is float and type(cfg.system.c2) is float
    assert cfg.channel.range_bounds == (0.0, 50.0)
    assert all(type(b) is float for b in cfg.channel.range_bounds)
    sweep = replace(cfg.sweep, snr_db=[5, 10], modes=["pdnoma_ofdm"])
    assert (sweep.snr_db, sweep.modes) == ((5.0, 10.0), ("pdnoma_ofdm",))


def test_a_negative_kappa_max_is_named_in_its_section():
    # its error used to name system.N, from the c1 default it reached first
    with pytest.raises(ValueError, match=r"^frame\.kappa_max = -1 must be at least 0"):
        config_from_dict(small_raw(frame={"kappa_max": -1}))


@pytest.mark.parametrize("section, field, value", [
    ("sweep", "snr_db", [-4000.0]),              # 10 ** 400 overflowed mid-sweep
    ("sweep", "snr_db", [10.0, -100.5]),
    ("system", "M", -4),                         # np.sqrt(-4) warned before any check
    ("system", "echo_power_offset_db", 1e9),     # 10 ** (1e9 / 20) overflowed mid-sweep
    ("system", "echo_power_offset_db", 100.5),
    ("system", "c1", 1e308),                     # 2*N*c1 = inf: an OverflowError
    ("system", "M", 4 ** 15),                    # asked _qam_tables for 16-240 GB mid-sweep
    ("system", "M", 4096),
    ("frame", "guard_start", -5),                # read modulo N: -5 and 251 were one layout
    ("frame", "guard_start", 256),
    ("system", "c1", 0.001),                     # 2*N*c1 = 0.512
    ("system", "L_cp", 256),
    ("sweep", "modes", ["nope"]),
    ("channel", "uplink_taps", 18),
    ("channel", "doppler_bins", [5]),
    ("channel", "range_bounds", [0.0, 315.0]),
    ("channel", "velocity_bounds", [0.0, 300.0]),
    ("channel", "target_count", 9),
    ("system", "c1", -0.005859375),              # 2*N*c1 = -3: data bins 64-67 in the NPE window
    ("system", "c1", -1),                        # a 1052-entry window over all 256 bins
    # each of these raised from the frame layouts, naming no field; a dict
    # holds the sections changed, where the named field is not the one changed
    ("system", "N1", {"system": {"N1": -16, "N2": -16}}),    # N1 * N2 = N
    ("frame", "K1", -1),
    ("frame", "K2", 0),
    ("frame", "K2", 230),                        # guards K1+K2 = 262 in N = 256
    ("frame", "K2", 3),                          # an empty AFDM NPE window
    ("frame", "K2", {"frame": {"kappa_max": 7}}),          # a Doppler spread that crowds it
    ("frame", "K2", {"channel": {"uplink_taps": 17}}),     # a delay spread that crowds it
    ("frame", "otfs_guard_cols", 0),
    ("frame", "otfs_guard_cols", 8),             # every one of N2 = 16 columns a guard
    ("frame", "otfs_guard_cols", 1),             # an empty OTFS NPE window
])
def test_config_bounds_each_value_before_it_is_used(section, field, value):
    # the error names "section.field" first, as a type error does
    over = value if isinstance(value, dict) else {section: {field: value}}
    with pytest.raises(ValueError, match=rf"^{section}\.{field}\b"):
        config_from_dict(small_raw(**over))


def test_config_takes_the_ends_of_its_ranges():
    # M up to 1024, 3GPP NR's largest QAM order; the guards may start on the last bin
    cfg = config_from_dict(small_raw(system={"M": 1024}, frame={"guard_start": 255}))
    assert (cfg.system.M, cfg.frame.guard_start) == (1024, 255)
    with pytest.raises(ValueError, match="must be a square power of two from 4 to 1024"):
        config_from_dict(small_raw(system={"M": 4096}))
    # the paper-scale config keeps its hash (the desk one is pinned below)
    assert config_hash(load_config(ROOT / "perfbench" / "paper.json")) == \
        "7b49c39d23b5e7e35e85acf8e86f7dba7535973e2507e7bea017adce16e9a7d4"


def test_config_takes_the_ends_of_its_db_ranges():
    cfg = config_from_dict(small_raw(sweep={"snr_db": [-100, 100]},
                                     system={"echo_power_offset_db": 100}))
    assert (cfg.sweep.snr_db, cfg.system.echo_power_offset_db) == ((-100.0, 100.0), 100.0)
    # -inf switches the echo off
    config_from_dict(small_raw(system={"echo_power_offset_db": float("-inf")}))


# values a config field must either reject at parse time or run with
_ODD = (0, 1, 2, 3, -1, -4, 0.5, -0.5, 100, 101, -101, 400, -4000, 1e9, 2**31, 1e308,
        float("nan"), float("inf"), float("-inf"), True, False, "1", None)


def _odd_values(value):
    """A field's odd values: one of _ODD, or its own value scaled, or for a
    list a list of _ODD values."""
    odd = st.sampled_from(_ODD)
    if isinstance(value, list):
        return st.one_of(odd, st.lists(odd, max_size=4))
    if type(value) in (int, float):
        return st.one_of(odd, st.sampled_from((-1, 0, 0.5, 2, 10)).map(lambda k: k * value))
    return odd


# the field a grid nudge moves with it, and the power of the nudge's factor it
# takes: N with N1, N1 against N2, so that N1 * N2 = N still holds
_GRID_PARTNERS = {"N": ("N1", 1), "N1": ("N2", -1), "N2": ("N1", -1)}


def _nudge(draw, section: dict, key: str) -> None:
    """Move ``section[key]`` near its own value, in a way that can parse: M by
    a factor 4; N, N1 or N2 by a factor 2 with its grid partner; L_cp and
    L_cpp by the same 1; another int by 1; a float, or one item of a pair, by
    10 %; a longer list one item short or long. Null has no near value, so it
    draws an odd one."""
    value = section[key]
    if value is None:
        section[key] = draw(st.sampled_from(_ODD))
    elif key in _GRID_PARTNERS:
        partner, sign = _GRID_PARTNERS[key]
        f = draw(st.sampled_from((0.5, 2.0)))
        section[key], section[partner] = int(value * f), int(section[partner] * f ** sign)
    elif key in ("L_cp", "L_cpp"):
        step = draw(st.sampled_from((-1, 1)))
        section["L_cp"], section["L_cpp"] = section["L_cp"] + step, section["L_cpp"] + step
    elif key == "M":
        section[key] = draw(st.sampled_from((value * 4, value // 4)))
    elif isinstance(value, list) and len(value) == 2:
        i, f = draw(st.sampled_from((0, 1))), draw(st.sampled_from((0.9, 1.1)))
        section[key] = [v * f if j == i else v for j, v in enumerate(value)]
    elif isinstance(value, list):
        section[key] = draw(st.sampled_from((value[:-1], value + value[-1:])))
    elif type(value) is int:
        section[key] = draw(st.sampled_from((value - 1, value + 1)))
    else:
        section[key] = draw(st.sampled_from((0.9 * value, 1.1 * value)))


# of the 100 examples, 8 reached run_ber before nudged values were drawn, 21
# while a third of the nudges could never parse, and 40 with nudges that can
_MUTATED_CONFIGS_RUN = 37


def test_a_mutated_config_fails_at_parse_time_or_runs_to_finite_curves():
    # the desk config with 1-3 fields changed: a value either fails in
    # config_from_dict with an error that names its field, or gives NPE
    # windows of distinct, data-free bins and runs (warnings are errors, as
    # in every test)
    ran = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def mutated(data):
        raw = json.loads(CONFIG.read_text())
        keys = [(section, key) for section in raw for key in raw[section]]
        near = data.draw(st.sampled_from((False, True, True)))     # two in three nudge
        for section, key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                               unique=True)):
            if near:
                _nudge(data.draw, raw[section], key)
            else:
                raw[section][key] = data.draw(_odd_values(raw[section][key]))
        try:
            cfg = config_from_dict(raw)
        except ValueError as exc:
            assert re.match(r"^(system|frame|channel|sweep)\.\w+", str(exc)), exc
            return
        for waveform in ("afdm", "otfs"):
            layout = _layouts(cfg)[waveform]
            window = layout.npe_window
            assert np.unique(window).size == window.size, waveform
            assert not np.isin(window, layout.data).any(), waveform
        cfg = replace(cfg, sweep=replace(cfg.sweep, trials=1, snr_db=cfg.sweep.snr_db[:1]))
        ran.append(cfg)
        curves = list(run_ber(cfg).values())
        try:
            curves += run_sensing(cfg).values()
        except ValueError as exc:       # the documented [0, 0] box
            assert "sensing NMSE is undefined" in str(exc)
        assert all(np.isfinite([p.metric, p.confidence_halfwidth]).all()
                   for points in curves for p in points)

    mutated()
    assert len(ran) >= _MUTATED_CONFIGS_RUN, f"only {len(ran)} of 100 mutated configs ran"


def test_config_rejects_duplicate_modes(capsys):
    # a repeated mode wrote two points per SNR into its curve
    with pytest.raises(ValueError, match="each once"):
        config_from_dict(small_raw(sweep={"modes": ["pdnoma_ofdm", "pdnoma_ofdm"]}))
    assert main(["validate-config", "--config", str(CONFIG),
                 "--mode", "wdnoma_afdm_npe,wdnoma_afdm_npe"]) == 2
    assert "each once" in capsys.readouterr().err


def test_config_rejects_more_targets_than_cells():
    # desk's box quantizes to delays 0..3 and Doppler bins 0..1: 8 cells;
    # 50 targets used to fail mid-sweep after draw_targets' 1000 redraws
    assert config_from_dict(small_raw(channel={"target_count": 5})).channel.target_count == 5
    for count in (9, 50):
        with pytest.raises(ValueError, match=f"target_count = {count} exceeds the 8"):
            config_from_dict(small_raw(channel={"target_count": count}))


@pytest.mark.parametrize("count, p_fail", [(6, "2.7e-09"), (7, "0.14"), (8, "0.93")])
def test_config_rejects_target_counts_that_exhaust_the_redraws(count, p_fail):
    # 8 cells, but the edge cells are slivers of the box (delay 3 covers only
    # 48.8-50 m): 7 targets parsed, then 13 of trials 0-99 raised mid-sweep
    with pytest.raises(ValueError, match=f"target_count = {count}: .* probability {p_fail}$"):
        config_from_dict(small_raw(channel={"target_count": count}))


def test_target_draw_failure_matches_sampling():
    # k! e_k(p) against the empirical rate of distinct cells over 4000 draws of
    # 5 targets in the desk box; the shipped config (2 targets) keeps its hash
    cfg = config_from_dict(small_raw(channel={"target_count": 5}))
    rng = np.random.default_rng(3)
    r = rng.uniform(*cfg.channel.range_bounds, (4000, 5))
    v = rng.uniform(*cfg.channel.velocity_bounds, (4000, 5))
    distinct = np.mean([len({quantize_target(a, b, cfg.system) for a, b in zip(rr, vv)}) == 5
                        for rr, vv in zip(r, v)])
    p = 1.0 - harness._target_draw_failure(cfg) ** (1.0 / harness._TARGET_DRAWS)
    assert abs(distinct - p) < 4 * math.sqrt(p * (1 - p) / 4000)
    assert config_hash(load_config(CONFIG)) == \
        "67c31b3dc9e67ed3280b8cc92c2b20bc52dbdb81437053f0b35d4c1dc48e1944"


def test_config_hash_is_content_addressed():
    a = config_from_dict(small_raw())
    b = config_from_dict(small_raw())
    assert config_hash(a) == config_hash(b)
    c = config_from_dict(small_raw(sweep={"master_seed": 99}))
    assert config_hash(a) != config_hash(c)


def test_layouts_from_config():
    cfg = config_from_dict(small_raw())
    af = _layouts(cfg)["afdm"]
    # K2 = 32 minus edges, kappa_max = 1 and a 2-tap delay-coupled spread of 6
    assert af.npe_window.size == 22
    ot = _layouts(cfg)["otfs"]
    # OTFS carries the same 192-symbol payload as AFDM
    assert ot.n_data == af.n_data == 192


def test_draw_targets_deterministic_and_distinct():
    cfg = config_from_dict(small_raw())
    r1, _, echo = draw_targets(cfg, 7)
    r2, _, _ = draw_targets(cfg, 7)
    assert r1.tolist() == r2.tolist()
    cells = {(l, nu) for _, l, nu in path_tuples(echo)}
    assert len(cells) == cfg.channel.target_count
    assert draw_targets(cfg, 8)[0][0] != r1[0]


def test_trial_draws_equal_the_target_by_target_loop():
    # the draws as arrays, bit for bit the scalar draws they replaced: the
    # targets, their cells, the uplink taps and the chunk's stacked echoes
    cfg = load_config(CONFIG)
    sys_, ch, L = cfg.system, cfg.channel, cfg.system.frame_len_cp
    chunk = _Chunk(cfg, list(range(64)))
    for t, ctx in enumerate(chunk.ctxs):
        targets = draw_targets_loop(cfg, t)
        r, v, gain, delay, doppler_norm = (np.array(col) for col in zip(*targets))
        assert np.array_equal(ctx.range_m, r)
        assert np.array_equal(ctx.velocity_mps, v)
        assert np.array_equal(ctx.echo.gains, [gain])
        assert np.array_equal(ctx.echo.delays, [delay])
        assert np.array_equal(ctx.echo.doppler, [doppler_norm])
        uplink = uplink_paths_loop(ch.uplink_taps, ch.doppler_bins,
                                   harness._rng(cfg.sweep.master_seed, t, "channel"), sys_.N, L)
        assert path_tuples(ctx.ul_ps) == uplink
        echo = channel_of(zip(gain, delay, doppler_norm), L)
        assert np.array_equal(chunk.r_dl[t], apply_dd_channel_samples(chunk.s_dl[t], echo))


def test_trial_context_crn_across_snr():
    # the same trial index reuses bits/channel/noise at every SNR point
    cfg = config_from_dict(small_raw())
    chunk1 = _Chunk(cfg, [3])
    chunk2 = _Chunk(cfg, [3])
    assert np.array_equal(chunk1.x_dl, chunk2.x_dl)
    assert np.array_equal(chunk1.noise_unit, chunk2.noise_unit)
    up = chunk1.uplink("afdm")
    (r10, r20), (s10, s20) = chunk1.compose(up, (10.0, 20.0))
    assert s10 / s20 == pytest.approx(10.0)
    # the uplink plus echo, so the echo amplitude, is the same at both points
    assert np.allclose(r10 - np.sqrt(s10) * chunk1.noise_unit,
                       r20 - np.sqrt(s20) * chunk1.noise_unit)
    # noise realization is shared across SNR points, only its scale differs
    w10 = r10 - up["r_ul"] - up["g"] * chunk1.r_dl
    w20 = r20 - up["r_ul"] - up["g"] * chunk1.r_dl
    assert np.allclose(w10, np.sqrt(s10 / s20) * w20)


def test_compose_echo_calibration():
    # average echo power sits exactly echo_power_offset_db below uplink power
    cfg = config_from_dict(small_raw())
    chunk = _Chunk(cfg, [0])
    up = chunk.uplink("afdm")
    g = up["g"]
    n_targets = len(chunk.ctxs[0].range_m)
    expected = 10 ** (cfg.system.echo_power_offset_db / 20) * np.sqrt(up["p_ul"] / n_targets)
    assert g == pytest.approx(expected)
    # unit-magnitude target gains -> E|g*r_dl|^2 = g^2 * n_targets * E|s_dl|^2;
    # within a single frame the prefix tail makes mean |s_dl|^2 fluctuate ~1%
    echo_power = g ** 2 * n_targets * np.mean(np.abs(chunk.s_dl) ** 2)
    ratio = echo_power / up["p_ul"]
    assert ratio == pytest.approx(10 ** (cfg.system.echo_power_offset_db / 10), rel=0.02)


def test_layout_cache_is_read_only_and_exact():
    # one layout per config for every chunk; a write to a shared layout raises
    cfg = config_from_dict(small_raw())
    layouts = _layouts(cfg)
    assert _layouts(config_from_dict(small_raw())) is layouts
    fresh = {w: entry.layout(cfg) for w, entry in WAVEFORMS.items()}
    assert layouts.keys() == fresh.keys() == {"afdm", "otfs", "ofdm"}
    for waveform, layout in layouts.items():
        for name in ("data", "npe_window"):
            arr = getattr(layout, name)
            assert np.array_equal(arr, getattr(fresh[waveform], name))
            with pytest.raises(ValueError):
                arr[:1] = 0
    with pytest.raises(TypeError):
        layouts["afdm"] = fresh["afdm"]


@pytest.mark.parametrize("waveform", ["afdm", "otfs", "ofdm"])
def test_sweep_cancellation_of_true_symbols_leaves_echo_and_noise(waveform):
    # the sense sweep cancels with the transmitter that sent the uplink: the
    # true symbols leave g * r_dl + sqrt(sigma2) * noise, and each row of the
    # rebuilt uplink is the dense channel times the dense modulator
    cfg = config_from_dict(small_raw())
    sys_, L = cfg.system, cfg.system.L_cp
    chunk = _Chunk(cfg, [0, 1, 2])
    layout = chunk.layouts[waveform]
    up = chunk.uplink(waveform)
    (r,), (sigma2,) = chunk.compose(up, (10.0,))
    syms = qam_map(up["bits"].reshape(-1), sys_.M).reshape(3, -1)
    paths = [c.ul_ps for c in chunk.ctxs]
    rebuilt = _transmit(sys_, layout, waveform, syms, Channels.stack(paths))
    echo_and_noise = up["g"] * chunk.r_dl + np.sqrt(sigma2) * chunk.noise_unit
    assert np.max(np.abs(r - rebuilt - echo_and_noise)) < 1e-10
    mod = {"afdm": dense_afdm_mod(sys_.N, L, sys_.c1, sys_.c2),
           "otfs": dense_otfs_w(sys_.N1, sys_.N2, L),
           "ofdm": dense_ofdm_mod(sys_.N, L)}[waveform]
    for row, x, ps in zip(rebuilt, syms, paths):
        H = dense_channel(ps.frame_len, path_tuples(ps))
        assert np.max(np.abs(row - H @ mod @ embed(x, layout, sys_.N))) < 1e-10


KERNELS = tuple(f"{w}_{op}_samples" for w in WAVEFORMS for op in ("mod", "demod"))


@pytest.mark.parametrize("chunk_fn", [_ber_chunk, _sense_chunk])
def test_waveform_table_calls_each_kernel_by_its_harness_name(chunk_fn, monkeypatch):
    # the benchmark's tracer wraps these six names on harness; a table that
    # held the functions themselves would bypass the wrappers
    calls = dict.fromkeys(KERNELS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    cfg = load_config(CONFIG)
    chunk_fn(cfg, (10.0,), [0, 1], MODES)
    calls["ofdm_mod_samples"] -= 1      # the chunk's downlink, sent outside the table
    # a sweep demodulates only for NPE, which no OFDM mode runs
    assert calls["ofdm_demod_samples"] == 0
    harness.WAVEFORMS["ofdm"].demod(np.zeros(cfg.system.frame_len_cp, complex), cfg.system)
    assert min(calls.values()) > 0, calls


@pytest.mark.parametrize("snr_db", [0.0, 35.0])
def test_chunk_batching_couples_no_trials(snr_db):
    # a trial's results are the same alone as inside a full 64-trial chunk;
    # byte-identical output for any worker count rests on this
    cfg = load_config(CONFIG)
    trials = list(range(64))
    full = _ber_chunk(cfg, (snr_db,), trials, MODES)
    for t in trials:
        assert np.array_equal(_ber_chunk(cfg, (snr_db,), [t], MODES), full[:, t:t + 1])
    full = _sense_chunk(cfg, (snr_db,), trials, MODES)
    for t in (0, 1, 31, 63):
        assert np.array_equal(_sense_chunk(cfg, (snr_db,), [t], MODES), full[:, t:t + 1])


@pytest.mark.parametrize("chunk_fn", [_ber_chunk, _sense_chunk])
def test_chunk_serves_every_snr_point_as_the_pool_calls_do(chunk_fn):
    # the serial sweep runs every SNR point on one chunk; the pool calls the
    # same function with one point at a time, and each point's results agree
    cfg = load_config(CONFIG)
    trials, snrs = list(range(8)), (0.0, 17.5, 35.0)
    joint = chunk_fn(cfg, snrs, trials, MODES)
    for s, snr_db in enumerate(snrs):
        assert np.array_equal(joint[s:s + 1], chunk_fn(cfg, (snr_db,), trials, MODES))


@pytest.mark.parametrize("n_points", [1, 3, 8, 65])
def test_chunks_cover_the_trials_in_order_in_chunks_of_rows(n_points):
    # a chunk takes every SNR point, so it holds _CHUNK_ROWS // n_points
    # trials, and one when the points alone fill a pass
    size = max(1, 64 // n_points)
    for n_trials in (1, size, size + 1, 130):
        chunks = list(harness._chunks(n_trials, n_points))
        assert [t for chunk in chunks for t in chunk] == list(range(n_trials))
        assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= size


@pytest.mark.parametrize("chunk_fn", [_ber_chunk, _sense_chunk])
def test_chunk_rows_do_not_move_the_sweep_arrays(chunk_fn, monkeypatch):
    # 10 trials at 3 points: 10 one-trial chunks at 1 row per pass, 1-trial
    # chunks at 5 (3 rows), one chunk at 64; through the pools as well
    cfg = config_from_dict(small_raw(sweep={"trials": 10, "snr_db": [0.0, 17.5, 35.0],
                                            "modes": list(MODES)}))
    want = harness._per_snr(chunk_fn, cfg, 1)
    assert want.shape[:3] == (3, 10, len(MODES))
    for rows in (1, 5, 64):
        monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
        for workers in (1, 2):
            assert np.array_equal(harness._per_snr(chunk_fn, cfg, workers), want)


@pytest.mark.parametrize("chunk_fn", [_ber_chunk, _sense_chunk])
def test_stacked_passes_hold_at_most_a_chunk_of_rows(chunk_fn, monkeypatch):
    # through the serial sweep, a stacked pass takes every SNR point of a
    # chunk and at most max(_CHUNK_ROWS, points) (SNR point, trial) rows:
    # 50 trials at 3 points run chunks of 21, 21 and 8 trials, and at 2 rows
    # per pass 3 one-trial chunks of 3 rows
    shapes = {name: [] for name in KERNELS}

    def recording(name, fn):
        def wrapper(x, *args):
            shapes[name].append(np.shape(x))
            return fn(x, *args)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
    snrs = [0.0, 17.5, 35.0]
    for rows, n_trials, n_chunks in ((64, 50, 3), (2, 3, 3)):
        monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
        cfg = config_from_dict(small_raw(sweep={"trials": n_trials, "snr_db": snrs,
                                                "modes": list(MODES)}))
        for calls in shapes.values():
            calls.clear()
        harness._per_snr(chunk_fn, cfg, 1)
        seen = [s for calls in shapes.values() for s in calls]
        # (SNR point, ..., trial, samples) stacks, or (trial, samples) uplinks
        assert max(s[0] * s[-2] if len(s) > 2 else s[0] for s in seen) <= max(rows, len(snrs))
        assert {s[0] for s in seen if len(s) > 2} == {len(snrs)}
        # one demodulator pass per chunk and waveform group that has an NPE mode
        demods = [s for name in KERNELS if "demod" in name for s in shapes[name]]
        npe_groups = {waveform for waveform, noise in MODES.values() if noise == "npe"}
        assert len(demods) == len(npe_groups) * n_chunks


def test_stacked_composition_equals_each_point_alone():
    # compose stacks the points' signals; each row is the per-point sum
    # r_ul + g r_dl + sqrt(sigma2) w, with sigma2 computed in Python floats
    cfg = config_from_dict(small_raw())
    chunk = _Chunk(cfg, [0, 1, 2])
    snrs = (0.0, 17.5, 35.0, np.inf)
    for waveform in WAVEFORMS:
        up = chunk.uplink(waveform)
        r, sigma2 = chunk.compose(up, snrs)
        assert r.shape == (len(snrs), 3, cfg.system.frame_len_cp) and sigma2.shape == (len(snrs),)
        for row, s2, snr_db in zip(r, sigma2, snrs):
            (alone,), (s2_alone,) = chunk.compose(up, (snr_db,))
            want = up["p_ul"] * 10.0 ** (-snr_db / 10.0)
            assert s2 == s2_alone == want
            assert np.array_equal(row, alone)
            assert np.array_equal(row, up["r_ul"] + up["g"] * chunk.r_dl
                                  + np.sqrt(want) * chunk.noise_unit)


def test_chunk_uplink_is_deterministic():
    # a chunk's uplink depends only on its config and trials
    cfg = config_from_dict(small_raw())
    chunk = _Chunk(cfg, [0, 1])
    for waveform in ("afdm", "otfs", "ofdm"):
        up = chunk.uplink(waveform)
        fresh = _Chunk(cfg, [0, 1]).uplink(waveform)
        assert np.array_equal(fresh["r_ul"], up["r_ul"])
        assert np.array_equal(fresh["bits"], up["bits"])


@pytest.mark.parametrize("snr_db", [0.0, 35.0])
def test_sense_chunk_modes_couple_nothing(snr_db):
    # detecting every mode of a chunk together gives each mode the results
    # it gets alone
    cfg = load_config(CONFIG)
    trials = list(range(8))
    joint = _sense_chunk(cfg, (snr_db,), trials, MODES)
    for i, mode in enumerate(MODES):
        alone = _sense_chunk(cfg, (snr_db,), trials, (mode,))
        assert np.array_equal(joint[:, :, i], alone[:, :, 0])


def test_run_ber_shapes_and_counts():
    cfg = config_from_dict(small_raw())
    curves = run_ber(cfg)
    assert set(curves) == {"wdnoma_afdm_npe", "pdnoma_ofdm"}
    for mode, points in curves.items():
        assert [p.snr_db for p in points] == [10.0, 30.0]
        for p in points:
            assert p.trials == 4
            assert 0.0 <= p.metric <= 1.0


def test_run_ber_worker_count_invariance():
    # 65 trials are two chunks, the last of one trial: the serial sweep and
    # the pools concatenate chunks and SNR points along their own axes, with
    # one pool at a time (65 trials, 2 workers) or pools side by side
    for trials in (4, 65):
        cfg = config_from_dict(small_raw(sweep={"trials": trials}))
        want = run_ber(cfg, workers=1)
        for workers in (2, 3):
            assert run_ber(cfg, workers=workers) == want


@pytest.mark.parametrize("workers", [0, -2, True, 1.5, "2", None])
def test_sweeps_reject_bad_workers_before_any_work(tmp_path, monkeypatch, workers):
    # run_and_write(..., workers=-2) ran serially and wrote "workers": -2 to the manifest
    monkeypatch.setattr(harness, "_per_snr", lambda *a, **k: pytest.fail("swept"))
    cfg = config_from_dict(small_raw())
    for sweep in (run_ber, run_sensing):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            sweep(cfg, workers=workers)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_and_write("ber", cfg, out, workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("channel", [{"velocity_bounds": [0.0, 0.0]},
                                     {"range_bounds": [0.0, 0.0], "target_count": 1}])
def test_sensing_rejects_a_box_pinned_at_zero_before_any_work(monkeypatch, tmp_path, channel):
    # static targets gave a velocity NMSE of inf or nan, and targets at range 0
    # a distance NMSE of nan, each with only a RuntimeWarning
    monkeypatch.setattr(harness, "_per_snr", lambda *a, **k: pytest.fail("swept"))
    (name,) = set(channel) - {"target_count"}
    cfg = config_from_dict(small_raw(channel=channel))
    with pytest.raises(ValueError, match=name):
        run_sensing(cfg)
    # run_and_write made its output directory first, and left it empty
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=name):
        run_and_write("sense", cfg, out)
    assert not out.exists()


def test_ber_runs_with_boxes_pinned_at_zero():
    cfg = config_from_dict(small_raw(channel={"range_bounds": [0.0, 0.0], "target_count": 1,
                                              "velocity_bounds": [0.0, 0.0]}))
    curves = run_ber(cfg)
    assert all(0.0 <= p.metric <= 0.5 for points in curves.values() for p in points)


def test_pool_tasks_import_no_module():
    # numpy loads numpy.random and numpy.fft on first use, so a forked worker
    # whose parent had not used them imported both for its first chunk. The
    # pools of two points run at once, so each task writes its line in one call
    code = textwrap.dedent("""
        import json, os, sys
        from wdnoma import harness

        def task(*args):
            before = set(sys.modules)
            out = chunk(*args)
            os.write(1, (json.dumps(sorted(set(sys.modules) - before)) + "\\n").encode())
            return out

        chunk, harness._ber_chunk = harness._ber_chunk, task
        harness.run_ber(harness.config_from_dict(json.loads(sys.argv[1])), workers=2)
        """)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(small_raw())],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.splitlines() == ["[]"] * len(small_raw()["sweep"]["snr_db"])


def test_pool_starts_no_idle_workers(monkeypatch):
    # one chunk per SNR point (trials < chunk size): one worker, not two
    from concurrent.futures import ProcessPoolExecutor

    from wdnoma import harness

    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = config_from_dict(small_raw())
    run_ber(cfg, workers=2)
    assert sizes == [1] * len(cfg.sweep.snr_db)


@pytest.mark.parametrize("trials, workers, width, per_wave", [
    (4, 2, 1, 2), (4, 3, 1, 3), (65, 3, 2, 1)])
def test_pools_run_side_by_side_within_the_worker_count(monkeypatch, trials, workers, width,
                                                         per_wave):
    # each SNR point keeps its own pool of one worker per chunk, at most
    # `workers`, and workers // width pools are open at once, shut down newest first
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    opened, shut, open_now, open_sums, alive = [], [], [], [], []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self.index, self.size = len(opened), max_workers
            opened.append(max_workers)
            open_now.append(self)
            open_sums.append(sum(pool.size for pool in open_now))

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            alive.append(len(multiprocessing.active_children()))
            return future

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            open_now.remove(self)
            shut.append(self.index)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = config_from_dict(small_raw(sweep={"trials": trials, "snr_db": [0.0, 10.0, 20.0, 30.0],
                                            "modes": ["wdnoma_afdm_npe"]}))
    assert np.array_equal(harness._per_snr(_ber_chunk, cfg, workers),
                          harness._per_snr(_ber_chunk, cfg, 1))
    assert opened == [width] * len(cfg.sweep.snr_db)
    assert max(open_sums) == width * per_wave <= workers
    assert max(alive) <= workers
    # waves of consecutive points, each closed in the reverse order it opened
    points = range(len(cfg.sweep.snr_db))
    waves = [points[i:i + per_wave] for i in range(0, len(points), per_wave)]
    assert shut == [i for wave in waves for i in reversed(wave)]
    assert not open_now and not multiprocessing.active_children()


@pytest.mark.parametrize("failing_snr", [0.0, 10.0])
def test_a_chunk_that_raises_reaches_the_caller_and_leaves_no_worker(failing_snr):
    # the first or the second pool of a two-pool wave fails; the other keeps
    # running its tasks until the stack shuts both down
    code = textwrap.dedent("""
        import json, multiprocessing, sys
        from wdnoma import harness

        def task(cfg, snr_points, trials, modes):
            if snr_points == (float(sys.argv[2]),):
                raise RuntimeError(f"chunk failed at {snr_points[0]} dB")
            return harness._ber_chunk(cfg, snr_points, trials, modes)

        cfg = harness.config_from_dict(json.loads(sys.argv[1]))
        try:
            harness._per_snr(task, cfg, 2)
        except RuntimeError as exc:
            print(exc)
        print(len(multiprocessing.active_children()))
        """)
    raw = small_raw(sweep={"snr_db": [0.0, 10.0, 20.0, 30.0]})
    done = subprocess.run([sys.executable, "-c", code, json.dumps(raw), str(failing_snr)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.splitlines() == [f"chunk failed at {failing_snr} dB", "0"]


def test_run_sensing_pools_and_worker_count_invariance(monkeypatch):
    # one pool per SNR point, as in run_ber, and the same curves as in-process,
    # also over two chunks
    from concurrent.futures import ProcessPoolExecutor

    from wdnoma import harness

    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    for trials in (3, 65):
        cfg = config_from_dict(small_raw(sweep={"trials": trials}))
        want = run_sensing(cfg, workers=1)
        for workers in (2, 3):
            starts.clear()
            assert run_sensing(cfg, workers=workers) == want
            assert len(starts) == len(cfg.sweep.snr_db)


def test_run_sensing_output_structure():
    cfg = config_from_dict(small_raw(sweep={"modes": ["wdnoma_afdm_npe"],
                                            "snr_db": [30.0], "trials": 3}))
    curves = run_sensing(cfg)
    assert set(curves) == {("wdnoma_afdm_npe", "velocity"), ("wdnoma_afdm_npe", "distance")}
    for points in curves.values():
        assert len(points) == 1
        assert points[0].metric >= 0.0


def _write_cfg(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


def test_cli_validate_config(tmp_path, capsys):
    p = _write_cfg(tmp_path, small_raw())
    assert main(["validate-config", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ok: config hash" in out
    bad = small_raw()
    bad["system"]["bogus"] = 1
    pb = _write_cfg(tmp_path, bad)
    assert main(["validate-config", "--config", str(pb)]) == 2
    # a missing key is a config error too, not a traceback
    del bad["system"]["bogus"], bad["sweep"]["trials"]
    pb = _write_cfg(tmp_path, bad)
    capsys.readouterr()
    assert main(["validate-config", "--config", str(pb)]) == 2
    assert "config error: missing keys in sweep: ['trials']" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, monkeypatch, workers):
    # a config error before any sweep starts, not a serial run with a bogus manifest
    monkeypatch.setattr("wdnoma.cli.run_and_write", lambda *a, **k: pytest.fail("swept"))
    out = tmp_path / "out"
    assert main(["ber", "--config", str(CONFIG), "--out", str(out), "--workers", workers]) == 2
    assert f"config error: --workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("channel", [{"velocity_bounds": [0.0, 0.0]},
                                     {"range_bounds": [0.0, 0.0], "target_count": 1}])
def test_cli_sense_rejects_a_box_pinned_at_zero_as_a_config_error(tmp_path, capsys, channel):
    # it made an empty --out directory, then died in run_sensing with a traceback
    (name,) = set(channel) - {"target_count"}
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, small_raw(channel=channel))
    assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: channel.{name} = [0.0, 0.0] puts every target at 0" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_out_that_is_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("wdnoma.cli.run_and_write", lambda *a, **k: pytest.fail("swept"))
    out = tmp_path / "out"
    out.write_text("kept")
    for command in ("ber", "sense", "stats"):
        assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept"
    # validate-config writes nothing, so --out does not matter to it
    assert main(["validate-config", "--config", str(CONFIG), "--out", str(out)]) == 0


def test_cli_ber_run_writes_files(tmp_path):
    p = _write_cfg(tmp_path, small_raw())
    out = tmp_path / "out"
    rc = main(["ber", "--config", str(p), "--out", str(out),
               "--mode", "wdnoma_afdm_npe", "--snr", "10", "--trials", "2"])
    assert rc == 0
    assert (out / "ber_wdnoma_afdm_npe.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["master_seed"] == 12345
    assert manifest["workers"] == 1
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"]["name"] == blas["name"]
    assert manifest["blas"]["version"] == blas["version"]
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    assert manifest["lapack"] == {"name": lapack["name"], "version": lapack["version"]}
    lines = (out / "ber_wdnoma_afdm_npe.csv").read_text().splitlines()
    assert lines[0] == "snr_db,metric,trials,errors,ci_halfwidth"
    assert len(lines) == 2


def test_manifest_records_blas_thread_env_without_setting_it(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["ber", "--config", str(_write_cfg(tmp_path, small_raw())), "--out", str(out),
                 "--mode", "pdnoma_ofdm", "--snr", "10", "--trials", "1"]) == 0
    env = json.loads((out / "run_manifest.json").read_text())["blas"]["thread_env"]
    assert env["OPENBLAS_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None
    assert {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"} <= set(env)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "MKL_NUM_THREADS" not in os.environ


def test_manifest_wall_time_ignores_wall_clock_steps(tmp_path, monkeypatch):
    # the wall clock stepped back an hour at each read (an NTP step mid-run)
    clock = iter(range(10 ** 9, 0, -3600))
    monkeypatch.setattr(harness.time, "time", lambda: float(next(clock)))
    run_and_write("ber", config_from_dict(small_raw(sweep={"trials": 1})), tmp_path)
    assert json.loads((tmp_path / "run_manifest.json").read_text())["wall_time_s"] >= 0


def test_manifest_hashes_every_listed_file(tmp_path):
    out = tmp_path / "out"
    assert main(["sense", "--config", str(_write_cfg(tmp_path, small_raw())), "--out", str(out),
                 "--workers", "2", "--trials", "2", "--snr", "30"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["workers"] == 1     # the pool's size: two trials are one chunk
    assert sorted(manifest["sha256"]) == sorted(manifest["files"])
    assert len(manifest["files"]) == 4   # two modes, distance and velocity
    for f in manifest["files"]:
        assert hashlib.sha256(Path(f).read_bytes()).hexdigest() == manifest["sha256"][f]


def test_manifest_config_reruns_to_the_run_config_and_its_hash(tmp_path):
    # the resolved config, c1's default filled in: an output directory can
    # be re-run and its hash re-checked on its own
    cfg = config_from_dict(small_raw(sweep={"trials": 1}, system={"c2": 0.25}))
    run_and_write("ber", cfg, tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"]["system"]["c1"] == 3 / 512
    again = config_from_dict(manifest["config"])
    assert again == cfg
    assert config_hash(again) == manifest["config_hash"]


def test_cli_repeat_runs_byte_identical(tmp_path):
    p = _write_cfg(tmp_path, small_raw())
    outs = []
    for name, workers in (("a", "1"), ("b", "2"), ("c", "3")):
        out = tmp_path / name
        main(["ber", "--config", str(p), "--out", str(out), "--workers", workers,
              "--mode", "wdnoma_afdm_npe,pdnoma_ofdm", "--trials", "3"])
        outs.append(out)
    for f in ("ber_wdnoma_afdm_npe.csv", "ber_pdnoma_ofdm.csv"):
        assert {(out / f).read_bytes() for out in outs} == {(outs[0] / f).read_bytes()}


def test_cli_sense_default_modes(tmp_path):
    # every default mode completes, PD-NOMA OFDM included
    out = tmp_path / "sense"
    assert main(["sense", "--config", str(CONFIG), "--out", str(out),
                 "--trials", "2", "--snr", "30"]) == 0
    files = sorted(out.glob("nmse_*.csv"))
    assert len(files) == 2 * len(MODES)
    for f in files:
        with open(f) as fh:
            (row,) = list(csv.DictReader(fh))
        assert all(math.isfinite(float(row[k])) for k in ("metric", "ci_halfwidth"))


def test_cli_rejects_too_small_stats_run(tmp_path, capsys):
    # below 100 frames or 1e4 samples the statistics cannot be formed; the
    # run fails at parse time and leaves no output directory
    out = tmp_path / "stats"
    assert main(["stats", "--config", str(CONFIG), "--trials", "50", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    small = small_raw(system={"N": 64, "N1": 8, "N2": 8}, frame={"K1": 16, "K2": 16})
    p = _write_cfg(tmp_path, small)
    assert main(["stats", "--config", str(p), "--trials", "120", "--out", str(out)]) == 2
    assert "trials * N" in capsys.readouterr().err
    assert not out.exists()
    # the same small configuration is a valid sweep
    assert main(["validate-config", "--config", str(p), "--trials", "120"]) == 0


def test_cli_stats_runs_and_repeats_byte_identical(tmp_path):
    # stats accepts --workers but runs in one process, and its manifest says so
    outs = [tmp_path / "a", tmp_path / "b"]
    for out, workers in zip(outs, ("1", "4")):
        assert main(["stats", "--config", str(CONFIG), "--trials", "200",
                     "--out", str(out), "--workers", workers]) == 0
    data = ("stats_prechannel.csv", "stats_postchannel.csv", "gaussianity.json")
    for out in outs:
        assert sorted(f.name for f in out.iterdir()) == sorted(data + ("run_manifest.json",))
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == 1
    for f in data:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
