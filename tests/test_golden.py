"""Golden outputs: the desk sweeps' CSV bytes, pinned by sha256.

Each hash was recorded before a change that was meant to keep every curve,
so a solver or kernel rewrite that moves any BER or NMSE figure, or the
CSV layout, fails here. The set is the BER and the sensing sweep of every
mode the config runs by default.
"""

import hashlib
from pathlib import Path

import pytest

from wdnoma.cli import main

CONFIG = Path(__file__).parent.parent / "configs" / "desk.json"
SWEEP = ["--config", str(CONFIG), "--trials", "64", "--snr", "0,20,35"]

GOLDEN = {
    "ber_pdnoma_ofdm.csv": "85a3976c032765c673736a7312444da91ca7f25254c7081c8453ad00421cd738",
    "ber_wdnoma_afdm_genie.csv": "fbc38091338cae07d98af70c72b402801e1a16f367510d030abc4968aed6c326",
    "ber_wdnoma_afdm_no_npe.csv": "00e26d3df3cd334e115db2579f72a572cebd109a075f655578d121f4537441cc",
    "ber_wdnoma_afdm_npe.csv": "9b17e09141fc2c26c8044105a1d7552417450a048b8ffe55b6804dae9cc5b739",
    "ber_wdnoma_otfs_npe.csv": "e5194defdece2a2ac12c86dee0479ff76c6164d5d4e93940a99b86d674733934",
    "nmse_distance_pdnoma_ofdm.csv": "7dd7192cd6586f551c96ced1fbdbc2c4875347f52d10fd3cb5db23f3cf37ee6a",
    "nmse_distance_wdnoma_afdm_genie.csv": "6a5f7e16989c187ba3dd34456234cff91c627939ca1835883ff4d14eb287be56",
    "nmse_distance_wdnoma_afdm_no_npe.csv": "708d14fc7f928ebb1dc479dc82769c55ca2f1650e5f1d162220fb9b8f39b5103",
    "nmse_distance_wdnoma_afdm_npe.csv": "a0f6b2706ce0ab8a57fc3d5dcef254cf1dba009e6e3844a321e54c44545d04a6",
    "nmse_distance_wdnoma_otfs_npe.csv": "5c43ba45e12049876fc4530cbe9360c6af4b6edda376dbdf234a004c5914f79e",
    "nmse_velocity_pdnoma_ofdm.csv": "c1633323ab3f9c3409474244e679d88c3643e4002ec1a35b81a74bcd85a5c5bd",
    "nmse_velocity_wdnoma_afdm_genie.csv": "8ad4a0eebff4c5455172ac0c488b438abc780cb0b30a1defd772f6f7a20b0913",
    "nmse_velocity_wdnoma_afdm_no_npe.csv": "1d68f3ddb3e319c7eaf029c99efff7ce5bd8501732d709911433abd5c29de286",
    "nmse_velocity_wdnoma_afdm_npe.csv": "9d02b51e49284a520e9c7a6be8496e63a5569e62dae0817afaa4ea0ab1467da8",
    "nmse_velocity_wdnoma_otfs_npe.csv": "c139f445196cd334330bb24add0728b2a6c2b6c6af257119d651d7ef60d84267",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["ber", *SWEEP, "--out", str(out)]) == 0
    assert main(["sense", *SWEEP, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_desk_csv_matches_golden_hash(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]

