"""Golden bytes for spectrum outputs.

The digests pin every data file `spectrum` writes (spectrum.csv/.jsonl/.json
and info_report.json; manifest.json carries timing and is left out), so any
change to arithmetic, row order or number formatting shows up here. The
configs cover a charged grid, an extremal source (thermal column all nan),
weights that underflow to 0.0, a log-corrected raw spectrum and a spin axis.
"""

import hashlib
import json

import pytest

from bhspectra import cli
from bhspectra.cli import main

BENCH = ("--family", "rn", "--mass", "1.5", "--charge", "0.75", "--omega-max", "1.125",
         "--bins", "300", "--q-step", "0.1875", "--n-q", "4", "--normalization", "unitsum",
         "--report")

GOLDEN = {
    "rn_csv": (
        (*BENCH, "--format", "csv"),
        {
            "spectrum.csv": "22362f31dcc128a0cdddb345a77ca647beae069e6bd18006aabed3f133b1618a",
            "info_report.json": "150fb84bc630404e3231f7d4c02a65420648a85566f478c39cbb573e2decb655",
        },
    ),
    "rn_jsonl": (
        (*BENCH, "--format", "jsonl"),
        {
            "spectrum.jsonl": "037eb9d499ea0b9c1c6aca6559ef9b6002e8378c4ba17aeac7af684fa09433f2",
            "info_report.json": "6b7fba6a99ff790b3062df5fae920271a52f3162a2dcca64f94363cb622fb68a",
        },
    ),
    "rn_json": (
        (*BENCH, "--format", "json"),
        {
            "spectrum.json": "74779952f2ff9ce258b9343f0d363f9fb2318b49bf7c1b05a459759acd208b74",
            "info_report.json": "08acf74d338053c4952933fc593c6fbb8facd58b012669ff87d64fe7189e6cb0",
        },
    ),
    "rn_extremal": (
        ("--family", "rn", "--mass", "2", "--charge", "2", "--bins", "500", "--q-step", "0.25",
         "--n-q", "5", "--report"),
        {
            "spectrum.csv": "cb67bd835ab159b733de6acb2c6f387f1bc16a8f3a5b644e0ddf9d970633f691",
            "info_report.json": "0d04f9da52e7fd777fb9e65ef9420a3f441356dfdcd7739505f0e25252b73a00",
        },
    ),
    "schw_underflow": (
        ("--mass", "700", "--bins", "2000", "--normalization", "unitsum"),
        {"spectrum.csv": "83c9f1bbb7a36f1df27e7ebdd88cd7dff60d2b07dc4610960d244b6575f11b45"},
    ),
    "schw_alpha_raw": (
        ("--mass", "3", "--bins", "2000", "--alpha", "-1.5"),
        {"spectrum.csv": "0ca26da8f68a00ca76a9b8b9b04f1e375cf5d49c2033b6969f917a3b6095d736"},
    ),
    "kn_spin_axis": (
        ("--family", "kn", "--mass", "2", "--charge", "0.5", "--angular-momentum", "0.5",
         "--bins", "300", "--q-step", "0.125", "--n-q", "3", "--j-step", "0.125", "--n-j", "3",
         "--normalization", "unitsum", "--report"),
        {
            "spectrum.csv": "1367fe820d67501de2d71112d104dcd6116b99f443dda5dc8aa065dddb6112bc",
            "info_report.json": "97efe76f954972cd153373c85a73ac3eb9578485aed689fe6cd42b0230701912",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("args,digests", GOLDEN.values(), ids=GOLDEN.keys())
def test_spectrum_output_bytes(tmp_path, args, digests):
    assert main(["spectrum", *args, "--output-dir", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert written == sorted(digests)
    for name, sha in digests.items():
        assert _sha256(tmp_path / name) == sha, name


CSV_CONFIGS = {name: args for name, (args, digests) in GOLDEN.items() if "spectrum.csv" in digests}


@pytest.mark.parametrize("args", CSV_CONFIGS.values(), ids=CSV_CONFIGS.keys())
def test_csv_floats_take_the_vector_path(tmp_path, monkeypatch, args):
    # The bytes alone cannot show a formatter that sends every value to the
    # per-value `%` fallback: count the fallbacks.
    seen = {"cells": 0, "fallback": 0}
    format_e16 = cli._format_e16

    def counted(values):
        cells, fallback = format_e16(values)
        seen["cells"] += fallback.size
        seen["fallback"] += int(fallback.sum())
        return cells, fallback

    monkeypatch.setattr(cli, "_format_e16", counted)
    assert main(["spectrum", *args, "--output-dir", str(tmp_path)]) == 0
    rows = len((tmp_path / "spectrum.csv").read_text().splitlines()) - 2
    spec = json.loads((tmp_path / "manifest.json").read_text())["config"]["grid_spec"]
    assert rows == spec["n_omega"] * spec["n_q"] * spec["n_j"]
    # log_weight and weight are formatted row by row; omega, q, j and the
    # thermal column (a function of omega) once per value of their axis.
    assert seen["cells"] == 2 * rows + 2 * spec["n_omega"] + spec["n_q"] + spec["n_j"]
    assert seen["fallback"] <= 0.01 * seen["cells"]


def test_underflow_config_reports_underflow(tmp_path):
    args, _ = GOLDEN["schw_underflow"]
    assert main(["spectrum", *args, "--output-dir", str(tmp_path)]) == 0
    health = json.loads((tmp_path / "manifest.json").read_text())["health"]
    assert health["n_bins"] == 2000 and health["n_invalid"] == 0
    assert health["n_underflow"] > 0
