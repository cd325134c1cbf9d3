"""Golden bytes for spectrum outputs.

The digests pin every data file `spectrum` writes (spectrum.csv/.jsonl/.json
and info_report.json; manifest.json carries timing and is left out), so any
change to arithmetic, row order or number formatting shows up here. The
configs cover a charged grid, an extremal source (thermal column all nan),
weights that underflow to 0.0, a log-corrected raw spectrum and a spin axis.
"""

import hashlib

import pytest

from bhspectra.cli import main

BENCH = ("--family", "rn", "--mass", "1.5", "--charge", "0.75", "--omega-max", "1.125",
         "--bins", "300", "--q-step", "0.1875", "--n-q", "4", "--normalization", "unitsum",
         "--report")

GOLDEN = {
    "rn_csv": (
        (*BENCH, "--format", "csv"),
        {
            "spectrum.csv": "9ff38d59a6edfcccf85c051f06043246c6a5c30e13780d7551719eb191181535",
            "info_report.json": "7fc22856ad27a0627702db0b331ff45d3d1b04fb168fdee5808bcff695a77df1",
        },
    ),
    "rn_jsonl": (
        (*BENCH, "--format", "jsonl"),
        {
            "spectrum.jsonl": "0a2776bf12b57ce66b20a3b1855c6f7626cd344dba7432b5433d90455aa1ee83",
            "info_report.json": "084fae18b5bbce35cd8c4bb18465201d27abae49fec6ef1ef2944ef0cada9665",
        },
    ),
    "rn_json": (
        (*BENCH, "--format", "json"),
        {
            "spectrum.json": "0078d26ed1a964fcc6a610ca8a45f7344cf1076d67dfccb7c9c7def3db7755bc",
            "info_report.json": "25ee766dbd6dacfc7a9447d6f1d1780d81900118ba24d2c90b124ff493994f0c",
        },
    ),
    "rn_extremal": (
        ("--family", "rn", "--mass", "2", "--charge", "2", "--bins", "500", "--q-step", "0.25",
         "--n-q", "5", "--report"),
        {
            "spectrum.csv": "5da8adad0e099fa2e8f7d52961a7eadcd331f881a9ed7f8c24a5d35dadd4a004",
            "info_report.json": "0ce8c79c557f323f128fd0e2e311263ed47c91d061f837dd417be6e818353b72",
        },
    ),
    "schw_underflow": (
        ("--mass", "700", "--bins", "2000", "--normalization", "unitsum"),
        {"spectrum.csv": "5eddc4f46f2416d413b6195a22153c25f4a8839c6249b4ef176f5ce1b7935601"},
    ),
    "schw_alpha_raw": (
        ("--mass", "3", "--bins", "2000", "--alpha", "-1.5"),
        {"spectrum.csv": "542bea2157aa3a8f85f2cb44108b2d2bf5fe9da0bcda47d3d54f0a0dd4bc4f17"},
    ),
    "kn_spin_axis": (
        ("--family", "kn", "--mass", "2", "--charge", "0.5", "--angular-momentum", "0.5",
         "--bins", "300", "--q-step", "0.125", "--n-q", "3", "--j-step", "0.125", "--n-j", "3",
         "--normalization", "unitsum", "--report"),
        {
            "spectrum.csv": "f229357d06b3d1ee9cc6337b156c09b1f6e599e4fbb482f748eb9acf813ed090",
            "info_report.json": "b5d9358a82ef201a6abb9ac43e6c77180da4349a4f6e70d798d948a81f520fc0",
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
