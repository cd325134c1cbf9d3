"""Golden bytes for cascade outputs.

The digests pin `chains.jsonl` and `ensemble.json` exactly, so any change to
sampling order, arithmetic or serialization shows up here. They do not
depend on `--workers`: each config is checked with 1 and with 2.
"""

import hashlib

import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, cascade_ensemble_stats
from bhspectra.cli import main

GOLDEN = [
    (
        ("--mass", "4.0", "--energy-quantum", "0.0625", "--n-samples", "250", "--seed", "0"),
        "3855719700cf4a7e404d177d4d672f34132163334cef315355c708f396eef62c",
        "876dd70cc59f64e75c58cacdb640a002a86cac9fcc987ee8c8b99a774eda8833",
    ),
    (
        ("--family", "rn", "--mass", "2.0", "--charge", "1.0", "--energy-quantum", "0.125",
         "--charge-quantum", "0.125", "--n-samples", "200", "--seed", "3"),
        "0e31d4a7ae6e19eb41b139fe7a727d1b1e23e709277ff5495e5afb3d1f369ffc",
        "0c21e45cc8da1a0bf3a9a495b35fa3ab8af5ec7996d49348210b74cb03fbbc1d",
    ),
    (
        ("--family", "kn", "--mass", "2.0", "--charge", "0.5", "--angular-momentum", "0.5",
         "--energy-quantum", "0.125", "--charge-quantum", "0.125", "--spin-quantum", "0.125",
         "--n-samples", "100", "--seed", "5"),
        "a0ce328990f9544765bb6ed5a707428130446bbbc88ca3403d174b9ef971b29e",
        "e99e0bf425731ee1dd6182a4e8630def4e290d460877ca556160ce6502168e3f",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("args,chains_sha,ensemble_sha", GOLDEN, ids=["schw", "rn", "kn"])
def test_cascade_output_bytes(tmp_path, args, chains_sha, ensemble_sha, workers):
    assert main(["cascade", *args, "--workers", workers, "--output-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "chains.jsonl") == chains_sha
    assert _sha256(tmp_path / "ensemble.json") == ensemble_sha


def test_batch_ensemble_summary():
    # n = 5 quanta: small enough that every identity census is exact.
    stats = cascade_ensemble_stats(
        BlackHoleState(Family.SCHWARZSCHILD, 0.625),
        CascadePolicy(energy_quantum=0.125),
        200_000,
        seed=0,
        method="batch",
    )
    assert stats.to_json_dict() == {
        "n_samples": 200000,
        "seed": 0,
        "method": "batch",
        "mean_length": 3.308535,
        "length_counts": {"1": 6062, "2": 34691, "3": 72478, "4": 65016, "5": 21753},
        "first_emission_counts": {"1": 138412, "2": 34956, "3": 13127, "4": 7443, "5": 6062},
        "identity_entropy": 2.6820581994285453,
        "n_distinct_identities": 16,
        "mean_raw_log_prob": -4.908738521234051,
        "mean_norm_log_prob": -2.682109049149605,
        "n_stuck": 0,
        "terminated_counts": {"exhausted": 200000},
    }
