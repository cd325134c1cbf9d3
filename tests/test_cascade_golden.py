"""Golden bytes for cascade outputs.

The digests pin `chains.jsonl` and `ensemble.json` exactly, so any change to
sampling order, arithmetic or serialization shows up here. They do not
depend on `--workers`: each config is checked with 1 and with 2. The cascade
command computes with the math module (glibc's libm on x86-64), not numpy,
so they do not depend on numpy's CPU dispatch either (see test_entry.py).
"""

import hashlib

import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, cascade_ensemble_stats
from bhspectra.cli import main

GOLDEN = [
    (
        ("--mass", "4.0", "--energy-quantum", "0.0625", "--n-samples", "250", "--seed", "0"),
        "5c9e53929a796da776475f6023c71c18a628a6381b29a7a22150ec4cfa6a6e3c",
        "f8396a3c3d7adbf86ad33dda04f2aa3e9c90734713f02e8b5c05952ca6e4785b",
    ),
    (
        ("--family", "rn", "--mass", "2.0", "--charge", "1.0", "--energy-quantum", "0.125",
         "--charge-quantum", "0.125", "--n-samples", "200", "--seed", "3"),
        "8046f83e4e39799326c083c87d92e6de316f014c066d777324ad8ecf3714f9d9",
        "f18ddbc9a8567ca3d3eabd5debfc368f88ccb49917c9a170ad4134b7093281b6",
    ),
    (
        ("--family", "kn", "--mass", "2.0", "--charge", "0.5", "--angular-momentum", "0.5",
         "--energy-quantum", "0.125", "--charge-quantum", "0.125", "--spin-quantum", "0.125",
         "--n-samples", "100", "--seed", "5"),
        "96488e2aff3127bb79913cba98c5dcc49e64946d89b932d2545f2fff435e1880",
        "55043c67556056e960db15c3fe13863d8c2ffa885e018a89fc63a930572035b9",
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
