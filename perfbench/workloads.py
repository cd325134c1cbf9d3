"""The benchmark's workloads: CLI arguments drawn from a seed, and output checks.

Each workload is one `bhspectra` subcommand whose cost sits in a different
module (see BENCHMARK.json for the reason each exists). Inputs come only from
the workload seed; the checks read the files the CLI wrote and judge them
without importing the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# spectrum_rn_csv: 4 charge values x SPECTRUM_BINS omega nodes.
SPECTRUM_BINS = 31_250
SPECTRUM_N_Q = 4
# cascade_schw: M = 4 in quanta of 1/16 is 64 quanta per chain.
CASCADE_MASS = 4.0
CASCADE_QUANTUM = 0.0625
CASCADE_SAMPLES = 250

LOG_WEIGHT_TOL = 1e-9
UNIT_SUM_TOL = 1e-10


class CheckFailed(Exception):
    """An output file disagrees with what the run must have produced."""


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, iteration) -> CLI arguments after `python -m bhspectra`.
    argv: Callable[[int, int], list[str]]
    # (output dir, argv) -> (digests of data files, counts for rates).
    check: Callable[[Path, list[str]], tuple[dict[str, str], dict[str, float]]]
    # Seconds one CLI run, its output check and the reference run after it
    # typically take on a shared 2-vCPU Xeon at 2.0 GHz; `--seconds / typical_s`
    # CLI runs make one measurement.
    typical_s: float


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _manifest(outdir: Path) -> dict:
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    if len(manifest.get("manifest_hash", "")) != 64:
        raise CheckFailed("manifest.json has no manifest_hash")
    return manifest


def _json_with_hash(path: Path, manifest_hash: str) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("manifest_hash") != manifest_hash:
        raise CheckFailed(f"{path.name}: manifest_hash does not match manifest.json")
    return payload


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# spectrum_rn_csv
# ---------------------------------------------------------------------------


def spectrum_argv(seed: int, iteration: int) -> list[str]:
    # Binary-fraction masses: omega nodes, q steps and remnant hairs are exact,
    # so the closed-channel count below holds exactly for every draw.
    m = random.Random(seed).choice([1.5, 2.0, 2.5, 3.0])
    return [
        "spectrum", "--family", "rn", "--mass", repr(m), "--charge", repr(m / 2),
        "--omega-max", repr(0.75 * m), "--bins", str(SPECTRUM_BINS),
        "--q-step", repr(m / 8), "--n-q", str(SPECTRUM_N_Q),
        "--normalization", "unitsum", "--format", "csv", "--report",
    ]


def expected_closed_channels(n_omega: int, n_q: int) -> int:
    """Closed RN channels on the spectrum_rn_csv grid, in exact arithmetic.

    Node k emits omega = (3/4) M k / n and charge i M / 8 from Q = M / 2; the
    remnant is super-extremal when M - omega < |Q - q|, i.e. when
    3k / (4n) > 1 - |1/2 - i/8|. M cancels.
    """
    closed = 0
    for i in range(n_q):
        limit = 1 - abs(Fraction(1, 2) - Fraction(i, 8))
        # smallest k with 3k > 4n * limit
        k_min = math.floor(4 * n_omega * limit / 3) + 1
        closed += max(0, n_omega - k_min + 1)
    return closed


def check_spectrum(outdir: Path, argv: list[str]):
    manifest_hash = _manifest(outdir)["manifest_hash"]
    _json_with_hash(outdir / "info_report.json", manifest_hash)
    path = outdir / "spectrum.csv"
    rows = closed = 0
    valid_weights = []
    with path.open("r", encoding="utf-8") as f:
        if f.readline() != f"# manifest_hash={manifest_hash}\n":
            raise CheckFailed("spectrum.csv: manifest_hash line does not match manifest.json")
        if f.readline() != "omega,q,j,log_weight,weight,thermal_log_weight,valid\n":
            raise CheckFailed("spectrum.csv: unexpected column header")
        for line in f:
            rows += 1
            cols = line.rstrip("\n").split(",")
            if cols[6] == "true":
                valid_weights.append(float(cols[4]))
            elif cols[6] == "false":
                closed += 1
                if float(cols[4]) != 0.0 or not math.isnan(float(cols[3])):
                    raise CheckFailed(f"spectrum.csv row {rows}: closed channel with weight")
            else:
                raise CheckFailed(f"spectrum.csv row {rows}: bad valid flag {cols[6]!r}")
    n_omega, n_q = int(_flag(argv, "--bins")), int(_flag(argv, "--n-q"))
    if rows != n_omega * n_q:
        raise CheckFailed(f"spectrum.csv: {rows} rows, expected {n_omega * n_q}")
    want_closed = expected_closed_channels(n_omega, n_q)
    if closed != want_closed:
        raise CheckFailed(f"spectrum.csv: {closed} closed channels, expected {want_closed}")
    total = math.fsum(valid_weights)
    if abs(total - 1.0) > UNIT_SUM_TOL:
        raise CheckFailed(f"spectrum.csv: valid weights sum to {total!r}, not 1")
    digests = {name: _digest(outdir / name) for name in ("spectrum.csv", "info_report.json")}
    return digests, {"bins": rows, "n_invalid": closed, "rows": rows}


# ---------------------------------------------------------------------------
# cascade_schw
# ---------------------------------------------------------------------------


def cascade_argv(seed: int, iteration: int) -> list[str]:
    return [
        "cascade", "--mass", repr(CASCADE_MASS), "--energy-quantum", repr(CASCADE_QUANTUM),
        "--n-samples", str(CASCADE_SAMPLES), "--seed", str(seed), "--workers", "1",
    ]


def check_cascade(outdir: Path, argv: list[str]):
    manifest_hash = _manifest(outdir)["manifest_hash"]
    _json_with_hash(outdir / "ensemble.json", manifest_hash)
    m = float(_flag(argv, "--mass"))
    n_samples = int(_flag(argv, "--n-samples"))
    # Every complete Schwarzschild chain telescopes to S(0) - S(M) = -4 pi M^2.
    want_raw = -4.0 * math.pi * m * m
    raw = [0.0] * n_samples
    omega = [0.0] * n_samples
    steps = 0
    with (outdir / "chains.jsonl").open("r", encoding="utf-8") as f:
        header = json.loads(f.readline())
        if header.get("manifest_hash") != manifest_hash or header.get("n_samples") != n_samples:
            raise CheckFailed("chains.jsonl: header does not match the manifest and arguments")
        for line in f:
            row = json.loads(line)
            i = row["sample_index"]
            raw[i] += row["log_weight_raw"]
            omega[i] += row["omega"]
            steps += 1
    for i in range(n_samples):
        if abs(raw[i] - want_raw) > LOG_WEIGHT_TOL:
            raise CheckFailed(f"chains.jsonl sample {i}: log_weight_raw sums to {raw[i]!r}")
        # Binary quanta: the float sum of the emitted energies is exact.
        if omega[i] != m:
            raise CheckFailed(f"chains.jsonl sample {i}: omega sums to {omega[i]!r}, not {m!r}")
    digests = {name: _digest(outdir / name) for name in ("chains.jsonl", "ensemble.json")}
    return digests, {"steps": steps, "chains": n_samples, "rows": steps}


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


def verify_argv(seed: int, iteration: int) -> list[str]:
    # The first two iterations both run the workload seed itself, so that
    # seed's outcome is always reported and its output bytes are compared.
    # Later iterations draw further verify seeds from it; none is skipped.
    vseed = seed if iteration < 2 else random.Random(f"{seed}:{iteration}").randrange(1 << 31)
    return ["verify", "--suite", "all", "--seed", str(vseed)]


def _drop_timing(node):
    if isinstance(node, dict):
        return {k: _drop_timing(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [_drop_timing(v) for v in node]
    return node


def check_verify(outdir: Path, argv: list[str]):
    manifest_hash = _manifest(outdir)["manifest_hash"]
    report = _json_with_hash(outdir / "report.json", manifest_hash)
    if report.get("all_passed") is not True:
        raise CheckFailed("report.json: all_passed is not true")
    # report.json carries per-suite wall_time_s, so its bytes differ run to
    # run; the digest covers everything else.
    stable = json.dumps(_drop_timing(report), sort_keys=True).encode()
    return {"report.json": hashlib.sha256(stable).hexdigest()}, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum_rn_csv", spectrum_argv, check_spectrum, typical_s=5.0),
        Workload("cascade_schw", cascade_argv, check_cascade, typical_s=5.6),
        Workload("verify_all", verify_argv, check_verify, typical_s=6.2),
    )
}
