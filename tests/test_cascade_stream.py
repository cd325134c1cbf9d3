"""Per-sample ensembles: their streams, and their walk and write one chain
at a time.

Each sample's stream must be numpy's PCG64(SeedSequence((seed, i))).random()
bit for bit, a run that fails part way must leave no chains.jsonl, and the
peak memory of a cascade run must not grow with its sample count.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, cascade, cascade_ensemble_stats, cli
from bhspectra.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (state, policy, n_samples, seed): two of the golden configs, a 64-quantum
# Schwarzschild one and a charged and spinning one.
CONFIGS = {
    "schw": (BlackHoleState(Family.SCHWARZSCHILD, 4.0), CascadePolicy(energy_quantum=0.0625),
             250, 0),
    "kn": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5),
           CascadePolicy(energy_quantum=0.125, charge_quantum=0.125, spin_quantum=0.125), 100, 5),
}


# Seeds and sample indices around the 32- and 64-bit word boundaries of
# SeedSequence's entropy; 2^100 + 5 with an index of two words gives six
# words, past the pool of four.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 5]
STREAM_INDICES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40]


class _Uniforms:
    """A one-channel CDF that records each uniform bisect compares with it."""

    def __init__(self) -> None:
        self.seen: list[float] = []

    def __len__(self) -> int:
        return 1

    def __getitem__(self, i: int) -> "_Uniforms":
        return self

    def __gt__(self, u: float) -> bool:
        self.seen.append(u)
        return True  # u < cdf[0]: channel 0


class _RecordingTable(dict):
    """A table of n_steps one-channel rows, each one quantum down, whose CDF
    records the uniforms a chain walked on it draws."""

    def __init__(self, n_steps: int) -> None:
        super().__init__()
        self.n_quanta, self.n_charge, self.n_spin = n_steps, 0, 0
        self.cdf = _Uniforms()

    def __missing__(self, key):
        return SimpleNamespace(cdf=self.cdf, logw=(0.0,), logp=(0.0,), after=((key[0] - 1, 0, 0),))


@pytest.mark.parametrize("index", STREAM_INDICES, ids=hex)
@pytest.mark.parametrize("n_steps", [0, 1, 16, 64, 129])
@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=hex)
def test_stream_is_numpys_pcg64_bit_for_bit(seed, n_steps, index):
    # The walk of one chain: _pcg64_start, then one 128-bit step per draw.
    table = _RecordingTable(n_steps)
    words = cascade._uint32_words(seed) + cascade._uint32_words(index)
    steps, _, _, stuck = cascade._chain(table, *cascade._pcg64_start(words))
    assert len(steps) == n_steps and not stuck
    got = np.array(table.cdf.seen, dtype=np.float64)
    want = np.random.default_rng(np.random.SeedSequence((seed, index))).random(n_steps)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_cascade_command_runs_with_warnings_as_errors(tmp_path):
    """A run at the largest 64-bit seed warns about nothing."""
    state, policy, n_samples, seed = CONFIGS["kn"]
    argv = [sys.executable, "-W", "error", "-m", "bhspectra",
            *_argv(state, policy, n_samples, 2**64 - 1, tmp_path)]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _argv(state, policy, n_samples, seed, outdir) -> list[str]:
    argv = ["cascade", "--family", state.family.value, "--mass", repr(state.m),
            "--charge", repr(state.q), "--angular-momentum", repr(state.j),
            "--energy-quantum", repr(policy.energy_quantum)]
    if policy.charge_quantum is not None:
        argv += ["--charge-quantum", repr(policy.charge_quantum)]
    if policy.spin_quantum is not None:
        argv += ["--spin-quantum", repr(policy.spin_quantum)]
    return argv + ["--n-samples", str(n_samples), "--seed", str(seed), "--output-dir", str(outdir)]


def test_failure_after_the_first_chunk_leaves_no_chains_file(tmp_path, monkeypatch, capsys):
    state, policy, n_samples, seed = CONFIGS["schw"]
    outdir = tmp_path / "out"
    part = outdir / "chains.jsonl.part"
    chain, rows_on_disk = cascade._chain, []

    def failing_chain(*args):
        # The header sits in the file's buffer until the first block is written.
        if part.exists() and part.stat().st_size:
            rows_on_disk.append(len(part.read_bytes().splitlines()) - 1)
            raise FloatingPointError("injected after the first block")
        return chain(*args)

    monkeypatch.setattr(cascade, "_chain", failing_chain)
    assert main(_argv(state, policy, n_samples, seed, outdir)) == 3
    assert "injected after the first block" in capsys.readouterr().err
    assert rows_on_disk[0] > cli._JSONL_BLOCK
    assert list(outdir.iterdir()) == []


def _traced_peak_mb(n_samples: int, path: Path) -> float:
    """The tracemalloc peak of a 64-quantum per-sample ensemble written
    through the CLI's chains writer."""
    state, policy = CONFIGS["schw"][:2]
    tracemalloc.start()
    try:
        with cli._ChainsJsonl(path, "abc", n_samples, 0) as out:
            cascade_ensemble_stats(state, policy, n_samples, 0, on_chain=out.write)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_traced_peak_of_ensemble_and_writer_barely_grows_with_samples(tmp_path):
    # Each chain's rows are queued and written by the block, so only the
    # tallies grow with the samples: two floats a sample, 0.11 MB from 250
    # to 2,000. The whole growth measured 0.14 MB; a buffer of 1,024 chains
    # between the walk and the writer made it 2.9 MB.
    _traced_peak_mb(250, tmp_path / "warm.jsonl")  # fills the transition table's cache
    small = _traced_peak_mb(250, tmp_path / "small.jsonl")
    large = _traced_peak_mb(2_000, tmp_path / "large.jsonl")
    assert large - small <= 0.4, (small, large)


def _peak_rss_mb(n_samples: int, outdir: Path) -> float:
    argv = [sys.executable, "-m", "bhspectra", "cascade", "--mass", "4", "--energy-quantum",
            "0.0625", "--n-samples", str(n_samples), "--output-dir", str(outdir)]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.stderr.close()
    assert status == 0
    return usage.ru_maxrss / 1024.0


def test_peak_memory_does_not_grow_with_samples(tmp_path):
    small = _peak_rss_mb(2_000, tmp_path / "small")
    large = _peak_rss_mb(20_000, tmp_path / "large")
    assert large - small <= 5.0, (small, large)
