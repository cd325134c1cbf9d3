"""Per-sample ensembles: their streams, and their walk and write in chunks
of samples.

Each sample's stream must be numpy's PCG64(SeedSequence((seed, i))).random()
bit for bit, the chunk size must not show in any output byte, a run that
fails part way must leave no chains.jsonl, and the peak memory of a cascade
run must not grow with its sample count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bhspectra import BlackHoleState, CascadePolicy, Family, cascade, cascade_ensemble_stats
from bhspectra.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (state, policy, n_samples, seed): the three golden configs, one with an
# identity census (10 quanta) and one whose chains get stuck.
CONFIGS = {
    "schw": (BlackHoleState(Family.SCHWARZSCHILD, 4.0), CascadePolicy(energy_quantum=0.0625),
             250, 0),
    "rn": (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 1.0),
           CascadePolicy(energy_quantum=0.125, charge_quantum=0.125), 200, 3),
    "kn": (BlackHoleState(Family.KERR_NEWMAN, 2.0, 0.5, 0.5),
           CascadePolicy(energy_quantum=0.125, charge_quantum=0.125, spin_quantum=0.125), 100, 5),
    "census": (BlackHoleState(Family.SCHWARZSCHILD, 1.25), CascadePolicy(energy_quantum=0.125),
               300, 4),
    "rn-stuck": (BlackHoleState(Family.REISSNER_NORDSTROM, 2.0, 0.875),
                 CascadePolicy(energy_quantum=0.25), 40, 0),
}


# Seeds and sample indices around the 32- and 64-bit word boundaries of
# SeedSequence's entropy; 2^100 + 5 with an index of two words gives six
# words, past the pool of four.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 5]
STREAM_INDICES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("block", [None, 1], ids=["default-blocks", "one-value-blocks"])
@pytest.mark.parametrize("n_steps", [0, 1, 16, 64, 129])
@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=hex)
def test_stream_is_numpys_pcg64_bit_for_bit(monkeypatch, seed, n_steps, block):
    if block is not None:
        monkeypatch.setattr(cascade, "_DRAW_BLOCK_STEPS", block)
    draw = cascade._per_sample_draw(seed, STREAM_INDICES, n_steps)
    idx = np.arange(len(STREAM_INDICES))
    got = np.zeros((idx.size, n_steps))
    for t in range(n_steps):
        got[:, t] = draw(t, idx)
    for c, i in enumerate(STREAM_INDICES):
        want = np.random.default_rng(np.random.SeedSequence((seed, i))).random(n_steps)
        assert got[c].view(np.uint64).tolist() == want.view(np.uint64).tolist(), i


def test_cascade_command_runs_with_warnings_as_errors(tmp_path):
    """The stream's arithmetic wraps mod 2^64 on arrays only: numpy warns on
    an overflowing uint64 scalar operation."""
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


def _samples_per_chunk(monkeypatch, k: int | None, n_quanta: int) -> None:
    if k is not None:
        monkeypatch.setattr(cascade, "_CHUNK_STEPS", k * n_quanta)


@pytest.mark.parametrize("name", CONFIGS)
def test_chunk_size_does_not_change_any_byte(tmp_path, monkeypatch, name):
    state, policy, n_samples, seed = CONFIGS[name]
    n_quanta = cascade._TransitionTable(state, policy).n_quanta
    outputs, summaries = [], []
    for k in (None, 1, 7):  # None: the default chunk, which holds every sample here
        with monkeypatch.context() as m:
            _samples_per_chunk(m, k, n_quanta)
            outdir = tmp_path / str(k)
            assert main(_argv(state, policy, n_samples, seed, outdir)) == 0
            assert sorted(p.name for p in outdir.iterdir()) == [
                "chains.jsonl", "ensemble.json", "manifest.json"]
            outputs.append([(outdir / f).read_bytes() for f in ("chains.jsonl", "ensemble.json")])
            summaries.append(
                cascade_ensemble_stats(state, policy, n_samples, seed, "per-sample").to_json_dict()
            )
    assert n_samples <= cascade._CHUNK_STEPS // n_quanta
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert summaries[1] == summaries[0] and summaries[2] == summaries[0]
    if name == "census":
        assert summaries[0]["n_distinct_identities"] > 1
    if name == "rn-stuck":
        assert summaries[0]["n_stuck"] > 0


def test_failure_after_the_first_chunk_leaves_no_chains_file(tmp_path, monkeypatch, capsys):
    state, policy, n_samples, seed = CONFIGS["census"]
    _samples_per_chunk(monkeypatch, 7, cascade._TransitionTable(state, policy).n_quanta)
    walk, calls = cascade._walk, []

    def failing_walk(*args):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("injected in the second chunk")
        return walk(*args)

    monkeypatch.setattr(cascade, "_walk", failing_walk)
    outdir = tmp_path / "out"
    assert main(_argv(state, policy, n_samples, seed, outdir)) == 3
    assert "injected in the second chunk" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(outdir.iterdir()) == []


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
