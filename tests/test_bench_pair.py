"""scripts/bench_pair.py's parser and summarizer, on fabricated perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def perfbench_stdout(wall: dict, rss: float = 40.0, correct: bool = True) -> str:
    """What perfbench/run.py --workload all --trace 0 prints, cut to its parsed lines."""
    metrics = {}
    for workload, value in wall.items():
        metrics[f"{workload}/wall_norm_s"] = {"value": value, "unit": "s"}
        metrics[f"{workload}/peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return "\n".join([
        'env: {"nproc": 2, "python": "3.11.7", "git_commit": "abc"}',
        "[cascade_schw] run: cascade --mass 4.0: wall 0.400 s, ok",
        "[cascade_schw] wall_norm_s: 0.2 s (mean; median 0.2, q1 0.19, q3 0.21; n=7)",
        "env: loadavg_after [0.5, 0.4, 0.3]",
        json.dumps({"correct": correct, "attempted": 15, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_splits_workload_and_metric():
    run = bench_pair.parse_run(perfbench_stdout({"cascade_schw": 0.2, "spectrum_rn_csv": 0.3}))
    assert run["env"] == {"nproc": 2, "python": "3.11.7", "git_commit": "abc"}
    assert run["metrics"] == {
        "cascade_schw": {"wall_norm_s": 0.2, "peak_rss_mb": 40.0},
        "spectrum_rn_csv": {"wall_norm_s": 0.3, "peak_rss_mb": 40.0},
    }
    assert run["units"] == {"wall_norm_s": "s", "peak_rss_mb": "MB"}
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 15, 0)


def test_summarize_counts_pairs_and_takes_quartiles():
    parent = [0.20, 0.19, 0.21, 0.18, 0.22]
    change = [0.16, 0.17, 0.21, 0.19, 0.15]  # lower in 3 pairs, tied in 1, higher in 1
    pairs = [{"seed": s,
              "parent": bench_pair.parse_run(perfbench_stdout({"cascade_schw": a})),
              "change": bench_pair.parse_run(perfbench_stdout({"cascade_schw": b}))}
             for s, (a, b) in enumerate(zip(parent, change))]
    summary = bench_pair.summarize(pairs)
    assert set(summary) == {"cascade_schw"}
    wall = summary["cascade_schw"]["wall_norm_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == pytest.approx({"median": 0.20, "q1": 0.19, "q3": 0.21, "n": 5})
    assert wall["change"] == pytest.approx({"median": 0.17, "q1": 0.16, "q3": 0.19, "n": 5})
    assert (wall["change_lower_in"], wall["change_higher_in"], wall["pairs"]) == (3, 1, 5)
    rss = summary["cascade_schw"]["peak_rss_mb"]
    assert (rss["change_lower_in"], rss["change_higher_in"]) == (0, 0)


def test_one_pair_has_its_value_as_every_quartile():
    pairs = [{"parent": bench_pair.parse_run(perfbench_stdout({"verify_all": 1.0})),
              "change": bench_pair.parse_run(perfbench_stdout({"verify_all": 0.9}))}]
    wall = bench_pair.summarize(pairs)["verify_all"]["wall_norm_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
    assert wall["change_lower_in"] == 1


def test_run_side_appends_the_seed_to_the_recorded_command(monkeypatch, tmp_path):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return bench_pair.subprocess.CompletedProcess(
            argv, 0, stdout=perfbench_stdout({"cascade_schw": 0.2}), stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    bench_pair.run_side(tmp_path, 7, 40)
    assert calls == [(bench_pair.perfbench_argv(40) + ["--seed", "7"], tmp_path)]
    assert bench_pair.perfbench_argv(40)[1:] == [
        "perfbench/run.py", "--workload", "all", "--seconds", "40", "--trace", "0"]


def test_main_refuses_to_overwrite_a_bench_file(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("ran a command")

    monkeypatch.setattr(bench_pair.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--label", "x", "--parent", "HEAD", "--seeds", "1"])
    assert exc.value.code == 2
    assert "BENCH_x.json exists" in capsys.readouterr().err
    assert (tmp_path / "BENCH_x.json").read_text() == "{}\n"


def test_main_runs_both_sides_from_equal_length_paths_without_stale_bytecode(monkeypatch,
                                                                            tmp_path):
    def tree(root: Path) -> None:
        for name in ("src/bhspectra/cli.py", "src/bhspectra/__pycache__/cli.cpython-311.pyc",
                     "perfbench/run.py", "perfbench/__pycache__/run.cpython-311.pyc",
                     "perfbench/out/result.json", "tests/test_cli.py", "README.md"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text("")
        (root / "BENCHMARK.json").write_text('{"run_seconds": 1}')

    root = tmp_path / "repo"
    tree(root)
    monkeypatch.setattr(bench_pair, "ROOT", root)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "abc")
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: tree(dest))
    monkeypatch.setattr(bench_pair.subprocess, "run", lambda *args, **kwargs: None)  # compileall
    sides = {}

    def run_side(side, seed, seconds):
        # Each root holds its side's directory alone.
        assert [p.name for p in side.parent.iterdir()] == [bench_pair.SIDE]
        sides[side] = sorted(p.relative_to(side).as_posix() for p in side.rglob("*")
                             if p.is_file())
        return bench_pair.parse_run(perfbench_stdout({"cascade_schw": 0.2}))

    monkeypatch.setattr(bench_pair, "run_side", run_side)
    assert bench_pair.main(["--label", "x", "--parent", "HEAD", "--seeds", "1"]) == 0
    parent, change = sides
    # One directory name in two roots whose paths are of equal length.
    assert parent.name == change.name == bench_pair.SIDE
    assert len(str(parent)) == len(str(change)) and parent.parent != change.parent
    # Both sides hold the same measured files, built the same way.
    assert sides[parent] == sides[change] == [
        "BENCHMARK.json", "perfbench/run.py", "src/bhspectra/cli.py"]
