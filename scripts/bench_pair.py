#!/usr/bin/env python3
"""Benchmark pairs: a parent commit against the working tree, on perfbench.

For each seed the script runs

    python3 perfbench/run.py --workload all --seconds <run_seconds> --trace 0 --seed <seed>

with run_seconds read from BENCHMARK.json, once in an export of the parent
commit and once in a copy of the working tree, each with its own perfbench/
and src/, alternating which side goes first. It then
writes BENCH_<label>.json at the repo root: each side's metrics per seed,
the median and quartiles of each metric per workload and side, how many
pairs the change read lower in, the seeds, both commits and both sides'
perfbench `env` blocks. It refuses to start if that file already exists, so
no earlier set of runs is overwritten.

Each side is src/, perfbench/ and BENCHMARK.json, copied to <tmp>/tree in a
temporary directory of its own, removed at the end: the parent's from a
`git archive` export of the commit, the change's from the working tree. So
the two sides differ in the contents of those files only. Both run from a
directory of the same name, in roots whose paths are of equal length: the
name alone has moved a run's peak RSS by 0.4-0.9 MB, and a path's length by
~0.1 MB. The copy leaves out bytecode and perfbench's outputs, so no `.pyc`
compiled in another checkout is run. Both sides' packages are compiled to bytecode before
the first run, as an installed package is, so neither side compiles its
modules on every run.

Run:
    python3 scripts/bench_pair.py --label gc_freeze --parent HEAD~2 --seeds 5 6 7 8 9
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench_argv(seconds: float) -> list[str]:
    """perfbench's command line, without the seed each run appends."""
    return [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", str(seconds),
            "--trace", "0"]


def parse_run(stdout: str) -> dict:
    """One perfbench run's result from its standard output.

    The first `env: {...}` line is the environment; the last line is the
    result object, whose metrics are keyed "<workload>/<metric>".
    """
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: {"))
    result = json.loads(lines[-1])
    metrics: dict[str, dict[str, float]] = {}
    for key, entry in result["metrics"].items():
        workload, _, metric = key.partition("/")
        metrics.setdefault(workload, {})[metric] = entry["value"]
    units = {key.partition("/")[2]: entry["unit"] for key, entry in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "units": units, "env": env}


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles over the
    pairs, and the number of pairs in which the change read lower (ties
    count for neither side)."""
    units = {**pairs[0]["parent"]["units"], **pairs[0]["change"]["units"]}
    summary: dict[str, dict[str, dict]] = {}
    for workload, metrics in pairs[0]["parent"]["metrics"].items():
        for metric in metrics:
            both = [(p["parent"]["metrics"][workload][metric],
                     p["change"]["metrics"][workload][metric]) for p in pairs]
            summary.setdefault(workload, {})[metric] = {
                "unit": units[metric],
                "parent": quartiles([a for a, _ in both]),
                "change": quartiles([b for _, b in both]),
                "change_lower_in": sum(b < a for a, b in both),
                "change_higher_in": sum(b > a for a, b in both),
                "pairs": len(both),
            }
    return summary


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit rev, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


# What a perfbench run takes from the working tree.
MEASURED = ("src", "perfbench", "BENCHMARK.json")

# The name of each side's directory, the same for both.
SIDE = "tree"


def copy_measured(source: Path, dest: Path) -> None:
    """source's MEASURED files under dest, without bytecode (__pycache__) or
    perfbench's outputs (perfbench/out)."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    dest.mkdir()
    for name in MEASURED:
        if (source / name).is_dir():
            shutil.copytree(source / name, dest / name, ignore=skip)
        else:
            shutil.copy2(source / name, dest / name)


def run_side(side: Path, seed: int, seconds: float) -> dict:
    proc = subprocess.run(perfbench_argv(seconds) + ["--seed", str(seed)], cwd=side,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {side} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    opts = ap.parse_args(argv)
    out = ROOT / f"BENCH_{opts.label}.json"
    if out.exists():
        ap.error(f"{out.name} exists; choose another --label or move the file")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    parent_commit = git("rev-parse", "--verify", f"{opts.parent}^{{commit}}")
    # Dirty: the measured code (src/, perfbench/) differs from the commit.
    change = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    pairs = []
    with (tempfile.TemporaryDirectory(prefix="bench_pair_") as parent_root,
          tempfile.TemporaryDirectory(prefix="bench_pair_") as change_root):
        sides = {"parent": Path(parent_root, SIDE), "change": Path(change_root, SIDE)}
        with tempfile.TemporaryDirectory(prefix="bench_pair_export_") as tree:
            export(parent_commit, Path(tree))
            copy_measured(Path(tree), sides["parent"])
        copy_measured(ROOT, sides["change"])
        for side in sides.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src/bhspectra"],
                           cwd=side, check=True)
        for i, seed in enumerate(opts.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for name in order:
                pair[name] = run_side(sides[name], seed, seconds)
            pairs.append(pair)
            for workload, metrics in pair["parent"]["metrics"].items():
                print(f"seed {seed} [{workload}] " + ", ".join(
                    f"{m} {v:.4g}->{pair['change']['metrics'][workload][m]:.4g}"
                    for m, v in metrics.items()), flush=True)

    summary = summarize(pairs)
    record = {
        "label": opts.label,
        "command": perfbench_argv(seconds)[1:],
        "seeds": opts.seeds,
        "parent": {"rev": opts.parent, "commit": parent_commit},
        "change": change,
        "env": {name: pairs[0][name]["env"] for name in ("parent", "change")},
        "summary": summary,
        "pairs": [{"seed": p["seed"], "first": p["first"], **{
            name: {k: p[name][k] for k in ("correct", "attempted", "failed", "metrics")}
            for name in ("parent", "change")}} for p in pairs],
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            a, b = s["parent"], s["change"]
            print(f"[{workload}] {metric}: parent {a['median']:.4g} [{a['q1']:.4g}, "
                  f"{a['q3']:.4g}] -> change {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                  f"{s['unit']}; change lower in {s['change_lower_in']} of {s['pairs']}")
    print(f"wrote {out}")
    ok = all(p[name]["correct"] and not p[name]["failed"] for p in pairs
             for name in ("parent", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
