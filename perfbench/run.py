"""bhspectra benchmark: the CLI end to end, plus a traced per-layer breakdown.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is taken from its `src/`.
A closed loop: one CLI subprocess at a time (`python3 -m bhspectra ...`,
`--workers 1`, default environment), each in a fresh interpreter, as many
runs as fit in `--seconds` at the workload's typical run time (a count fixed
by the arguments, so the same arguments attempt the same runs). Every run's
output files are checked from outside. The fixed program perfbench/reference.py
runs after each CLI run; the gated times are scaled by it to the machine's
quiet speed (see `scaled`).
With `--trace 1` the untraced loop is followed by one traced in-process run
of each workload (perfbench/tracer.py), from which the per-layer metrics are
taken. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Per-run details and the
environment go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import PER_LAYER, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 4
CHILD_TIMEOUT_S = 150.0
# The scale of normalized seconds: about perfbench/reference.py's wall time
# on a quiet 2-vCPU Xeon at 2.0 GHz.
REF_NOMINAL_S = 1.0
REFERENCE = ROOT / "perfbench" / "reference.py"


@dataclass
class ChildRun:
    argv: list[str]
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr_tail: str = ""


@dataclass
class Iteration:
    run: ChildRun
    ok: bool = False
    error: str = ""
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    manifest_wall_s: float | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path | None = None) -> ChildRun:
    """Run one child to completion: wall time spawn to exit, rusage from wait4."""
    err = stderr_path.open("wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stderr_path:
            err.close()
    tail = ""
    if stderr_path and proc.returncode != 0:
        lines = stderr_path.read_text(errors="replace").strip().splitlines()
        tail = lines[-1] if lines else ""
    return ChildRun(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, tail)


def cli_argv(args: list[str], outdir: Path) -> list[str]:
    return [sys.executable, "-m", "bhspectra", *args, "--output-dir", str(outdir)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "mean": statistics.fmean(values), "n": len(values)}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

_ENV_PROBE = """
import json, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", _ENV_PROBE], capture_output=True, text=True,
                           env=child_env(), timeout=60)
    try:
        libs = json.loads(probe.stdout)
    except json.JSONDecodeError:
        libs = {"probe_error": probe.stderr.strip()[-200:]}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = rev.stdout.strip() or commit
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **libs,
        "blas_thread_vars": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "git_commit": commit,
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# the timed, untraced closed loop
# ---------------------------------------------------------------------------


def reference(workdir: Path) -> float:
    run = spawn([sys.executable, str(REFERENCE)], workdir)
    if run.exit_code != 0:
        raise RuntimeError(f"the reference program exited {run.exit_code}")
    return run.wall_s


def scaled(q: dict, ref_walls: list[float]) -> dict:
    """Statistics in seconds scaled to the speed at which the reference takes REF_NOMINAL_S.

    The host is shared: for seconds to minutes at a time everything on it
    runs up to twice as slow. The reference slows with it, and it runs no
    bhspectra code, so the ratio keeps every change of the package and drops
    most of the host's. The gated value is the mean of the timed runs over
    the mean of the reference runs made in the same cycles. Both sets of
    runs fall into two modes, quiet and busy host, so a median of 6 to 8 runs
    jumps between the modes, while a mean moves smoothly with the busy share
    and the reference's mean moves with it. Dividing each run by its
    neighbouring reference runs instead adds each reference run's own noise.
    """
    factor = REF_NOMINAL_S / statistics.fmean(ref_walls)
    return {**q, **{k: q[k] * factor for k in ("mean", "median", "q1", "q3")}}


def run_checked(workload, args: list[str], argv: list[str], outdir: Path) -> Iteration:
    it = Iteration(spawn(argv, outdir.parent, outdir.parent / f"{outdir.name}.stderr"))
    if it.run.exit_code != 0:
        it.error = f"exit {it.run.exit_code}: {it.run.stderr_tail}"
        return it
    try:
        it.digests, it.counts = workload.check(outdir, args)
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        it.manifest_wall_s = float(manifest["timing"]["wall_time_s"])
        it.ok = True
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        it.error = f"output check failed: {type(exc).__name__}: {exc}"
    return it


def run_count(workload, seconds: float) -> int:
    return max(SETUP_REPS, round(seconds / workload.typical_s))


def measure(workload, seed: int, seconds: float):
    """The timed loop: one cycle per CLI run, and `--help` in the first SETUP_REPS cycles.

    A cycle runs `bhspectra --help` (interpreter start, imports, parser: the
    set-up time), the CLI run, then the reference. Returns the CLI runs, the
    set-up times and the reference times (one before the first cycle, then
    one per cycle).
    """
    workdir = fresh_dir(OUT / workload.name)
    outdir = workdir / "run"
    help_argv = [sys.executable, "-m", "bhspectra", "--help"]
    spawn(help_argv, workdir)  # warm-up: file (and bytecode) caches fill once per checkout
    iterations: list[Iteration] = []
    setup_walls: list[float] = []
    ref_walls = [reference(workdir)]
    first_digests: dict[tuple, dict] = {}
    for i in range(run_count(workload, seconds)):
        if i < SETUP_REPS:
            setup_walls.append(spawn(help_argv, workdir).wall_s)
        args = workload.argv(seed, i)
        it = run_checked(workload, args, cli_argv(args, fresh_dir(outdir)), outdir)
        ref_walls.append(reference(workdir))
        if it.ok:
            # Identical inputs must give identical data files.
            seen = first_digests.setdefault(tuple(args), it.digests)
            if seen != it.digests:
                it.ok = False
                it.error = "output check failed: data-file digests differ from an earlier run"
        iterations.append(it)
    return iterations, setup_walls, ref_walls


def loop_stats(iterations: list[Iteration], setup_walls: list[float],
               ref_walls: list[float]) -> dict:
    ok = [it for it in iterations if it.ok]
    failed = [it for it in iterations if not it.ok]
    # An aborted run does less work, so failed runs' times are kept apart.
    basis = ok or failed
    wall = quartiles([it.run.wall_s for it in basis])
    cpu = quartiles([it.run.cpu_s for it in basis])
    setup = quartiles(setup_walls)
    stats = {
        "wall_norm_s": scaled(wall, ref_walls),
        "cpu_norm_s": scaled(cpu, ref_walls),
        # The set-up runs share the first cycles with these reference runs.
        "setup_s": scaled(setup, ref_walls[:len(setup_walls) + 1]),
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_wall_s": setup,
        "peak_rss_mb": quartiles([it.run.peak_rss_mb for it in basis]),
        "reference_s": quartiles(ref_walls),
        "timed_from": "successful runs" if ok else "failed runs (no run succeeded)",
        "failed_wall_s": quartiles([it.run.wall_s for it in failed]) if failed else None,
        "fail_rate": len(failed) / len(iterations),
    }
    for rate, count in (("bins_per_s", "bins"), ("steps_per_s", "steps")):
        if ok and count in ok[0].counts:
            stats[rate] = quartiles([it.counts[count] / it.run.wall_s for it in ok])
    if ok:
        stats["cli.manifest_gap_s"] = quartiles(
            [it.run.wall_s - setup["median"] - it.manifest_wall_s for it in ok]
        )
    return stats


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def traced_run(workload, seed: int) -> dict:
    """One traced in-process run of the workload's first input, in its own interpreter."""
    base = OUT / workload.name
    outdir = fresh_dir(base / "trace")
    args = workload.argv(seed, 0)
    summary_path, spans_path = base / "trace_summary.json", base / "trace_spans.npz"
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(SRC), str(summary_path),
            str(spans_path), "--", *args, "--output-dir", str(outdir)]
    summary_path.unlink(missing_ok=True)
    it = run_checked(workload, args, argv, outdir)
    if not summary_path.exists():
        raise RuntimeError(f"traced {workload.name} run wrote no summary: {it.error}")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if not summary["nested"]:
        raise RuntimeError(f"traced {workload.name} run: a span lies outside its parent")
    layer_total = sum(summary["self_s_by_layer"].values())
    if abs(layer_total - summary["root_s"]) > 1e-6 * max(1.0, summary["root_s"]):
        raise RuntimeError(f"traced {workload.name} run: layer self times do not add up "
                           f"to cmd time ({layer_total} vs {summary['root_s']})")
    summary.update(
        args=args, wall_s=it.run.wall_s, ok=it.ok, error=it.error, digests=it.digests,
        counts=it.counts,
        bytes_written=sum(p.stat().st_size for p in outdir.iterdir() if p.is_file()),
    )
    return summary


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times() -> dict:
    """Cumulative import seconds of bhspectra.cli, scipy.stats, scipy.special (median of 3)."""
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bhspectra.cli"],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        runs.append(cumulative)
    keys = {"cli.import_s": "bhspectra.cli", "cli.import.scipy_stats_s": "scipy.stats",
            "cli.import.scipy_special_s": "scipy.special"}
    return {k: statistics.median(r.get(mod, 0.0) for r in runs) for k, mod in keys.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

# The gated metrics (BENCHMARK.json's end_to_end) and the statistic each reports.
GATED = {"wall_norm_s": "mean", "cpu_norm_s": "mean", "setup_s": "mean", "peak_rss_mb": "median"}
E2E_UNITS = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "wall_s": "s", "cpu_s": "s", "setup_wall_s": "s", "reference_s": "s",
             "bins_per_s": "1/s", "steps_per_s": "1/s", "cli.manifest_gap_s": "s"}
TIMED_FROM = ("wall_norm_s", "cpu_norm_s", "wall_s", "cpu_s", "peak_rss_mb")


def print_workload(name: str, stats: dict, iterations: list[Iteration]) -> None:
    for it in iterations:
        status = "ok" if it.ok else f"FAILED ({it.error})"
        print(f"[{name}] run: {' '.join(it.run.argv[3:-2])}: wall {it.run.wall_s:.3f} s, "
              f"{status}")
    for metric, unit in E2E_UNITS.items():
        q = stats.get(metric)
        if q is None:
            continue
        where = f"{stats['timed_from']}, " if metric in TIMED_FROM else ""
        stat = GATED.get(metric, "median")
        print(f"[{name}] {metric}: {q[stat]:.6g} {unit} ({stat}; median {q['median']:.6g}, "
              f"q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, mean {q['mean']:.6g}; {where}n={q['n']})")
    if stats["failed_wall_s"]:
        q = stats["failed_wall_s"]
        print(f"[{name}] wall_s of failed runs: {q['median']:.6g} s "
              f"(median; q1 {q['q1']:.6g}, q3 {q['q3']:.6g}; n={q['n']})")
    n_failed = sum(not it.ok for it in iterations)
    print(f"[{name}] fail_rate: {stats['fail_rate']:.6g} ratio ({n_failed} of {len(iterations)} runs)")


def print_trace(name: str, summary: dict, untraced_wall_s: float | None) -> None:
    cmd = summary["root_s"]
    print(f"[{name}] traced run: exit {summary['exit_code']}, wall {summary['wall_s']:.3f} s, "
          f"cmd_* {cmd:.3f} s, outputs {'ok' if summary['ok'] else summary['error']}")
    if untraced_wall_s is not None:
        print(f"[{name}] trace.overhead_s: {summary['wall_s'] - untraced_wall_s:.4g} s "
              f"(traced wall - untraced median)")
    for layer, s in sorted(summary["self_s_by_layer"].items(), key=lambda kv: -kv[1]):
        print(f"[{name}]   layer {layer:<12} self {s:9.4f} s  {100 * s / cmd:6.2f}% of cmd_*")
    for span, agg in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"[{name}]   span {span:<38} calls {agg['calls']:>8}  total {agg['total_s']:9.4f} s"
              f"  self {agg['self_s']:9.4f} s")


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM unwind normally, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bhspectra" / "__init__.py").is_file():
        print(f"perfbench: no bhspectra package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    env = environment()
    print(f"env: {json.dumps(env)}")
    OUT.mkdir(parents=True, exist_ok=True)
    results, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        workload = WORKLOADS[name]
        iterations, setup_walls, ref_walls = measure(workload, opts.seed, opts.seconds)
        stats = loop_stats(iterations, setup_walls, ref_walls)
        print_workload(name, stats, iterations)
        attempted += len(iterations)
        failed += sum(not it.ok for it in iterations)
        # A crash leaves no output to judge; a completed run with wrong output is incorrect.
        correct &= all(it.ok or it.run.exit_code != 0 for it in iterations)
        results[name] = {"stats": stats, "setup_walls_s": setup_walls,
                         "reference_walls_s": ref_walls, "runs": [
            {"argv": it.run.argv[3:], "exit_code": it.run.exit_code, "wall_s": it.run.wall_s,
             "cpu_s": it.run.cpu_s, "peak_rss_mb": it.run.peak_rss_mb, "ok": it.ok,
             "error": it.error, "counts": it.counts, "digests": it.digests,
             "manifest_wall_s": it.manifest_wall_s}
            for it in iterations]}

    metrics: dict[str, dict] = {}
    if opts.trace:
        # Every workload is traced, so each per-layer metric is read on the
        # workload it is meant to move (see layers.py).
        traces = {name: traced_run(WORKLOADS[name], opts.seed) for name in WORKLOADS}
        imports = import_times()
        for name, summary in traces.items():
            untraced = results[name]["stats"]["wall_s"]["median"] if name in results else None
            print_trace(name, summary, untraced)
            correct &= summary["ok"] or summary["exit_code"] != 0
            if name in results:
                summary["overhead_s"] = summary["wall_s"] - untraced
                same = [it for it in results[name]["runs"]
                        if it["ok"] and it["argv"][:-2] == summary["args"]]
                if summary["ok"] and same and same[0]["digests"] != summary["digests"]:
                    print(f"[{name}] traced run's data files differ from the untraced run's")
                    correct = False
            results.setdefault(name, {})["trace"] = {k: v for k, v in summary.items()
                                                     if k != "spans"}
        for name in names:
            layer = per_layer_metrics(traces, imports, results[name]["stats"],
                                      traces[name]["overhead_s"])
            for metric, value in layer.items():
                # With several workloads, only the running workload's own metrics repeat.
                own = PER_LAYER[metric]["home"] is None
                key = f"{name}/{metric}" if own and len(names) > 1 else metric
                if key not in metrics:
                    print(f"[{name if own else PER_LAYER[metric]['home']}] {metric}: "
                          f"{value:.6g} {PER_LAYER[metric]['unit']}")
                    metrics[key] = {"value": value, "unit": PER_LAYER[metric]["unit"]}
    else:
        for name in names:
            stats = results[name]["stats"]
            for metric, stat in GATED.items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": stats[metric][stat], "unit": E2E_UNITS[metric]}

    env["loadavg_after"] = os.getloadavg()
    record = {"seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace, "env": env,
              "workloads": results}
    (OUT / f"result_{opts.workload}_seed{opts.seed}_trace{opts.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"env: loadavg_after {list(env['loadavg_after'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
