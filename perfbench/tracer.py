"""Traced in-process run of one CLI command, for the per-layer breakdown.

Usage: python3 perfbench/tracer.py <src dir> <summary.json> <spans.npz> -- <cli args>

Wraps the public functions each layer is called through (module attributes
of `bhspectra.*`), then calls `bhspectra.cli.main(argv)`. Spans (name, start,
end, parent) and per-call counts stay in memory and are written when the
run ends. A span's self time is its duration minus its child spans. The
package itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def _elems(*arrays) -> int:
    return max(int(np.size(a)) for a in arrays)


# Counters map (args, kwargs, result) to counts added to the span name's totals.
def _kernel(args, kwargs, result):
    return {"elems": _elems(*args[1:4])}


def _drop(args, kwargs, result):
    return {"elems": _elems(*args[:2])}


def _chain(args, kwargs, result):
    return {"steps": result.n_steps, "stuck": int(result.stuck)}


def _grid(args, kwargs, result):
    return {"bins": result.n_bins, "n_invalid": result.n_bins - result.n_valid}


def _ensemble(args, kwargs, result):
    return {"samples": args[2] if len(args) > 2 else kwargs["n_samples"]}


def _lab(args, kwargs, result):
    # typicality_lab runs n_seeds states at dim_o and again at scale * dim_o.
    return {"seeds": 2 * kwargs.get("n_seeds", 100)}


# (module, attribute) -> (span name, counter). Only public functions are
# wrapped; a function imported into several modules is wrapped in each.
TARGETS = {
    ("cli", "cmd_spectrum"): ("cli.cmd_spectrum", None),
    ("cli", "cmd_cascade"): ("cli.cmd_cascade", None),
    ("cli", "cmd_verify"): ("cli.cmd_verify", None),
    ("cli", "write_manifest"): ("cli.write_manifest", None),
    ("cli", "write_spectrum_csv"): ("cli.write_spectrum_csv", None),
    ("cli", "build_spectrum"): ("spectrum.build_spectrum", _grid),
    ("cli", "build_thermal_spectrum"): ("spectrum.build_thermal_spectrum", None),
    ("cli", "build_info_report"): ("information.build_info_report", None),
    ("cli", "sample_cascade"): ("cascade.sample_cascade", _chain),
    ("cli", "ensemble_stats_from_chains"): ("cascade.ensemble_stats", None),
    ("spectrum", "build_spectrum"): ("spectrum.build_spectrum", _grid),
    ("spectrum", "logsumexp"): ("spectrum.normalize", None),
    ("spectrum", "entropy_grid"): ("blackholes.entropy_grid", _kernel),
    ("spectrum", "hairs_valid"): ("blackholes.hairs_valid", _kernel),
    ("spectrum", "entropy_drop_uncharged"): ("blackholes.entropy_drop_uncharged", _drop),
    ("cascade", "entropy_grid"): ("blackholes.entropy_grid", _kernel),
    ("cascade", "hairs_valid"): ("blackholes.hairs_valid", _kernel),
    ("cascade", "sample_cascade"): ("cascade.sample_cascade", _chain),
    ("information", "entropy_grid"): ("blackholes.entropy_grid", _kernel),
    ("information", "emission_log_weight"): ("spectrum.emission_log_weight", None),
    ("information", "emission_log_weights"): ("spectrum.emission_log_weights", None),
    ("information", "pairwise_correlation"): ("information.pairwise_correlation", None),
    ("verify", "build_spectrum"): ("spectrum.build_spectrum", _grid),
    ("verify", "emission_log_weight"): ("spectrum.emission_log_weight", None),
    ("verify", "emission_log_weights_bulk"): ("spectrum.emission_log_weights_bulk", None),
    ("verify", "sample_cascade"): ("cascade.sample_cascade", _chain),
    ("verify", "enumerate_chains"): ("cascade.enumerate_chains", None),
    ("verify", "cascade_ensemble_stats"): ("cascade.ensemble_stats", _ensemble),
    ("verify", "pairwise_correlation"): ("information.pairwise_correlation", None),
    ("verify", "chain_information_ledger"): ("information.chain_information_ledger", None),
    ("verify", "mutual_information"): ("information.mutual_information", None),
    ("verify", "conditional_entropy"): ("information.conditional_entropy", None),
    ("verify", "typicality_lab"): ("typicality.typicality_lab", _lab),
}


def _sum_by(keys: np.ndarray, values: np.ndarray) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        out[key] = out.get(key, 0.0) + value
    return out


class Tracer:
    """Spans and counts of one traced run, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(float("nan"))
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                totals = self.counts.setdefault(name, {})
                for key, value in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def split_suites(self, run_suites, suite_names):
        """run_suites("all") as one run_suites(<name>) call per suite, each a span."""

        @functools.wraps(run_suites)
        def traced(suite, seed=0, alpha=0.0):
            names = list(suite_names) if suite == "all" else [suite]
            reports = []
            for name in names:
                idx = self._open(f"verify.suite_{name}")
                try:
                    reports.extend(run_suites(name, seed=seed, alpha=alpha))
                finally:
                    self._close(idx)
            return reports

        return self.wrap("verify.run_suites", traced)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for (module_name, attr), (name, counter) in TARGETS.items():
            module = importlib.import_module(f"bhspectra.{module_name}")
            fn = getattr(module, attr)
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = self.wrap(name, fn, counter)
            setattr(module, attr, wrapped[key])
        cli, verify = (importlib.import_module(f"bhspectra.{m}") for m in ("cli", "verify"))
        cli.run_suites = self.split_suites(cli.run_suites, verify.SUITES)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, layer entries, counts."""
        parent = np.asarray(self.span_parent, dtype=np.int64)
        names = np.asarray(self.span_name, dtype=np.int64)
        start, end = np.asarray(self.span_start), np.asarray(self.span_end)
        dur = end - start
        inner = parent >= 0
        p = parent[inner]
        self_s = dur - np.bincount(p, weights=dur[inner], minlength=dur.size)
        span_layer = np.array([n.split(".")[0] for n in self.names])[names]
        entry = np.ones(dur.size, dtype=bool)  # the call enters its layer from outside
        entry[inner] = span_layer[inner] != span_layer[p]
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            kids = np.zeros(dur.size, dtype=bool)
            kids[inner] = names[p] == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(self_s[sel])),
                "entry_calls": int(np.count_nonzero(sel & entry)),
                "entry_s": float(np.sum(dur[sel & entry])),
                # Direct children's time by layer, e.g. kernel time inside the sampler.
                "child_s_by_layer": _sum_by(span_layer[kids], dur[kids]),
                **self.counts.get(name, {}),
            }
        return {
            "spans": out,
            "root_s": float(np.sum(dur[~inner])),
            "self_s_by_layer": _sum_by(span_layer, self_s),
            "nested": bool(np.all((start[inner] >= start[p]) & (end[inner] <= end[p]))),
        }

    def save_spans(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )


def main() -> int:
    src, summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import bhspectra.cli

    if not Path(bhspectra.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"bhspectra imported from {bhspectra.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = bhspectra.cli.main(argv)
    main_s = time.perf_counter() - t0
    summary = dict(tracer.summary(), exit_code=code, main_s=main_s)
    Path(summary_path).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    tracer.save_spans(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main())
