"""Per-layer metrics, each read from the traced run of the workload it should move.

`home` is the workload a metric is read on; `moves` is the end-to-end metric
the metric should move there (a workload not named is predicted unchanged).
`None` as home means the metric belongs to the workload being run; "any"
marks the import timings, which no workload changes.
Layers are the modules of src/bhspectra/; `grids` and `errors` do no
measurable work of their own, and SpectrumGrid.weights() counts under cli.
"""

from __future__ import annotations

SP, CA, VE = "spectrum_rn_csv", "cascade_schw", "verify_all"


def _span(trace: dict, name: str, key: str) -> float:
    return trace["spans"].get(name, {}).get(key, 0.0)


def _per(trace: dict, name: str, key: str, scale: float) -> float:
    count = _span(trace, name, key)
    return scale * _span(trace, name, "total_s") / count if count else 0.0


def _layer(trace: dict, layer: str, key: str) -> float:
    return sum(agg.get(key, 0.0) for name, agg in trace["spans"].items()
               if name.startswith(layer + "."))


def _kernel_share(trace: dict) -> float:
    sampler = _span(trace, "cascade.sample_cascade", "total_s")
    kernel = trace["spans"].get("cascade.sample_cascade", {}).get("child_s_by_layer", {})
    return kernel.get("blackholes", 0.0) / sampler if sampler else 0.0


def _serialize_s(trace: dict) -> float:
    # Self time of cmd_* and the cli writers: formatting, writing, manifest.
    return _layer(trace, "cli", "self_s")


# name -> (unit, better, home, moves, value(trace))
_FROM_TRACE = {
    "blackholes.entropy_drop_uncharged.ns_per_elem": (
        "ns", "lower", VE, "verify_all wall_norm_s",
        lambda t: _per(t, "blackholes.entropy_drop_uncharged", "elems", 1e9)),
    "blackholes.entropy_grid.ns_per_elem": (
        "ns", "lower", SP, "spectrum_rn_csv wall_norm_s (small share)",
        lambda t: _per(t, "blackholes.entropy_grid", "elems", 1e9)),
    "blackholes.hairs_valid.ns_per_elem": (
        "ns", "lower", SP, "spectrum_rn_csv wall_norm_s (small share)",
        lambda t: _per(t, "blackholes.hairs_valid", "elems", 1e9)),
    "blackholes.calls": (
        "count", "lower", CA, "cascade_schw steps_per_s",
        lambda t: _layer(t, "blackholes", "entry_calls")),
    "blackholes.elems": (
        "count", "lower", CA, "cascade_schw steps_per_s",
        lambda t: _layer(t, "blackholes", "elems")),
    "blackholes.us_per_call": (
        "us", "lower", CA, "cascade_schw steps_per_s",
        lambda t: 1e6 * _layer(t, "blackholes", "entry_s") / max(1, _layer(t, "blackholes", "entry_calls"))),
    "spectrum.build_spectrum_s": (
        "s", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "spectrum.build_spectrum", "total_s")),
    "spectrum.build_thermal_spectrum_s": (
        "s", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "spectrum.build_thermal_spectrum", "total_s")),
    "spectrum.normalize_s": (
        "s", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "spectrum.normalize", "total_s")),
    "spectrum.bins": (
        "count", "higher", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "spectrum.build_spectrum", "bins")),
    "spectrum.n_invalid": (
        "count", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "spectrum.build_spectrum", "n_invalid")),
    "spectrum.emission_log_weight.us_per_call": (
        "us", "lower", VE, "verify_all wall_norm_s",
        lambda t: _per(t, "spectrum.emission_log_weight", "calls", 1e6)),
    "cascade.sample_cascade.us_per_step": (
        "us", "lower", CA, "cascade_schw steps_per_s",
        lambda t: _per(t, "cascade.sample_cascade", "steps", 1e6)),
    "cascade.steps": (
        "count", "higher", CA, "cascade_schw steps_per_s",
        lambda t: _span(t, "cascade.sample_cascade", "steps")),
    "cascade.chains": (
        "count", "higher", CA, "cascade_schw steps_per_s",
        lambda t: _span(t, "cascade.sample_cascade", "calls")),
    "cascade.n_stuck": (
        "count", "lower", CA, "cascade_schw steps_per_s",
        lambda t: _span(t, "cascade.sample_cascade", "stuck")),
    "cascade.kernel_share": (
        "ratio", "lower", CA, "cascade_schw steps_per_s", _kernel_share),
    "cascade.batch.us_per_sample": (
        "us", "lower", VE, "verify_all wall_norm_s",
        lambda t: _per(t, "cascade.ensemble_stats", "samples", 1e6)),
    "cascade.ensemble_stats_s": (
        "s", "lower", VE, "verify_all wall_norm_s",
        lambda t: _span(t, "cascade.ensemble_stats", "total_s")),
    "information.build_info_report_s": (
        "s", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: _span(t, "information.build_info_report", "total_s")),
    "information.pairwise_correlation.us_per_call": (
        "us", "lower", VE, "verify_all wall_norm_s",
        lambda t: _per(t, "information.pairwise_correlation", "calls", 1e6)),
    "information.chain_information_ledger_s": (
        "s", "lower", VE, "verify_all wall_norm_s",
        lambda t: _span(t, "information.chain_information_ledger", "total_s")),
    "typicality.lab_s_per_seed": (
        "s", "lower", VE, "verify_all wall_norm_s",
        lambda t: _per(t, "typicality.typicality_lab", "seeds", 1.0)),
    **{
        f"verify.suite_{suite}_s": (
            "s", "lower", VE, "verify_all wall_norm_s",
            lambda t, suite=suite: _span(t, f"verify.suite_{suite}", "total_s"))
        for suite in ("identities", "typicality", "cascade", "info")
    },
    "cli.serialize_s": (
        "s", "lower", SP, "spectrum_rn_csv bins_per_s (large share), cascade_schw wall_norm_s",
        _serialize_s),
    "cli.rows_per_s": (
        "1/s", "higher", SP, "spectrum_rn_csv bins_per_s",
        lambda t: t["counts"].get("rows", 0) / _serialize_s(t)),
    "cli.bytes_written": (
        "bytes", "lower", SP, "spectrum_rn_csv wall_norm_s",
        lambda t: t["bytes_written"]),
}

# Measured outside the traced runs.
_IMPORTS = {
    "cli.import_s": "setup_s on every workload",
    "cli.import.scipy_stats_s": "setup_s on every workload",
    "cli.import.scipy_special_s": "setup_s on every workload",
}

PER_LAYER = {
    **{name: {"unit": unit, "better": better, "home": home, "moves": moves}
       for name, (unit, better, home, moves, _) in _FROM_TRACE.items()},
    **{name: {"unit": "s", "better": "lower", "home": "any", "moves": moves}
       for name, moves in _IMPORTS.items()},
    "cli.manifest_gap_s": {
        "unit": "s", "better": "lower", "home": None,
        "moves": "none: wall_s - setup_wall_s - manifest timing.wall_time_s, the run time the "
                 "manifest does not report"},
    "trace.overhead_s": {
        "unit": "s", "better": "lower", "home": None,
        "moves": "none: traced wall_s - untraced median wall_s"},
}


def per_layer_metrics(traces: dict, imports: dict, stats: dict, overhead_s: float) -> dict:
    """Every per-layer metric; `stats` and `overhead_s` are the running workload's."""
    out = {name: float(value(traces[home])) for name, (_, _, home, _, value) in _FROM_TRACE.items()}
    out.update(imports)
    gap = stats.get("cli.manifest_gap_s")
    out["cli.manifest_gap_s"] = gap["median"] if gap else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
