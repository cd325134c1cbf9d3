"""Command-line interface: spectra, cascades, verification, typicality lab.

Every run writes a JSON manifest echoing the full effective configuration
(seed included, defaults resolved) plus a manifest hash computed over that
configuration; every data file embeds the hash, so each row is traceable to
the exact run that produced it. Outputs are byte-deterministic for a fixed
configuration, except for the manifest's "timing" block.

Exit codes: 0 ok, 1 usage error, 2 invalid physics, 3 numerical or
verification failure. All flags have long names only; quantities are in
Planck units. An optional flat JSON config file mirrors the flags one-to-one
(dashes become underscores); explicit flags override file values.
"""

from __future__ import annotations

# The front imports what parsing needs, argparse, and nothing else of weight:
# json, datetime, dataclasses, pathlib and sha256 are imported by _load, a
# command's first stage, and in the functions that use them, so --help and
# usage errors load none of them.
import argparse
import importlib
import sys
import time

from . import __version__
from .errors import (EXIT_NUMERICAL, EXIT_OK, EXIT_PHYSICS, EXIT_USAGE, SUITES, DomainError,
                     Normalization, UsageError)

# The package names the commands call, by module: each is imported on first access
# as an attribute of this module (PEP 562), so --help and usage errors load no
# numpy and no stdlib module the front defers. Commands call them through _cli:
# a replaced attribute is the one called.
_LAZY = {name: module for module, names in (
    ("blackholes", ("state_from_record", "state_to_record")),
    ("cascade", ("CascadePolicy", "_ensemble_table", "cascade_ensemble_stats",
                 # Not called here; kept because perfbench/tracer.py wraps them here.
                 "ensemble_stats_from_chains", "sample_cascade")),
    ("information", ("build_info_report", "check_report_size")),
    ("spectrum", ("GridSpec", "build_spectrum", "build_thermal_spectrum")),
    ("typicality", ("typicality_lab",)),
    ("verify", ("run_suites",)),
    ("writers", ("_write_spectrum_json", "_write_spectrum_jsonl", "write_spectrum_csv")),
) for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]

# Seconds the running command spent in _load: the manifest's import_s.
_import_s = 0.0


# The stdlib modules the front defers and every command uses. _load imports them,
# then the sha256 module, ahead of the package modules (and numpy), in the order of
# a front that imports them at module level: a command's peak RSS moves by up to
# ~0.1 MB with the layout of its heap, which follows the order of its allocations.
_DEFERRED = ("dataclasses", "json", "datetime", "pathlib")


def _builtin_sha256():
    """sha256 from the builtin module: hashlib maps OpenSSL's libcrypto (~3.6 MB
    of the command's resident memory, ~4 ms), which no command needs otherwise."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _load(*modules: str) -> None:
    """A command's first stage, import_s: the deferred stdlib modules and
    sha256, then the package modules the command runs (and numpy with all
    but the cascade's)."""
    global _import_s
    t = time.perf_counter()
    for module in _DEFERRED:
        importlib.import_module(module)
    _builtin_sha256()
    for module in modules:
        importlib.import_module(f".{module}", __package__)
    _import_s = time.perf_counter() - t


class _Parser(argparse.ArgumentParser):
    """The CLI's parser and, as its subparser class, each command's."""

    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


def _utc_now() -> str:
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat()


def _canonical_json(payload: dict) -> str:
    import json
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _output_dir(path: str) -> Path:
    """The output directory, created with its parents if missing."""
    from pathlib import Path
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return Path(path)


def _write_json(path: Path, payload: dict) -> None:
    import json
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# Execution details that do not influence the produced numbers: echoed in
# the manifest, excluded from the hash so equivalent runs share it.
_UNHASHED_KEYS = ("output_dir", "workers")

_ARTIFACT = {"name": "bhspectra", "version": __version__}


def _manifest_hash(command: str, config: dict) -> str:
    """sha256 over the artifact, the command and the hashed configuration."""
    hashed_config = {k: v for k, v in config.items() if k not in _UNHASHED_KEYS}
    payload = {"artifact": _ARTIFACT, "command": command, "config": hashed_config}
    return _builtin_sha256()(_canonical_json(payload).encode()).hexdigest()


def write_manifest(outdir: Path, command: str, config: dict, manifest_hash: str, t0: float,
                   compute_s: float, health: dict | None = None) -> None:
    """Write manifest.json, after the data files, so its timing covers them.

    t0 is the run's perf_counter() start; compute_s the part of the run not
    spent serializing (before serialization began, or, for a run that writes
    while it computes, the rest of the run), of which the command's imports
    are reported apart, as import_s. health, when given, is written unhashed
    next to timing.
    """
    wall_time_s = time.perf_counter() - t0
    manifest = {
        "artifact": _ARTIFACT,
        "command": command,
        "config": config,
        "manifest_hash": manifest_hash,
        "timing": {
            "timestamp_utc": _utc_now(),
            "wall_time_s": wall_time_s,
            "import_s": _import_s,
            "compute_s": compute_s - _import_s,
            "serialize_s": wall_time_s - compute_s,
        },
    }
    if health is not None:
        manifest["health"] = health
    _write_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# config merging
# ---------------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    import json
    from pathlib import Path
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a flat JSON object")
    return data


def _file_value(key: str, value, kind, default):
    """A config-file value checked and converted as its flag's text is.

    A switch takes a JSON boolean, a text or choice option a JSON string. A
    number option converts a non-string value from its JSON text, as a flag
    from its own text: 2.7 or true is not an int, and 2 is the float 2.0.
    null is kept where the default itself is null (an unset optional value).
    """
    if value is None and default is None:
        return None
    import json
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    elif isinstance(kind, tuple):
        ok = value in kind
    else:
        try:
            return kind(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            ok = False
    if ok:
        return value
    expected = " | ".join(kind) if isinstance(kind, tuple) else kind.__name__
    raise UsageError(f"config key {key!r}: invalid value {value!r}, expected {expected}")


def _merge(args: argparse.Namespace) -> dict:
    """Resolve the command's option values: explicit flag > config file > default."""
    file_cfg = _load_config_file(args.config)
    unknown = set(file_cfg) - set(args.options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (kind, default, _) in args.options.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            merged[key] = _file_value(key, file_cfg[key], kind, default)
        else:
            merged[key] = default
    return merged


# A command's options, name: (kind, default, help), in --help order. kind is a
# type, a tuple of the allowed strings, or bool for a switch; the flag is
# --name with dashes, and a config file sets the option under its name.
_STATE_OPTIONS = {
    "family": (str, "schwarzschild", "schwarzschild | rn | kn"),
    "mass": (float, 1.0, "mass M in Planck units"),
    "charge": (float, 0.0, "charge Q (0 for schwarzschild)"),
    "angular_momentum": (float, 0.0, "J"),
    "alpha": (float, 0.0, "log-correction coefficient"),
}


def _state_from_config(cfg: dict):
    return _cli.state_from_record({"family": cfg["family"], "M": cfg["mass"], "Q": cfg["charge"],
                                   "J": cfg["angular_momentum"], "alpha": cfg["alpha"]})


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

_SPECTRUM_OPTIONS = {
    **_STATE_OPTIONS,
    "omega_min": (float, 0.0, None),
    "omega_max": (float, None, None),  # resolved to the mass
    "bins": (int, 64, "number of omega nodes"),
    "q_step": (float, 1.0, None),
    "n_q": (int, 1, None),
    "j_step": (float, 1.0, None),
    "n_j": (int, 1, None),
    "normalization": (tuple(n.value for n in Normalization), "raw", None),
    "format": (("csv", "jsonl", "json"), "csv", None),
    "output_dir": (str, ".", None),
    "seed": (int, 0, None),
    "report": (bool, False, "also write info_report.json"),
}


def cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    _load("spectrum", "writers", *(["information"] if cfg["report"] else []))
    import numpy as np
    state = _state_from_config(cfg)
    if cfg["omega_max"] is None:
        cfg["omega_max"] = state.m
    spec = _cli.GridSpec(
        omega_max=cfg["omega_max"], n_omega=cfg["bins"], omega_min=cfg["omega_min"],
        q_step=cfg["q_step"], n_q=cfg["n_q"], j_step=cfg["j_step"], n_j=cfg["n_j"],
    )
    if cfg["report"]:
        _cli.check_report_size(state, spec)
    normalization = Normalization(cfg["normalization"])
    grid = _cli.build_spectrum(state, spec, normalization)
    report = _cli.build_info_report(grid) if cfg["report"] else None
    # The baseline depends on omega alone: the writers take one value per
    # node, and the grid is not held beside the report or the writers.
    try:
        thermal = _cli.build_thermal_spectrum(state, spec, normalization)
        # A copy of the node column, or the grid's own array at one bin per node.
        thermal = np.ascontiguousarray(thermal.log_weight.reshape(spec.n_omega, -1)[:, 0])
    except DomainError:
        thermal = None  # extremal source: no thermal baseline
    health = {
        "n_bins": grid.n_bins,
        "n_invalid": grid.n_bins - grid.n_valid,
        "n_underflow": grid.n_underflow(),
        "log_norm": grid.log_norm,
    }
    compute_s = time.perf_counter() - t0

    outdir = _output_dir(cfg["output_dir"])
    from dataclasses import asdict
    manifest_cfg = dict(cfg, state=_cli.state_to_record(state), grid_spec=asdict(spec))
    manifest_hash = _manifest_hash("spectrum", manifest_cfg)
    if cfg["format"] == "csv":
        _cli.write_spectrum_csv(outdir / "spectrum.csv", grid, thermal, manifest_hash)
    elif cfg["format"] == "jsonl":
        _cli._write_spectrum_jsonl(outdir / "spectrum.jsonl", grid, thermal, manifest_hash)
    else:
        _cli._write_spectrum_json(outdir / "spectrum.json", grid, thermal, {
            "manifest_hash": manifest_hash, "state": manifest_cfg["state"],
            "grid_spec": manifest_cfg["grid_spec"], "normalization": normalization.value,
            "log_norm": grid.log_norm,
        })
    if report is not None:
        payload = dict(report.to_json_dict(), manifest_hash=manifest_hash)
        _write_json(outdir / "info_report.json", payload)
    write_manifest(outdir, "spectrum", manifest_cfg, manifest_hash, t0, compute_s, health)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

_CASCADE_OPTIONS = {
    **_STATE_OPTIONS,
    "energy_quantum": (float, 0.0625, None),
    "stop_mass": (float, 0.0, None),
    "max_steps": (int, None, None),
    "charge_quantum": (float, None, None),
    "spin_quantum": (float, None, None),
    "n_samples": (int, 100, None),
    "seed": (int, 0, None),
    "workers": (int, 1, "accepted for compatibility and echoed; "
                "changes neither output nor execution"),
    "output_dir": (str, ".", None),
}

# json.dumps's text of the floats whose repr is not JSON's.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Rows joined into one string at a time by the JSON row writers.
_JSONL_BLOCK = 2048


# The start of a chains.jsonl row: its float cells, keys sorted.
_ROW_START = ('{"j":%s,"log_prob_norm":%s,"log_weight_raw":%s,"mass_before":%s,"omega":%s,'
              '"q":%s,"sample_index":')


def _channel_text(row, c: int) -> str:
    """The start of the chains.jsonl row of a step through channel c of a
    cascade row (cascade._Row), its float cells as json.dumps gives them.
    Each is a function of the channel: the emitted hairs are the row's
    hairs less its remnant's."""
    m, q, j = row.hairs
    cells = (j - row.j2[c], row.logp[c], row.logw[c], m, m - row.m2[c], q - row.q2[c])
    return _ROW_START % tuple(_JSON_NONFINITE.get(t, t) for t in map(repr, cells))


class _ChainsJsonl:
    """chains.jsonl, one row per step, written from the chains
    cascade.cascade_ensemble_stats hands its on_chain, one at a time; seconds
    is the time spent writing.

    The rows go to a temporary file, renamed into place when the with block
    ends without an error and removed when it ends with one, so a failed run
    leaves no partial chains.jsonl.
    """

    def __init__(self, path: Path, manifest_hash: str, n_samples: int, seed: int) -> None:
        self.path, self.part = path, path.with_name(path.name + ".part")
        self.header = {"type": "header", "manifest_hash": manifest_hash,
                       "n_samples": n_samples, "seed": seed}
        self.seconds = 0.0
        self.texts: dict = {}  # (cascade row, channel) -> _channel_text of it
        self.tails: list[str] = []  # the end of a row at each step
        self.parts: list[str] = []  # the texts of the rows not written yet

    def __enter__(self) -> "_ChainsJsonl":
        self.file = self.part.open("w", encoding="utf-8")
        self.file.write(_canonical_json(self.header) + "\n")
        return self

    def write(self, sample: int, steps: list) -> None:
        """Queue the rows of one chain, steps being its (cascade row, channel)
        pairs, and write the queue once it holds _JSONL_BLOCK rows.

        The float cells' keys sort before "sample_index" and "step", so a row
        is three texts: its channel's, built on the channel's first step, its
        sample index's and its step's.
        """
        t = time.perf_counter()
        texts, tails, parts = self.texts, self.tails, self.parts
        tails += (',"step":%d}\n' % k for k in range(len(tails), len(steps)))
        index = str(sample)
        for step, tail in zip(steps, tails):
            text = texts.get(step)
            if text is None:
                text = texts[step] = _channel_text(*step)
            parts += (text, index, tail)
        if len(parts) >= 3 * _JSONL_BLOCK:
            self.file.write("".join(parts))
            parts.clear()
        self.seconds += time.perf_counter() - t

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                t = time.perf_counter()
                self.file.write("".join(self.parts))
                self.seconds += time.perf_counter() - t
                self.file.close()
                self.part.replace(self.path)
        finally:
            self.file.close()
            self.part.unlink(missing_ok=True)


def cmd_cascade(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    _load("cascade")
    state = _state_from_config(cfg)
    policy = _cli.CascadePolicy(
        energy_quantum=cfg["energy_quantum"], stop_mass=cfg["stop_mass"],
        max_steps=cfg["max_steps"], charge_quantum=cfg["charge_quantum"],
        spin_quantum=cfg["spin_quantum"],
    )
    # Raises every usage error before anything is written.
    table, n_samples, seed = _cli._ensemble_table(state, policy, cfg["n_samples"], cfg["seed"])

    outdir = _output_dir(cfg["output_dir"])
    from dataclasses import asdict
    manifest_cfg = dict(cfg, state=_cli.state_to_record(state), policy=asdict(policy))
    manifest_hash = _manifest_hash("cascade", manifest_cfg)
    # "workers" is only echoed: sampling runs in this process, and each
    # chain's stream is derived from (seed, index) alone. Each chain's rows
    # are queued as soon as it is walked.
    with _ChainsJsonl(outdir / "chains.jsonl", manifest_hash, n_samples, seed) as chains:
        stats = _cli.cascade_ensemble_stats(state, policy, n_samples, seed, on_chain=chains.write)
    # Summed over the chains: the walks are compute, the row writing serialization.
    compute_s = time.perf_counter() - t0 - chains.seconds
    _write_json(outdir / "ensemble.json", dict(stats.to_json_dict(), manifest_hash=manifest_hash))
    # The table is cached: after the walk it holds every state the walk reached.
    health = {"n_stuck": stats.n_stuck, "n_states": len(table)}
    write_manifest(outdir, "cascade", manifest_cfg, manifest_hash, t0, compute_s, health)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_OPTIONS = {
    "suite": (SUITES + ("all",), "all", None),
    "seed": (int, 0, None),
    "alpha": (float, 0.0, "log-correction coefficient used by the suites"),
    "output_dir": (str, ".", None),
}


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    _load("verify")
    reports = _cli.run_suites(cfg["suite"], seed=cfg["seed"], alpha=cfg["alpha"])
    compute_s = time.perf_counter() - t0
    outdir = _output_dir(cfg["output_dir"])
    manifest_hash = _manifest_hash("verify", cfg)
    all_passed = all(r.all_passed for r in reports)
    _write_json(outdir / "report.json", {
        "manifest_hash": manifest_hash, "all_passed": all_passed,
        "suites": [r.to_json_dict() for r in reports],
    })
    write_manifest(outdir, "verify", cfg, manifest_hash, t0, compute_s)
    for r in reports:
        for check in r.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"{r.suite}/{check.name}: {status} "
                  f"(measured {check.measured:.3e}, tolerance {check.tolerance:.3e})")
    print(f"verify: {'all suites passed' if all_passed else 'FAILURES detected'}")
    return EXIT_OK if all_passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

_TYPICALITY_OPTIONS = {
    "dim_b": (int, 4, None),
    "dim_o": (int, 4096, None),
    "seeds": (int, 100, "number of random states to average"),
    "scale_factor": (int, 4, None),
    "seed": (int, 0, None),
    "output_dir": (str, ".", None),
}


def cmd_typicality(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    _load("typicality")
    lab = _cli.typicality_lab(dim_b=cfg["dim_b"], dim_o=cfg["dim_o"], n_seeds=cfg["seeds"],
                              seed=cfg["seed"], scale_factor=cfg["scale_factor"])
    compute_s = time.perf_counter() - t0
    outdir = _output_dir(cfg["output_dir"])
    manifest_hash = _manifest_hash("typicality", cfg)
    _write_json(outdir / "typicality.json", dict(lab.to_json_dict(), manifest_hash=manifest_hash))
    write_manifest(outdir, "typicality", cfg, manifest_hash, t0, compute_s)
    ratio = "n/a" if lab.rms_ratio is None else f"{lab.rms_ratio:.3f}"
    print(f"typicality: L1(diag, weights) = {lab.mean_l1_weights:.4f}, "
          f"off-diagonal RMS {lab.offdiag_rms:.2e} -> {lab.offdiag_rms_scaled:.2e} "
          f"(ratio {ratio}) at {lab.scale_factor}x dim_o")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bhspectra",
        description="Non-thermal black-hole radiation spectra, evaporation cascades, "
        "and information bookkeeping from entropy functions (Planck units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, description, options in (
        ("spectrum", cmd_spectrum, "Emission spectrum on a grid.", _SPECTRUM_OPTIONS),
        ("cascade", cmd_cascade, "Monte Carlo evaporation cascades.", _CASCADE_OPTIONS),
        ("verify", cmd_verify, "Run invariant verification suites.", _VERIFY_OPTIONS),
        ("typicality", cmd_typicality, "Random-pure-state typicality lab.", _TYPICALITY_OPTIONS),
    ):
        p = sub.add_parser(name, description=description)
        # Each flag defaults to None, so that _merge can tell a flag that was not given.
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key, (kind, _, help_text) in options.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=help_text)
            else:
                p.add_argument(flag, type=kind, help=help_text)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return int(args.func(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"invalid physics: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
