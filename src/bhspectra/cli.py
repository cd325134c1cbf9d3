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

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blackholes import BlackHoleState, _two_prod, state_from_record, state_to_record
from .cascade import CascadePolicy, _ensemble_table, sample_ensemble
# Not called here; kept importable because perfbench/tracer.py wraps them here.
from .cascade import ensemble_stats_from_chains, sample_cascade  # noqa: F401
from .errors import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_USAGE,
    DomainError,
    UsageError,
)
from .grids import GridSpec, Normalization, SpectrumGrid
from .information import build_info_report
from .spectrum import _normalize, build_spectrum, build_thermal_spectrum
from .typicality import typicality_lab
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


# Rows formatted and written at a time: bounds the memory a writer holds.
_ROW_CHUNK = 16384


def _format_column(values: np.ndarray, fmt) -> tuple[list[str], np.ndarray]:
    """(texts, index) of a 1-D column: fmt of each distinct value, called
    once per value, and each entry's index into texts (the JSONL writers;
    spectrum.csv goes through _format_e16).

    Floats are keyed on their bit patterns, so -0.0 and 0.0 (and distinct nan
    payloads) stay apart and each entry gets exactly the string fmt gives it.
    """
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(keys, return_inverse=True)
    # The narrowest index type: a writer holds one index per entry of every column.
    index = index.astype(np.min_scalar_type(distinct.size), copy=False)
    return list(map(fmt, distinct.view(values.dtype).tolist())), index


# ---------------------------------------------------------------------------
# "%.16e" as bytes
# ---------------------------------------------------------------------------

# A cell is "-d.dddddddddddddddde-ddd" (24 bytes at most) and a comma.
_E16_WIDTH = 25
# Magnitudes whose double-double products stay normal; the rest, subnormals
# included, are formatted by `%`.
_E16_MIN, _E16_MAX = 1e-280, 1e280
# Powers of ten 10^s in the table: s = 16 - floor(log10 |x|) over that range.
_POW_MIN, _POW_MAX = -270, 300
# The cells of nan, inf and -inf, by kind 0, 1, 2.
_E16_SPECIAL = (b"nan,", b"inf,", b"-inf,")


@functools.cache
def _e16_tables():
    """(hi, lo) of 10^s for s in [_POW_MIN, _POW_MAX], with hi + lo = 10^s to
    ~2^-106 relative, from exact integers, and the 4-digit text of 0..9999,
    one uint32 of 4 bytes each. Built on the first CSV write."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode(), np.uint32)
    return np.array(hi), np.array(lo), digits


def _format_e16(values: np.ndarray):
    """Byte cells of ("%.16e" % x) + "," for every x of a float64 array.

    Returns (cells, fallback): cells is uint8 of shape values.shape +
    (_E16_WIDTH,) and holds each cell's text with NUL bytes where it is
    shorter than the widest cell (the sign of a positive value, the
    hundreds digit of a 2-digit exponent, the tail of nan), so that
    cells[cells != 0] is the texts in order; fallback marks the values
    formatted by `%` (see below).

    x = N 10^(e-16) with N the 17-digit rounding of |x| 10^(16-e) and
    e = floor(log10 |x|). The product is a double-double, exact to ~1e-14
    in N's units, so N is the correctly rounded value unless its fraction
    is within 1e-9 of one half (a possible tie) or the guess of e misses
    (|x| 10^(16-e) below 10^16, or N = 10^17). Those values and magnitudes
    outside [_E16_MIN, _E16_MAX] take `%`; 0.0, nan and inf are written here.
    """
    pow_hi, pow_lo, digits = _e16_tables()
    x = np.asarray(values, dtype=np.float64)
    neg = np.signbit(x)
    a = np.abs(x)
    normal = (a >= _E16_MIN) & (a <= _E16_MAX)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = 16 - _POW_MIN - e
    p, p_err = _two_prod(a, pow_hi[s])
    t = p_err + a * pow_lo[s]
    t_int = np.floor(t)
    frac = t - t_int
    # p >= 2^53 is an integer, so N = p + t rounded. The guess of e missed
    # when N has 16 digits before rounding, or 18 after it.
    n_floor = p.astype(np.int64) + t_int.astype(np.int64)
    n = n_floor + (frac > 0.5)
    miss = (p < 2.0**53) | (n_floor < 10**16) | (n >= 10**17) | (np.abs(frac - 0.5) < 1e-9)
    fallback = np.where(normal, miss, np.isfinite(x) & (x != 0))
    plain = normal & ~fallback
    n = np.where(plain, n, 0)
    e = np.where(plain, e, 0)

    lead, rest = np.divmod(n, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = np.empty(x.shape + (4,), dtype=np.uint32)
    groups[..., 0], groups[..., 1] = np.divmod(upper, 10**4)
    groups[..., 2], groups[..., 3] = np.divmod(lower, 10**4)
    abs_e = np.abs(e)
    cells = np.empty(x.shape + (_E16_WIDTH,), dtype=np.uint8)
    cells[..., 0] = neg * ord("-")
    cells[..., 1] = lead + ord("0")
    cells[..., 2] = ord(".")
    cells[..., 3:19] = digits[groups].view(np.uint8)
    cells[..., 19] = ord("e")
    cells[..., 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[..., 21:24] = digits[abs_e][..., None].view(np.uint8)[..., 1:]
    cells[..., 21] *= abs_e >= 100
    cells[..., 24] = ord(",")

    inf = np.isinf(x)
    special = inf | np.isnan(x)
    if special.any():
        texts = np.array(_E16_SPECIAL, dtype=f"S{_E16_WIDTH}").view(np.uint8)
        cells[special] = texts.reshape(-1, _E16_WIDTH)[np.where(inf, 1 + neg, 0)[special]]
    if fallback.any():
        texts = np.array(["%.16e," % v for v in x[fallback].tolist()], dtype=f"S{_E16_WIDTH}")
        cells[fallback] = texts.view(np.uint8).reshape(-1, _E16_WIDTH)
    return cells, fallback


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# Execution details that do not influence the produced numbers: echoed in
# the manifest, excluded from the hash so equivalent runs share it.
_UNHASHED_KEYS = ("output_dir", "workers")


_ARTIFACT = {"name": "bhspectra", "version": __version__}


def _manifest_hash(command: str, config: dict) -> str:
    """sha256 over the artifact, the command and the hashed configuration."""
    hashed_config = {k: v for k, v in config.items() if k not in _UNHASHED_KEYS}
    payload = {"artifact": _ARTIFACT, "command": command, "config": hashed_config}
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def write_manifest(
    outdir: Path,
    command: str,
    config: dict,
    manifest_hash: str,
    t0: float,
    compute_s: float,
    health: dict | None = None,
) -> None:
    """Write manifest.json, after the data files, so its timing covers them.

    t0 is the run's perf_counter() start; compute_s the part of the run not
    spent serializing (before serialization began, or, for a run that writes
    while it computes, the rest of the run). health, when given, is written
    unhashed next to timing.
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
            "compute_s": compute_s,
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


def _state_from_config(cfg: dict) -> BlackHoleState:
    return state_from_record(
        {
            "family": cfg["family"],
            "M": cfg["mass"],
            "Q": cfg["charge"],
            "J": cfg["angular_momentum"],
            "alpha": cfg["alpha"],
        }
    )


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


def _spectrum_columns(grid: SpectrumGrid, thermal: SpectrumGrid | None) -> dict:
    """The output columns of a spectrum, as whole arrays, in CSV order.

    thermal_log_weight is nan throughout when there is no thermal baseline.
    """
    thermal_lw = thermal.log_weight if thermal else np.full(grid.n_bins, np.nan)
    return {
        "omega": grid.omega,
        "q": grid.q,
        "j": grid.j,
        "log_weight": grid.log_weight,
        "weight": grid.weights(),
        "thermal_log_weight": thermal_lw,
        "valid": grid.valid,
    }


# Rows joined into one string at a time by the JSONL writers.
_JSONL_BLOCK = 2048


def _jsonl_rows(columns: dict):
    """Canonical JSON rows (compact, keys sorted, one per line) of named
    columns, _JSONL_BLOCK rows per string. Each column's distinct values are
    formatted once over all the rows given."""
    keys = sorted(columns)
    cells = [_format_column(columns[k], json.dumps) for k in keys]
    # A row is the key pieces with its cells between them: {"a":1,"b":2}.
    row = [None] * (2 * len(keys) + 1)
    row[0::2] = ["{" + json.dumps(keys[0]) + ":", *(f",{json.dumps(k)}:" for k in keys[1:]), "}\n"]
    n_rows = len(cells[0][1])
    for start in range(0, n_rows, _JSONL_BLOCK):
        stop = min(start + _JSONL_BLOCK, n_rows)
        parts = row * (stop - start)
        for k, (texts, index) in enumerate(cells):
            parts[2 * k + 1 :: len(row)] = map(texts.__getitem__, index[start:stop].tolist())
        yield "".join(parts)


def _csv_cells(values: np.ndarray, shape: tuple[int, int, int] | None, axis: int | None):
    """cells(start, stop): the _format_e16 cells of values[start:stop].

    A column that is, bit for bit, one axis of a grid of `shape` repeated over
    the other two is formatted once per axis value and its cells gathered;
    any other column is formatted chunk by chunk."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if axis is not None and shape is not None and values.size == math.prod(shape):
        bits = values.view(np.int64).reshape(shape)
        along = bits[tuple(slice(None) if k == axis else slice(1) for k in range(3))]
        if (bits == along).all():
            cells = _format_e16(along.ravel().view(np.float64))[0]
            stride, n = math.prod(shape[axis + 1 :]), shape[axis]
            return lambda start, stop: cells[np.arange(start, stop) // stride % n]
    return lambda start, stop: _format_e16(values[start:stop])[0]


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    """spectrum.csv: floats as "%.16e" (17 significant digits, round-trip
    exact), assembled as bytes, _ROW_CHUNK rows at a time."""
    columns = _spectrum_columns(grid, thermal)
    header = ",".join(columns)
    valid = columns.pop("valid")
    spec = grid.grid_spec
    shape = None if spec is None else (spec.n_omega, spec.n_q, spec.n_j)
    # omega, q and j each vary along their grid axis; the thermal baseline along omega's.
    axis = {"omega": 0, "q": 1, "j": 2, "thermal_log_weight": 0}
    cells = [_csv_cells(values, shape, axis.get(name)) for name, values in columns.items()]
    flag_text = np.array([b"false\n", b"true\n"], dtype="S6").view(np.uint8).reshape(2, 6)
    with path.open("wb") as f:
        f.write(f"# manifest_hash={manifest_hash}\n{header}\n".encode())
        for start in range(0, len(valid), _ROW_CHUNK):
            flag = flag_text[valid[start : start + _ROW_CHUNK].astype(np.intp)]
            stop = start + len(flag)
            # One row of cells per row of the file, the floats then the flag,
            # NUL where a text is shorter than its cell.
            rows = np.empty((len(flag), len(cells) * _E16_WIDTH + 6), dtype=np.uint8)
            for k, column_cells in enumerate(cells):
                rows[:, k * _E16_WIDTH : (k + 1) * _E16_WIDTH] = column_cells(start, stop)
            rows[:, -6:] = flag
            f.write(rows[rows != 0].tobytes())


def _write_spectrum_jsonl(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    columns = _spectrum_columns(grid, thermal)
    with path.open("w", encoding="utf-8") as f:
        f.write(_canonical_json({"type": "header", "manifest_hash": manifest_hash}) + "\n")
        for start in range(0, grid.n_bins, _ROW_CHUNK):
            f.writelines(_jsonl_rows({k: v[start : start + _ROW_CHUNK] for k, v in columns.items()}))


def cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    state = _state_from_config(cfg)
    if cfg["omega_max"] is None:
        cfg["omega_max"] = state.m
    spec = GridSpec(
        omega_max=cfg["omega_max"],
        n_omega=cfg["bins"],
        omega_min=cfg["omega_min"],
        q_step=cfg["q_step"],
        n_q=cfg["n_q"],
        j_step=cfg["j_step"],
        n_j=cfg["n_j"],
    )
    normalization = Normalization(cfg["normalization"])
    grid = build_spectrum(state, spec, normalization)
    n_nonfinite = np.count_nonzero(~np.isfinite(grid.log_weight[grid.valid]))
    if n_nonfinite or (grid.log_norm is not None and not np.isfinite(grid.log_norm)):
        raise FloatingPointError(
            f"{n_nonfinite} of {grid.n_valid} valid bins have a non-finite log_weight "
            f"(log_norm {grid.log_norm!r}): the entropy arithmetic left float64 range"
        )
    health = {
        "n_bins": grid.n_bins,
        "n_invalid": grid.n_bins - grid.n_valid,
        "n_underflow": int(np.count_nonzero(grid.valid & (grid.weights() == 0.0))),
        "log_norm": grid.log_norm,
    }
    try:
        thermal = build_thermal_spectrum(state, spec, normalization)
    except DomainError:
        thermal = None  # extremal source: no thermal baseline
    report = None
    if cfg["report"]:
        unit_grid = grid
        if normalization is not Normalization.UNIT_SUM:
            logw, log_norm = _normalize(grid.log_weight, grid.valid, Normalization.UNIT_SUM)
            unit_grid = dataclasses.replace(
                grid, log_weight=logw, normalization=Normalization.UNIT_SUM, log_norm=log_norm
            )
        report = build_info_report(state, unit_grid)
    compute_s = time.perf_counter() - t0

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), grid_spec=dataclasses.asdict(spec))
    manifest_hash = _manifest_hash("spectrum", manifest_cfg)
    if cfg["format"] == "csv":
        write_spectrum_csv(outdir / "spectrum.csv", grid, thermal, manifest_hash)
    elif cfg["format"] == "jsonl":
        _write_spectrum_jsonl(outdir / "spectrum.jsonl", grid, thermal, manifest_hash)
    else:
        columns = _spectrum_columns(grid, thermal)
        bins = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        _write_json(
            outdir / "spectrum.json",
            {
                "manifest_hash": manifest_hash,
                "state": state_to_record(state),
                "grid_spec": dataclasses.asdict(spec),
                "normalization": normalization.value,
                "log_norm": grid.log_norm,
                "bins": bins,
            },
        )
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


class _ChainsJsonl:
    """chains.jsonl, one row per step, written chunk by chunk from the step
    columns of cascade.sample_ensemble; seconds is the time spent in write.

    The rows go to a temporary file, renamed into place when the with block
    ends without an error and removed when it ends with one, so a failed run
    leaves no partial chains.jsonl.
    """

    def __init__(self, path: Path, manifest_hash: str, n_samples: int, seed: int) -> None:
        self.path, self.part = path, path.with_name(path.name + ".part")
        self.header = {"type": "header", "manifest_hash": manifest_hash,
                       "n_samples": n_samples, "seed": seed}
        self.seconds = 0.0

    def __enter__(self) -> "_ChainsJsonl":
        self.file = self.part.open("w", encoding="utf-8")
        self.file.write(_canonical_json(self.header) + "\n")
        return self

    def write(self, columns: dict) -> None:
        t = time.perf_counter()
        self.file.writelines(_jsonl_rows(columns))
        self.seconds += time.perf_counter() - t

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.file.close()
            if exc_type is None:
                self.part.replace(self.path)
        finally:
            self.part.unlink(missing_ok=True)


def cmd_cascade(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args)
    state = _state_from_config(cfg)
    policy = CascadePolicy(
        energy_quantum=cfg["energy_quantum"],
        stop_mass=cfg["stop_mass"],
        max_steps=cfg["max_steps"],
        charge_quantum=cfg["charge_quantum"],
        spin_quantum=cfg["spin_quantum"],
    )
    n_samples, seed = cfg["n_samples"], cfg["seed"]
    # Raises every usage error before anything is written.
    table = _ensemble_table(state, policy, n_samples, seed)

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), policy=dataclasses.asdict(policy))
    manifest_hash = _manifest_hash("cascade", manifest_cfg)
    # "workers" is only echoed: sampling runs in this process, and each
    # chain's stream is derived from (seed, index) alone. Each chunk's rows
    # are written as soon as it is walked.
    with _ChainsJsonl(outdir / "chains.jsonl", manifest_hash, n_samples, seed) as chains:
        stats = sample_ensemble(state, policy, n_samples, seed, chains.write)
    # Summed over the chunks: the walks are compute, the row writing serialization.
    compute_s = time.perf_counter() - t0 - chains.seconds
    _write_json(
        outdir / "ensemble.json",
        dict(stats.to_json_dict(), manifest_hash=manifest_hash),
    )
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
    reports = run_suites(cfg["suite"], seed=cfg["seed"], alpha=cfg["alpha"])
    compute_s = time.perf_counter() - t0
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_hash = _manifest_hash("verify", cfg)
    all_passed = all(r.all_passed for r in reports)
    _write_json(
        outdir / "report.json",
        {
            "manifest_hash": manifest_hash,
            "all_passed": all_passed,
            "suites": [r.to_json_dict() for r in reports],
        },
    )
    write_manifest(outdir, "verify", cfg, manifest_hash, t0, compute_s)
    for r in reports:
        for check in r.checks:
            status = "pass" if check.passed else "FAIL"
            print(
                f"{r.suite}/{check.name}: {status} "
                f"(measured {check.measured:.3e}, tolerance {check.tolerance:.3e})"
            )
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
    lab = typicality_lab(
        dim_b=cfg["dim_b"],
        dim_o=cfg["dim_o"],
        n_seeds=cfg["seeds"],
        seed=cfg["seed"],
        scale_factor=cfg["scale_factor"],
    )
    compute_s = time.perf_counter() - t0
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_hash = _manifest_hash("typicality", cfg)
    _write_json(outdir / "typicality.json", dict(lab.to_json_dict(), manifest_hash=manifest_hash))
    write_manifest(outdir, "typicality", cfg, manifest_hash, t0, compute_s)
    ratio = "n/a" if lab.rms_ratio is None else f"{lab.rms_ratio:.3f}"
    print(
        f"typicality: L1(diag, weights) = {lab.mean_l1_weights:.4f}, "
        f"off-diagonal RMS {lab.offdiag_rms:.2e} -> {lab.offdiag_rms_scaled:.2e} "
        f"(ratio {ratio}) at {lab.scale_factor}x dim_o"
    )
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
        p.add_argument("--config", help="flat JSON config file; flags override it")
        # Every flag defaults to None, so that _merge can tell it was not given.
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"invalid physics: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
