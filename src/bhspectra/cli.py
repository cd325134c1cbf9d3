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
import functools
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blackholes import BlackHoleState, _two_prod, state_from_record, state_to_record
from .cascade import CascadePolicy, sample_ensemble
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
from .spectrum import build_spectrum, build_thermal_spectrum
from .typicality import typicality_lab
from .verify import run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


# Rows formatted and written at a time: bounds the memory a writer holds.
_ROW_CHUNK = 16384


def _format_column(values: np.ndarray, fmt) -> list[str]:
    """fmt of every entry of a 1-D column, calling fmt once per distinct value
    (the JSONL writers; spectrum.csv goes through _format_e16).

    Floats are keyed on their bit patterns, so -0.0 and 0.0 (and distinct nan
    payloads) stay apart and each entry gets exactly the string fmt gives it.
    """
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    strings = list(map(fmt, distinct.view(values.dtype).tolist()))
    return list(map(strings.__getitem__, inverse.tolist()))


def _format_rows(columns, join):
    """Rows of (values, fmt) columns, joined by `join`, _ROW_CHUNK rows per string."""
    n_rows = len(columns[0][0])
    for start in range(0, n_rows, _ROW_CHUNK):
        stop = start + _ROW_CHUNK
        cells = [_format_column(values[start:stop], fmt) for values, fmt in columns]
        yield "".join(map(join, zip(*cells)))


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
# Kept (start, end) byte spans of a cell, by kind. Byte 0 is the sign, 21:24
# the 3-digit exponent (its leading 0 dropped below 100), 24 the comma.
_E16_SPANS = (
    ((1, 21), (22, 25)),  # 0: positive, 2-digit exponent
    ((0, 21), (22, 25)),  # 1: negative, 2-digit exponent
    ((1, 25),),  # 2: positive, 3-digit exponent
    ((0, 25),),  # 3: negative, 3-digit exponent
    ((0, 3), (24, 25)),  # 4: nan
    ((0, 3), (24, 25)),  # 5: inf
    ((0, 4), (24, 25)),  # 6: -inf
)
_E16_SPECIAL = (b"nan", b"inf", b"-inf")


@functools.cache
def _e16_tables():
    """(hi, lo) of 10^s for s in [_POW_MIN, _POW_MAX], with hi + lo = 10^s to
    ~2^-106 relative, from exact integers; the 4-digit text of 0..9999, one
    uint32 of 4 bytes each; the kept-byte mask of each cell kind. Built on
    the first CSV write."""
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    digits = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode(), np.uint32)
    keep = np.zeros((len(_E16_SPANS), _E16_WIDTH), dtype=bool)
    for kind, spans in enumerate(_E16_SPANS):
        for start, end in spans:
            keep[kind, start:end] = True
    return np.array(hi), np.array(lo), digits, keep


def _format_e16(values: np.ndarray):
    """Byte cells of ("%.16e" % x) + "," for every x of a float64 array.

    Returns (cells, keep, fallback): cells is uint8 of shape values.shape +
    (_E16_WIDTH,), keep marks the bytes of each cell's text, so that
    cells[keep] is the texts in order; fallback marks the values formatted
    by `%` (see below).

    x = N 10^(e-16) with N the 17-digit rounding of |x| 10^(16-e) and
    e = floor(log10 |x|). The product is a double-double, exact to ~1e-14
    in N's units, so N is the correctly rounded value unless its fraction
    is within 1e-9 of one half (a possible tie) or the guess of e misses
    (|x| 10^(16-e) below 10^16, or N = 10^17). Those values and magnitudes
    outside [_E16_MIN, _E16_MAX] take `%`; 0.0, nan and inf are written here.
    """
    pow_hi, pow_lo, digits, keep_by_kind = _e16_tables()
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
    cells[..., 0] = ord("-")
    cells[..., 1] = lead + ord("0")
    cells[..., 2] = ord(".")
    cells[..., 3:19] = digits[groups].view(np.uint8)
    cells[..., 19] = ord("e")
    cells[..., 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[..., 21:24] = digits[abs_e][..., None].view(np.uint8)[..., 1:]
    cells[..., 24] = ord(",")

    kind = neg + 2 * (abs_e >= 100)
    kind = np.where(np.isnan(x), 4, np.where(np.isinf(x), 5 + neg, kind))
    keep = keep_by_kind[kind]
    special = kind >= 4
    if special.any():
        texts = np.array(_E16_SPECIAL, dtype="S4").view(np.uint8).reshape(-1, 4)
        cells[special, :4] = texts[kind[special] - 4]
    if fallback.any():
        texts = ["%.16e" % v for v in x[fallback].tolist()]
        lengths = np.array(list(map(len, texts)))
        cells[fallback, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        keep[fallback, :24] = np.arange(24) < lengths[:, None]
    return cells, keep, fallback


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

    t0 is the run's perf_counter() start; compute_s the part of the run spent
    before serialization began. health, when given, is written unhashed next
    to timing.
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


def _file_value(args: argparse.Namespace, key: str, value, default):
    """A config-file value converted by its flag's type=, as argparse converts flags.

    A non-string value is converted from its JSON text, as a flag is from its
    own text: 2.7 or true is not an int, and 2 is the float 2.0. null is kept
    where the default itself is null (an unset optional value).
    """
    convert = args.flag_types.get(key)
    if convert is None or (value is None and default is None):
        return value
    try:
        return convert(value if isinstance(value, str) else json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise UsageError(
            f"config key {key!r}: invalid {convert.__name__} value: {value!r}"
        ) from exc


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve option values: explicit flag > config file > default."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            merged[key] = _file_value(args, key, file_cfg[key], default)
        else:
            merged[key] = default
    return merged


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

_SPECTRUM_DEFAULTS = {
    "family": "schwarzschild",
    "mass": 1.0,
    "charge": 0.0,
    "angular_momentum": 0.0,
    "alpha": 0.0,
    "omega_min": 0.0,
    "omega_max": None,  # resolved to the mass
    "bins": 64,
    "q_step": 1.0,
    "n_q": 1,
    "j_step": 1.0,
    "n_j": 1,
    "normalization": "raw",
    "format": "csv",
    "output_dir": ".",
    "seed": 0,
    "report": False,
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


def _jsonl_rows(columns: dict):
    """Canonical JSON rows (compact, keys sorted, one per line) of named columns."""
    keys = sorted(columns)
    template = "{" + ",".join(f"{json.dumps(k)}:%s" for k in keys) + "}\n"
    return _format_rows([(columns[k], json.dumps) for k in keys], template.__mod__)


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    """spectrum.csv: floats as "%.16e" (17 significant digits, round-trip
    exact), assembled as bytes, _ROW_CHUNK rows at a time."""
    columns = _spectrum_columns(grid, thermal)
    header = ",".join(columns)
    valid = columns.pop("valid")
    floats = list(columns.values())
    flag_text = np.array([b"false\n", b"true\n"], dtype="S6").view(np.uint8).reshape(2, 6)
    with path.open("wb") as f:
        f.write(f"# manifest_hash={manifest_hash}\n{header}\n".encode())
        for start in range(0, len(valid), _ROW_CHUNK):
            flag = flag_text[valid[start : start + _ROW_CHUNK].astype(np.intp)]
            # One row of cells per row of the file: the floats, then the flag.
            rows = np.empty((len(flag), len(floats) * _E16_WIDTH + 6), dtype=np.uint8)
            kept = np.empty(rows.shape, dtype=bool)
            for k, column in enumerate(floats):
                cell = slice(k * _E16_WIDTH, (k + 1) * _E16_WIDTH)
                chunk = column[start : start + len(flag)]
                rows[:, cell], kept[:, cell], _ = _format_e16(chunk)
            rows[:, -6:], kept[:, -6:] = flag, flag != 0
            f.write(rows[kept].tobytes())


def _write_spectrum_jsonl(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(_canonical_json({"type": "header", "manifest_hash": manifest_hash}) + "\n")
        f.writelines(_jsonl_rows(_spectrum_columns(grid, thermal)))


def cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _SPECTRUM_DEFAULTS)
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
    fmt = str(cfg["format"]).lower()
    if fmt not in ("csv", "jsonl", "json"):
        raise UsageError(f"unknown format {fmt!r}; choose csv, jsonl or json")
    try:
        normalization = Normalization(str(cfg["normalization"]).lower())
    except ValueError as exc:
        raise UsageError(f"unknown normalization {cfg['normalization']!r}") from exc
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
        if normalization is not Normalization.UNIT_SUM:
            unit_grid = build_spectrum(state, spec, Normalization.UNIT_SUM)
        else:
            unit_grid = grid
        report = build_info_report(state, unit_grid)
    compute_s = time.perf_counter() - t0

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), grid_spec=spec.to_record())
    manifest_hash = _manifest_hash("spectrum", manifest_cfg)
    if fmt == "csv":
        write_spectrum_csv(outdir / "spectrum.csv", grid, thermal, manifest_hash)
    elif fmt == "jsonl":
        _write_spectrum_jsonl(outdir / "spectrum.jsonl", grid, thermal, manifest_hash)
    else:
        columns = _spectrum_columns(grid, thermal)
        bins = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        _write_json(
            outdir / "spectrum.json",
            {
                "manifest_hash": manifest_hash,
                "state": state_to_record(state),
                "grid_spec": spec.to_record(),
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

_CASCADE_DEFAULTS = {
    "family": "schwarzschild",
    "mass": 1.0,
    "charge": 0.0,
    "angular_momentum": 0.0,
    "alpha": 0.0,
    "energy_quantum": 0.0625,
    "stop_mass": 0.0,
    "max_steps": None,
    "charge_quantum": None,
    "spin_quantum": None,
    "n_samples": 100,
    "seed": 0,
    "workers": 1,
    "output_dir": ".",
}


def _write_chains_jsonl(path: Path, columns, manifest_hash: str, n_samples: int, seed: int) -> None:
    """One row per step, from the step columns of cascade.sample_ensemble."""
    header = {"type": "header", "manifest_hash": manifest_hash, "n_samples": n_samples, "seed": seed}
    with path.open("w", encoding="utf-8") as f:
        f.write(_canonical_json(header) + "\n")
        f.writelines(_jsonl_rows(columns))


def cmd_cascade(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _CASCADE_DEFAULTS)
    state = _state_from_config(cfg)
    policy = CascadePolicy(
        energy_quantum=cfg["energy_quantum"],
        stop_mass=cfg["stop_mass"],
        max_steps=cfg["max_steps"],
        charge_quantum=cfg["charge_quantum"],
        spin_quantum=cfg["spin_quantum"],
    )
    n_samples, seed = cfg["n_samples"], cfg["seed"]
    # "workers" is only echoed: sampling runs in this process, and each
    # chain's stream is derived from (seed, index) alone.
    stats, steps = sample_ensemble(state, policy, n_samples, seed)
    compute_s = time.perf_counter() - t0

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), policy=policy.to_record())
    manifest_hash = _manifest_hash("cascade", manifest_cfg)
    _write_chains_jsonl(outdir / "chains.jsonl", steps, manifest_hash, n_samples, seed)
    _write_json(
        outdir / "ensemble.json",
        dict(stats.to_json_dict(), manifest_hash=manifest_hash),
    )
    write_manifest(outdir, "cascade", manifest_cfg, manifest_hash, t0, compute_s)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_DEFAULTS = {
    "suite": "all",
    "seed": 0,
    "alpha": 0.0,
    "output_dir": ".",
}


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _VERIFY_DEFAULTS)
    reports = run_suites(str(cfg["suite"]), seed=cfg["seed"], alpha=cfg["alpha"])
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

_TYPICALITY_DEFAULTS = {
    "dim_b": 4,
    "dim_o": 4096,
    "seeds": 100,
    "scale_factor": 4,
    "seed": 0,
    "output_dir": ".",
}


def cmd_typicality(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _TYPICALITY_DEFAULTS)
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
    print(
        f"typicality: L1(diag, weights) = {lab.mean_l1_weights:.4f}, "
        f"off-diagonal RMS {lab.offdiag_rms:.2e} -> {lab.offdiag_rms_scaled:.2e} "
        f"(ratio {lab.rms_ratio:.3f}) at {lab.scale_factor}x dim_o"
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

    def add_state_flags(p: _Parser) -> None:
        p.add_argument("--family", help="schwarzschild | rn | kn")
        p.add_argument("--mass", type=float, help="mass M in Planck units")
        p.add_argument("--charge", type=float, help="charge Q (0 for schwarzschild)")
        p.add_argument("--angular-momentum", type=float, dest="angular_momentum", help="J")
        p.add_argument("--alpha", type=float, help="log-correction coefficient")

    sp = sub.add_parser("spectrum", parents=[], description="Emission spectrum on a grid.")
    sp.add_argument("--config", help="flat JSON config file; flags override it")
    add_state_flags(sp)
    sp.add_argument("--omega-min", type=float, dest="omega_min")
    sp.add_argument("--omega-max", type=float, dest="omega_max")
    sp.add_argument("--bins", type=int, help="number of omega nodes")
    sp.add_argument("--q-step", type=float, dest="q_step")
    sp.add_argument("--n-q", type=int, dest="n_q")
    sp.add_argument("--j-step", type=float, dest="j_step")
    sp.add_argument("--n-j", type=int, dest="n_j")
    sp.add_argument("--normalization", choices=["raw", "unitsum"])
    sp.add_argument("--format", choices=["csv", "jsonl", "json"])
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--report", action="store_const", const=True, default=None,
                    help="also write info_report.json")
    sp.set_defaults(func=cmd_spectrum)

    ca = sub.add_parser("cascade", description="Monte Carlo evaporation cascades.")
    ca.add_argument("--config", help="flat JSON config file; flags override it")
    add_state_flags(ca)
    ca.add_argument("--energy-quantum", type=float, dest="energy_quantum")
    ca.add_argument("--stop-mass", type=float, dest="stop_mass")
    ca.add_argument("--max-steps", type=int, dest="max_steps")
    ca.add_argument("--charge-quantum", type=float, dest="charge_quantum")
    ca.add_argument("--spin-quantum", type=float, dest="spin_quantum")
    ca.add_argument("--n-samples", type=int, dest="n_samples")
    ca.add_argument("--seed", type=int)
    ca.add_argument("--workers", type=int,
                    help="accepted for compatibility and echoed; changes neither output nor execution")
    ca.add_argument("--output-dir", dest="output_dir")
    ca.set_defaults(func=cmd_cascade)

    ve = sub.add_parser("verify", description="Run invariant verification suites.")
    ve.add_argument("--config", help="flat JSON config file; flags override it")
    ve.add_argument("--suite", choices=["identities", "typicality", "cascade", "info", "all"])
    ve.add_argument("--seed", type=int)
    ve.add_argument("--alpha", type=float, help="log-correction coefficient used by the suites")
    ve.add_argument("--output-dir", dest="output_dir")
    ve.set_defaults(func=cmd_verify)

    ty = sub.add_parser("typicality", description="Random-pure-state typicality lab.")
    ty.add_argument("--config", help="flat JSON config file; flags override it")
    ty.add_argument("--dim-b", type=int, dest="dim_b")
    ty.add_argument("--dim-o", type=int, dest="dim_o")
    ty.add_argument("--seeds", type=int, help="number of random states to average")
    ty.add_argument("--scale-factor", type=int, dest="scale_factor")
    ty.add_argument("--seed", type=int)
    ty.add_argument("--output-dir", dest="output_dir")
    ty.set_defaults(func=cmd_typicality)

    # Config-file values go through the same type= as their flags.
    for p in (sp, ca, ve, ty):
        p.set_defaults(flag_types={a.dest: a.type for a in p._actions if a.type is not None})
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
