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
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blackholes import BlackHoleState, state_from_record, state_to_record
from .cascade import CascadePolicy, ensemble_stats_from_chains, sample_cascade
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


def _fmt(x: float) -> str:
    """Fixed scientific notation, 17 significant digits (round-trip exact)."""
    return "%.16e" % x


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# Execution details that do not influence the produced numbers: echoed in
# the manifest, excluded from the hash so equivalent runs share it.
_UNHASHED_KEYS = ("output_dir", "workers")


def write_manifest(outdir: Path, command: str, config: dict, wall_time_s: float) -> str:
    """Write manifest.json; returns the hash over the run's configuration."""
    hashed_config = {k: v for k, v in config.items() if k not in _UNHASHED_KEYS}
    payload = {
        "artifact": {"name": "bhspectra", "version": __version__},
        "command": command,
        "config": hashed_config,
    }
    manifest_hash = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    manifest = {
        "artifact": payload["artifact"],
        "command": command,
        "config": config,
        "manifest_hash": manifest_hash,
        "timing": {"timestamp_utc": _utc_now(), "wall_time_s": wall_time_s},
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest_hash


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
            merged[key] = file_cfg[key]
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


def _spectrum_rows(grid: SpectrumGrid, thermal: SpectrumGrid | None):
    weights = grid.weights()
    for i in range(grid.n_bins):
        yield {
            "omega": float(grid.omega[i]),
            "q": float(grid.q[i]),
            "j": float(grid.j[i]),
            "log_weight": float(grid.log_weight[i]),
            "weight": float(weights[i]),
            "thermal_log_weight": float(thermal.log_weight[i]) if thermal else float("nan"),
            "valid": bool(grid.valid[i]),
        }


def write_spectrum_csv(path: Path, grid: SpectrumGrid, thermal, manifest_hash: str) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# manifest_hash={manifest_hash}\n")
        f.write("omega,q,j,log_weight,weight,thermal_log_weight,valid\n")
        for row in _spectrum_rows(grid, thermal):
            f.write(
                ",".join(
                    [
                        _fmt(row["omega"]),
                        _fmt(row["q"]),
                        _fmt(row["j"]),
                        _fmt(row["log_weight"]),
                        _fmt(row["weight"]),
                        _fmt(row["thermal_log_weight"]),
                        "true" if row["valid"] else "false",
                    ]
                )
                + "\n"
            )


def cmd_spectrum(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _SPECTRUM_DEFAULTS)
    state = _state_from_config(cfg)
    if cfg["omega_max"] is None:
        cfg["omega_max"] = state.m
    spec = GridSpec(
        omega_max=float(cfg["omega_max"]),
        n_omega=int(cfg["bins"]),
        omega_min=float(cfg["omega_min"]),
        q_step=float(cfg["q_step"]),
        n_q=int(cfg["n_q"]),
        j_step=float(cfg["j_step"]),
        n_j=int(cfg["n_j"]),
    )
    normalization = Normalization(str(cfg["normalization"]).lower())
    grid = build_spectrum(state, spec, normalization)
    try:
        thermal = build_thermal_spectrum(state, spec, normalization)
    except DomainError:
        thermal = None  # extremal source: no thermal baseline
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), grid_spec=spec.to_record())
    manifest_hash = write_manifest(outdir, "spectrum", manifest_cfg, time.perf_counter() - t0)

    fmt = str(cfg["format"]).lower()
    if fmt == "csv":
        write_spectrum_csv(outdir / "spectrum.csv", grid, thermal, manifest_hash)
    elif fmt == "jsonl":
        with (outdir / "spectrum.jsonl").open("w", encoding="utf-8") as f:
            header = {"type": "header", "manifest_hash": manifest_hash}
            f.write(_canonical_json(header) + "\n")
            for row in _spectrum_rows(grid, thermal):
                f.write(_canonical_json(row) + "\n")
    elif fmt == "json":
        _write_json(
            outdir / "spectrum.json",
            {
                "manifest_hash": manifest_hash,
                "state": state_to_record(state),
                "grid_spec": spec.to_record(),
                "normalization": normalization.value,
                "log_norm": grid.log_norm,
                "bins": list(_spectrum_rows(grid, thermal)),
            },
        )
    else:
        raise UsageError(f"unknown format {fmt!r}; choose csv, jsonl or json")

    if cfg["report"]:
        report = build_info_report(state, spec)
        payload = dict(report.to_json_dict(), manifest_hash=manifest_hash)
        _write_json(outdir / "info_report.json", payload)
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


def cmd_cascade(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _merge(args, _CASCADE_DEFAULTS)
    state = _state_from_config(cfg)
    policy = CascadePolicy(
        energy_quantum=float(cfg["energy_quantum"]),
        stop_mass=float(cfg["stop_mass"]),
        max_steps=int(cfg["max_steps"]) if cfg["max_steps"] is not None else None,
        charge_quantum=float(cfg["charge_quantum"]) if cfg["charge_quantum"] is not None else None,
        spin_quantum=float(cfg["spin_quantum"]) if cfg["spin_quantum"] is not None else None,
    )
    n_samples = int(cfg["n_samples"])
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    seed = int(cfg["seed"])
    # "workers" is only echoed: sampling runs in this process, and each
    # chain's stream is derived from (seed, index) alone.
    chains = [sample_cascade(state, policy, seed, i) for i in range(n_samples)]

    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_cfg = dict(cfg, state=state_to_record(state), policy=policy.to_record())
    manifest_hash = write_manifest(outdir, "cascade", manifest_cfg, time.perf_counter() - t0)

    with (outdir / "chains.jsonl").open("w", encoding="utf-8") as f:
        header = {
            "type": "header",
            "manifest_hash": manifest_hash,
            "n_samples": n_samples,
            "seed": seed,
        }
        f.write(_canonical_json(header) + "\n")
        for index, chain in enumerate(chains):
            mass_before = chain.initial.m
            for step_no, step in enumerate(chain.steps):
                f.write(
                    _canonical_json(
                        {
                            "sample_index": index,
                            "step": step_no,
                            "omega": step.emission.omega,
                            "q": step.emission.q,
                            "j": step.emission.j,
                            "mass_before": mass_before,
                            "log_weight_raw": step.log_weight,
                            "log_prob_norm": step.log_prob,
                        }
                    )
                    + "\n"
                )
                mass_before = step.state_after.m

    stats = ensemble_stats_from_chains(chains, policy, n_samples, seed)
    _write_json(
        outdir / "ensemble.json",
        dict(stats.to_json_dict(), manifest_hash=manifest_hash),
    )
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
    reports = run_suites(str(cfg["suite"]), seed=int(cfg["seed"]), alpha=float(cfg["alpha"]))
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_hash = write_manifest(outdir, "verify", dict(cfg), time.perf_counter() - t0)
    all_passed = all(r.all_passed for r in reports)
    _write_json(
        outdir / "report.json",
        {
            "manifest_hash": manifest_hash,
            "all_passed": all_passed,
            "suites": [r.to_json_dict() for r in reports],
        },
    )
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
        dim_b=int(cfg["dim_b"]),
        dim_o=int(cfg["dim_o"]),
        n_seeds=int(cfg["seeds"]),
        seed=int(cfg["seed"]),
        scale_factor=int(cfg["scale_factor"]),
    )
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_hash = write_manifest(outdir, "typicality", dict(cfg), time.perf_counter() - t0)
    _write_json(outdir / "typicality.json", dict(lab.to_json_dict(), manifest_hash=manifest_hash))
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
