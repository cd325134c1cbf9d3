"""Command-line interface: outputs, manifests, determinism, exit codes."""

import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bhspectra import __version__, cascade, cli
from bhspectra.__main__ import _BUILTIN_HASHES
from bhspectra.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bhspectra", *argv], capture_output=True, text=True
    )


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def stable_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest.pop("timing")
    return manifest


class TestSpectrumCommand:
    def test_csv_matches_closed_form(self, tmp_path):
        code = run_cli(
            "spectrum",
            "--family", "schwarzschild",
            "--mass", "1",
            "--omega-max", "1",
            "--bins", "4",
            "--normalization", "raw",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["omega", "q", "j", "log_weight", "weight",
                          "thermal_log_weight", "valid"]
        omegas = [float(r[0]) for r in rows]
        assert omegas == [0.25, 0.5, 0.75, 1.0]
        for r in rows:
            w = float(r[0])
            assert float(r[3]) == pytest.approx(-8.0 * math.pi * w * (1 - w / 2), abs=1e-12)
            assert float(r[5]) == pytest.approx(-8.0 * math.pi * w, abs=1e-12)
            assert r[6] == "true"

    def test_round_trip_17_digits(self, tmp_path):
        run_cli("spectrum", "--mass", "1", "--bins", "3", "--output-dir", str(tmp_path))
        _, rows = read_csv(tmp_path / "spectrum.csv")
        from bhspectra import BlackHoleState, Emission, emission_log_weight

        s = BlackHoleState("schwarzschild", 1.0)
        for r in rows:
            assert float(r[3]) == emission_log_weight(s, Emission(float(r[0])))

    def test_super_extremal_exits_2_naming_the_condition(self, tmp_path):
        proc = run_subprocess(
            "spectrum", "--mass", "1", "--charge", "2", "--family", "rn",
            "--output-dir", str(tmp_path),
        )
        assert proc.returncode == 2
        assert "extremal" in proc.stderr

    def test_byte_determinism_modulo_timing(self, tmp_path):
        args = (
            "spectrum", "--mass", "2", "--omega-max", "2", "--bins", "32",
            "--normalization", "unitsum", "--seed", "7",
            "--output-dir", str(tmp_path),
        )
        run_cli(*args)
        first_csv = (tmp_path / "spectrum.csv").read_bytes()
        first_manifest = stable_manifest(tmp_path / "manifest.json")
        run_cli(*args)
        assert (tmp_path / "spectrum.csv").read_bytes() == first_csv
        assert stable_manifest(tmp_path / "manifest.json") == first_manifest

    def test_manifest_timing_covers_the_whole_run(self, tmp_path):
        run_cli("spectrum", "--mass", "2", "--bins", "64", "--report", "--output-dir", str(tmp_path))
        timing = json.loads((tmp_path / "manifest.json").read_text())["timing"]
        assert timing["compute_s"] > 0.0 and timing["serialize_s"] > 0.0
        assert timing["import_s"] > 0.0
        stages = timing["import_s"] + timing["compute_s"] + timing["serialize_s"]
        assert stages == pytest.approx(timing["wall_time_s"])
        # Written last: no data file is newer than the manifest.
        newest = max((tmp_path / name).stat().st_mtime_ns
                     for name in ("spectrum.csv", "info_report.json"))
        assert (tmp_path / "manifest.json").stat().st_mtime_ns >= newest

    def test_data_bytes_independent_of_output_dir(self, tmp_path):
        args = ("spectrum", "--mass", "2", "--omega-max", "2", "--bins", "8")
        run_cli(*args, "--output-dir", str(tmp_path / "a"))
        run_cli(*args, "--output-dir", str(tmp_path / "b"))
        assert (tmp_path / "a/spectrum.csv").read_bytes() == (
            tmp_path / "b/spectrum.csv"
        ).read_bytes()

    def test_manifest_hash_links_outputs(self, tmp_path):
        run_cli("spectrum", "--mass", "1", "--bins", "4", "--output-dir", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        first = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert manifest["manifest_hash"] in first
        assert manifest["config"]["seed"] == 0  # defaulted seed still echoed

    def test_json_and_jsonl_formats(self, tmp_path):
        run_cli("spectrum", "--mass", "1", "--bins", "4", "--format", "json",
                "--output-dir", str(tmp_path / "j"))
        payload = json.loads((tmp_path / "j/spectrum.json").read_text())
        assert len(payload["bins"]) == 4
        run_cli("spectrum", "--mass", "1", "--bins", "4", "--format", "jsonl",
                "--output-dir", str(tmp_path / "l"))
        lines = (tmp_path / "l/spectrum.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert len(lines) == 5

    def test_json_of_an_extremal_source_is_one_indented_document(self, tmp_path):
        # More bins than one write chunk, and a nan thermal column.
        code = run_cli("spectrum", "--family", "rn", "--mass", "1", "--charge", "1",
                       "--omega-max", "0.2", "--bins", "3000", "--q-step", "0.1", "--n-q", "3",
                       "--format", "json", "--output-dir", str(tmp_path))
        assert code == 0
        text = (tmp_path / "spectrum.json").read_text()
        payload = json.loads(text)
        assert len(payload["bins"]) == 9000
        assert all(math.isnan(b["thermal_log_weight"]) for b in payload["bins"])
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_report_flag_writes_info_report(self, tmp_path):
        run_cli("spectrum", "--mass", "1", "--omega-max", "0.5", "--bins", "8",
                "--report", "--output-dir", str(tmp_path))
        report = json.loads((tmp_path / "info_report.json").read_text())
        assert report["e_r"] > 0.0
        assert report["mi_numeric"] >= 0.0

    def test_report_mutual_information_node_cap(self, tmp_path, monkeypatch, capsys):
        from bhspectra import information

        monkeypatch.setattr(information, "_MAX_MI_NODES", 8)
        args = ("spectrum", "--mass", "1", "--report", "--bins")
        assert run_cli(*args, "8", "--output-dir", str(tmp_path / "at")) == 0
        assert json.loads((tmp_path / "at/info_report.json").read_text())["mi_numeric"] >= 0.0
        assert run_cli(*args, "9", "--output-dir", str(tmp_path / "over")) == 1
        assert "mutual information on 9 omega nodes, above 8" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()

    def test_report_node_cap_is_checked_before_any_spectrum(self, tmp_path, monkeypatch, capsys):
        from bhspectra import information

        def build_spectrum(*args):
            raise AssertionError("build_spectrum reached")

        monkeypatch.setattr(information, "_MAX_MI_NODES", 8)
        monkeypatch.setattr(cli, "build_spectrum", build_spectrum)
        assert run_cli("spectrum", "--mass", "1", "--report", "--bins", "9",
                       "--output-dir", str(tmp_path / "over")) == 1
        assert "mutual information on 9 omega nodes, above 8" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()

    def test_report_with_every_emission_pair_closed_has_null_mi(self, tmp_path):
        # Nodes 0.8 and 1.0 of a unit mass: every single emission is open,
        # every pair overdraws the mass.
        assert run_cli("spectrum", "--mass", "1", "--omega-min", "0.6", "--omega-max", "1",
                       "--bins", "2", "--report", "--output-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "info_report.json").read_text())
        assert report["mi_numeric"] is report["mi_paper_form"] is report["mi_moment_form"] is None
        assert report["s_r"] > 0.0

    def test_one_bin_report_writes_a_positive_zero_entropy(self, tmp_path):
        # One bin is a point mass: S_R = 0, written as 0.0, not -0.0.
        assert run_cli("spectrum", "--mass", "1", "--bins", "1", "--omega-max", "0.5",
                       "--normalization", "unitsum", "--report",
                       "--output-dir", str(tmp_path)) == 0
        s_r = json.loads((tmp_path / "info_report.json").read_text())["s_r"]
        assert s_r == 0.0 and math.copysign(1.0, s_r) == 1.0

    def test_report_run_peak_memory_holds_no_thermal_grid(self, tmp_path):
        # spectrum_rn_csv's grid, 125,000 bins. The thermal baseline is one
        # value per omega node by the time the report is built: a thermal grid
        # held beside the report stage would add 9 bytes per bin (~1.1 MB).
        # Measured: 3.18 MB, at the report (the grid and the remnant
        # entropies of its valid bins); the bound leaves 0.42 MB.
        argv = ["spectrum", "--family", "rn", "--mass", "2", "--charge", "1",
                "--omega-max", "1.5", "--bins", "31250", "--n-q", "4", "--q-step", "0.25",
                "--normalization", "unitsum", "--report"]
        # An untraced run first: the modules and caches the command loads are not counted.
        assert main([*argv, "--output-dir", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.6e6

    def test_report_on_an_overflowing_entropy_exits_3_writing_nothing(self, tmp_path):
        # S(M) = 4 pi M^2 overflows float64 beyond M ~ 3.8e153.
        out = tmp_path / "out"
        proc = run_subprocess("spectrum", "--mass", "1e200", "--omega-max", "1", "--bins", "8",
                              "--normalization", "unitsum", "--report", "--output-dir", str(out))
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mass": 2.0, "bins": 8, "omega_max": 1.0}))
        run_cli("spectrum", "--config", str(cfg), "--bins", "4",
                "--output-dir", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["mass"] == 2.0   # from file
        assert manifest["config"]["bins"] == 4     # flag wins
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"masss": 2.0}))
        assert run_cli("spectrum", "--config", str(cfg), "--output-dir", str(tmp_path)) == 1

    def test_extremal_source_gets_nan_thermal_column(self, tmp_path):
        # An extremal hole has no pure-energy channels (any mass loss would
        # be super-extremal), so the grid needs a charge axis; and it has no
        # temperature, so the thermal column is nan.
        code = run_cli("spectrum", "--family", "rn", "--mass", "1", "--charge", "1",
                       "--omega-max", "0.2", "--bins", "2",
                       "--q-step", "0.1", "--n-q", "3", "--output-dir", str(tmp_path))
        assert code == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert all(r[5] == "nan" for r in rows)
        assert any(r[6] == "true" for r in rows)   # q >= omega channels open
        assert any(r[6] == "false" for r in rows)  # pure-energy channels closed

    # The entropy arithmetic overflows: M^4 in the charged discriminant above
    # M ~ 1.16e77, and 4 pi M^2 above M ~ 1e154. Refused where it is made,
    # unwarned.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "rn", "--mass", "1e78", "--charge", "5e77", "--bins", "4"),
            ("--mass", "1e200", "--bins", "4", "--normalization", "unitsum"),
        ],
        ids=["rn_disc", "schw_unitsum"],
    )
    def test_non_finite_spectrum_exits_3_writing_nothing(self, tmp_path, capsys, args):
        assert run_cli("spectrum", *args, "--output-dir", str(tmp_path / "out")) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_thermal_baseline_exits_3_writing_nothing(self, tmp_path):
        # -8 pi M omega overflows at the last node; the spectrum itself does not.
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bhspectra", "spectrum", "--mass", "5.5e153",
             "--omega-max", "1.375e153", "--bins", "4", "--output-dir", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "numerical failure: the thermal log-weight" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    # The log-corrected entropy at a zero float64 horizon area: the state's
    # (4 M^2 underflows) or the last node's remnant (M' ~ 2.7e-166).
    @pytest.mark.parametrize(
        "args",
        [
            ("--mass", "1e-170", "--alpha", "1", "--bins", "4"),
            ("--mass", "1e-150", "--alpha", "1", "--bins", "4",
             "--omega-max", repr(1e-150 * (1 - 2**-52))),
        ],
        ids=["state", "remnant"],
    )
    def test_zero_horizon_area_exits_3_naming_it(self, tmp_path, capsys, args):
        assert run_cli("spectrum", *args, "--output-dir", str(tmp_path / "out")) == 3
        assert "float64 horizon area is 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("--mass", "700", "--bins", "500", "--normalization", "unitsum"),
            ("--family", "rn", "--mass", "1", "--charge", "1", "--omega-max", "0.2",
             "--bins", "3", "--q-step", "0.1", "--n-q", "3"),
        ],
        ids=["underflow", "closed_channels"],
    )
    def test_manifest_health_matches_the_csv(self, tmp_path, args):
        assert run_cli("spectrum", *args, "--output-dir", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        _, rows = read_csv(tmp_path / "spectrum.csv")
        valid = [r for r in rows if r[6] == "true"]
        assert manifest["health"] == {
            "n_bins": len(rows),
            "n_invalid": len(rows) - len(valid),
            "n_underflow": sum(float(r[4]) == 0.0 for r in valid),
            "log_norm": manifest["health"]["log_norm"],
        }
        if "unitsum" in args:
            # log_weight + log_norm is the raw weight -4 pi omega (2 M - omega).
            for r in valid:
                omega = float(r[0])
                raw = -4.0 * math.pi * omega * (1400.0 - omega)
                assert float(r[3]) + manifest["health"]["log_norm"] == pytest.approx(raw, rel=1e-12)
        else:
            assert manifest["health"]["log_norm"] is None


    def test_raw_report_equals_the_unitsum_report(self, tmp_path, monkeypatch):
        # --report on a raw spectrum normalizes the raw grid, with no second kernel pass.
        calls = []
        build = cli.build_spectrum
        monkeypatch.setattr(cli, "build_spectrum", lambda *a: calls.append(a) or build(*a))
        args = ("spectrum", "--family", "kn", "--mass", "2", "--charge", "0.5",
                "--angular-momentum", "0.5", "--alpha", "0.5", "--bins", "50",
                "--q-step", "0.125", "--n-q", "3", "--j-step", "0.125", "--n-j", "2", "--report")
        reports = {}
        for norm in ("raw", "unitsum"):
            calls.clear()
            out = tmp_path / norm
            assert run_cli(*args, "--normalization", norm, "--output-dir", str(out)) == 0
            assert len(calls) == 1
            reports[norm] = json.loads((out / "info_report.json").read_text())
            reports[norm].pop("manifest_hash")
        assert reports["raw"] == reports["unitsum"]

    @pytest.mark.parametrize("args", [
        ("--family", "rn", "--charge", "1", "--q-step", "nan", "--n-q", "2"),
        ("--family", "rn", "--charge", "1", "--q-step", "inf", "--n-q", "2"),
        # nan * 0 would turn the q = 0 column into nan too.
        ("--family", "rn", "--charge", "1", "--q-step", "nan", "--n-q", "1"),
        ("--family", "kn", "--charge", "1", "--j-step", "nan", "--n-j", "2"),
        # A finite step whose multiple 2e308 overflows to inf.
        ("--family", "rn", "--charge", "1", "--q-step", "1e308", "--n-q", "3"),
    ], ids=["q-nan", "q-inf", "q-nan-one-column", "j-nan", "q-overflow"])
    def test_non_finite_grid_step_exits_1(self, tmp_path, capsys, args):
        code = run_cli("spectrum", "--mass", "2", "--bins", "4", *args,
                       "--output-dir", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_grid_step_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "rn", "mass": 2, "charge": 1, "bins": 4,
                                   "q_step": "nan", "n_q": 2}))
        out = tmp_path / "out"
        assert run_cli("spectrum", "--config", str(cfg), "--output-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


class TestCascadeCommand:
    def test_manifest_health_matches_the_chains(self, tmp_path):
        # No channel carries charge, so chains stick once M' would drop below Q.
        cascade._cached_table.cache_clear()
        assert run_cli("cascade", "--family", "rn", "--mass", "2", "--charge", "0.875",
                       "--energy-quantum", "0.25", "--n-samples", "40",
                       "--output-dir", str(tmp_path)) == 0
        health = json.loads((tmp_path / "manifest.json").read_text())["health"]
        ensemble = json.loads((tmp_path / "ensemble.json").read_text())
        assert health["n_stuck"] == ensemble["n_stuck"] > 0
        # The walk looks up every state a chain steps from, and each stuck end.
        rows = [json.loads(x) for x in (tmp_path / "chains.jsonl").read_text().splitlines()[1:]]
        states = {r["mass_before"] for r in rows}
        ends = {r["mass_before"] - r["omega"] for r in rows}
        assert health["n_states"] == len(states | (ends - {0.0}))

    def test_jsonl_schema_and_report(self, tmp_path):
        code = run_cli(
            "cascade", "--mass", "0.5", "--energy-quantum", "0.125",
            "--n-samples", "10", "--seed", "3", "--output-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "chains.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header" and header["n_samples"] == 10
        step = json.loads(lines[1])
        assert set(step) == {
            "sample_index", "step", "omega", "q", "j",
            "mass_before", "log_weight_raw", "log_prob_norm",
        }
        report = json.loads((tmp_path / "ensemble.json").read_text())
        assert report["n_samples"] == 10
        # complete uncharged cascades: raw chain log-prob is -4 pi M^2
        assert report["mean_raw_log_prob"] == pytest.approx(-math.pi, abs=1e-10)

    def test_single_identity_writes_a_positive_zero_entropy(self, tmp_path):
        # The mass is the stop mass, so every chain is the empty one: a point
        # mass, whose identity entropy is 0.0, not -0.0.
        assert run_cli("cascade", "--mass", "0.25", "--energy-quantum", "0.25",
                       "--stop-mass", "0.25", "--n-samples", "3",
                       "--output-dir", str(tmp_path)) == 0
        h = json.loads((tmp_path / "ensemble.json").read_text())["identity_entropy"]
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_invalid_policy_exits_1(self, tmp_path):
        assert run_cli(
            "cascade", "--mass", "0.5", "--energy-quantum", "0.125",
            "--max-steps", "0", "--output-dir", str(tmp_path),
        ) == 1

    def test_non_multiple_mass_exits_1(self, tmp_path):
        assert run_cli(
            "cascade", "--mass", "0.51", "--energy-quantum", "0.125",
            "--output-dir", str(tmp_path),
        ) == 1

    def test_parallel_workers_give_identical_bytes(self, tmp_path):
        args = ("cascade", "--mass", "0.75", "--energy-quantum", "0.125",
                "--n-samples", "64", "--seed", "11")
        run_cli(*args, "--workers", "1", "--output-dir", str(tmp_path / "w1"))
        run_cli(*args, "--workers", "4", "--output-dir", str(tmp_path / "w4"))
        a = (tmp_path / "w1/chains.jsonl").read_bytes()
        b = (tmp_path / "w4/chains.jsonl").read_bytes()
        assert a == b
        ra = json.loads((tmp_path / "w1/ensemble.json").read_text())
        rb = json.loads((tmp_path / "w4/ensemble.json").read_text())
        assert ra == rb

    def test_mass_before_tracks_chain(self, tmp_path):
        run_cli("cascade", "--mass", "0.5", "--energy-quantum", "0.25",
                "--n-samples", "2", "--output-dir", str(tmp_path))
        rows = [json.loads(x) for x in (tmp_path / "chains.jsonl").read_text().splitlines()[1:]]
        for row in rows:
            if row["step"] == 0:
                assert row["mass_before"] == 0.5

    # The log-weights leave float64 range: omega (2M - omega) at M = 1e200,
    # and the charged kernel's M^4 at M = 1e100, where S(M) is finite.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args",
        [
            ("--mass", "1e200", "--energy-quantum", "1e199"),
            ("--family", "rn", "--mass", "1e100", "--charge", "5e99",
             "--energy-quantum", "1e99", "--charge-quantum", "5e99"),
        ],
        ids=["schw", "rn_disc"],
    )
    def test_non_finite_transition_row_exits_3_writing_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli("cascade", *args, "--n-samples", "2", "--output-dir", str(out)) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no chains.jsonl(.part), ensemble or manifest


@pytest.mark.parametrize(
    "command,args",
    [
        ("spectrum", ("--omega-max", "1", "--bins", "8")),
        ("cascade", ("--energy-quantum", "1e199", "--n-samples", "2")),
    ],
)
def test_an_overflowing_margin_exits_3_writing_nothing(tmp_path, command, args):
    # M^2 - Q^2 is inf - inf: the state is refused on Python floats, before
    # numpy computes anything, so nothing warns.
    out = tmp_path / "out"
    proc = run_subprocess(command, "--family", "rn", "--mass", "1e200", "--charge", "1e199",
                          *args, "--output-dir", str(out))
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr and "sub-extremality margin" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def _reject_non_finite(constant: str):
    raise AssertionError(f"{constant} in a data file")


# The hairs (Q, J) of each family, as fractions of M.
_FAMILIES = {"schwarzschild": (0.0, 0.0), "rn": (0.5, 0.0), "kn": (0.25, 0.25)}


@pytest.mark.parametrize("command", ["spectrum", "cascade"])
@pytest.mark.parametrize("mass", [1e77, 1e154, 1e200])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_heavy_holes_under_warnings_as_errors_exit_0_finite_or_3_empty(
    tmp_path, family, mass, command
):
    # One float64 rule: a number float64 cannot hold is refused where it is
    # made, unwarned, before any data file exists.
    q, j = (f * mass for f in _FAMILIES[family])
    args = ["--family", family, "--mass", repr(mass), "--charge", repr(q),
            "--angular-momentum", repr(j)]
    if command == "spectrum":
        args += ["--bins", "4", "--report"]
        if family != "schwarzschild":
            args += ["--n-q", "3", "--q-step", repr(mass / 8)]
    else:
        args += ["--energy-quantum", repr(mass / 4), "--n-samples", "2"]
        if family != "schwarzschild":
            args += ["--charge-quantum", repr(mass / 8)]
        if family == "kn":
            args += ["--spin-quantum", repr(mass / 8)]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bhspectra", command, *args,
         "--output-dir", str(out)], capture_output=True, text=True,
    )
    assert proc.returncode in (0, 3), proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    if proc.returncode == 3:
        assert "numerical failure" in proc.stderr
        assert not out.exists() or list(out.iterdir()) == []
        return
    for path in out.iterdir():
        if path.suffix == ".csv":
            _, rows = read_csv(path)
            assert all(math.isfinite(float(x)) for r in rows if r[6] == "true" for x in r[:6])
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_reject_non_finite)
        else:
            json.loads(path.read_text(), parse_constant=_reject_non_finite)


# A raw weight above float64's range: log-weights of ~1190 nats at alpha =
# -1000. The raw weights are refused, unwarned, before any output exists;
# a unit-sum spectrum without a report makes no raw weight.
@pytest.mark.parametrize("args,code", [
    ((), 3),
    (("--report",), 3),
    (("--normalization", "unitsum", "--report"), 3),
    (("--normalization", "unitsum"), 0),
], ids=["raw", "raw-report", "unitsum-report", "unitsum"])
def test_raw_weights_above_float64_range_exit_3_unwarned(tmp_path, args, code):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bhspectra", "spectrum", "--mass", "1",
         "--alpha", "-1000", "--bins", "4", "--omega-max", "0.9", *args,
         "--output-dir", str(out)], capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("numerical failure: the weight exp(log_weight) overflows")
        assert proc.stderr.count("\n") == 1  # that line alone: no warning
        assert not out.exists()
    else:
        assert proc.stderr == ""


class TestVerifyCommand:
    def test_single_suite_passes_and_writes_report(self, tmp_path):
        code = run_cli("verify", "--suite", "cascade", "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for s in report["suites"] for c in s["checks"]}
        assert "enumeration_raw_equal" in names

    def test_info_suite_passes_on_seed_2(self, tmp_path):
        # Seed 2 draws charged chains whose later emissions, taken alone from
        # the initial state, are closed channels.
        code = run_cli("verify", "--suite", "info", "--seed", "2", "--output-dir", str(tmp_path))
        assert code == 0

    def test_corrupted_alpha_exits_2(self, tmp_path):
        proc = run_subprocess("verify", "--suite", "cascade", "--alpha", "nan",
                              "--output-dir", str(tmp_path))
        assert proc.returncode == 2

    def test_unknown_suite_exits_1(self, tmp_path):
        assert run_cli("verify", "--suite", "bogus", "--output-dir", str(tmp_path)) == 1


class TestTypicalityCommand:
    def test_writes_lab_report(self, tmp_path):
        code = run_cli(
            "typicality", "--dim-b", "4", "--dim-o", "256", "--seeds", "20",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        lab = json.loads((tmp_path / "typicality.json").read_text())
        assert lab["dim_o"] == 256 and lab["n_seeds"] == 20
        assert 0.2 < lab["rms_ratio"] < 0.9

    @pytest.mark.parametrize("flag,name", [("--dim-b", "dim_b"), ("--dim-o", "dim_o"),
                                           ("--scale-factor", "scale_factor"), ("--seeds", "n_seeds")])
    def test_zero_size_is_a_usage_error(self, tmp_path, capsys, flag, name):
        # Every size takes the one integer rule: an integer >= 1, else exit 1.
        out = tmp_path / "out"
        code = run_cli("typicality", "--dim-o", "16", "--seeds", "1", flag, "0",
                       "--output-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {name} must be an integer >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,args", [
        ("typicality", ("--dim-o", "16", "--seeds", "1", "--seed", "-1")),
        ("cascade", ("--mass", "1", "--n-samples", "2", "--seed", "-1")),
        ("verify", ("--suite", "identities", "--seed", "-3")),
        ("verify", ("--suite", "all", "--seed", "-1")),
    ])
    def test_negative_seed_exits_1(self, tmp_path, command, args):
        out = tmp_path / "out"
        proc = run_subprocess(command, *args, "--output-dir", str(out))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:") and "seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("args,named", [
        # 1e9 quanta: the walk would draw 1e9 uniforms per chain.
        (("cascade", "--mass", "1", "--energy-quantum", "1e-9", "--n-samples", "1"),
         "1000000000 energy quanta"),
        # dim_U = 3 * 2^998 is under the cap, but 4x dim_o gives 12 * 2^998.
        (("typicality", "--dim-o", str(1 << 998), "--seeds", "1"), "dim_U of 1002 bits"),
        (("typicality", "--dim-o", "16", "--seeds", "1", "--scale-factor", "0"), "scale_factor"),
    ], ids=["cascade-quanta", "typicality-dim-o", "typicality-scale-factor"])
    def test_input_over_a_cap_exits_1(self, tmp_path, args, named):
        proc = run_subprocess(*args, "--output-dir", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:") and named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_huge_environment_runs(self, tmp_path):
        # dim_o = 2^40: the lab's cost does not depend on the environment size.
        code = run_cli("typicality", "--dim-o", str(1 << 40), "--seeds", "2",
                       "--output-dir", str(tmp_path))
        assert code == 0
        lab = json.loads((tmp_path / "typicality.json").read_text())
        assert lab["dim_o"] == 1 << 40 and lab["mean_l1_weights"] < 1e-5

    @pytest.mark.parametrize("args,named", [
        (("spectrum", "--bins", "10000000000"), "n_omega*n_q*n_j = 10000000000 bins"),
        # Each axis alone is small; the grid is 2^22 * 5 bins.
        (("spectrum", "--bins", str(1 << 22), "--n-q", "5"), f"{5 << 22} bins, above {1 << 24}"),
        (("typicality", "--dim-o", "16", "--seeds", "1000000000000"),
         f"n_seeds = 1000000000000, above {1 << 20}"),
    ], ids=["spectrum-bins", "spectrum-grid", "typicality-seeds"])
    def test_size_over_a_cap_exits_1(self, tmp_path, args, named):
        proc = run_subprocess(*args, "--output-dir", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("usage error:") and named in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_caps_admit_the_largest_sizes(self):
        from bhspectra import typicality
        from bhspectra.errors import UsageError
        from bhspectra.spectrum import _MAX_BINS, GridSpec

        assert GridSpec(omega_max=1.0, n_omega=_MAX_BINS).n_bins == _MAX_BINS >= 10_000_000
        with pytest.raises(UsageError, match="bins"):
            GridSpec(omega_max=1.0, n_omega=_MAX_BINS // 2, n_q=2, n_j=2)
        with pytest.raises(UsageError, match="n_seeds"):
            typicality.typicality_lab(dim_b=4, dim_o=16, n_seeds=typicality._MAX_SEEDS + 1)

    def test_singlet_system_writes_null_rms_ratio(self, tmp_path, capsys):
        # A singlet has no off-diagonals, so the base RMS is 0 and the ratio undefined.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        code = run_cli("typicality", "--dim-b", "1", "--dim-o", "16", "--seeds", "2",
                       "--output-dir", str(tmp_path))
        assert code == 0
        lab = json.loads((tmp_path / "typicality.json").read_text(), parse_constant=reject)
        assert lab["offdiag_rms"] == 0.0 and lab["rms_ratio"] is None
        assert "(ratio n/a)" in capsys.readouterr().out


class TestUsage:
    def test_missing_command_is_usage_error(self):
        assert run_cli() == 1

    @pytest.mark.parametrize("command,args", [
        ("spectrum", ("--mass", "1", "--bins", "4")),
        ("cascade", ("--mass", "1", "--n-samples", "2")),
        ("verify", ("--suite", "identities")),
        ("typicality", ("--dim-o", "16", "--seeds", "1")),
    ], ids=["spectrum", "cascade", "verify", "typicality"])
    def test_uncreatable_output_dir_is_usage_error(self, tmp_path, capsys, command, args):
        # A directory below a regular file cannot be created.
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / "x"
        assert run_cli(command, *args, "--output-dir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot create output directory {outdir}: "), err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("spectrum", "--nope", "1") == 1

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # A fresh interpreter, so that other tests' imports cannot mask it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bhspectra.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.skipif(not all(map(importlib.util.find_spec, _BUILTIN_HASHES)),
                        reason="a builtin hash module is missing")
    @pytest.mark.parametrize("args", [
        ("--help",),
        ("spectrum", "--bins", "8", "--report", "--output-dir", "{tmp}"),
        ("cascade", "--mass", "1", "--energy-quantum", "0.125", "--n-samples", "5",
         "--output-dir", "{tmp}"),
        ("verify", "--suite", "identities", "--output-dir", "{tmp}"),
        ("typicality", "--dim-o", "64", "--seeds", "2", "--output-dir", "{tmp}"),
    ], ids=["help", "spectrum", "cascade", "verify", "typicality"])
    def test_commands_leave_openssl_unloaded(self, tmp_path, args):
        # numpy.random imports hashlib; the entry point blocks its OpenSSL
        # backend, and the manifest hash takes the builtin sha256.
        code = ("import os, runpy, sys\n"
                "try:\n"
                "    runpy.run_module('bhspectra', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert not exc.code, exc.code\n"
                "maps = ''\n"
                "if sys.platform.startswith('linux'):\n"
                "    with open('/proc/self/maps') as f:\n"
                "        maps = f.read()\n"
                "print(sys.modules.get('_hashlib', 0) is None, 'libcrypto' in maps)")
        argv = [a.format(tmp=tmp_path) for a in args]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "True False"

    def test_manifest_hash_is_sha256_of_the_canonical_payload(self):
        config = {"mass": 2.0, "seed": 1, "family": "schwarzschild", "output_dir": "x",
                  "workers": 3}
        payload = {"artifact": {"name": "bhspectra", "version": __version__},
                   "command": "cascade",
                   "config": {"family": "schwarzschild", "mass": 2.0, "seed": 1}}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert cli._manifest_hash("cascade", config) == hashlib.sha256(text.encode()).hexdigest()

    def test_cli_import_leaves_scipy_special_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bhspectra.cli; print('scipy.special' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("spectrum", {"bins": "x"}),
            ("spectrum", {"mass": "two"}),
            ("cascade", {"n_samples": "abc"}),
            ("verify", {"seed": "abc"}),
            ("typicality", {"dim_o": "many"}),
            # Non-string values are converted from their JSON text, as a flag
            # is from its text: no silent truncation or bool-to-number.
            ("spectrum", {"bins": 2.7}),
            ("cascade", {"n_samples": True}),
            ("spectrum", {"mass": True}),
            # A switch takes a JSON boolean; a choice is matched exactly, as
            # its flag is.
            ("spectrum", {"report": "false"}),
            ("spectrum", {"report": 1}),
            ("spectrum", {"normalization": "UnitSum"}),
            ("spectrum", {"format": "CSV"}),
            ("verify", {"suite": "ALL"}),
        ],
        ids=["spectrum-bins", "spectrum-mass", "cascade", "verify", "typicality",
             "spectrum-bins-fraction", "cascade-n-samples-bool", "spectrum-mass-bool",
             "spectrum-report-string", "spectrum-report-int", "spectrum-normalization-case",
             "spectrum-format-case", "verify-suite-case"],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, command, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        proc = run_subprocess(command, "--config", str(cfg), "--output-dir", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: config key")
        assert "Traceback" not in proc.stderr

    def test_config_null_keeps_optional_default(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mass": 2, "omega_max": None, "bins": 4}))
        assert run_cli("spectrum", "--config", str(cfg), "--output-dir", str(tmp_path)) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["mass"] == 2.0 and isinstance(config["mass"], float)
        assert config["omega_max"] == 2.0

    def test_config_report_true_writes_info_report(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"report": True, "bins": 8}))
        assert run_cli("spectrum", "--config", str(cfg), "--output-dir", str(tmp_path)) == 0
        assert (tmp_path / "info_report.json").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["report"] is True

    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command, options in (
                ("spectrum", cli._SPECTRUM_OPTIONS),
                ("cascade", cli._CASCADE_OPTIONS),
                ("verify", cli._VERIFY_OPTIONS),
                ("typicality", cli._TYPICALITY_OPTIONS),
            )
            for key in options
        ],
    )
    def test_flag_and_config_value_resolve_alike(self, tmp_path, command, key):
        # Parsed and merged in process; no command runs.
        parser = cli.build_parser()
        kind, default, _ = parser.parse_args([command]).options[key]
        if kind is bool:
            flag_args, file_value = [], True
        elif isinstance(kind, tuple):
            flag_args, file_value = [kind[-1]], kind[-1]
        elif kind is str:
            flag_args, file_value = ["kn"], "kn"
        else:
            flag_args, file_value = ["2"], 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: file_value}))
        flag = "--" + key.replace("_", "-")
        from_flag = cli._merge(parser.parse_args([command, flag, *flag_args]))[key]
        from_file = cli._merge(parser.parse_args([command, "--config", str(cfg)]))[key]
        assert from_flag == from_file == file_value
        assert type(from_flag) is type(from_file) is (str if isinstance(kind, tuple) else kind)
        assert cli._merge(parser.parse_args([command]))[key] == default

    def test_help_exits_zero(self):
        proc = run_subprocess("--help")
        assert proc.returncode == 0
        assert "spectrum" in proc.stdout


def _commands(parser) -> dict:
    """The command parsers of the CLI parser, by name."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _parse_outcome(parser, argv, capsys) -> tuple:
    """What parsing argv prints and raises: (stdout, stderr, exit or error)."""
    try:
        parser.parse_args(argv)
        outcome = "parsed"
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    except cli.UsageError as exc:
        outcome = ("usage error", str(exc))
    out, err = capsys.readouterr()
    return out, err, outcome


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's texts differ between Python versions; "
                    "the digests were recorded on Python 3.11")
class TestParserTexts:
    """The parser's help, usage and error texts, pinned as sha256 digests of
    the texts at 8d983fa, where each command's flags were added on its first
    parse or help: building the parser whole changed none of them. Help is
    wrapped at 80 columns."""

    HELP = {  # None: the CLI's own --help text
        None: "4e7f8f59e1e8f4ab81b082e484e88db26a78c6e4512d9661e1810dd1a9aa53f9",
        "spectrum": "9cef2d832cf5f40ea0e98cb27a1d90bcfc50d6bb1bc859db37130d198019a387",
        "cascade": "8876ed5fce4b39eba8dc23ae1022f8a54741e223c28296609db553bbf3640018",
        "verify": "276c4ec23249da5729d58f83746ed913a7556774c5eb2835e2fee1588e3dae97",
        "typicality": "1c1f14caf005814df97b39d4d69e230075575a46cb677b322b92294bf37b782a",
    }
    USAGE = {
        "spectrum": "04dd6754a7a64c1885e86807d09e6ead1e560f386b02f891c9d8dee83b9a4e23",
        "cascade": "8c3baa69f7c51d1c5ca826a8d569572af6d0acd98f2aeeb42849ad0ab7623f21",
        "verify": "e2c8142ceef5face9f5cbcd78084b1099b122906eaf7811140664f327779e5bf",
        "typicality": "c5a8cebf778d4db0a7a9887a6fe3d3b90e41224a8c95f6781f7151a3c15ba293",
    }
    # argv: the digest of repr((stdout, stderr, outcome)) of parsing it.
    OUTCOMES = {
        ("--help",): "efdc47881917ff8226adb32db7a2e9aff426ca053296035ad6a1fef883531b28",
        ("-h",): "efdc47881917ff8226adb32db7a2e9aff426ca053296035ad6a1fef883531b28",
        (): "e5b28b76ec4cc51cafbc87b74effabddceaf31868d49c721ffdc23beb4754599",
        ("bogus",): "32e3fb183e408387765e4115dd43b174106a2f52ab6897ec9a9948628b841f83",
        ("--mass", "1"): "b0396a769aaa47f9605eb8bad174fd928165caedd9c27c0e01fbf240c9872ca7",
        ("spectrum", "--help"): "210a2527f0c7bc3bfdeec591c47332bf75a8be1f92162ba103b45bfe9ce4743a",
        ("cascade", "--help"): "15d822782f9df32654bab30d1386bfb1cf7142a9d60ad0b26bb2017b06ed2160",
        ("verify", "--help"): "15340dedd7fd5a88bea9fe93ac844b1af8b2f54f5126f4d97dc1a9ea41432a59",
        ("typicality", "--help"):
            "95010d010b3949a846616d84d03f13f1ccc3a67e8eafa72a204d1d8910bfa7f1",
        ("spectrum", "--bins", "x"):
            "4af0cd211ce74c70594ab29dd7d09bf1f40d39a544c3b0547874352b206ee2c5",
        ("spectrum", "--format", "xml"):
            "6cfb60b37d04733587f929fa0ed55a4c7b4edf635226054dff7ab4f8fc681e9b",
        ("spectrum", "--nope", "1"):
            "2ac72924f948cb22dcb0c3a0ace1731ee2bd76dddc44bb6faf231ec682427cb8",
        ("spectrum", "--report", "1"):
            "d22b3bcd3ba9896cc60ad66a6223f90821c7b5bb883a5fe8a0259d023444e4c7",
        ("cascade", "--m", "1"): "0e4709225f88c6a4098ca0e0aabc4b3d4cd83799d9294f0de41d89b65a23e718",
        ("cascade", "--family"): "389eac696991dd990183899738407971150b62e095dec4724656d4c91870fede",
        ("cascade", "--max-steps", "2.5"):
            "9b3e6153238deff53a841e4fb359a23f1115184fef2777b9789281642f16e40b",
        ("cascade", "--seed", "1", "extra"):
            "d87f7cab0b7d68581b7f7cbe3befd27ef9c896912c9fb584af535205eb8d3b27",
        ("verify", "--suite", "nope"):
            "2e636443edd1e57adeb335b293ff1a19f01e7090a12ee7f2c6a6d58db9c3a5d2",
        ("typicality", "--seeds"):
            "0ead7c5773bbe90fbc98c9d98b5ac6b38b1769288d73a5329f3ab9afe88d05b7",
        ("cascade", "--mass", "1"):
            "aa22c9f739c9f9c6c17ac03aa510d31237cfe2f2e7aa2df7e3c4c7746df34add",
    }

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", HELP, ids=str)
    def test_help(self, command):
        parser = cli.build_parser()
        if command is not None:
            parser = _commands(parser)[command]
        assert _sha256_text(parser.format_help()) == self.HELP[command]

    @pytest.mark.parametrize("command", USAGE)
    def test_usage(self, command):
        usage = _commands(cli.build_parser())[command].format_usage()
        assert _sha256_text(usage) == self.USAGE[command]

    @pytest.mark.parametrize("argv", OUTCOMES, ids=" ".join)
    def test_parse_outcome(self, capsys, argv):
        outcome = _parse_outcome(cli.build_parser(), list(argv), capsys)
        assert _sha256_text(repr(outcome)) == self.OUTCOMES[argv]
