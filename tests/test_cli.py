"""Command-line interface: outputs, manifests, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bhspectra import cascade, cli
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
    # M ~ 1.16e77, and 4 pi M^2 above M ~ 1e154.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        cascade._transition_table.cache_clear()
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
        from bhspectra.grids import _MAX_BINS, GridSpec

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
