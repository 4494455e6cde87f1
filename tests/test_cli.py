"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main, parse_mode
from repro.ffts import PruningSpec


class TestParseMode:
    def test_known_modes(self):
        assert parse_mode("exact").is_exact
        assert parse_mode("band") == PruningSpec.band_only()
        assert parse_mode("set2") == PruningSpec.paper_mode(2)
        assert parse_mode("set3", dynamic=True).dynamic

    def test_unknown_mode(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_mode("set9")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["demo"]).command == "demo"
        args = parser.parse_args(["screen", "--mode", "set1", "--patients", "2"])
        assert args.mode == "set1" and args.patients == 2
        assert parser.parse_args(["energy", "--no-vfs"]).no_vfs
        assert parser.parse_args(["complexity", "--n", "256"]).n == 256


class TestCommands:
    def test_complexity_command(self, capsys):
        assert main(["complexity", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "split-radix" in out and "haar" in out

    def test_energy_command(self, capsys):
        assert main(["energy", "--mode", "set3"]) == 0
        out = capsys.readouterr().out
        assert "energy savings" in out
        assert "V /" in out

    def test_energy_whole_window(self, capsys):
        assert main(["energy", "--mode", "band", "--whole-window"]) == 0
        assert "whole window" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        assert main(["demo", "--duration", "300"]) == 0
        out = capsys.readouterr().out
        assert "conventional" in out and "LF/HF" in out

    def test_screen_command(self, capsys):
        code = main(
            ["screen", "--mode", "set3", "--patients", "3",
             "--duration", "240"]
        )
        out = capsys.readouterr().out
        assert "screening under mode" in out
        assert code == 0

    def test_screen_with_config_file(self, capsys, tmp_path):
        from repro.engine import EngineConfig

        path = tmp_path / "engine.json"
        path.write_text(
            EngineConfig.for_mode("set3", provider="numpy").to_json(),
            encoding="utf-8",
        )
        code = main(
            ["screen", "--config", str(path), "--patients", "2",
             "--duration", "240"]
        )
        out = capsys.readouterr().out
        assert "screening under mode" in out
        assert code == 0


class TestEngineCommand:
    def test_engine_inspect_round_trips(self, capsys):
        assert main(["engine", "--mode", "set3"]) == 0
        out = capsys.readouterr().out
        assert "quality-scalable" in out
        assert "JSON round-trip" in out and "ok" in out

    def test_engine_json_output_is_loadable(self, capsys):
        from repro.engine import EngineConfig

        assert main(
            ["engine", "--mode", "set2", "--provider", "numpy", "--json"]
        ) == 0
        out = capsys.readouterr().out
        config = EngineConfig.from_json(out)
        assert config == EngineConfig.for_mode("set2", provider="numpy")

    def test_engine_json_round_trips_through_screen_config(
        self, capsys, tmp_path
    ):
        assert main(["engine", "--mode", "band", "--json"]) == 0
        path = tmp_path / "cfg.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["engine", "--config", str(path)]) == 0
        assert "band-drop" in capsys.readouterr().out

    def test_providers_command_reports_env_pin(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_PROVIDER", "explicit")
        assert main(["providers"]) == 0
        out = capsys.readouterr().out
        assert "FFT execution providers" in out
        resolution = "resolution: REPRO_FFT_PROVIDER=explicit, active=explicit"
        assert resolution in out

    def test_providers_probe_reports_timings(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FFT_PROVIDER", raising=False)
        assert main(["providers", "--probe", "--workspace", "64"]) == 0
        out = capsys.readouterr().out
        assert "workspace 64" in out
        assert " ms " in out
        assert "resolution: REPRO_FFT_PROVIDER=--, active=numpy" in out

    def test_providers_probe_writes_nothing_under_home(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_FFT_PROVIDER", raising=False)
        assert main(["providers", "--probe", "--workspace", "64"]) == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*")) == []

    def test_tune_has_no_measure_option(self, capsys):
        """``tune`` always times; the flag that used to opt in is gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--measure"])
        assert exit_info.value.code == 2
        assert "--measure" in capsys.readouterr().err

    @pytest.mark.parametrize("workspace", ["3", "4", "500"])
    @pytest.mark.parametrize("command", [["providers", "--probe"], ["tune"]])
    def test_workspace_must_be_a_power_of_two_of_at_least_8(
        self, command, workspace
    ):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="power of two >= 8"):
            main([*command, "--workspace", workspace])

    def test_engine_resolve_reports_sources(self, capsys):
        assert main(
            ["engine", "--provider", "numpy", "--jobs", "2", "--resolve"]
        ) == 0
        out = capsys.readouterr().out
        assert "resolved provider" in out
        assert "numpy (config)" in out
        assert "2 (config)" in out

    def test_dynamic_without_mode_rejected_with_config(self, tmp_path):
        from repro.engine import EngineConfig
        from repro.errors import ConfigurationError

        path = tmp_path / "engine.json"
        path.write_text(
            EngineConfig.for_mode("set3").to_json(), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="--dynamic"):
            main(["engine", "--config", str(path), "--dynamic"])

    def test_missing_config_file_is_configuration_error(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="cannot read"):
            main(["engine", "--config", "/nonexistent/engine.json"])

    def test_engine_flags_override_config_file(self, capsys, tmp_path):
        from repro.engine import EngineConfig

        path = tmp_path / "engine.json"
        path.write_text(
            EngineConfig.for_mode("set1").to_json(), encoding="utf-8"
        )
        assert main(
            ["engine", "--config", str(path), "--mode", "set3", "--json"]
        ) == 0
        config = EngineConfig.from_json(capsys.readouterr().out)
        assert config.pruning.twiddle_fraction == 0.6


class TestStreamCommand:
    def test_parser_round_and_speed(self):
        args = build_parser().parse_args(
            ["stream", "--round", "32", "--speed", "2.5", "--chunk", "8"]
        )
        assert args.round_events == 32
        assert args.speed == 2.5
        assert args.chunk == 8

    def test_stream_command_verifies_bit_identity(self, capsys):
        code = main(
            ["stream", "--patients", "2", "--duration", "300",
             "--provider", "numpy", "--round", "24", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed" in out and "subjects" in out
        assert "MISMATCH" not in out
        assert out.count(" ok") >= 2

    def test_stream_command_reads_event_file(self, capsys, tmp_path):
        import numpy as np

        path = tmp_path / "ward.csv"
        lines = ["# subject,t,rr"]
        for beat in range(300):
            t = float(beat)
            for subject, phase in (("bed-1", 0.0), ("bed-2", 0.3)):
                rr = 0.8 + 0.05 * np.sin(2 * np.pi * 0.25 * t + phase)
                lines.append(f"{subject},{t + 0.1},{rr:.6f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["stream", "--input", str(path), "--provider", "numpy",
             "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bed-1" in out and "bed-2" in out
        assert "MISMATCH" not in out

    def test_stream_command_rejects_empty_cohort(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="patients"):
            main(["stream", "--patients", "0"])

    def test_stream_command_rejects_bad_round(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="round"):
            main(["stream", "--round", "0"])

    def test_stream_command_bad_event_file(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "bad.csv"
        path.write_text("bed-1,12.0\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="expected"):
            main(["stream", "--input", str(path)])
