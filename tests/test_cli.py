"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_run_command(self, capsys):
        assert main(["run", "--batch", "1", "--precision", "fp16"]) == 0
        output = capsys.readouterr().out
        assert "S-VGG11" in output
        assert "conv6" in output
        assert "total_runtime_ms" in output

    def test_run_baseline_flag(self, capsys):
        assert main(["run", "--batch", "1", "--baseline"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_figures_fig3a(self, capsys):
        assert main(["run", "--scenario", "memory_footprint", "--batch", "2"]) == 0
        output = capsys.readouterr().out
        assert "csr_bytes_mean" in output
        assert "headline" in output

    def test_figures_fig3a_default_batch_is_warning_free(self, capsys):
        # Without --batch, fig3a keeps its scenario's own batch of 128: same
        # output as an explicit 128, and no stderr warning.
        assert main(["run", "--scenario", "memory_footprint"]) == 0
        default = capsys.readouterr()
        assert default.err == ""
        assert main(["run", "--scenario", "memory_footprint", "--batch", "128"]) == 0
        assert capsys.readouterr().out == default.out

    def test_figures_fig3c(self, capsys):
        assert main(["run", "--scenario", "speedup", "--batch", "1"]) == 0
        assert "speedup_fp16_over_baseline" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["run", "--scenario", "accelerator_comparison",
                     "--batch", "1", "--timesteps", "10"]) == 0
        output = capsys.readouterr().out
        assert "LSMCore" in output and "Loihi" in output

    def test_spva_command(self, capsys):
        assert main(["run", "--scenario", "spva_microbenchmark"]) == 0
        assert "stream_length" in capsys.readouterr().out

    def test_run_list_scenarios(self, capsys):
        assert main(["run", "--list-scenarios"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output and "firing_rate" in output and "sweep" in output

    def test_run_scenario(self, capsys):
        assert main(["run", "--scenario", "stream_length"]) == 0
        output = capsys.readouterr().out
        assert "stream_length" in output and "headline" in output

    def test_run_scenario_unknown_rejected(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "--scenario", "bogus"])

    def test_run_scenario_keeps_scenario_defaults(self, capsys):
        # No flags: the scenario's own defaults (500 timesteps, batch 4) apply.
        assert main(["run", "--scenario", "accelerator_comparison"]) == 0
        default_out = capsys.readouterr().out
        assert main(["run", "--scenario", "accelerator_comparison",
                     "--timesteps", "500", "--batch", "4"]) == 0
        assert capsys.readouterr().out == default_out

    def test_run_scenario_forwards_timesteps(self, capsys):
        assert main(["run", "--scenario", "accelerator_comparison",
                     "--timesteps", "10", "--batch", "1"]) == 0
        fast = capsys.readouterr()
        assert fast.err == ""  # timesteps is consumed, no warning
        assert main(["run", "--scenario", "accelerator_comparison",
                     "--timesteps", "20", "--batch", "1"]) == 0
        slow = capsys.readouterr()
        assert fast.out != slow.out  # the flag actually changes the result

    def test_run_scenario_warns_on_unsupported_flags(self, capsys):
        assert main(["run", "--scenario", "spva_microbenchmark", "--baseline",
                     "--precision", "fp8", "--timesteps", "2", "--batch", "4"]) == 0
        err = capsys.readouterr().err
        for flag in ("--baseline", "--precision", "--timesteps", "--batch"):
            assert flag in err

    def test_batch_warns_only_for_sweeps_that_ignore_it(self, capsys):
        outputs = []
        for batch in ("2", "3"):
            assert main(["run", "--scenario", "firing_rate", "--format", "csv",
                         "--batch", batch]) == 0
            captured = capsys.readouterr()
            assert "--batch" in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        outputs = []
        for batch in ("1", "2"):
            assert main(["run", "--scenario", "precision", "--format", "csv",
                         "--batch", batch]) == 0
            captured = capsys.readouterr()
            assert "--batch" not in captured.err
            outputs.append(captured.out)
        assert outputs[0] != outputs[1]

    def test_sweep_json_output(self, capsys):
        assert main(["run", "--scenario", "stream_length", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "parallel_stream_length_sweep"
        assert payload["rows"] and "speedup" in payload["rows"][0]
        assert "asymptotic_speedup" in payload["headline"]

    def test_sweep_csv_output(self, capsys):
        assert main(["run", "--scenario", "firing_rate", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("firing_rate,")
        assert len(lines) >= 2

    def test_sweep_table_output_parallel(self, capsys):
        assert main(["run", "--scenario", "firing_rate", "--jobs", "2",
                     "--backend", "thread"]) == 0
        output = capsys.readouterr().out
        assert "firing_rate" in output and "headline" in output

    def test_sweep_output_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["run", "--scenario", "stream_length", "--format", "json",
                "--output", str(out)]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        first = json.loads(out.read_text())
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == first

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "memory_footprint", "--batch", "0"],
        ["run", "--batch", "-3"],
        ["run", "--scenario", "precision", "--batch", "0"],
        ["run", "--scenario", "accelerator_comparison", "--timesteps", "0"],
    ])
    def test_non_positive_batch_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--trace-sample", "2"], "must be in [0, 1]"),
        (["serve", "--arrival-rate", "0"], "must be a positive number"),
        (["serve", "--max-wait-ms", "-1"], "must be a non-negative number"),
        (["serve", "--deadline-ms", "-5"], "must be a positive number"),
        (["run", "--cache-limit", "bogus"], "unrecognized cache_limit"),
        (["run", "--cache-limit", "0"], "must be positive"),
        (["serve", "--cache-limit", "disk:0mb"], "must be positive"),
    ])
    def test_out_of_range_flag_rejected_at_parse_time(self, argv, message, capsys):
        # argparse's one-line usage error, before any session, server or
        # worker starts.
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_sweep_unknown_name_rejected(self):
        # A misspelt sweep name is rejected, not run as some other scenario.
        with pytest.raises(SystemExit, match="unknown scenario 'firing_rates'"):
            main(["run", "--scenario", "firing_rates"])

    def test_sweep_unwritable_output_is_clean_error(self):
        with pytest.raises(SystemExit, match="cannot write"):
            main(["run", "--scenario", "firing_rate", "--format", "csv",
                  "--output", "/nonexistent-dir/out.csv"])

    def test_unknown_figure_rejected(self):
        # Figure labels are not scenario names: each figure is its scenario.
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "--scenario", "fig3a"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepBackendsCli:
    def test_sweep_process_matches_serial_bit_for_bit(self, capsys):
        # The process pool and the serial path must render byte-identical
        # machine-readable output.
        assert main(["run", "--scenario", "firing_rate", "--backend", "process",
                     "--jobs", "2", "--format", "json"]) == 0
        parallel = capsys.readouterr().out
        assert main(["run", "--scenario", "firing_rate", "--backend", "serial",
                     "--format", "json"]) == 0
        serial = capsys.readouterr().out
        assert parallel == serial
        assert json.loads(parallel)["rows"]

    def test_backend_accepts_only_pool_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "stream_length", "--backend", "net"])
        assert "invalid choice" in capsys.readouterr().err


class TestRunExport:
    def test_run_scenario_json_export(self, capsys):
        assert main(["run", "--scenario", "stream_length", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "parallel_stream_length_sweep"
        assert payload["rows"] and "asymptotic_speedup" in payload["headline"]

    def test_run_scenario_csv_export(self, capsys):
        assert main(["run", "--scenario", "stream_length", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("stream_length,")
        assert len(lines) >= 2

    def test_run_plain_inference_json_export(self, capsys):
        assert main(["run", "--batch", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(row["layer"] == "conv6" for row in payload["rows"])
        assert "total_runtime_ms" in payload["headline"]

    def test_run_plain_inference_csv_export(self, capsys):
        assert main(["run", "--batch", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("layer,")

    def test_run_scenario_output_file(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        assert main(["run", "--scenario", "stream_length", "--format", "json",
                     "--output", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out.read_text())["rows"]

    def test_run_unwritable_output_is_clean_error(self):
        with pytest.raises(SystemExit, match="cannot write"):
            main(["run", "--scenario", "stream_length",
                  "--output", "/nonexistent-dir/out.json"])
