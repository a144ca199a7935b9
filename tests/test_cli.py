"""Tests for the ``python -m repro`` command-line interface."""

import multiprocessing
import socket

import pytest

from repro.__main__ import ARTIFACTS, main


class TestCli:
    def test_scenarios_lists_all(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("breakable", "ragdoll", "periodic"):
            assert name in out

    def test_run_full_precision(self, capsys):
        assert main(["run", "continuous", "--steps", "10",
                     "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "energy:" in out

    def test_run_reduced_with_census(self, capsys):
        assert main(["run", "ragdoll", "--steps", "8", "--scale", "0.4",
                     "--lcp-bits", "6", "--census"]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out

    def test_tune(self, capsys):
        assert main(["tune", "continuous", "--steps", "10",
                     "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "minimum believable precision" in out

    def test_run_accepts_seed(self, capsys):
        assert main(["run", "continuous", "--steps", "6",
                     "--scale", "0.4", "--seed", "99"]) == 0
        assert "energy:" in capsys.readouterr().out

    def test_health_campaign(self, capsys):
        assert main(["health", "continuous", "--steps", "12",
                     "--scale", "0.4", "--inject-rate", "0.01",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Health report: continuous" in out
        assert "faults injected" in out
        assert "detections" in out

    def test_health_same_seed_is_deterministic(self, capsys):
        argv = ["health", "continuous", "--steps", "10", "--scale", "0.4",
                "--inject-rate", "0.02", "--seed", "13"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_table5_artifact(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["surrogate", "train"],
        ["tune", "continuous", "--surrogate", "model.json"],
        ["table1", "--surrogate", "model.json"],
        ["design", "--surrogate", "model.json"],
        ["serve", "--design-surrogate", "model.json"],
        ["tune", "continuous", "--workers", "2"],
        ["bench", "--baseline", "b.json"],
        ["bench", "--workers", "2"],
        ["bench", "--kernel-iters", "2"],
        ["bench", "--no-kernel", "--quick"],
    ])
    def test_removed_surrogate_surface_is_a_usage_error(self, argv,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # The removed command or flag is second to last in every argv.
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "health", "trace"])
    @pytest.mark.parametrize("flag", ["--lcp-bits", "--narrow-bits"])
    @pytest.mark.parametrize("bits", ["-3", "24"])
    def test_precision_outside_0_to_23_is_a_usage_error(
            self, command, flag, bits, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "continuous", "--steps", "1", flag, bits])
        assert exc.value.code == 2
        assert f"{flag}: must be in [0, 23], got {bits}" in (
            capsys.readouterr().err)

    def test_artifact_commands_registered(self):
        assert set(ARTIFACTS) == {
            "table1", "table3", "table4", "table5", "table8",
            "figure5", "figure6", "figure7", "figure8",
        }


class TestTraceCli:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import read_events, validate_events

        out = tmp_path / "t.jsonl"
        assert main(["trace", "continuous", "--steps", "8",
                     "--scale", "0.4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "events ->" in stdout
        events, skipped = read_events(out)
        assert skipped == 0
        invalid, messages = validate_events(events)
        assert invalid == 0, messages
        assert events[0]["kind"] == "meta"
        assert sum(e["kind"] == "step" for e in events) == 8
        assert any(e["kind"] == "controller" for e in events)

    def test_trace_then_summarize_inline(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "continuous", "--steps", "5",
                     "--scale", "0.4", "--out", str(out),
                     "--summarize"]) == 0
        stdout = capsys.readouterr().out
        assert "trace summary: continuous" in stdout
        assert "step time" in stdout

    def test_summarize_existing_file(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "continuous", "--steps", "4",
                     "--scale", "0.4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "--summarize", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trace summary: continuous" in stdout

    def test_trace_without_scenario_or_file_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "give a SCENARIO" in capsys.readouterr().err

    def test_guarded_trace_records_recovery_events(self, tmp_path,
                                                   capsys):
        from repro.obs import read_events

        out = tmp_path / "t.jsonl"
        code = main(["trace", "continuous", "--steps", "10",
                     "--scale", "0.4", "--guarded",
                     "--inject-rate", "0.02", "--seed", "13",
                     "--out", str(out)])
        assert code in (0, 1)
        events, _ = read_events(out)
        assert any(e["kind"] == "step" for e in events)


class TestUnknownScenarioExitCode:
    @pytest.mark.parametrize("argv", [
        ["run", "nosuch", "--steps", "2"],
        ["tune", "nosuch", "--steps", "2"],
        ["trace", "nosuch", "--steps", "2", "--out", "unused.jsonl"],
    ])
    def test_typoed_scenario_is_usage_error_2(self, argv, capsys,
                                              tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep stray outputs out of the repo
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nosuch'" in err
        assert "valid scenarios" in err
        assert "Traceback" not in err


class TestServeCli:
    def test_serve_bench_smoke(self, tmp_path, capsys):
        assert main(["serve-bench", "--clients", "2", "--steps", "3",
                     "--scale", "0.4", "--fidelity-steps", "3",
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro serve-bench" in out
        assert "snapshot fidelity: bit-identical" in out
        assert "OK" in out
        assert list(tmp_path.glob("BENCH_*_serve.json"))

    @pytest.fixture
    def served(self, monkeypatch):
        """Stub both serve loops; collect the config each one got."""
        configs = []

        async def serve(config, observer=None):
            configs.append(config)

        monkeypatch.setattr("repro.serve.serve_forever", serve)
        monkeypatch.setattr("repro.serve.gateway_forever", serve)
        return configs

    @pytest.mark.parametrize("argv, flag", [
        (["--shards", "2", "--journal-dir", "j"], "--journal-dir"),
        (["--shards", "2", "--max-pending", "8"], "--max-pending"),
        (["--shards", "2", "--max-queue", "9"], "--max-queue"),
        (["--shards", "2", "--no-fleet-step"], "--no-fleet-step"),
        (["--runtime-dir", "r"], "--runtime-dir"),
    ])
    def test_serve_refuses_flags_its_mode_ignores(self, argv, flag,
                                                  served, capsys):
        assert main(["serve", "--port", "0"] + argv) == 2
        assert flag in capsys.readouterr().err
        assert served == []

    def test_serve_passes_flags_its_mode_reads(self, served):
        assert main(["serve", "--port", "0", "--shards", "2",
                     "--runtime-dir", "r"]) == 0
        assert main(["serve", "--port", "0", "--journal-dir", "j",
                     "--max-pending", "8", "--max-queue", "9",
                     "--no-fleet-step"]) == 0
        gateway, service = served
        assert (gateway.shards, gateway.runtime_dir) == (2, "r")
        assert service.journal_dir == "j"
        assert service.max_pending_per_session == 8
        assert service.max_queue_depth == 9
        assert not service.fleet_step

    @pytest.mark.parametrize("topology", [[], ["--shards", "2"]],
                             ids=["service", "gateway"])
    def test_serve_on_a_busy_port_fails_in_one_line(self, topology,
                                                    tmp_path, capsys):
        """A front end that cannot bind is stopped (shards included)
        and ``repro serve`` says why in one line, not a traceback."""
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            if topology:
                topology = topology + ["--runtime-dir", str(tmp_path)]
            assert main(["serve", "--port", str(port)] + topology) == 1
        err = capsys.readouterr().err
        assert f"127.0.0.1:{port}" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_serve_and_serve_bench_registered(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--max-sessions" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["serve-bench", "--help"])
        assert "--clients" in capsys.readouterr().out
