"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.logs.io import write_logs
from repro.logs.record import CacheStatus, HttpMethod
from tests.conftest import make_log


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "long", "--requests", "123",
             "--out", "x.jsonl"]
        )
        assert args.command == "generate"
        assert args.dataset == "long"
        assert args.requests == 123

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--dataset", "medium"])

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram",
                    "paper", "engine-bench"]
    )
    def test_engine_args_on_analysis_commands(self, command):
        args = build_parser().parse_args(
            [command, "--workers", "3", "--logs-dir", "parts/"]
        )
        assert args.workers == 3
        assert args.logs_dir == "parts/"

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram"]
    )
    def test_checkpoint_dir_on_engine_commands(self, command):
        args = build_parser().parse_args([command, "--checkpoint-dir", "ckpt/"])
        assert args.checkpoint_dir == "ckpt/"

    def test_periodicity_permutations_arg(self):
        args = build_parser().parse_args(["periodicity", "--permutations", "25"])
        assert args.permutations == 25

    def test_ngram_order_arg(self):
        args = build_parser().parse_args(["ngram", "--order", "2"])
        assert args.order == 2

    def test_engine_bench_pipeline_choices(self):
        args = build_parser().parse_args(["engine-bench", "--pipeline", "all"])
        assert args.pipeline == "all"
        assert build_parser().parse_args(["engine-bench"]).pipeline == (
            "characterization"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine-bench", "--pipeline", "nope"])

    def test_workers_default_serial(self):
        args = build_parser().parse_args(["characterize"])
        assert args.workers == 1
        assert args.logs_dir is None

    def test_engine_bench_defaults(self):
        args = build_parser().parse_args(["engine-bench"])
        assert args.workers == 4
        assert args.backend == "auto"

    def test_engine_bench_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine-bench", "--backend", "gpu"])

    def test_characterize_checkpoint_dir(self):
        args = build_parser().parse_args(
            ["characterize", "--checkpoint-dir", "ckpt/"]
        )
        assert args.checkpoint_dir == "ckpt/"

    def test_generate_has_no_engine_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--out", "x.jsonl", "--workers", "2"]
            )

    def test_zero_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--workers", "0"])

    def test_logs_and_logs_dir_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--logs", "a.jsonl", "--logs-dir", "b/"])

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram"]
    )
    def test_hardening_flags_parse(self, command):
        args = build_parser().parse_args(
            [command, "--shard-timeout", "30", "--retries", "2", "--lenient"]
        )
        assert args.shard_timeout == 30.0
        assert args.retries == 2
        assert args.lenient is True

    def test_hardening_flags_default_off(self):
        args = build_parser().parse_args(["characterize"])
        assert args.shard_timeout is None
        assert args.retries == 0
        assert args.lenient is False

    @pytest.mark.parametrize("argv", [
        ["windows", "--workers", "2"],
        ["replay", "--retries", "1"],
    ], ids=["windows", "replay"])
    def test_input_only_commands_reject_engine_flags(self, argv):
        """``windows`` and ``replay`` never run the engine, so its
        flags are usage errors there, not silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        args = build_parser().parse_args(
            argv[:1] + ["--logs-dir", "parts/", "--lenient",
                        "--metrics", "m.json", "--trace", "t.jsonl"]
        )
        assert args.logs_dir == "parts/" and args.lenient

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--retries", "-1"])

    def test_nonpositive_shard_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--shard-timeout", "0"])


class TestCommands:
    def test_paper_forwards_hardening_flags(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = {}

        def fake_parallel(logs, categories, **kwargs):
            seen.update(kwargs)
            return cli.run_characterization(logs, categories)

        monkeypatch.setattr(cli, "run_characterization_parallel", fake_parallel)
        assert main(
            ["paper", "--requests", "1500", "--seed", "3",
             "--workers", "2", "--retries", "1"]
        ) == 0
        assert seen["workers"] == 2
        assert seen["retries"] == 1
        assert "Table 2" in capsys.readouterr().out

    def test_trend(self, capsys):
        assert main(["trend"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "growth over window" in out

    def test_generate_and_characterize(self, tmp_path, capsys):
        out_file = tmp_path / "logs.jsonl.gz"
        assert main(
            ["generate", "--requests", "2000", "--seed", "3",
             "--out", str(out_file)]
        ) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["characterize", "--logs", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Table 2" in out

    def test_characterize_generates_when_no_logs(self, capsys):
        assert main(
            ["characterize", "--requests", "2000", "--seed", "1"]
        ) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_lenient_skips_malformed_lines(self, tmp_path, capsys):
        out_file = tmp_path / "logs.jsonl"
        assert main(
            ["generate", "--requests", "1000", "--seed", "3",
             "--out", str(out_file)]
        ) == 0
        with open(out_file, "a", encoding="utf-8") as handle:
            handle.write('{"torn mid-write\n')
        capsys.readouterr()
        # Strict (default) ingest refuses the damaged file...
        with pytest.raises(ValueError, match="malformed JSONL"):
            main(["characterize", "--logs", str(out_file)])
        # ...lenient skips the bad line and analyzes the rest.
        assert main(
            ["characterize", "--logs", str(out_file), "--lenient"]
        ) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_windows_command(self, capsys):
        assert main(
            ["windows", "--requests", "2000", "--seed", "5", "--window", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "Traffic time series" in out
        assert "json:html" in out
        # Every data column, pinned: the windowed path's exact output.
        assert [row[1:] for row in windows_rows(out)] == [
            ["569", "49.9%", "2.99", "89.8%", "53.2%", "61"],
            ["629", "59.5%", "4.40", "91.1%", "56.1%", "75"],
            ["785", "67.1%", "6.13", "89.0%", "63.0%", "85"],
            ["756", "55.2%", "3.69", "91.3%", "54.9%", "77"],
            ["717", "56.1%", "3.83", "90.2%", "52.7%", "77"],
        ]

    def test_validate_command(self, capsys):
        assert main(["validate", "--requests", "6000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "calibration checks passed" in out
        assert "device share: mobile" in out

    def test_patterns_command_small(self, capsys):
        assert main(
            ["patterns", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--permutations", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "§5.1" in out
        assert "Table 3" in out

    def test_replay_command(self, capsys):
        assert main(
            ["replay", "--dataset", "long", "--requests", "2500",
             "--seed", "4", "--ttls", "60,600", "--edges", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "What-if TTL sweep" in out
        assert "ttl=60s" in out and "ttl=600s" in out

    def test_characterize_with_workers(self, capsys):
        assert main(
            ["characterize", "--requests", "2000", "--seed", "1",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Table 2" in out

    def test_characterize_from_logs_dir(self, tmp_path, capsys):
        from repro.logs.partition import write_partitioned
        from repro.synth.workload import WorkloadBuilder, short_term_config

        dataset = WorkloadBuilder(short_term_config(1500, seed=6)).build()
        root = tmp_path / "parts"
        write_partitioned(dataset.logs, root)
        assert main(
            ["characterize", "--logs-dir", str(root), "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_engine_bench_smoke(self, capsys):
        assert main(
            ["engine-bench", "--requests", "1500", "--seed", "3",
             "--workers", "2", "--backend", "thread"]
        ) == 0
        out = capsys.readouterr().out
        assert "Engine benchmark" in out
        assert "characterization results identical to serial: True" in out
        assert "HLL estimate" in out

    def test_periodicity_command_small(self, capsys):
        assert main(
            ["periodicity", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--permutations", "10", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "§5.1 — periodicity" in out
        assert "periodic JSON requests" in out

    def test_periodicity_checkpoint_resume(self, tmp_path, capsys):
        argv = ["periodicity", "--dataset", "long", "--requests", "2500",
                "--seed", "2", "--permutations", "5",
                "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "ckpt" / "periodicity-flows").is_dir()
        assert (tmp_path / "ckpt" / "periodicity-detect").is_dir()

    def test_ngram_command_small(self, capsys):
        assert main(
            ["ngram", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "clustered" in out

    def test_patterns_with_workers_matches_serial(self, capsys):
        argv_tail = ["--dataset", "long", "--requests", "3000",
                     "--seed", "2", "--permutations", "10"]
        assert main(["patterns"] + argv_tail) == 0
        serial_out = capsys.readouterr().out
        assert main(["patterns", "--workers", "2"] + argv_tail) == 0
        assert capsys.readouterr().out == serial_out

    def test_engine_bench_ngram_pipeline(self, capsys):
        assert main(
            ["engine-bench", "--requests", "1500", "--seed", "3",
             "--workers", "2", "--backend", "thread",
             "--pipeline", "ngram"]
        ) == 0
        out = capsys.readouterr().out
        assert "ngram results identical to serial: True" in out
        assert "characterization" not in out


def windows_rows(out):
    """The ``windows`` table's rows, one list of cells per window."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return [line.split() for line in lines[start + 1:] if line.strip()]


class TestWindowsCommand:
    def run_windows(self, argv, capsys):
        assert main(argv) == 0
        return windows_rows(capsys.readouterr().out)

    def write_stream(self, tmp_path, timestamps, overrides=None):
        overrides = overrides or {}
        path = tmp_path / "logs.jsonl"
        write_logs(
            [make_log(timestamp=ts, **overrides.get(ts, {})) for ts in timestamps],
            path,
        )
        return str(path)

    def test_labels_count_from_first_window_start(self, capsys):
        # Windows align to multiples of the width, so the first window
        # starts at or before the first record: its offset is +0s.
        rows = self.run_windows(
            ["windows", "--requests", "2000", "--seed", "5", "--window", "120"],
            capsys,
        )
        assert [row[0] for row in rows] == [
            "+0s", "+120s", "+240s", "+360s", "+480s"
        ]

    def test_gap_stream_prints_zero_row(self, tmp_path, capsys):
        logs = self.write_stream(
            tmp_path,
            [10.0, 20.0, 30.0, 70.0, 200.0],
            {
                20.0: dict(mime_type="text/html"),
                30.0: dict(
                    method=HttpMethod.POST,
                    request_bytes=10,
                    cache_status=CacheStatus.NO_STORE,
                    ttl_seconds=None,
                ),
            },
        )
        rows = self.run_windows(
            ["windows", "--logs", logs, "--window", "60"], capsys
        )
        assert [row[1:] for row in rows] == [
            ["3", "66.7%", "2.00", "66.7%", "50.0%", "1"],
            ["1", "100.0%", "inf", "100.0%", "0.0%", "1"],
            ["0", "0.0%", "0.00", "0.0%", "0.0%", "0"],
            ["1", "100.0%", "inf", "100.0%", "0.0%", "1"],
        ]

    def test_out_of_order_file_refused(self, tmp_path):
        logs = self.write_stream(tmp_path, [100.0, 10.0])
        with pytest.raises(ValueError, match="time-ordered"):
            main(["windows", "--logs", logs, "--window", "60"])
