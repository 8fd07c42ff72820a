"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import grid2d, write_metis


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "grid.graph"
    write_metis(grid2d(6, 6), path)
    return str(path)


@pytest.fixture
def json_graph_file(tmp_path):
    from repro.graphs import write_json

    path = tmp_path / "grid.json"
    write_json(grid2d(6, 6), path)
    return str(path)


class TestParser:
    def test_partition_args(self):
        args = build_parser().parse_args(
            ["partition", "g.graph", "-k", "4", "--method", "rsb"]
        )
        assert args.command == "partition"
        assert args.parts == 4
        assert args.method == "rsb"

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "table1", "--mode", "full"])
        assert args.table == "table1"
        assert args.mode == "full"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "g.graph", "-k", "2", "--method", "magic"]
            )

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_front_flag_rejected(self, capsys):
        """Removed ``serve`` flags (``--front`` with the thread front,
        the process-lane flags with the process lane, the racing
        portfolio and the periodic snapshot pass) error with the flag's
        name instead of silently serving."""
        for argv in (
            ("--front", "thread"),
            ("--process-workers", "2"),
            ("--process-threshold", "0"),
            ("--racing-portfolio",),
            ("--snapshot-interval", "5"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *argv])
            assert argv[0] in capsys.readouterr().err


class TestPartitionCommand:
    @pytest.mark.parametrize("method", ["rsb", "rgb", "kl", "greedy", "random"])
    def test_baseline_methods(self, graph_file, method, capsys):
        rc = main(["partition", graph_file, "-k", "4", "--method", method])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"method={method}" in out
        assert "cut=" in out

    @pytest.mark.parametrize("method", ["ibp", "rcb"])
    def test_coordinate_methods_on_json(self, json_graph_file, method, capsys):
        rc = main(["partition", json_graph_file, "-k", "4", "--method", method])
        assert rc == 0
        assert f"method={method}" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["ibp", "rcb"])
    def test_coordinate_methods_need_coords(self, graph_file, method, capsys):
        rc = main(["partition", graph_file, "-k", "4", "--method", method])
        assert rc == 1
        assert "coordinates" in capsys.readouterr().err

    def test_dknux_method(self, graph_file, capsys):
        rc = main(
            ["partition", graph_file, "-k", "2", "--method", "dknux", "--seed", "1"]
        )
        assert rc == 0
        assert "method=dknux" in capsys.readouterr().out

    def test_output_file(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "assign.txt"
        rc = main(
            [
                "partition",
                graph_file,
                "-k",
                "2",
                "--method",
                "rsb",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        labels = np.loadtxt(out_file, dtype=int)
        assert labels.shape == (36,)
        assert set(labels.tolist()) == {0, 1}


class TestInfoCommand:
    def test_info(self, graph_file, capsys):
        rc = main(["info", graph_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes      : 36" in out
        assert "components : 1" in out


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        rc = main(["workloads"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "78" in out
        assert "183+60" in out


class TestServeCommand:
    @pytest.fixture
    def launched(self, monkeypatch):
        """Record what ``serve`` would start instead of starting it."""
        import repro.service
        import repro.service.sharding

        calls = []

        class RecordingShardServer:
            address = "127.0.0.1:0"

            def __init__(self, **kwargs):
                calls.append(("ShardServer", kwargs))

            def serve_forever(self):
                pass

            def close(self):
                pass

        monkeypatch.setattr(
            repro.service, "serve",
            lambda **kwargs: calls.append(("serve", kwargs)),
        )
        monkeypatch.setattr(
            repro.service.sharding, "ShardServer", RecordingShardServer
        )
        return calls

    @pytest.mark.parametrize(
        "role", [[], ["--shard-listen", "127.0.0.1:0"]],
        ids=["single-process", "shard-listen"],
    )
    def test_probe_interval_needs_a_sharded_front(
        self, launched, capsys, role
    ):
        """Only a sharded front probes shards: a single process or a
        shard worker refuses ``--probe-interval`` instead of serving
        without probes."""
        rc = main(["serve", *role, "--probe-interval", "1"])
        assert launched == []
        assert rc == 1
        err = capsys.readouterr().err
        assert "--probe-interval" in err
        assert "--shards" in err and "--attach-shard" in err

    @pytest.mark.parametrize(
        "front", [["--shards", "2"], ["--attach-shard", "127.0.0.1:1"]],
        ids=["shards", "attach-shard"],
    )
    def test_probe_interval_reaches_a_sharded_front(self, launched, front):
        assert main(["serve", *front, "--probe-interval", "1"]) == 0
        ((what, kwargs),) = launched
        assert what == "serve"
        assert kwargs["probe_interval_s"] == 1.0


class TestExperimentCommand:
    def test_runs_small_table(self, capsys, monkeypatch):
        """Run table1 through the CLI with a tiny budget via monkeypatched
        quick settings."""
        from repro.experiments.runner import RunnerSettings
        from repro.ga import GAConfig

        tiny = RunnerSettings(
            n_runs=1,
            ga_config=GAConfig(population_size=16, max_generations=5),
        )
        monkeypatch.setattr(
            RunnerSettings, "quick", classmethod(lambda cls: tiny)
        )
        rc = main(["experiment", "table1", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TABLE1" in out
        assert "paper-DKNUX" in out
