"""Tests for the ``repro`` command-line interface."""

import json

import pytest

from repro.api.cli import main
from repro.api.results import ExperimentResult, SweepResult


class TestList:
    def test_plain_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table4" in out
        assert "alexnet" in out
        assert "paper-28nm" in out

    def test_listing_enumerates_workload_graphs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Every family appears, with graph structure per workload.
        assert "vit_tiny" in out and "transformer" in out
        assert "joins" in out and "nodes" in out

    def test_json_listing(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [spec["id"] for spec in payload["experiments"]][:3] == [
            "fig2a", "fig2b", "fig7",
        ]
        assert "dense-baseline" in payload["configs"]
        assert "vit_tiny" in payload["workloads"]
        by_name = {entry["name"]: entry for entry in payload["graphs"]}
        assert by_name["resnet18"]["joins"] == 8
        assert by_name["vit_tiny"]["family"] == "transformer"

    def test_listing_enumerates_engines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "engines:" in out
        assert "scalar" in out and "vectorized" in out and "trace" in out

    def test_json_listing_includes_engine_capabilities(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        engines = {entry["name"]: entry for entry in payload["engines"]}
        assert engines["vectorized"]["cycle_model"] is True
        assert engines["trace"]["cycle_model"] is False
        assert engines["trace"]["trace_class"] is True

    def test_json_engine_entries_are_the_table(self, capsys):
        from repro.sim.engines import ENGINE_SPECS

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload["engines"]] == [
            spec.name for spec in ENGINE_SPECS
        ]
        for entry in payload["engines"]:
            assert set(entry) == {
                "name", "title", "cycle_model", "trace_class",
            }

    def test_engine_rows_are_the_table(self, capsys):
        from repro.sim.engines import ENGINE_SPECS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        rows = out.split("engines:\n", 1)[1].split("configs:", 1)[0]
        names = [line.split()[0] for line in rows.splitlines() if line]
        assert names == [spec.name for spec in ENGINE_SPECS]
        assert "unavailable" not in out


class TestRun:
    def test_run_table4_prints_table_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "table4.json"
        assert main(["run", "table4", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Total" in out
        result = ExperimentResult.load(out_path)
        assert result.experiment == "table4"
        assert result.rows[-1].module == "Total"

    def test_run_fig7_with_models_json_stdout(self, capsys):
        assert main(["run", "fig7", "--models", "alexnet", "--json", "-", "--quiet"]) == 0
        result = ExperimentResult.from_json(capsys.readouterr().out)
        assert result.experiment == "fig7"
        assert [row.model for row in result.rows] == ["alexnet"]

    def test_json_stdout_carries_only_json_and_the_table_goes_to_stderr(
        self, capsys
    ):
        assert main(["run", "table4", "--json", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["experiment"] == "table4"
        assert "Table 4" in captured.err and "Total" in captured.err

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, capsys):
        assert main(["run", "fig7", "--models", "no-such-net"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_models_flag_rejected_for_model_free_experiment(self, capsys):
        assert main(["run", "table4", "--models", "alexnet"]) == 2
        assert "does not take --models" in capsys.readouterr().err

    def test_epochs_flag_rejected_outside_table2(self, capsys):
        assert main(["run", "fig7", "--epochs", "3"]) == 2
        assert "does not take --epochs" in capsys.readouterr().err

    def test_workload_alias_selects_models(self, capsys):
        argv = ["run", "graph", "--workload", "vit_tiny", "--json", "-", "--quiet"]
        assert main(argv) == 0
        result = ExperimentResult.from_json(capsys.readouterr().out)
        assert result.experiment == "graph"
        assert [row.model for row in result.rows] == ["vit_tiny"]
        assert result.rows[0].family == "transformer"
        assert result.rows[0].joins > 0

    def test_unknown_workload_via_alias_exits_2(self, capsys):
        assert main(["run", "graph", "--workload", "vgg99"]) == 2
        err = capsys.readouterr().err
        assert "repro: error" in err and "unknown workload" in err

    def test_trace_engine_rejected_outside_program(self, capsys):
        assert main(["run", "fig7", "--engine", "trace"]) == 2
        assert "only" in capsys.readouterr().err

    def test_unknown_engine_exits_2_with_suggestion(self, capsys):
        assert main(["run", "fig7", "--engine", "vectorised"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "did you mean: vectorized" in err

    def test_unknown_engine_lists_registry(self, capsys):
        assert main(["run", "fig7", "--engine", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "scalar" in err and "vectorized" in err and "trace" in err

    def test_jit_is_an_ordinary_unknown_engine(self, capsys):
        assert main(["run", "fig7", "--engine", "jit"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine 'jit'" in err
        assert "not installed" not in err

    def test_program_runs_transformer_workload(self, capsys):
        argv = [
            "run", "program", "--workload", "transformer_tiny",
            "--engine", "trace", "--json", "-", "--quiet",
        ]
        assert main(argv) == 0
        result = ExperimentResult.from_json(capsys.readouterr().out)
        (row,) = result.rows
        assert row.model == "transformer_tiny"
        assert row.max_relative_error <= 1e-4


class TestSweep:
    def test_sweep_writes_json_and_uses_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        out_path = tmp_path / "sweep.json"
        argv = [
            "sweep",
            "--experiments", "table1", "table4",
            "--cache-dir", str(cache_dir),
            "--json", str(out_path),
            "--quiet",
        ]
        assert main(argv) == 0
        sweep = SweepResult.load(out_path)
        assert sweep.cache_misses == 2 and sweep.cache_hits == 0
        assert main(argv) == 0
        warm = SweepResult.load(out_path)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.results == sweep.results

    def test_sweep_caches_transformer_program_points(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep",
            "--experiments", "program", "graph",
            "--models", "vit_tiny",
            "--cache-dir", str(cache_dir),
            "--quiet",
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # warm cache: no recompute
        out_path = tmp_path / "sweep.json"
        assert main(argv + ["--json", str(out_path)]) == 0
        sweep = SweepResult.load(out_path)
        assert sweep.cache_hits == 2 and sweep.cache_misses == 0
        assert {r.experiment for r in sweep.results} == {"program", "graph"}
        assert all(r.params["models"] == ["vit_tiny"] for r in sweep.results)

    def test_sweep_rejects_non_cycle_model_engine(self, capsys):
        # The sweep grid only runs cycle-model engines: 'trace' is a
        # registered engine but not a candidate here.
        assert main(["sweep", "--experiments", "table4",
                     "--engine", "trace"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "scalar" in err and "vectorized" in err

    def test_sweep_unknown_engine_suggests(self, capsys):
        assert main(["sweep", "--experiments", "table4",
                     "--engine", "scaler"]) == 2
        assert "did you mean: scalar" in capsys.readouterr().err

    def test_distributed_transport_needs_sweep_dir(self, capsys):
        assert main(["sweep", "--experiments", "table4",
                     "--transport", "broker"]) == 2
        assert "needs --sweep-dir" in capsys.readouterr().err

    def test_sweep_dir_needs_distributed_transport(self, capsys, tmp_path):
        assert main(["sweep", "--experiments", "table4",
                     "--transport", "serial",
                     "--sweep-dir", str(tmp_path / "sweep")]) == 2
        assert "only applies to a distributed transport" in (
            capsys.readouterr().err
        )

    def test_sweep_prints_sections(self, capsys):
        assert main(["sweep", "--experiments", "table4"]) == 0
        out = capsys.readouterr().out
        assert "--- table4" in out
        assert "1 result(s)" in out
        assert "executor=thread" in out  # service stats line

    def test_sweep_json_stdout_carries_only_json(self, capsys):
        argv = ["sweep", "--experiments", "table4", "fig7", "--models",
                "alexnet", "--transport", "serial", "--json", "-"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert SweepResult.from_json(captured.out).cache_misses == 2
        assert len(payload["results"]) == 2
        assert "--- table4" in captured.err and "executor=serial" in captured.err

    def test_sweep_transports_agree(self, capsys, tmp_path):
        results = {}
        for transport in ("serial", "thread", "process"):
            out_path = tmp_path / f"{transport}.json"
            argv = [
                "sweep", "--experiments", "fig7", "--models", "alexnet",
                "--transport", transport, "--json", str(out_path), "--quiet",
            ]
            assert main(argv) == 0
            results[transport] = SweepResult.load(out_path)
        assert results["serial"] == results["thread"] == results["process"]

    def test_serve_cache_backend_option_is_gone(self, capsys):
        from repro.api.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--cache-backend", "packed"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "removed", [["--executor", "serial"], ["--cache-backend", "files"]]
    )
    def test_sweep_removed_options_exit_2(self, capsys, removed):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--experiments", "table4", *removed])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_journal_and_resume(self, capsys, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        out_path = tmp_path / "sweep.json"
        base = [
            "sweep", "--experiments", "fig7", "table4", "--models", "alexnet",
            "--transport", "serial", "--shards", "2",
            "--journal", str(journal), "--quiet",
        ]
        assert main(base + ["--json", str(out_path)]) == 0
        first = SweepResult.load(out_path)
        assert journal.exists()
        assert main(base + ["--resume", "--json", str(out_path)]) == 0
        resumed = SweepResult.load(out_path)
        assert resumed == first  # byte-identical payload, nothing recomputed

    def test_sweep_resume_requires_journal(self, capsys):
        assert main(["sweep", "--experiments", "table4", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_sweep_rejects_bad_shards_and_workers(self, capsys):
        assert main(["sweep", "--experiments", "table4", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["sweep", "--experiments", "table4", "--max-workers", "0"]) == 2
        assert "--max-workers" in capsys.readouterr().err


class TestDidYouMean:
    def test_misspelled_experiment_suggests_and_exits_2(self, capsys):
        assert main(["run", "tabel4"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "table4" in err
        assert "did you mean" in err

    def test_misspelled_config_suggests_and_exits_2(self, capsys):
        assert main(["run", "table4", "--config", "paper-28mn"]) == 2
        err = capsys.readouterr().err
        assert "unknown config preset" in err and "paper-28nm" in err
        assert "did you mean" in err

    def test_misspelled_workload_suggests_and_exits_2(self, capsys):
        assert main(["run", "fig7", "--models", "alexnt"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "alexnet" in err
        assert "did you mean" in err

    def test_sweep_misspelled_experiment_suggests(self, capsys):
        assert main(["sweep", "--experiments", "fig7", "grap"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "graph" in err

    def test_sweep_misspelled_config_suggests(self, capsys):
        assert main(["sweep", "--experiments", "table4",
                     "--configs", "dense-baselin"]) == 2
        err = capsys.readouterr().err
        assert "unknown config preset" in err and "dense-baseline" in err

    def test_unrelated_name_lists_available(self, capsys):
        assert main(["run", "zzz"]) == 2
        err = capsys.readouterr().err
        assert "available:" in err and "fig7" in err
