"""Smoke tests of the perf harnesses: smallest preset, one model, 1 repeat.

Keeps the micro-benchmarks runnable end-to-end inside the tier-1 suite (and
the CI benchmark job) without asserting absolute timings -- CI machines are
too noisy for that; the committed ``BENCH_cycle_model.json`` /
``BENCH_compile.json`` snapshots are where the real perf trajectory lives.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parent / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_cycle_model = _load("bench_cycle_model")
bench_compile = _load("bench_compile")


def test_bench_emits_report(tmp_path):
    output = tmp_path / "BENCH_cycle_model.json"
    code = bench_cycle_model.main(
        [
            "--presets", "paper-28nm",
            "--models", "alexnet",
            "--repeats", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == "cycle_model"
    assert report["experiment"] == "fig7"
    assert set(report) >= {"version", "git_sha", "python", "cpu_count"}
    assert report["models"] == ["alexnet"]
    entry = report["presets"]["paper-28nm"]
    assert entry["scalar_s"] > 0 and entry["vectorized_s"] > 0
    assert entry["speedup"] == entry["scalar_s"] / entry["vectorized_s"]


def test_bench_rejects_bad_repeats(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        bench_cycle_model.main(["--repeats", "0"])
    capsys.readouterr()


def test_bench_compile_emits_report(tmp_path):
    output = tmp_path / "BENCH_compile.json"
    code = bench_compile.main(
        [
            "--preset", "paper-28nm",
            "--models", "alexnet",
            "--variant", "hybrid",
            "--repeats", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == "compile"
    assert report["preset"] == "paper-28nm"
    entry = report["models"]["alexnet"]
    assert entry["instructions"] > 0 and entry["segments"] > 0
    assert entry["compile_s"] > 0 and entry["trace_s"] > 0
    assert entry["max_relative_error"] <= 1e-4


def test_bench_compile_graph_workload_row(tmp_path):
    """The bench covers graph workloads: a transformer row with joins."""
    output = tmp_path / "BENCH_compile.json"
    code = bench_compile.main(
        [
            "--preset", "paper-28nm",
            "--models", "vit_tiny",
            "--variant", "hybrid",
            "--repeats", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    entry = json.loads(output.read_text())["models"]["vit_tiny"]
    assert entry["graph_nodes"] > entry["graph_joins"] > 0
    assert entry["residual_feature_bytes"] > 0
    assert entry["max_relative_error"] <= 1e-4


def test_bench_compile_rejects_bad_repeats(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        bench_compile.main(["--repeats", "0"])
    capsys.readouterr()


bench_serve = _load("bench_serve")


def test_bench_serve_emits_report(tmp_path):
    output = tmp_path / "BENCH_serve.json"
    code = bench_serve.main(
        [
            "--model", "alexnet",
            "--concurrency", "1", "4",
            "--requests", "8",
            "--repeats", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == "serve"
    assert report["cold_process_s"] > 0 and report["warm_single_s"] > 0
    assert (
        report["warm_speedup_vs_cold"]
        == report["cold_process_s"] / report["warm_single_s"]
    )
    assert set(report["throughput"]) == {"1", "4"}
    for entry in report["throughput"].values():
        assert entry["requests"] == 8
        assert entry["requests_per_s"] > 0


def test_bench_serve_rejects_bad_arguments(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        bench_serve.main(["--repeats", "0"])
    with pytest.raises(SystemExit):
        bench_serve.main(["--requests", "0"])
    with pytest.raises(SystemExit):
        bench_serve.main(["--concurrency", "0"])
    capsys.readouterr()


bench_dist = _load("bench_dist")


def test_bench_dist_emits_report(tmp_path):
    output = tmp_path / "BENCH_dist.json"
    code = bench_dist.main(
        [
            "--models", "alexnet", "mobilenetv2", "resnet18",
            "--shards", "3",
            "--workers", "1",
            "--repeats", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == "dist"
    assert report["cpu_count"] >= 1
    assert report["serial_s"] > 0
    assert report["broker_solo_s"] > 0
    assert report["broker_fleet_s"] > 0
    # Only reported after the gates pass, SIGKILL recovery included.
    assert report["byte_identical"] is True
    assert report["sigkill_recovery_byte_identical"] is True


def test_bench_dist_rejects_bad_arguments(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        bench_dist.main(["--repeats", "0"])
    with pytest.raises(SystemExit):
        bench_dist.main(["--workers", "0"])
    capsys.readouterr()


bench_profile = _load("bench_profile")


def test_bench_profile_emits_report(tmp_path):
    # One child per side, this checkout as both sides: exercises the
    # alternating comparison without a second tree.
    output = tmp_path / "BENCH_profile.json"
    code = bench_profile.main(
        [
            "--repeats", "1",
            "--baseline", str(bench_profile.SOURCE),
            "--baseline-label", "same",
            "--output", str(output),
        ]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert report["benchmark"] == "profile"
    assert set(report) >= {"version", "git_sha", "python", "cpu_count"}
    assert report["layers"] == 153
    assert set(report["sides"]) == {"change", "same"}
    for side in report["sides"].values():
        medians = {key: entry["median"] for key, entry in side.items()}
        assert medians["profile_layer"] > medians["rng_floor"] > 0
        assert medians["rng_floor"] == (
            medians["weights_rng"] + medians["activations_rng"]
        )
        assert medians["non_rng"] == (
            medians["profile_layer"] - medians["rng_floor"]
        )
    for key in ("non_rng", "stages_non_rng"):
        assert report[f"{key}_ratio"] > 0
        assert report[f"{key}_pairs_won"] in (0, 1)


def test_bench_profile_rejects_bad_arguments(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        bench_profile.main(["--repeats", "0"])
    with pytest.raises(SystemExit):
        bench_profile.main(["--baseline-label", "change"])
    capsys.readouterr()
