"""Resuming an interrupted sweep from its result store, on every transport.

A sweep persists each finished shard to its packed store, so a sweep that
fails (or is killed) part-way leaves the points of its finished shards
behind.  Re-running it against the same store -- named by ``cache_dir``,
or by ``journal`` when there is no ``cache_dir`` -- restores those points
as cache hits and computes only the rest, and its ``results`` are
byte-identical to an uninterrupted serial run.  Iterates over
:data:`repro.dist.TRANSPORTS`, like ``test_every_transport_matches_serial``.
"""

import pytest

import repro.api.execution as execution_module
from repro.api import SweepPointError, build_grid, run_sweep
from repro.api.sweep import cache_keys_for_grid
from repro.dist import TRANSPORTS
from repro.store import PackedResultStore

#: Three one-point shards in grid order: fig7/alexnet, fig7/mobilenetv2,
#: table4 (``shards=3`` puts each profile/input bundle in its own shard).
GRID_KWARGS = dict(
    experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2")
)

REAL_EXPERIMENT = execution_module.Experiment


@pytest.fixture(scope="module")
def uninterrupted():
    return run_sweep(transport="serial", **GRID_KWARGS)


def _experiment_failing_on(model, message):
    """An ``Experiment`` whose runs over ``model`` raise ``message``."""

    class Failing(REAL_EXPERIMENT):
        def run(self, experiment, **params):
            if model in (params.get("models") or []):
                raise RuntimeError(message)
            return super().run(experiment, **params)

    return Failing


@pytest.mark.parametrize("store_arg", ["cache_dir", "journal"])
@pytest.mark.parametrize("name", list(TRANSPORTS))
def test_every_transport_resumes_from_the_store(
    name, store_arg, uninterrupted, tmp_path, monkeypatch
):
    kwargs = dict(
        transport=name, max_workers=1, shards=3, **GRID_KWARGS,
        **{store_arg: tmp_path / "store"},
    )
    if TRANSPORTS[name].distributed:
        kwargs["sweep_dir"] = tmp_path / "sweep"
    keys = cache_keys_for_grid(build_grid(**GRID_KWARGS))

    # Interrupt the sweep after its first finished shard: the second
    # shard's point fails.  Process workers fork after the patch.
    monkeypatch.setattr(
        execution_module,
        "Experiment",
        _experiment_failing_on("mobilenetv2", "injected interruption"),
    )
    with pytest.raises(SweepPointError, match="injected interruption"):
        run_sweep(**kwargs)
    stored = PackedResultStore(tmp_path / "store").probe(keys)
    assert stored == {keys[0]}  # only the first shard finished

    # The re-run must not recompute the stored point: running it fails.
    monkeypatch.setattr(
        execution_module,
        "Experiment",
        _experiment_failing_on("alexnet", "restored point recomputed"),
    )
    resumed = run_sweep(resume=True, **kwargs)
    assert [r.to_json() for r in resumed.results] == [
        r.to_json() for r in uninterrupted.results
    ]
    assert resumed.cache_hits == 1 and resumed.cache_misses == 2
    assert resumed.stats.warm_points == 1 and resumed.stats.cold_points == 2
    assert PackedResultStore(tmp_path / "store").probe(keys) == set(keys)


@pytest.mark.parametrize("resume", [False, True])
def test_old_jsonl_journal_file_is_rejected_unread(tmp_path, resume):
    journal = tmp_path / "sweep.jsonl"
    old = b'{"kind": "header", "journal": "repro.api.sweep"}\n'
    journal.write_bytes(old)
    with pytest.raises(ValueError, match="names a packed result store"):
        run_sweep(
            transport="serial", journal=journal, resume=resume, **GRID_KWARGS
        )
    assert journal.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.jsonl"]


def test_old_jsonl_journal_file_is_ignored_with_a_cache_dir(
    uninterrupted, tmp_path
):
    journal = tmp_path / "sweep.jsonl"
    journal.write_text("not a store\n")
    sweep = run_sweep(
        transport="serial",
        cache_dir=tmp_path / "cache",
        journal=journal,
        **GRID_KWARGS,
    )
    assert sweep.results == uninterrupted.results
    assert journal.read_text() == "not a store\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "sweep.jsonl"]
