"""Tests for the packed sweep result store (``repro.store``).

Pins the self-indexing pack's contracts: the index is rebuilt by walking
frames (a torn final frame is an append in progress, silently unindexed
until the next writer truncates it; a damaged record mid-pack is a warned
miss and the scan continues past it), appends write only their new frames,
single-writer locking (live-holder rejection, stale-lock reclaim),
per-file-to-packed migration, byte-identical warm re-sweeps, and slim
journal resume restoring results byte-for-byte through the store.
"""

import json
import os
import warnings

import pytest

from repro.api import Experiment, build_grid, run_sweep
from repro.api.sweep import SweepJournal, cache_keys_for_grid
from repro.store import (
    DATA_FILENAME,
    PackedResultStore,
    PackedStoreError,
    PackedStoreLockedError,
    migrate_files_to_packed,
)
from repro.store.packed import _MAGIC

GRID_KWARGS = dict(experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2"))


@pytest.fixture(scope="module")
def results_by_key():
    """A handful of real (cache_key, ExperimentResult) pairs to store."""
    session = Experiment()
    grid = build_grid(**GRID_KWARGS)
    keys = cache_keys_for_grid(grid)
    pairs = {}
    for key, point in zip(keys, grid):
        pairs[key] = session.run(point.experiment, **point.params)
    return pairs


def _populate(tmp_path, results_by_key):
    store = PackedResultStore(tmp_path)
    store.append_many(list(results_by_key.items()))
    return store


class TestRoundTrip:
    def test_append_probe_get_many(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        assert store.probe(keys + ["absent"]) == frozenset(keys)
        fetched = store.get_many(keys)
        assert fetched == results_by_key
        assert store.get(keys[0]) == results_by_key[keys[0]]
        assert store.get("absent") is None
        assert len(store) == len(keys)

    def test_fresh_instance_reads_index_from_disk(
        self, tmp_path, results_by_key
    ):
        _populate(tmp_path, results_by_key)
        reader = PackedResultStore(tmp_path)
        assert reader.get_many(results_by_key) == results_by_key

    def test_append_is_idempotent_per_key(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        size = store.data_path.stat().st_size
        locations = store.append_many(list(results_by_key.items()))
        assert store.data_path.stat().st_size == size  # nothing re-written
        assert set(locations) == set(results_by_key)

    def test_locate_covers_present_keys_only(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys + ["absent"])
        assert set(locations) == set(keys)
        offset, length = locations[keys[0]]
        assert offset > 0 and length > 0

    def test_replaced_pack_is_rescanned_from_the_start(
        self, tmp_path, results_by_key
    ):
        keys = list(results_by_key)
        reader = _populate(tmp_path, results_by_key)
        assert reader.probe(keys) == frozenset(keys)
        reader.data_path.unlink()  # the cache was cleared ...
        _populate(tmp_path, {keys[0]: results_by_key[keys[0]]})  # ... refilled
        assert reader.probe(keys) == frozenset(keys[:1])
        assert reader.get_many(keys) == {keys[0]: results_by_key[keys[0]]}

    def test_maybe_refresh_sees_other_writer(self, tmp_path, results_by_key):
        keys = list(results_by_key)
        first, rest = keys[:1], keys[1:]
        writer = PackedResultStore(tmp_path)
        writer.append_many([(first[0], results_by_key[first[0]])])
        reader = PackedResultStore(tmp_path)
        assert reader.probe(keys) == frozenset(first)
        writer2 = PackedResultStore(tmp_path)  # a separate process, in spirit
        writer2.append_many([(k, results_by_key[k]) for k in rest])
        reader.maybe_refresh()
        assert reader.probe(keys) == frozenset(keys)

    def test_append_writes_only_new_frames_and_fsyncs_once(
        self, tmp_path, results_by_key, monkeypatch
    ):
        keys = list(results_by_key)
        store = _populate(tmp_path, {keys[0]: results_by_key[keys[0]]})
        before = store.data_path.read_bytes()
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        locations = store.append_many(list(results_by_key.items()))
        after = store.data_path.read_bytes()
        assert len(synced) == 1
        assert after[: len(before)] == before  # old bytes untouched
        assert len(after) - len(before) == sum(
            locations[k][1] for k in keys[1:]
        )
        assert [p.name for p in tmp_path.iterdir()] == [DATA_FILENAME]

    def test_duplicate_key_in_one_batch_is_written_once(
        self, tmp_path, results_by_key
    ):
        key, result = next(iter(results_by_key.items()))
        store = PackedResultStore(tmp_path)
        locations = store.append_many([(key, result), (key, result)])
        assert len(store) == 1
        size = store.data_path.stat().st_size
        assert size == len(_MAGIC) + locations[key][1]

    def test_index_scan_unpickles_nothing(
        self, tmp_path, results_by_key, monkeypatch
    ):
        import repro.store.packed as packed_module

        _populate(tmp_path, results_by_key)

        def no_unpickling(*args, **kwargs):
            raise AssertionError("the index scan unpickled a payload")

        monkeypatch.setattr(packed_module.pickle, "loads", no_unpickling)
        reader = PackedResultStore(tmp_path)
        assert reader.probe(results_by_key) == frozenset(results_by_key)
        assert len(reader) == len(results_by_key)


def _tamper(store, mutate):
    """Rewrite ``pack.data`` through ``mutate(bytearray)``."""
    data = bytearray(store.data_path.read_bytes())
    mutate(data)
    store.data_path.write_bytes(bytes(data))


class TestCorruptionRecovery:
    def test_torn_final_frame_is_silent_until_the_next_append(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys)
        last_key = max(keys, key=lambda k: locations[k][0])
        _tamper(store, lambda data: data.__delitem__(slice(-7, None)))
        intact = {k: results_by_key[k] for k in keys if k != last_key}
        reader = PackedResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an append in progress, in spirit
            assert reader.probe(keys) == frozenset(intact)
            assert reader.get_many(keys) == intact
        writer = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="incomplete record"):
            writer.append_many([(last_key, results_by_key[last_key])])
        fresh = PackedResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fresh.get_many(keys) == results_by_key
        assert fresh.data_path.stat().st_size == sum(
            length for _, length in fresh.locate(keys).values()
        ) + len(_MAGIC)

    def test_flipped_byte_mid_pack_is_a_warned_miss_and_the_scan_goes_on(
        self, tmp_path, results_by_key
    ):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        locations = store.locate(keys)
        ordered = sorted(keys, key=lambda k: locations[k][0])
        victim = ordered[1]  # a middle record: others before and after it
        offset, length = locations[victim]

        def flip(data):
            data[offset + length - 1] ^= 0xFF  # a payload byte

        _tamper(store, flip)
        reader = PackedResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            present = reader.probe(keys)
        assert present == frozenset(k for k in keys if k != victim)
        assert ordered[-1] in present  # records after the damage survive
        assert reader.get_many(keys) == {
            k: results_by_key[k] for k in keys if k != victim
        }

    def test_half_written_frame_is_invisible_until_completed(
        self, tmp_path, results_by_key
    ):
        keys = list(results_by_key)
        first, late = keys[:-1], keys[-1]
        store = _populate(tmp_path, {k: results_by_key[k] for k in first})
        scratch = _populate(tmp_path / "scratch", {late: results_by_key[late]})
        offset, length = scratch.locate([late])[late]
        frame = scratch.data_path.read_bytes()[offset : offset + length]
        reader = PackedResultStore(tmp_path)
        assert reader.probe(keys) == frozenset(first)
        with open(store.data_path, "ab") as handle:
            handle.write(frame[: length // 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.probe(keys) == frozenset(first)
        with open(store.data_path, "ab") as handle:
            handle.write(frame[length // 2 :])
        reader.maybe_refresh()
        assert reader.probe(keys) == frozenset(keys)
        assert reader.get_many([late]) == {late: results_by_key[late]}

    def test_partial_magic_is_an_append_in_progress(
        self, tmp_path, results_by_key
    ):
        (tmp_path / DATA_FILENAME).write_bytes(_MAGIC[:4])
        store = PackedResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.probe(results_by_key) == frozenset()
        with pytest.warns(RuntimeWarning, match="incomplete record"):
            store.append_many(list(results_by_key.items()))
        assert PackedResultStore(tmp_path).get_many(results_by_key) == (
            results_by_key
        )

    def test_bad_magic_raises(self, tmp_path):
        (tmp_path / DATA_FILENAME).write_bytes(b"not a pack at all")
        with pytest.raises(PackedStoreError, match="bad magic"):
            PackedResultStore(tmp_path).probe(["key"])

    def test_previous_pack_generation_raises(self, tmp_path, results_by_key):
        old = b"RPRPACK1\n" + bytes(64)
        (tmp_path / DATA_FILENAME).write_bytes(old)
        store = PackedResultStore(tmp_path)
        with pytest.raises(PackedStoreError, match="delete it") as excinfo:
            store.probe(["key"])
        assert str(store.data_path) in str(excinfo.value)
        with pytest.raises(PackedStoreError, match="bad magic"):
            store.append_many(list(results_by_key.items()))
        assert (tmp_path / DATA_FILENAME).read_bytes() == old  # untouched
        assert not store.lock_path.exists()

    def test_damaged_record_read_is_a_miss(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        keys = list(results_by_key)
        victim = keys[0]
        offset, length = store.locate([victim])[victim]
        reader = PackedResultStore(tmp_path)
        assert reader.probe(keys) == frozenset(keys)  # indexed before damage

        def flip(data):
            data[offset + length - 1] ^= 0xFF  # CRC now mismatches

        _tamper(store, flip)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            fetched = reader.get_many(keys)
        assert fetched == {k: results_by_key[k] for k in keys if k != victim}

    def test_record_for_another_key_is_a_miss(self, tmp_path, results_by_key):
        store = _populate(tmp_path, results_by_key)
        victim, other = list(results_by_key)[:2]
        # A location pointing at some other intact record.
        store._entries[victim] = store._entries[other]
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert store.get_many([victim]) == {}


class TestWriterLock:
    def test_live_holder_rejects_second_writer(
        self, tmp_path, results_by_key
    ):
        store = PackedResultStore(tmp_path)
        store._acquire_lock()
        try:
            other = PackedResultStore(tmp_path)
            with pytest.raises(PackedStoreLockedError, match="live"):
                other.append_many(list(results_by_key.items()))
        finally:
            store._release_lock()

    def test_stale_lock_is_reclaimed(self, tmp_path, results_by_key):
        store = PackedResultStore(tmp_path)
        store.directory.mkdir(parents=True, exist_ok=True)
        store.lock_path.write_text("999999999\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="stale pack lock"):
            store.append_many(list(results_by_key.items()))
        assert not store.lock_path.exists()
        assert store.probe(results_by_key) == frozenset(results_by_key)


class TestMigration:
    def test_migrate_files_to_packed(self, tmp_path, results_by_key):
        for key, result in results_by_key.items():
            result.save(tmp_path / f"{key}.json")
        assert migrate_files_to_packed(tmp_path) == len(results_by_key)
        assert migrate_files_to_packed(tmp_path) == 0  # idempotent
        store = PackedResultStore(tmp_path)
        assert store.get_many(results_by_key) == results_by_key
        # The source files are left in place.
        assert len(list(tmp_path.glob("*.json"))) == len(results_by_key)

    def test_migration_skips_unreadable_entries(
        self, tmp_path, results_by_key
    ):
        for key, result in results_by_key.items():
            result.save(tmp_path / f"{key}.json")
        (tmp_path / "deadbeef.json").write_text("{ torn", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            assert migrate_files_to_packed(tmp_path) == len(results_by_key)


class TestSweeps:
    def test_cold_then_warm_256_seed_sweep_is_byte_identical(self, tmp_path):
        kwargs = dict(
            experiments=("table4",),
            seeds=tuple(range(256)),
            cache_dir=tmp_path / "cache",
            transport="serial",
        )
        cold = run_sweep(**kwargs)
        warm = run_sweep(**kwargs)
        assert cold.cache_misses == 256
        assert warm.cache_hits == 256 and warm.cache_misses == 0
        assert [r.to_json() for r in warm.results] == [
            r.to_json() for r in cold.results
        ]

    def test_sweep_leaves_only_pack_data(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=tmp_path / "sweep.jsonl",
            transport="serial",
        )
        assert [p.name for p in cache.iterdir()] == [DATA_FILENAME]

    def test_migrated_cache_serves_hits(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        reference = run_sweep(**GRID_KWARGS, transport="serial")
        keys = cache_keys_for_grid(build_grid(**GRID_KWARGS))
        for key, result in zip(keys, reference.results):
            result.save(cache / f"{key}.json")
        assert migrate_files_to_packed(cache) == len(keys)
        warm = run_sweep(**GRID_KWARGS, cache_dir=cache, transport="serial")
        assert [r.to_json() for r in warm.results] == [
            r.to_json() for r in reference.results
        ]
        assert warm.cache_hits == len(warm.results)

    def test_planner_probe_matches_store_state(self, tmp_path):
        from repro.api import ShardPlanner

        cache = tmp_path / "cache"
        run_sweep(experiments=("table4",), cache_dir=cache, transport="serial")
        grid = build_grid(**GRID_KWARGS) + build_grid(experiments=("table4",))
        stored = PackedResultStore(cache).probe(cache_keys_for_grid(grid))
        expected_warm = sum(
            1 for key in cache_keys_for_grid(grid) if key in stored
        )
        plan = ShardPlanner(cache_dir=cache).plan(grid)
        assert plan.warm_points == expected_warm  # the stored table4 points
        assert expected_warm > 0
        assert plan.cold_points == len(grid) - expected_warm

    def test_other_cache_backends_rejected(self, tmp_path):
        from repro.api import ShardPlanner

        with pytest.raises(ValueError, match="migrate_files_to_packed"):
            run_sweep(**GRID_KWARGS, cache_backend="files")
        with pytest.raises(TypeError):
            ShardPlanner(cache_dir=tmp_path, cache_backend="packed")


class TestSlimJournal:
    def test_packed_journal_uses_point_refs(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(
            **GRID_KWARGS,
            cache_dir=tmp_path / "cache",
            journal=journal,
            transport="serial",
        )
        kinds = [
            json.loads(line)["kind"]
            for line in journal.read_text().splitlines()
        ]
        assert kinds[0] == "header"
        assert set(kinds[1:]) == {"point-ref"}
        for line in journal.read_text().splitlines()[1:]:
            payload = json.loads(line)
            assert "result" not in payload
            assert payload["store"]["length"] > 0

    def test_slim_resume_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal,
            transport="serial",
        )
        # Simulate an interruption: drop the tail of the journal, keeping
        # the header and the first journaled shard lines.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[: 1 + len(lines) // 2]))
        resumed = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal,
            transport="serial",
            resume=True,
        )
        # Identical results bytes; the hit counters report this
        # invocation's work (un-journaled points restore from the store as
        # hits).
        assert [r.to_dict() for r in resumed.results] == [
            r.to_dict() for r in reference.results
        ]
        assert resumed.stats.journaled_points > 0
        assert resumed.stats.journaled_points + resumed.cache_hits == len(
            reference.results
        )

    def test_ref_with_lost_record_recomputes(self, tmp_path):
        cache = tmp_path / "cache"
        journal = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            experiments=("table4",),
            cache_dir=cache,
            journal=journal,
            transport="serial",
        )
        # Destroy the store: every journal ref now dangles.
        (cache / DATA_FILENAME).unlink()
        with pytest.warns(RuntimeWarning, match="cannot be read"):
            resumed = run_sweep(
                experiments=("table4",),
                cache_dir=cache,
                journal=journal,
                transport="serial",
                resume=True,
            )
        assert resumed.to_json() == reference.to_json()
        assert resumed.stats.journaled_points == 0  # recomputed, not restored

    def test_full_records_still_load_alongside_refs(self, tmp_path):
        cache = tmp_path / "cache"
        journal_path = tmp_path / "sweep.jsonl"
        reference = run_sweep(
            **GRID_KWARGS,
            cache_dir=cache,
            journal=journal_path,
            transport="serial",
        )
        # Rewrite one ref line as a legacy full record; load must accept
        # the mix (lock-contended shards journal in full).
        lines = journal_path.read_text().splitlines()
        payload = json.loads(lines[1])
        store = PackedResultStore(cache)
        result = store.get(payload["cache_key"])
        payload.pop("store")
        payload["kind"] = "point"
        payload["result"] = result.to_dict()
        lines[1] = json.dumps(payload, sort_keys=True)
        journal_path.write_text("".join(line + "\n" for line in lines))
        journal = SweepJournal(journal_path)
        entries = journal.load(store=store)
        assert len(entries) == len(reference.results)
        assert entries[payload["cache_key"]][0] == result


class TestLoadWithoutStore:
    def test_refs_without_store_warn_and_skip(self, tmp_path):
        cache = tmp_path / "cache"
        journal_path = tmp_path / "sweep.jsonl"
        run_sweep(
            experiments=("table4",),
            cache_dir=cache,
            journal=journal_path,
            transport="serial",
        )
        journal = SweepJournal(journal_path)
        with pytest.warns(RuntimeWarning, match="no store given"):
            assert journal.load() == {}
