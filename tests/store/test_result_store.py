"""The :class:`repro.store.ResultStore` contract, held for both backends.

Whatever :func:`repro.store.open_store` returns must round-trip results
(probe -> append_many -> probe/get_many), answer ``locate`` for slim
journal refs (the per-file layout has no locations), and read a damaged
entry as a miss with a :class:`RuntimeWarning` -- never an exception.
"""

import pytest

from repro.api import Experiment
from repro.store import (
    CACHE_BACKENDS,
    FileResultStore,
    PackedResultStore,
    open_store,
)


@pytest.fixture(scope="module")
def entries():
    session = Experiment()
    return {
        "k-table4": session.run("table4"),
        "k-table1": session.run("table1"),
    }


def _corrupt(store, key):
    """Damage one stored entry in the backend's own layout."""
    if isinstance(store, PackedResultStore):
        offset, _ = store.locate([key])[key]
        data = bytearray(store.data_path.read_bytes())
        data[offset + 12] ^= 0xFF  # flip a payload byte; the CRC mismatches
        store.data_path.write_bytes(bytes(data))
    else:
        (store.directory / f"{key}.json").write_text("{ torn", encoding="utf-8")


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
class TestResultStoreContract:
    def test_round_trip(self, tmp_path, backend, entries):
        store = open_store(tmp_path / "cache", backend)
        keys = list(entries)
        assert store.probe(keys) == frozenset()
        assert store.get_many(keys) == {}
        store.append_many(list(entries.items()))
        assert store.probe(keys + ["absent"]) == frozenset(keys)
        fetched = store.get_many(keys + ["absent"])
        assert {k: r.to_json() for k, r in fetched.items()} == {
            k: r.to_json() for k, r in entries.items()
        }
        # A second instance reads what the first one wrote.
        reopened = open_store(tmp_path / "cache", backend)
        assert reopened.get_many(keys) == fetched
        locations = store.locate(keys)
        if backend == "packed":
            assert set(locations) == set(keys)
        else:
            assert locations == {}

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path, backend, entries):
        store = open_store(tmp_path, backend)
        store.append_many(list(entries.items()))
        victim, survivor = list(entries)
        _corrupt(store, victim)
        reader = open_store(tmp_path, backend)
        with pytest.warns(RuntimeWarning):
            fetched = reader.get_many([victim, survivor])
        assert list(fetched) == [survivor]


class TestOpenStore:
    def test_backends_and_validation(self, tmp_path):
        assert isinstance(open_store(tmp_path, "files"), FileResultStore)
        assert isinstance(open_store(tmp_path, "packed"), PackedResultStore)
        assert open_store(None, "packed") is None
        with pytest.raises(ValueError, match="unknown cache backend"):
            open_store(None, "sqlite")

    def test_files_rewrite_replaces_a_damaged_entry(self, tmp_path, entries):
        store = FileResultStore(tmp_path / "fresh")  # directory made lazily
        key, result = next(iter(entries.items()))
        store.append_many([(key, result)])
        _corrupt(store, key)
        store.append_many([(key, result)])
        assert store.get_many([key])[key].to_json() == result.to_json()
